//! `url-bytes`: the byte-key stack under point churn and prefix scans.
//!
//! 2M `UrlCorpus` keys are bulk-loaded into `bsharded:4:bpma:128`. In the
//! timed phases one client runs a fixed number of ops — half gets of corpus
//! keys, a quarter inserts and a quarter removes of churn keys (twins of
//! corpus keys, see [`TwinPool`]) — while a scanner runs a fixed number of
//! prefix scans over host + stem + first-digit prefixes, each matching
//! about 10³–10⁴ keys. After each timed phase, a flush and quiet full scans
//! check the exact state and time the byte stack's full ordered scan.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pma_common::bytemap::ByteScanStats;
use pma_common::obs::clock::raw_now;
use pma_common::obs::Category;
use pma_common::{ConcurrentByteMap, Value};
use pma_workloads::{factory, UrlCorpus};

use crate::harness::{
    elapsed_ns, flush, phase_deadline, settle, setup_seconds, teardown_flushed, teardown_seconds,
    two_threads, Config, Phase, Sampler, Side, SETTLE_DEADLINE,
};
use crate::layers::{self, Values};
use crate::ledger::rss_bytes;
use crate::model::{prefix_span, Rng, TwinPool, TWIN_SUFFIX};
use crate::report::Outcome;
use crate::stats::Samples;

/// Corpus keys bulk-loaded.
pub const KEYS: usize = 2_000_000;
/// The byte engine under test.
pub const SPEC: &str = "bsharded:4:bpma:128";
/// Churn keys (twins) the client inserts and removes.
const TWINS: usize = 65_536;
/// Client ops per nominal second of the timed phases.
const CLIENT_OPS_PER_SECOND: u64 = 100_000;
/// Prefix scans per nominal second of the timed phases (at least 1,000 in
/// all, for a p99).
const PREFIX_SCANS_PER_SECOND: u64 = 8_000;
/// Maps a run loads, churns and drops, and timed phases on each of them.
/// Its load takes under a second and its drop milliseconds, so `setup_s`
/// and `teardown_s` need many of each.
const LIVES: u64 = 10;
const ROUNDS_PER_LIFE: u64 = 2;
/// Quiet full scans after each timed phase (at least 100 in all, for a
/// p90).
const AUDIT_SCANS_PER_ROUND: usize = 5;

/// A prefix and the most and least keys a scan of it may find.
struct Prefix {
    bytes: Vec<u8>,
    min: u64,
    max: u64,
}

/// Every host + stem prefix of the corpus, extended by each first digit of
/// the numeric tail.
fn prefixes(corpus: &[(Vec<u8>, Value)], twins: &TwinPool) -> Vec<Prefix> {
    let mut stems: Vec<&[u8]> = corpus.iter().map(|(k, _)| &k[..k.len() - 8]).collect();
    stems.dedup();
    stems.sort_unstable();
    stems.dedup();
    let mut out = Vec::new();
    for stem in stems {
        for d in b'0'..=b'9' {
            let mut bytes = stem.to_vec();
            bytes.push(d);
            let (lo, hi) = prefix_span(corpus, &bytes);
            if hi > lo {
                out.push(Prefix {
                    bytes,
                    min: (hi - lo) as u64,
                    max: (hi - lo + twins.in_span(lo, hi)) as u64,
                });
            }
        }
    }
    out
}

struct Shared<'a> {
    map: &'a Arc<dyn ConcurrentByteMap>,
    corpus: &'a [(Vec<u8>, Value)],
    prefixes: &'a [Prefix],
    /// Only the client mutates the twins; it holds the lock for a phase.
    twins: Mutex<TwinPool>,
}

#[derive(Default)]
struct ClientOut {
    gets: Samples,
    writes: Samples,
    side: Side,
}

#[derive(Default)]
struct ScannerOut {
    scans: Samples,
    side: Side,
}

impl AsMut<Side> for ClientOut {
    fn as_mut(&mut self) -> &mut Side {
        &mut self.side
    }
}

impl AsMut<Side> for ScannerOut {
    fn as_mut(&mut self) -> &mut Side {
        &mut self.side
    }
}

fn client(sh: &Shared, phase: &Phase, seed: u64, quota: u64, op_base: u64) -> ClientOut {
    let mut out = ClientOut {
        gets: Samples::with_capacity(quota as usize / 2 + 1024),
        writes: Samples::with_capacity(quota as usize / 2 + 1024),
        ..ClientOut::default()
    };
    let mut twins = sh.twins.lock().unwrap();
    let mut rng = Rng::new(seed, 1);
    let mut key = Vec::with_capacity(128);
    let mut op = op_base;
    out.side.run = phase.drive(0, quota, 256, |measured| {
        op += 1;
        let r = rng.below(4);
        if r < 2 {
            let (k, v) = &sh.corpus[rng.below(sh.corpus.len() as u64) as usize];
            let t = raw_now();
            let got = sh.map.get(k);
            let dt = elapsed_ns(t, raw_now());
            if measured {
                out.gets.push(dt);
            }
            if got != Some(*v) {
                out.side.wrong(|| {
                    format!(
                        "get({}) returned {got:?}, loaded {v}",
                        String::from_utf8_lossy(k)
                    )
                });
            }
        } else {
            let j = rng.below(twins.len() as u64) as usize;
            key.clear();
            key.extend_from_slice(&sh.corpus[twins.base_index(j)].0);
            key.extend_from_slice(TWIN_SUFFIX);
            let t = raw_now();
            if r == 2 {
                sh.map.insert(&key, op as Value);
            } else {
                sh.map.remove(&key);
            }
            let dt = elapsed_ns(t, raw_now());
            if measured {
                out.writes.push(dt);
            }
            if r == 2 {
                twins.insert(j, op as Value);
            } else {
                twins.remove(j);
            }
        }
    });
    out.side.attempted = out.side.run.calls;
    out
}

fn scanner(sh: &Shared, phase: &Phase, seed: u64, quota: u64) -> ScannerOut {
    let mut out = ScannerOut::default();
    let mut rng = Rng::new(seed, 2);
    let mut prev: Vec<u8> = Vec::with_capacity(128);
    out.side.run = phase.drive(1, quota, 16, |measured| {
        let p = &sh.prefixes[rng.below(sh.prefixes.len() as u64) as usize];
        let (mut count, mut unsorted, mut foreign) = (0u64, 0u64, 0u64);
        let t = raw_now();
        sh.map.prefix(&p.bytes, &mut |key, _| {
            if count > 0 && key <= prev.as_slice() {
                unsorted += 1;
            }
            if !key.starts_with(&p.bytes) {
                foreign += 1;
            }
            prev.clear();
            prev.extend_from_slice(key);
            count += 1;
        });
        let dt = elapsed_ns(t, raw_now());
        if unsorted > 0 || foreign > 0 || count < p.min || count > p.max {
            out.side.wrong(|| {
                format!(
                    "prefix scan of {}: {count} keys (expected {}..={}), {unsorted} out of order, {foreign} without the prefix",
                    String::from_utf8_lossy(&p.bytes),
                    p.min,
                    p.max
                )
            });
        }
        if measured {
            out.scans.push(dt);
        }
    });
    out.side.attempted = out.side.run.calls;
    out
}

/// Runs the client and the scanner side by side until both quotas are met
/// or `deadline` passes.
fn phase(
    sh: &Shared,
    deadline: Instant,
    seed: u64,
    quotas: (u64, u64),
    op_base: u64,
    out: &mut Outcome,
) -> (ClientOut, ScannerOut) {
    two_threads(
        deadline,
        ["bench-client-0", "bench-scanner"],
        |phase| client(sh, phase, seed, quotas.0, op_base),
        |phase| scanner(sh, phase, seed, quotas.1),
        out,
    )
}

/// After a flush, `len()` and every quiet full scan must equal the model
/// (the first mismatch fails the run). The scans are timed into `scans`.
/// Returns whether the flush returned.
fn audit(sh: &Shared, n: usize, scans: &mut Samples, elems: &mut u64, out: &mut Outcome) -> bool {
    let model: ByteScanStats = sh.twins.lock().unwrap().expected_scan(sh.corpus);
    let m = Arc::clone(sh.map);
    if !flush(move || m.flush(), out) {
        return false;
    }
    out.attempted += 1;
    let len = sh.map.len() as u64;
    if len != model.count {
        out.fail_run(format!(
            "len() = {len} after flush, model holds {}",
            model.count
        ));
    }
    for _ in 0..n {
        let t = raw_now();
        let full = sh.map.scan_all();
        scans.push(elapsed_ns(t, raw_now()));
        *elems += full.count;
        out.attempted += 1;
        if full != model {
            out.fail_run(format!(
                "full scan after flush gave {full:?}, model {model:?}"
            ));
            break;
        }
    }
    true
}

fn build(
    corpus: &[(Vec<u8>, Value)],
    out: &mut Outcome,
) -> Option<(Arc<dyn ConcurrentByteMap>, (f64, bool))> {
    let t0 = Instant::now();
    match factory::build_bytes_loaded(SPEC, corpus) {
        Ok(map) => {
            let settled = settle(t0, SETTLE_DEADLINE, &|| None);
            Some((map, settled))
        }
        Err(e) => {
            out.fail_run(format!("cannot build `{SPEC}`: {e}"));
            None
        }
    }
}

/// What the timed phases of a run measured, over all of its lives.
#[derive(Default)]
struct Measured {
    gets: Samples,
    writes: Samples,
    ranges: Samples,
    scans: Samples,
    client_ops: u64,
    client_ns: u64,
    scan_elems: u64,
}

/// A run is [`LIVES`] lives. A life loads and settles a map, warms it up
/// with the workload's own mix, then runs [`ROUNDS_PER_LIFE`] rounds of a
/// timed phase followed by a flush and the quiet audit scans, and drops the
/// map. Cutting the fixed work into many short rounds spread over the whole
/// run lets every metric sample the host's slow and fast spells alike.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut values = Values::new();
    let mut m = Measured::default();
    let corpus = UrlCorpus::new(cfg.seed).sorted_corpus(KEYS);
    let prefixes = prefixes(&corpus, &TwinPool::new(corpus.len(), TWINS));
    let rounds = LIVES * ROUNDS_PER_LIFE;
    let quotas = (
        CLIENT_OPS_PER_SECOND * cfg.seconds / rounds,
        (PREFIX_SCANS_PER_SECOND * cfg.seconds).max(1_000) / rounds,
    );
    let warm_up = (
        quotas.0 * ROUNDS_PER_LIFE / 2,
        quotas.1 * ROUNDS_PER_LIFE / 2,
    );
    // One deadline for all of the run's phases, so a stalled program still
    // lets the run end in time.
    let deadline = phase_deadline(cfg.seconds);
    let (mut setups, mut teardowns) = (Vec::new(), Vec::new());
    let mut rss_per_key = 0.0;
    let mut stall_ns = 0u64;
    let mut sampled = Vec::new();
    for life in 0..LIVES {
        let rss0 = rss_bytes();
        let Some((map, settled)) = build(&corpus, &mut out) else {
            break;
        };
        setups.push(settled);
        if life == 0 {
            rss_per_key = rss_bytes().saturating_sub(rss0) as f64 / corpus.len() as f64;
            values.insert(
                "bytes.model_bytes_per_key",
                map.memory_stats().map_or(0.0, |m| m.bytes_per_key()),
            );
        }
        let sh = Shared {
            map: &map,
            corpus: &corpus,
            prefixes: &prefixes,
            twins: Mutex::new(TwinPool::new(corpus.len(), TWINS)),
        };
        // Warm-up: the same mix, unmeasured.
        let seed = cfg.seed ^ (life << 32);
        let (warm, _) = phase(&sh, deadline, seed ^ 0xA5A5, warm_up, 0, &mut out);
        let mut op_base = warm.side.run.calls;
        let mut flushed = true;
        for round in 0..ROUNDS_PER_LIFE {
            let stall_before = map.maintenance_stats().map_or(0, |m| m.stall_ns);
            let sampler = cfg.trace.then(|| Sampler::start(None));
            let (c, s) = phase(
                &sh,
                deadline,
                seed ^ (round << 16),
                quotas,
                op_base,
                &mut out,
            );
            sampled.extend(sampler.map(Sampler::stop));
            stall_ns += map
                .maintenance_stats()
                .map_or(0, |m| m.stall_ns)
                .saturating_sub(stall_before);
            op_base += c.side.run.calls;
            m.gets.extend(&c.gets);
            m.writes.extend(&c.writes);
            m.ranges.extend(&s.scans);
            m.client_ops += c.side.run.measured;
            m.client_ns += c.side.run.measured_ns;
            flushed = audit(
                &sh,
                AUDIT_SCANS_PER_ROUND,
                &mut m.scans,
                &mut m.scan_elems,
                &mut out,
            );
            if !flushed {
                break;
            }
        }
        drop(sh);
        teardowns.extend(teardown_flushed(map, flushed, SPEC, &mut out));
        if !out.run_failures.is_empty() {
            // A stuck flush keeps loading the machine, and a wrong final
            // state already decides the run.
            break;
        }
    }

    out.e2e(
        "point_mops",
        m.client_ops as f64 / m.client_ns.max(1) as f64 * 1e3,
        "Mop/s",
        Some(m.client_ops as usize),
    );
    out.timing("get", "p99", 0.99, &mut m.gets, "us", 1e3);
    out.timing("write", "p99", 0.99, &mut m.writes, "us", 1e3);
    out.timing("range", "p99", 0.99, &mut m.ranges, "us", 1e3);
    out.e2e(
        "scan_meps",
        m.scan_elems as f64 / m.scans.total_ns().max(1) as f64 * 1e3,
        "Melem/s",
        Some(m.scans.len()),
    );
    out.timing("scan", "p90", 0.9, &mut m.scans, "ms", 1e6);
    let setup_s = setup_seconds(&setups, &mut out);
    out.e2e("setup_s", setup_s, "s", Some(setups.len()));
    out.e2e("rss_bytes_per_key", rss_per_key, "B/key", None);
    out.e2e(
        "teardown_s",
        teardown_seconds(&teardowns),
        "s",
        Some(teardowns.len()),
    );

    if cfg.trace {
        values.insert("bytes.maintenance_stall_ms", stall_ns as f64 / 1e6);
        for s in &sampled {
            let mut phase_values = Values::new();
            phase_values.insert(
                "core.epoch.reclaims",
                s.trace.count(&[Category::EpochReclaim]) as f64,
            );
            layers::bench_values(&mut phase_values, s);
            layers::add(&mut values, &phase_values);
        }
        values.insert(
            "bench.fail_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        layers::emit(&mut out, &values);
    }
    out
}
