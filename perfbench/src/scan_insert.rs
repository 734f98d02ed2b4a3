//! `scan-insert`: full ordered scans of an out-of-cache map while one client
//! runs gets and inserts (the paper's Figure 3 scenario on memory-bound
//! data).
//!
//! 16M keys `4k -> k` are bulk-loaded into `sharded:8:pma-batch:100` and
//! left to settle. In the timed phase one client runs a fixed number of
//! point ops — half gets of loaded keys, half inserts of fresh uniform keys —
//! while a scanner runs a fixed number of back-to-back `scan_all`s, each
//! followed by a burst of short `scan_range`s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pma_common::obs::clock::raw_now;
use pma_common::{ConcurrentMap, Key, Value};

use crate::extras;
use crate::harness::{
    build_u64, counters, elapsed_ns, flush, phase_deadline, setup_seconds, teardown,
    teardown_flushed, teardown_seconds, two_threads, Config, Phase, Sampler, Side,
};
use crate::layers::{self, Values};
use crate::ledger::rss_bytes;
use crate::model::{loaded_items, Fold, FreshKeys, Rng};
use crate::report::Outcome;
use crate::stats::Samples;

/// Keys bulk-loaded (≈1 GB resident once settled).
pub const KEYS: usize = 16_000_000;
/// The engine under test: the registry's default sharded configuration.
pub const SPEC: &str = "sharded:8:pma-batch:100";
/// Client ops per nominal second of the timed phases.
const CLIENT_OPS_PER_SECOND: u64 = 300_000;
/// Maps a run loads, works and drops. Each load and settling takes about six
/// seconds; a fourth life with a shorter warm-up made `point_mops` spread
/// more from run to run without steadying `teardown_s`.
const LIVES: u64 = 3;
/// Full scans in each life's timed phase (at least 100 in all, for a p90).
const SCANS_PER_LIFE: u64 = 34;
/// Full scans of a warm-up.
const WARM_UP_SCANS: u64 = 10;
/// Range scans after each full scan, and loaded keys each one spans.
const RANGES_PER_SCAN: u64 = 100;
const RANGE_KEYS: u64 = 1_000;
/// Range scans of the exact audit after the flush.
const AUDIT_RANGES: u64 = 2_000;
/// Isolated operations of the traced run's layer comparison.
const QUIET_SCANS: usize = 10;
const QUIET_GETS: u64 = 500_000;

struct Shared<'a> {
    map: &'a dyn ConcurrentMap,
    fresh: FreshKeys,
    /// Inserts started so far (also the index of the next fresh key).
    inserted: AtomicU64,
}

#[derive(Default)]
struct ClientOut {
    gets: Samples,
    writes: Samples,
    inserts: Vec<(Key, Value)>,
    side: Side,
}

#[derive(Default)]
struct ScannerOut {
    scans: Samples,
    ranges: Samples,
    elems: u64,
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

fn client(sh: &Shared, phase: &Phase, seed: u64, quota: u64) -> ClientOut {
    let mut out = ClientOut {
        gets: Samples::with_capacity(quota as usize / 2 + 1024),
        writes: Samples::with_capacity(quota as usize / 2 + 1024),
        ..ClientOut::default()
    };
    let mut rng = Rng::new(seed, 1);
    out.side.run = phase.drive(0, quota, 256, |measured| {
        if rng.next_u64() & 1 == 0 {
            let k = rng.below(KEYS as u64) as Key;
            let t = raw_now();
            let got = sh.map.get(4 * k);
            let dt = elapsed_ns(t, raw_now());
            if measured {
                out.gets.push(dt);
            }
            if got != Some(k) {
                out.side
                    .wrong(|| format!("get({}) returned {got:?}, loaded {k}", 4 * k));
            }
        } else {
            let n = sh.inserted.fetch_add(1, Ordering::AcqRel);
            let (key, value) = (sh.fresh.key(n), -(n as Value) - 1);
            let t = raw_now();
            sh.map.insert(key, value);
            let dt = elapsed_ns(t, raw_now());
            if measured {
                out.writes.push(dt);
            }
            out.inserts.push((key, value));
        }
    });
    out.side.attempted = out.side.run.calls;
    out
}

/// Loaded keys in the inclusive key range `[lo, hi]`.
fn loaded_in(lo: Key, hi: Key) -> u64 {
    (hi / 4 - (lo + 3) / 4 + 1) as u64
}

/// A random range spanning [`RANGE_KEYS`] loaded keys.
fn random_range(rng: &mut Rng) -> (Key, Key) {
    let lo = 4 * rng.below(KEYS as u64 - RANGE_KEYS) as Key + rng.below(4) as Key;
    (lo, lo + 4 * RANGE_KEYS as Key - 1)
}

/// Back-to-back full scans, each followed by a burst of short range scans
/// (so range latency is sampled across the whole phase).
fn scanner(sh: &Shared, phase: &Phase, seed: u64, quota: u64) -> ScannerOut {
    let mut out = ScannerOut::default();
    let mut rng = Rng::new(seed, 2);
    out.side.run = phase.drive(1, quota, 1, |measured| {
        let t = raw_now();
        let stats = sh.map.scan_all();
        let dt = elapsed_ns(t, raw_now());
        let hi = KEYS as u64 + sh.inserted.load(Ordering::Acquire);
        if stats.count < KEYS as u64 || stats.count > hi {
            out.side.wrong(|| {
                format!(
                    "full scan visited {} keys, outside [{KEYS}, {hi}]",
                    stats.count
                )
            });
        }
        if measured {
            out.scans.push(dt);
            out.elems += stats.count;
        }
        for _ in 0..RANGES_PER_SCAN {
            let (lo, hi) = random_range(&mut rng);
            let t = raw_now();
            let got = sh.map.scan_range(lo, hi).count;
            let dt = elapsed_ns(t, raw_now());
            let min = loaded_in(lo, hi);
            let max = min + sh.inserted.load(Ordering::Acquire);
            if got < min || got > max {
                out.side.wrong(|| {
                    format!("range [{lo}, {hi}] visited {got} keys, outside [{min}, {max}]")
                });
            }
            if measured {
                out.ranges.push(dt);
            }
        }
    });
    out.side.attempted = out.side.run.calls * (1 + RANGES_PER_SCAN);
    out
}

/// Runs the client and the scanner side by side until both quotas are met.
fn phase(
    sh: &Shared,
    seconds: u64,
    seed: u64,
    client_quota: u64,
    scan_quota: u64,
    out: &mut Outcome,
) -> (ClientOut, ScannerOut) {
    two_threads(
        phase_deadline(seconds),
        ["bench-client-0", "bench-scanner"],
        |phase| client(sh, phase, seed, client_quota),
        |phase| scanner(sh, phase, seed, scan_quota),
        out,
    )
}

/// What the timed phases of a run measured, over all of its setups.
#[derive(Default)]
struct Measured {
    gets: Samples,
    writes: Samples,
    scans: Samples,
    ranges: Samples,
    client_ops: u64,
    client_ns: u64,
    scan_elems: u64,
}

/// After a flush, `len()` and a full scan must equal the model, and 2,000
/// range scans must each find exactly the model's keys. Returns whether the
/// flush returned.
fn check(
    map: &Arc<dyn ConcurrentMap>,
    inserts: &[(Key, Value)],
    seed: u64,
    out: &mut Outcome,
) -> bool {
    let mut model = Fold::loaded(KEYS as u64);
    for &(k, v) in inserts {
        model.add(k, v);
    }
    let m = Arc::clone(map);
    let flushed = flush(move || m.flush(), out);
    if flushed {
        out.attempted += 2;
        let len = map.len() as u64;
        if len != model.count {
            out.fail_run(format!(
                "len() = {len} after flush, model holds {}",
                model.count
            ));
        }
        let full = map.scan_all();
        if !model.matches(&full) {
            out.fail_run(format!(
                "full scan after flush gave {full:?}, model {model:?}"
            ));
        }
        let mut keys: Vec<Key> = inserts.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        let mut rng = Rng::new(seed, 3);
        for _ in 0..AUDIT_RANGES {
            let (lo, hi) = random_range(&mut rng);
            let got = map.scan_range(lo, hi).count;
            let fresh =
                (keys.partition_point(|&k| k <= hi) - keys.partition_point(|&k| k < lo)) as u64;
            out.attempted += 1;
            if got != loaded_in(lo, hi) + fresh {
                out.fail(format!(
                    "range [{lo}, {hi}] visited {got} keys, model {}",
                    loaded_in(lo, hi) + fresh
                ));
            }
        }
    }
    let late = map.combining_stats().map_or(0, |c| c.late_replays);
    if late != 0 {
        out.fail_run(format!("late_replays = {late}"));
    }
    flushed
}

/// Each of the run's [`LIVES`] is: load and settle, warm up, a share of the
/// timed work, the exact checks, and the drop. Spreading the timed
/// work over the whole run makes it sample more of the host's slow and fast
/// spells than one contiguous phase would.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut values = Values::new();
    let mut m = Measured::default();
    let items = loaded_items(KEYS);
    let client_quota = CLIENT_OPS_PER_SECOND * cfg.seconds / LIVES;
    let warm_up_quota = CLIENT_OPS_PER_SECOND * cfg.seconds / 5;
    let (mut setups, mut teardowns) = (Vec::new(), Vec::new());
    let mut rss_per_key = 0.0;
    for life in 0..LIVES {
        let rss0 = rss_bytes();
        let Some((map, settled)) = build_u64(&items, SPEC, &mut out) else {
            break;
        };
        setups.push(settled);
        if life == 0 {
            rss_per_key = rss_bytes().saturating_sub(rss0) as f64 / KEYS as f64;
        }
        if cfg.trace && life == 1 {
            // The quiet engine against one PMA instance over the same keys.
            let n = KEYS as u64;
            values.insert(
                "engine.merge.quiet_scan_meps",
                extras::quiet_scan_meps(&*map, QUIET_SCANS, n, &mut out),
            );
            values.insert(
                "engine.sharded.quiet_get_ns",
                extras::quiet_get_ns(&*map, n, QUIET_GETS, cfg.seed, &mut out),
            );
            if let Some((single, _)) = build_u64(&items, "pma-batch:100", &mut out) {
                values.insert(
                    "core.concurrent.quiet_scan_meps",
                    extras::quiet_scan_meps(&*single, QUIET_SCANS, n, &mut out),
                );
                values.insert(
                    "core.concurrent.quiet_get_ns",
                    extras::quiet_get_ns(&*single, n, QUIET_GETS, cfg.seed, &mut out),
                );
                teardown(single, "pma-batch:100", &mut out);
            }
        }
        let seed = cfg.seed ^ (life << 32);
        let sh = Shared {
            map: &*map,
            fresh: FreshKeys::new(KEYS, seed),
            inserted: AtomicU64::new(0),
        };
        // Warm-up: the same mix, unmeasured, so the splits and resizes it
        // triggers are under way before timing starts.
        let (warm, _) = phase(
            &sh,
            cfg.seconds,
            seed ^ 0xA5A5,
            warm_up_quota,
            WARM_UP_SCANS,
            &mut out,
        );
        let mut inserts = warm.inserts;

        let before = counters(&*map);
        let sampler = cfg.trace.then(|| {
            let m = Arc::clone(&map);
            Sampler::start(Some(Box::new(move || {
                counters(&*m).value("queue_depth").unwrap_or(0.0)
            })))
        });
        let (mut c, s) = phase(
            &sh,
            cfg.seconds,
            seed,
            client_quota,
            SCANS_PER_LIFE,
            &mut out,
        );
        if let Some(sampled) = sampler.map(Sampler::stop) {
            let mut phase_values = Values::new();
            layers::u64_values(&mut phase_values, &before, &counters(&*map), &sampled);
            layers::add(&mut values, &phase_values);
        }
        m.gets.extend(&c.gets);
        m.writes.extend(&c.writes);
        m.scans.extend(&s.scans);
        m.ranges.extend(&s.ranges);
        m.client_ops += c.side.run.measured;
        m.client_ns += c.side.run.measured_ns;
        m.scan_elems += s.elems;
        inserts.append(&mut c.inserts);
        let flushed = check(&map, &inserts, seed, &mut out);
        teardowns.extend(teardown_flushed(map, flushed, SPEC, &mut out));
        if !flushed {
            // The stuck flush keeps loading the machine; later lives would
            // measure it, not the workload.
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
    out.e2e(
        "scan_meps",
        m.scan_elems as f64 / m.scans.total_ns().max(1) as f64 * 1e3,
        "Melem/s",
        Some(m.scans.len()),
    );
    out.timing("scan", "p90", 0.9, &mut m.scans, "ms", 1e6);
    out.timing("range", "p99", 0.99, &mut m.ranges, "us", 1e3);
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
        extras::router_replay(cfg.seed, &mut values, &mut out);
        values.insert(
            "bench.fail_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        layers::emit(&mut out, &values);
    }
    out
}
