//! `point-churn`: skewed point churn with no scanner (the paper's Figure 4
//! skew on an in-cache map).
//!
//! 1M keys `4k -> k` are bulk-loaded into `sharded:8:pma-batch:100`. Two
//! clients draw Zipf(1.5) ranks, each mapped into a key class of its own
//! (see [`churn_key`]), and run 20% gets, 40% inserts and 40% removes. Each
//! client models its own keys exactly, so after a flush the whole map is
//! checked against the model.

use std::sync::Arc;

use pma_common::obs::clock::raw_now;
use pma_common::{ConcurrentMap, Key, Value};
use pma_workloads::{Distribution, KeyGenerator};

use crate::extras;
use crate::harness::{
    build_u64, counters, elapsed_ns, flush, phase_deadline, setup_seconds, teardown,
    teardown_flushed, teardown_seconds, two_threads, Config, Phase, Sampler, Side,
};
use crate::layers::{self, Values};
use crate::ledger::rss_bytes;
use crate::model::{churn_key, loaded_items, ChurnModel, Fold, Rng};
use crate::report::Outcome;
use crate::stats::Samples;

/// Keys bulk-loaded (≈21 MB resident, within L3).
pub const KEYS: usize = 1_000_000;
/// The engine under test.
pub const SPEC: &str = "sharded:8:pma-batch:100";
/// Times a run sets its map up; only the first churned map is checked.
const SETUPS: usize = 3;
/// Clients, one per side of the [`Phase`].
const CLIENTS: u64 = 2;
const ZIPF_ALPHA: f64 = 1.5;
/// Ops per client per nominal second of the timed phase.
const CLIENT_OPS_PER_SECOND: u64 = 60_000;
const AUDIT_SCANS: usize = 100;
const RANGE_SCANS: u64 = 2_000;
const RANGE_KEYS: u64 = 1_000;
const QUIET_GETS: u64 = 200_000;

#[derive(Default)]
struct ClientOut {
    gets: Samples,
    writes: Samples,
    model: ChurnModel,
    side: Side,
}

impl AsMut<Side> for ClientOut {
    fn as_mut(&mut self) -> &mut Side {
        &mut self.side
    }
}

fn client(
    map: &dyn ConcurrentMap,
    phase: &Phase,
    t: u64,
    seed: u64,
    quota: u64,
    model: ChurnModel,
) -> ClientOut {
    let mut out = ClientOut {
        gets: Samples::with_capacity(quota as usize / 4),
        writes: Samples::with_capacity(quota as usize),
        model,
        ..ClientOut::default()
    };
    let mut ranks = KeyGenerator::new(
        Distribution::Zipf { alpha: ZIPF_ALPHA },
        2 * KEYS as u64,
        seed ^ (t + 1),
    );
    let mut rng = Rng::new(seed, 10 + t);
    let mut op = 0u64;
    out.side.run = phase.drive(t as usize, quota, 256, |measured| {
        op += 1;
        let key = churn_key(t, CLIENTS, ranks.next_key() as u64);
        let r = rng.below(10);
        let tick = raw_now();
        if r < 2 {
            let got = map.get(key);
            let dt = elapsed_ns(tick, raw_now());
            if measured {
                out.gets.push(dt);
            }
            if let Some(want) = out.model.expected_untouched(key) {
                if got != want {
                    out.side.wrong(|| {
                        format!("get({key}) returned {got:?}, never mutated, loaded {want:?}")
                    });
                }
            }
        } else {
            let value = ((seed ^ op) & 0xFFFF_FFFF) as Value;
            if r < 6 {
                map.insert(key, value);
            } else {
                map.remove(key);
            }
            let dt = elapsed_ns(tick, raw_now());
            if measured {
                out.writes.push(dt);
            }
            if r < 6 {
                out.model.insert(key, value);
            } else {
                out.model.remove(key);
            }
        }
    });
    out.side.attempted = out.side.run.calls;
    out
}

/// Runs both clients until both quotas are met; `models` holds each
/// client's model, carried over from the previous phase.
fn phase(
    map: &dyn ConcurrentMap,
    seconds: u64,
    seed: u64,
    quota: u64,
    models: [ChurnModel; CLIENTS as usize],
    out: &mut Outcome,
) -> [ClientOut; CLIENTS as usize] {
    let [m0, m1] = models;
    let (c0, c1) = two_threads(
        phase_deadline(seconds),
        ["bench-client-0", "bench-client-1"],
        |phase| client(map, phase, 0, seed, quota, m0),
        |phase| client(map, phase, 1, seed, quota, m1),
        out,
    );
    [c0, c1]
}

fn fresh_models() -> [ChurnModel; CLIENTS as usize] {
    Default::default()
}
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut values = Values::new();
    let items = loaded_items(KEYS);
    let rss0 = rss_bytes();
    let Some((map, settled)) = build_u64(&items, SPEC, &mut out) else {
        return out;
    };
    let rss_per_key = rss_bytes().saturating_sub(rss0) as f64 / KEYS as f64;
    let mut setups = vec![settled];
    let quota = CLIENT_OPS_PER_SECOND * cfg.seconds;

    // Warm-up: the same mix, unmeasured; the models carry over.
    let warm = phase(
        &*map,
        cfg.seconds,
        cfg.seed ^ 0xA5A5,
        quota / 5,
        fresh_models(),
        &mut out,
    );
    let models = warm.map(|c| c.model);

    let before = counters(&*map);
    let sampler = cfg.trace.then(|| {
        let m = Arc::clone(&map);
        Sampler::start(Some(Box::new(move || {
            counters(&*m).value("queue_depth").unwrap_or(0.0)
        })))
    });
    let timed = phase(&*map, cfg.seconds, cfg.seed, quota, models, &mut out);
    let sampled = sampler.map(Sampler::stop);
    let after = counters(&*map);
    let (mut gets, mut writes) = (Samples::default(), Samples::default());
    let mut mops = 0.0;
    let mut model = Fold::loaded(KEYS as u64);
    for c in &timed {
        mops += c.side.run.mops();
        gets.extend(&c.gets);
        writes.extend(&c.writes);
        c.model.apply_to(&mut model);
    }
    out.e2e("point_mops", mops, "Mop/s", Some(gets.len() + writes.len()));
    out.timing("get", "p99", 0.99, &mut gets, "us", 1e3);
    out.timing("write", "p99", 0.99, &mut writes, "us", 1e3);

    let (mut scans, mut ranges) = (Samples::default(), Samples::default());
    let mut elems = 0u64;
    let m = Arc::clone(&map);
    let flushed = flush(move || m.flush(), &mut out);
    if flushed {
        out.attempted += 1;
        let len = map.len() as u64;
        if len != model.count {
            out.fail_run(format!(
                "len() = {len} after flush, model holds {}",
                model.count
            ));
        }
        for i in 0..AUDIT_SCANS {
            let t = raw_now();
            let full = map.scan_all();
            scans.push(elapsed_ns(t, raw_now()));
            elems += full.count;
            out.attempted += 1;
            if !model.matches(&full) {
                let what = format!("full scan after flush gave {full:?}, model {model:?}");
                if i == 0 {
                    out.fail_run(what);
                } else {
                    out.fail(what);
                }
            }
        }
        let mut rng = Rng::new(cfg.seed, 3);
        for _ in 0..RANGE_SCANS {
            let lo = 4 * rng.below(KEYS as u64 - RANGE_KEYS) as Key;
            let t = raw_now();
            let got = map.scan_range(lo, lo + 4 * RANGE_KEYS as Key - 1);
            ranges.push(elapsed_ns(t, raw_now()));
            out.attempted += 1;
            std::hint::black_box(got);
        }
    }
    out.e2e(
        "scan_meps",
        elems as f64 / scans.total_ns().max(1) as f64 * 1e3,
        "Melem/s",
        Some(scans.len()),
    );
    out.timing("scan", "p90", 0.9, &mut scans, "ms", 1e6);
    out.timing("range", "p99", 0.99, &mut ranges, "us", 1e3);
    let late = map.combining_stats().map_or(0, |c| c.late_replays);
    if late != 0 {
        out.fail_run(format!("late_replays = {late}"));
    }
    if let Some(sampled) = &sampled {
        layers::u64_values(&mut values, &before, &after, sampled);
    }
    // When the flush is stuck, the further setups' drops show the stall.
    let mut teardowns: Vec<f64> = teardown_flushed(map, flushed, SPEC, &mut out)
        .into_iter()
        .collect();

    for i in 1..SETUPS {
        let Some((map, settled)) = build_u64(&items, SPEC, &mut out) else {
            break;
        };
        setups.push(settled);
        if cfg.trace && i == 1 {
            let n = KEYS as u64;
            values.insert(
                "engine.sharded.quiet_get_ns",
                extras::quiet_get_ns(&*map, n, QUIET_GETS, cfg.seed, &mut out),
            );
            if let Some((single, _)) = build_u64(&items, "pma-batch:100", &mut out) {
                values.insert(
                    "core.concurrent.quiet_get_ns",
                    extras::quiet_get_ns(&*single, n, QUIET_GETS, cfg.seed, &mut out),
                );
                teardown(single, "pma-batch:100", &mut out);
            }
        }
        phase(
            &*map,
            cfg.seconds,
            cfg.seed ^ i as u64,
            quota / 5,
            fresh_models(),
            &mut out,
        );
        teardowns.push(teardown(map, SPEC, &mut out));
    }
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
        values.insert(
            "bench.fail_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        layers::emit(&mut out, &values);
    }
    out
}
