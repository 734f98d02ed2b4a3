//! Traced-run measurements taken on maps of their own, outside the timed
//! phase: isolated scans and gets through the sharded engine versus one PMA
//! instance, and a replay of the point mix through the thread-per-core
//! router versus direct calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pma_common::obs::Category;
use pma_common::{ConcurrentMap, Key};
use pma_workloads::factory;

use crate::harness::{settle, teardown, Sampler, SETTLE_DEADLINE};
use crate::layers::Values;
use crate::model::{loaded_items, FreshKeys, Rng};
use crate::report::Outcome;

/// Full ordered scans of a quiet map, in Melem/s over all of them. Each scan
/// must visit exactly `expect` elements.
pub fn quiet_scan_meps(
    map: &dyn ConcurrentMap,
    scans: usize,
    expect: u64,
    out: &mut Outcome,
) -> f64 {
    let t0 = Instant::now();
    let mut elems = 0u64;
    for _ in 0..scans {
        let stats = map.scan_all();
        out.attempted += 1;
        if stats.count != expect {
            out.fail(format!(
                "quiet scan visited {} of {expect} keys",
                stats.count
            ));
        }
        elems += stats.count;
    }
    elems as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Mean nanoseconds of a get on a random loaded key `4k` (`k < keys`) of a
/// quiet map; each get must return `k`.
pub fn quiet_get_ns(
    map: &dyn ConcurrentMap,
    keys: u64,
    gets: u64,
    seed: u64,
    out: &mut Outcome,
) -> f64 {
    let mut rng = Rng::new(seed, 77);
    let mut wrong = 0u64;
    let t0 = Instant::now();
    for _ in 0..gets {
        let k = rng.below(keys) as Key;
        if map.get(4 * k) != Some(k) {
            wrong += 1;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / gets as f64;
    out.attempted += gets;
    if wrong > 0 {
        out.fail(format!("{wrong} quiet gets missed their loaded value"));
        out.failed += wrong - 1;
    }
    ns
}

const REPLAY_KEYS: usize = 1_000_000;
const REPLAY_OPS_PER_CLIENT: u64 = 100_000;
const ROUTED_SPEC: &str = "cores:2:sharded:8:pma-batch:100";
const DIRECT_SPEC: &str = "sharded:8:pma-batch:100";

/// Two closed-loop clients, each running half gets on loaded keys and half
/// inserts of fresh keys; returns the elapsed seconds.
fn replay(map: &Arc<dyn ConcurrentMap>, seed: u64, out: &mut Outcome) -> f64 {
    let wrong = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..2u64 {
            let (map, wrong) = (Arc::clone(map), &wrong);
            std::thread::Builder::new()
                .name(format!("bench-client-{c}"))
                .spawn_scoped(s, move || {
                    let mut rng = Rng::new(seed, 100 + c);
                    let fresh = FreshKeys::new(REPLAY_KEYS, seed ^ (c + 1));
                    for i in 0..REPLAY_OPS_PER_CLIENT {
                        if rng.next_u64() & 1 == 0 {
                            let k = rng.below(REPLAY_KEYS as u64) as Key;
                            if map.get(4 * k) != Some(k) {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            map.insert(fresh.key(i), -1);
                        }
                    }
                })
                .expect("spawn replay client");
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    out.attempted += 2 * REPLAY_OPS_PER_CLIENT;
    let wrong = wrong.into_inner();
    if wrong > 0 {
        out.fail(format!("{wrong} replay gets missed their loaded value"));
        out.failed += wrong - 1;
    }
    secs
}

/// Replays the point mix through the router and directly, reporting the
/// router's throughput, ship and drain time and worker CPU.
pub fn router_replay(seed: u64, values: &mut Values, out: &mut Outcome) {
    let items = loaded_items(REPLAY_KEYS);
    let ops = (2 * REPLAY_OPS_PER_CLIENT) as f64;
    for (spec, metric) in [
        (ROUTED_SPEC, "engine.router.point_mops"),
        (DIRECT_SPEC, "engine.router.direct_point_mops"),
    ] {
        let map = match factory::build_loaded(spec, &items) {
            Ok(map) => map,
            Err(e) => {
                out.fail_run(format!("cannot build `{spec}`: {e}"));
                return;
            }
        };
        settle(Instant::now(), SETTLE_DEADLINE, &|| None);
        let sampler = Sampler::start(None);
        let secs = replay(&map, seed, out);
        let s = sampler.stop();
        values.insert(metric, ops / secs / 1e6);
        if spec == ROUTED_SPEC {
            values.insert("engine.router.ship_ms", s.trace.ms(&[Category::OpShip]));
            values.insert(
                "engine.router.drain_ms",
                s.trace.ms(&[Category::IngressDrain]),
            );
            values.insert("engine.router.cpu_s", s.cpu.group_seconds("router"));
            values.insert(
                "engine.router.trace_dropped_events",
                s.trace.full_ring_batches as f64,
            );
        }
        teardown(map, spec, out);
    }
}
