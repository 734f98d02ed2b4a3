//! The per-layer metrics of the traced run: what each one is, which
//! end-to-end metric it should move and on which workload, and how the u64
//! workloads fill them from the map's counters, the trace and the CPU
//! ledger.

use std::collections::BTreeMap;

use pma_common::obs::metrics::MetricsSnapshot;
use pma_common::obs::Category;

use crate::harness::{delta, Sampled};
use crate::report::Outcome;

/// One per-layer metric.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric(s) a change in this layer should move.
    pub moves: &'static str,
    /// The workload(s) where it is meant to be read.
    pub on: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        moves,
        on,
    }
}

/// Every per-layer metric a traced run prints, in print order. A metric that
/// a workload cannot measure reads 0 there.
pub const LAYERS: &[LayerDef] = &[
    def(
        "engine.sharded.num_shards",
        "count",
        "write_p99_us point_mops",
        "scan-insert",
    ),
    def(
        "engine.sharded.splits",
        "count",
        "write_p99_us point_mops",
        "scan-insert",
    ),
    def(
        "engine.sharded.merges",
        "count",
        "write_p99_us point_mops",
        "scan-insert",
    ),
    def(
        "engine.sharded.retired_retries",
        "count",
        "write_p99_us point_mops",
        "scan-insert",
    ),
    def(
        "engine.sharded.delta_ops",
        "count",
        "write_p99_us point_mops",
        "scan-insert",
    ),
    def(
        "engine.sharded.split_stall_ms",
        "ms",
        "write_p99_us",
        "scan-insert",
    ),
    def(
        "engine.sharded.split_ms",
        "ms",
        "write_p99_us",
        "scan-insert",
    ),
    def("engine.sharded.pool_cpu_s", "s", "setup_s", "scan-insert"),
    def(
        "engine.sharded.monitor_cpu_s",
        "s",
        "setup_s",
        "scan-insert",
    ),
    def(
        "engine.merge.quiet_scan_meps",
        "Melem/s",
        "scan_meps",
        "scan-insert",
    ),
    def(
        "core.concurrent.quiet_scan_meps",
        "Melem/s",
        "scan_meps",
        "scan-insert",
    ),
    def(
        "engine.sharded.quiet_get_ns",
        "ns",
        "get_p50_us",
        "scan-insert point-churn",
    ),
    def(
        "core.concurrent.quiet_get_ns",
        "ns",
        "get_p50_us",
        "scan-insert point-churn",
    ),
    def(
        "core.gate.waits",
        "count",
        "scan_p90_ms write_p99_us",
        "scan-insert",
    ),
    def(
        "core.gate.wait_ms",
        "ms",
        "scan_p90_ms write_p99_us",
        "scan-insert",
    ),
    def(
        "core.rebalancer.cpu_s",
        "s",
        "point_mops teardown_s",
        "point-churn scan-insert",
    ),
    def(
        "core.rebalancer.resizes",
        "count",
        "point_mops get_p99_us",
        "point-churn scan-insert",
    ),
    def(
        "core.rebalancer.resize_ms",
        "ms",
        "point_mops get_p99_us",
        "point-churn scan-insert",
    ),
    def(
        "core.rebalancer.rebalances",
        "count",
        "write_p99_us",
        "point-churn scan-insert",
    ),
    def(
        "core.rebalancer.rebalance_ms",
        "ms",
        "write_p99_us",
        "point-churn scan-insert",
    ),
    def("core.epoch.reclaims", "count", "rss_bytes_per_key", "all"),
    def(
        "core.combining.owned_applies",
        "count",
        "write_p50_us",
        "point-churn scan-insert",
    ),
    def(
        "core.combining.late_replays",
        "count",
        "none: must stay 0",
        "all",
    ),
    def(
        "core.combining.queue_depth_max",
        "ops",
        "write_p50_us",
        "point-churn scan-insert",
    ),
    def(
        "bytes.model_bytes_per_key",
        "B/key",
        "rss_bytes_per_key",
        "url-bytes",
    ),
    def(
        "bytes.maintenance_stall_ms",
        "ms",
        "write_p99_us",
        "url-bytes",
    ),
    def(
        "engine.router.point_mops",
        "Mop/s",
        "point_mops",
        "scan-insert",
    ),
    def(
        "engine.router.direct_point_mops",
        "Mop/s",
        "point_mops",
        "scan-insert",
    ),
    def("engine.router.ship_ms", "ms", "point_mops", "scan-insert"),
    def("engine.router.drain_ms", "ms", "point_mops", "scan-insert"),
    def("engine.router.cpu_s", "s", "point_mops", "scan-insert"),
    def(
        "engine.router.trace_dropped_events",
        "count",
        "none: 0 proves no trace event was lost",
        "scan-insert",
    ),
    def(
        "bench.client_cpu_s",
        "s",
        "none: explains the others",
        "all",
    ),
    def(
        "bench.scanner_cpu_s",
        "s",
        "none: explains the others",
        "all",
    ),
    def(
        "bench.trace_dropped_events",
        "count",
        "none: 0 proves no trace event was lost",
        "all",
    ),
    def(
        "bench.fail_frac",
        "ratio",
        "none: failed over attempted",
        "all",
    ),
];

/// Prefix of the traced-minus-untraced metrics, one per end-to-end metric.
pub const OVERHEAD_PREFIX: &str = "bench.tracing_overhead.";

/// The "should move … on …" note printed beside a per-layer metric.
pub fn moves(name: &str) -> Option<String> {
    if name.starts_with(OVERHEAD_PREFIX) {
        return Some("moves: none (traced minus untraced)".to_string());
    }
    LAYERS
        .iter()
        .find(|d| d.name == name)
        .map(|d| format!("moves: {} | on: {}", d.moves, d.on))
}

/// Per-layer values gathered by a workload, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Emits every catalogued per-layer metric, 0 where `values` lacks it.
pub fn emit(out: &mut Outcome, values: &Values) {
    for d in LAYERS {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        out.layer(d.name, v, d.unit);
    }
}

/// Gauges are read at a point in time, so runs of several timed phases
/// combine them by maximum rather than by sum.
const GAUGES: &[&str] = &[
    "engine.sharded.num_shards",
    "core.combining.queue_depth_max",
];

/// Adds one timed phase's values into the run's.
pub fn add(total: &mut Values, phase: &Values) {
    for (&name, &v) in phase {
        let t = total.entry(name).or_insert(0.0);
        *t = if GAUGES.contains(&name) {
            t.max(v)
        } else {
            *t + v
        };
    }
}

/// The u64 stack's per-layer values over a timed phase: the map's counters
/// before and after it, and what the sampler gathered during it.
pub fn u64_values(
    values: &mut Values,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    s: &Sampled,
) {
    let t = &s.trace;
    let cpu = s.cpu.seconds();
    let cpu = |g: &str| cpu.get(g).copied().unwrap_or(0.0);
    values.insert(
        "engine.sharded.num_shards",
        after.value("num_shards").unwrap_or(1.0),
    );
    values.insert("engine.sharded.splits", delta(before, after, "splits"));
    values.insert("engine.sharded.merges", delta(before, after, "merges"));
    values.insert(
        "engine.sharded.retired_retries",
        delta(before, after, "retired_retries"),
    );
    values.insert(
        "engine.sharded.delta_ops",
        delta(before, after, "delta_ops"),
    );
    values.insert(
        "engine.sharded.split_stall_ms",
        delta(before, after, "stall_ns") / 1e6,
    );
    values.insert(
        "engine.sharded.split_ms",
        t.ms(&[
            Category::SplitFence,
            Category::ChaseRound,
            Category::ClosingFold,
        ]),
    );
    values.insert("engine.sharded.pool_cpu_s", cpu("shard-pool"));
    values.insert("engine.sharded.monitor_cpu_s", cpu("shard-monitor"));
    values.insert("core.gate.waits", t.count(&[Category::GateWait]) as f64);
    values.insert("core.gate.wait_ms", t.ms(&[Category::GateWait]));
    values.insert("core.rebalancer.cpu_s", cpu("rebalancer"));
    // A resize span covers its publication span, and a redistribute window
    // covers its claim/settle/install/release phases, so only the outer
    // spans are summed.
    values.insert(
        "core.rebalancer.resizes",
        t.count(&[Category::Resize]) as f64,
    );
    values.insert("core.rebalancer.resize_ms", t.ms(&[Category::Resize]));
    values.insert(
        "core.rebalancer.rebalances",
        t.count(&[Category::Redistribute]) as f64,
    );
    values.insert(
        "core.rebalancer.rebalance_ms",
        t.ms(&[Category::Redistribute]),
    );
    values.insert(
        "core.epoch.reclaims",
        t.count(&[Category::EpochReclaim]) as f64,
    );
    values.insert(
        "core.combining.owned_applies",
        delta(before, after, "owned_applies"),
    );
    values.insert(
        "core.combining.late_replays",
        delta(before, after, "late_replays"),
    );
    values.insert(
        "core.combining.queue_depth_max",
        s.queue_depth_max
            .max(t.get(Category::QueueDepth).max_payload as f64),
    );
    bench_values(values, s);
}

/// The benchmark's own threads and trace rings.
pub fn bench_values(values: &mut Values, s: &Sampled) {
    let cpu = s.cpu.seconds();
    values.insert(
        "bench.client_cpu_s",
        cpu.get("client").copied().unwrap_or(0.0),
    );
    values.insert(
        "bench.scanner_cpu_s",
        cpu.get("scanner").copied().unwrap_or(0.0),
    );
    values.insert(
        "bench.trace_dropped_events",
        s.trace.full_ring_batches as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for d in LAYERS {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!d.moves.is_empty() && !d.on.is_empty());
        }
    }

    #[test]
    fn emit_fills_missing_values_with_zero() {
        let mut out = Outcome::default();
        let mut values = Values::new();
        values.insert("core.gate.waits", 12.0);
        emit(&mut out, &values);
        assert_eq!(out.layers.len(), LAYERS.len());
        let waits = out
            .layers
            .iter()
            .find(|m| m.name == "core.gate.waits")
            .unwrap();
        assert_eq!(waits.value, 12.0);
        assert!(out
            .layers
            .iter()
            .filter(|m| m.name != "core.gate.waits")
            .all(|m| m.value == 0.0));
    }

    #[test]
    fn phases_add_counters_and_keep_the_largest_gauge() {
        let mut total = Values::new();
        let mut a = Values::new();
        a.insert("core.gate.waits", 3.0);
        a.insert("engine.sharded.num_shards", 200.0);
        let mut b = Values::new();
        b.insert("core.gate.waits", 4.0);
        b.insert("engine.sharded.num_shards", 150.0);
        add(&mut total, &a);
        add(&mut total, &b);
        assert_eq!(total["core.gate.waits"], 7.0);
        assert_eq!(total["engine.sharded.num_shards"], 200.0);
    }

    #[test]
    fn moves_names_the_target_metric() {
        assert!(moves("core.gate.waits").unwrap().contains("scan_p90_ms"));
        assert!(moves("bench.tracing_overhead.setup_s").is_some());
        assert!(moves("nope").is_none());
    }
}
