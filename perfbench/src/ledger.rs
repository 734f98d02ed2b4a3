//! Per-layer ledgers read from outside the program: per-thread CPU time from
//! `/proc/self/task`, the trace rings' span categories, and resident memory.

use std::collections::HashMap;
use std::fs;

use pma_common::obs::clock::Clock;
use pma_common::obs::trace::{self, Category, TraceEvent};

/// Thread groups the CPU ledger reports, keyed by the thread-name prefix the
/// kernel shows in `comm` (names are cut to 15 bytes there).
pub const THREAD_GROUPS: &[(&str, &str)] = &[
    ("pma-shard-worke", "shard-pool"),
    ("pma-shard-monit", "shard-monitor"),
    ("pma-rebalancer-", "rebalancer"),
    ("pma-core-worker", "router"),
    ("bench-client", "client"),
    ("bench-scanner", "scanner"),
];

/// Groups whose CPU counts as the program's background work when deciding
/// that a freshly loaded map has settled.
pub const BACKGROUND_GROUPS: &[&str] = &["shard-pool", "shard-monitor", "rebalancer"];

/// The group a thread belongs to, from its `comm`.
pub fn thread_group(comm: &str) -> Option<&'static str> {
    THREAD_GROUPS
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map(|&(_, group)| group)
}

/// One thread of a known group: id, group and CPU time so far (ns).
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub tid: u32,
    pub group: &'static str,
    pub cpu_ns: u64,
}

/// Reads the CPU time of this process's threads that belong to a group in
/// [`THREAD_GROUPS`]. A grouped thread's name is read once and remembered,
/// so a reading costs one `schedstat` read per grouped thread. Other names
/// are read again each time: a new thread names itself only after it
/// starts, so an early reading can still show its parent's name.
#[derive(Debug, Default)]
pub struct ThreadReader {
    groups: HashMap<u32, &'static str>,
}

impl ThreadReader {
    /// Reads every live grouped thread. Threads that exit while the
    /// directory is walked are skipped.
    pub fn read(&mut self) -> Vec<ThreadCpu> {
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            let group = match self.groups.get(&tid) {
                Some(&group) => group,
                None => {
                    let Some(group) = fs::read_to_string(path.join("comm"))
                        .ok()
                        .and_then(|comm| thread_group(comm.trim_end()))
                    else {
                        continue;
                    };
                    self.groups.insert(tid, group);
                    group
                }
            };
            if let Some(cpu_ns) = fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| parse_schedstat(&s))
            {
                out.push(ThreadCpu { tid, group, cpu_ns });
            }
        }
        out
    }
}

/// CPU time on record in a `schedstat` line (its first field, in ns).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time per thread group over a phase. Threads alive at the start count
/// from their reading then; threads born during the phase count from zero.
/// Call [`CpuLedger::observe`] often enough to catch threads before they
/// exit: a thread's time after its last observation is lost.
#[derive(Debug, Default)]
pub struct CpuLedger {
    reader: ThreadReader,
    start: HashMap<u32, u64>,
    last: HashMap<u32, (&'static str, u64)>,
}

impl CpuLedger {
    /// Starts a phase now.
    pub fn start() -> CpuLedger {
        let mut ledger = CpuLedger::default();
        let threads = ledger.reader.read();
        ledger.start_with(&threads);
        ledger
    }

    /// Starts a phase from a given reading.
    pub fn start_with(&mut self, threads: &[ThreadCpu]) {
        self.start = threads.iter().map(|t| (t.tid, t.cpu_ns)).collect();
        self.last.clear();
        self.observe_with(threads);
    }

    /// Takes a reading now.
    pub fn observe(&mut self) {
        let threads = self.reader.read();
        self.observe_with(&threads);
    }

    /// Folds in a reading.
    pub fn observe_with(&mut self, threads: &[ThreadCpu]) {
        for t in threads {
            self.last.insert(t.tid, (t.group, t.cpu_ns));
        }
    }

    /// CPU seconds per group since the phase started.
    pub fn seconds(&self) -> HashMap<&'static str, f64> {
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for (tid, &(group, ns)) in &self.last {
            let base = self.start.get(tid).copied().unwrap_or(0);
            *out.entry(group).or_default() += ns.saturating_sub(base) as f64 / 1e9;
        }
        out
    }

    /// CPU seconds of one group since the phase started.
    pub fn group_seconds(&self, group: &str) -> f64 {
        self.seconds().get(group).copied().unwrap_or(0.0)
    }
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_rss(&s))
        .unwrap_or(0)
}

/// The `VmRSS` line of a `/proc/<pid>/status` text, in bytes.
pub fn parse_vm_rss(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Count, total duration and largest payload of one span category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub max_payload: u64,
}

/// Span categories aggregated from the trace rings.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    by_cat: HashMap<Category, CategoryTotals>,
    /// Drained batches that filled a thread's whole ring: each may have
    /// lost events to overwrite. Zero proves no event was lost.
    pub full_ring_batches: u64,
}

impl TraceTotals {
    /// Folds drained events in. `ring_capacity` is the slot count of each
    /// thread's ring.
    pub fn add_events(&mut self, events: &[TraceEvent], ring_capacity: usize) {
        let clock = Clock::global();
        let mut per_ring: HashMap<u32, usize> = HashMap::new();
        for e in events {
            *per_ring.entry(e.tid).or_default() += 1;
            let t = self.by_cat.entry(e.cat).or_default();
            t.count += 1;
            t.dur_ns += clock.raw_delta_to_ns(e.dur_raw);
            t.max_payload = t.max_payload.max(e.payload);
        }
        self.full_ring_batches += per_ring.values().filter(|&&n| n >= ring_capacity).count() as u64;
    }

    /// Drains every trace ring into the totals.
    pub fn drain(&mut self) {
        self.add_events(&trace::drain_all(), ring_capacity());
    }

    /// Totals of one category.
    pub fn get(&self, cat: Category) -> CategoryTotals {
        self.by_cat.get(&cat).copied().unwrap_or_default()
    }

    /// Events of the given categories.
    pub fn count(&self, cats: &[Category]) -> u64 {
        cats.iter().map(|&c| self.get(c).count).sum()
    }

    /// Summed span time of the given categories, in milliseconds.
    pub fn ms(&self, cats: &[Category]) -> f64 {
        cats.iter().map(|&c| self.get(c).dur_ns).sum::<u64>() as f64 / 1e6
    }
}

/// Slots per thread ring, as the trace layer sizes them (`PMA_TRACE_CAP`,
/// default 8192, rounded up to a power of two).
pub fn ring_capacity() -> usize {
    std::env::var("PMA_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8192)
        .max(8)
        .next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_comm_prefixes() {
        assert_eq!(thread_group("pma-shard-worke"), Some("shard-pool"));
        assert_eq!(thread_group("pma-shard-monit"), Some("shard-monitor"));
        assert_eq!(thread_group("pma-rebalancer-"), Some("rebalancer"));
        assert_eq!(thread_group("pma-core-worker"), Some("router"));
        assert_eq!(thread_group("bench-client-1"), Some("client"));
        assert_eq!(thread_group("perfbench"), None);
    }

    fn t(tid: u32, comm: &str, cpu_ns: u64) -> ThreadCpu {
        ThreadCpu {
            tid,
            group: thread_group(comm).unwrap(),
            cpu_ns,
        }
    }

    #[test]
    fn ledger_counts_phase_deltas_and_threads_born_in_it() {
        let mut ledger = CpuLedger::default();
        ledger.start_with(&[
            t(1, "pma-rebalancer-", 5_000_000_000),
            t(2, "bench-client-0", 0),
        ]);
        // Thread 3 is born and observed mid-phase, then exits.
        ledger.observe_with(&[
            t(1, "pma-rebalancer-", 5_500_000_000),
            t(3, "pma-rebalancer-", 250_000_000),
        ]);
        ledger.observe_with(&[
            t(1, "pma-rebalancer-", 6_000_000_000),
            t(2, "bench-client-0", 2_000_000_000),
        ]);
        let s = ledger.seconds();
        assert!((s["rebalancer"] - 1.25).abs() < 1e-9);
        assert!((s["client"] - 2.0).abs() < 1e-9);
        assert_eq!(ledger.group_seconds("router"), 0.0);
    }

    #[test]
    fn reader_sees_named_threads() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("bench-client-9".into())
            .spawn(move || {
                let mut x = 0u64;
                for i in 0..2_000_000u64 {
                    x = x.wrapping_add(i * i);
                }
                std::hint::black_box(x);
                rx.recv().ok();
            })
            .unwrap();
        let mut ledger = CpuLedger::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        ledger.observe();
        let seen = ledger.reader.read();
        tx.send(()).unwrap();
        handle.join().unwrap();
        assert!(seen.iter().any(|t| t.group == "client" && t.cpu_ns > 0));
    }

    #[test]
    fn proc_parsers() {
        assert_eq!(parse_schedstat("3370350 1384004 8\n"), Some(3_370_350));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t 9 kB\nVmRSS:\t  2048 kB\nThreads:\t3\n";
        assert_eq!(parse_vm_rss(status), Some(2 * 1024 * 1024));
        assert!(rss_bytes() > 0);
    }

    fn ev(cat: Category, tid: u32, dur_raw: u64, payload: u64) -> TraceEvent {
        TraceEvent {
            start_raw: 0,
            dur_raw,
            cat,
            tid,
            payload,
        }
    }

    #[test]
    fn trace_totals_aggregate_per_category_and_flag_full_rings() {
        let mut totals = TraceTotals::default();
        totals.add_events(
            &[
                ev(Category::GateWait, 0, 0, 3),
                ev(Category::GateWait, 1, 0, 9),
                ev(Category::Resize, 1, 0, 4),
                ev(Category::GateWait, 1, 0, 1),
            ],
            2,
        );
        let gate = totals.get(Category::GateWait);
        assert_eq!((gate.count, gate.max_payload), (3, 9));
        assert_eq!(totals.count(&[Category::GateWait, Category::Resize]), 4);
        assert_eq!(totals.get(Category::ChaseRound), CategoryTotals::default());
        // Thread 1 delivered three events into a two-slot ring.
        assert_eq!(totals.full_ring_batches, 1);
        assert_eq!(totals.ms(&[Category::GateWait]), 0.0);
    }

    #[test]
    fn ring_capacity_defaults_to_a_power_of_two() {
        assert!(ring_capacity().is_power_of_two());
    }
}
