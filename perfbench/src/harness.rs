//! Machinery shared by the workloads: settling after a bulk load, deadlines
//! on calls that may not return, the traced-run sampler, and reading the
//! map's own counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pma_common::obs::clock::{raw_now, Clock};
use pma_common::obs::metrics::MetricsSnapshot;
use pma_common::obs::{trace, Observations};
use pma_common::{ConcurrentMap, Key, Value};
use pma_workloads::factory;

use crate::ledger::{CpuLedger, ThreadReader, TraceTotals, BACKGROUND_GROUPS};
use crate::report::Outcome;
use crate::stats::median;

/// What every workload is given.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal length of the timed phase; the phase's fixed work is sized
    /// from it.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Cap on one settle wait after a bulk load.
pub const SETTLE_DEADLINE: Duration = Duration::from_secs(20);
/// Cap on the settle wait before a drop.
const PRE_DROP_SETTLE_DEADLINE: Duration = Duration::from_secs(5);
/// Cap on `flush()` before the final model check.
pub const FLUSH_DEADLINE: Duration = Duration::from_secs(15);
/// Cap on dropping a map.
pub const TEARDOWN_DEADLINE: Duration = Duration::from_secs(15);

const SETTLE_TICK: Duration = Duration::from_millis(100);
const SETTLE_WINDOW: Duration = Duration::from_millis(1000);
/// Background CPU per tick below which a tick counts as quiet (10% of a
/// core).
const QUIET_CPU_NS: u64 = SETTLE_TICK.as_nanos() as u64 / 10;

/// Nanoseconds between two raw clock readings.
#[inline]
pub fn elapsed_ns(start_raw: u64, end_raw: u64) -> u64 {
    Clock::global().raw_delta_to_ns(end_raw.wrapping_sub(start_raw))
}

/// Waits until a freshly loaded map has settled: its shard count unchanged
/// and the program's background threads nearly idle for a whole window.
/// Returns the seconds from `t0` to the start of that quiet window, and
/// whether the map settled before `deadline` (counted from `t0`).
pub fn settle(t0: Instant, deadline: Duration, shards: &dyn Fn() -> Option<f64>) -> (f64, bool) {
    let mut reader = ThreadReader::default();
    let first = reader.read();
    let mut prev_shards = shards();
    if prev_shards.is_none() && !first.iter().any(|t| BACKGROUND_GROUPS.contains(&t.group)) {
        // No shards and no background threads: nothing can still be moving.
        return (t0.elapsed().as_secs_f64(), true);
    }
    let mut prev: std::collections::HashMap<u32, u64> =
        first.into_iter().map(|t| (t.tid, t.cpu_ns)).collect();
    let mut quiet_since = Instant::now();
    loop {
        std::thread::sleep(SETTLE_TICK);
        let now = Instant::now();
        let mut busy_ns = 0u64;
        let mut next = std::collections::HashMap::new();
        for t in reader.read() {
            if BACKGROUND_GROUPS.contains(&t.group) {
                busy_ns += t
                    .cpu_ns
                    .saturating_sub(prev.get(&t.tid).copied().unwrap_or(0));
            }
            next.insert(t.tid, t.cpu_ns);
        }
        prev = next;
        let now_shards = shards();
        if busy_ns >= QUIET_CPU_NS || now_shards != prev_shards {
            quiet_since = now;
        }
        prev_shards = now_shards;
        if now.duration_since(quiet_since) >= SETTLE_WINDOW {
            return (quiet_since.duration_since(t0).as_secs_f64(), true);
        }
        if now.duration_since(t0) >= deadline {
            return (now.duration_since(t0).as_secs_f64(), false);
        }
    }
}

/// Bulk-loads `items` into a u64 map built from `spec` and waits for it to
/// settle; returns the map and the [`settle`] result.
pub fn build_u64(
    items: &[(Key, Value)],
    spec: &str,
    out: &mut Outcome,
) -> Option<(Arc<dyn ConcurrentMap>, (f64, bool))> {
    let t0 = Instant::now();
    match factory::build_loaded(spec, items) {
        Ok(map) => {
            let settled = settle(t0, SETTLE_DEADLINE, &|| counters(&*map).value("num_shards"));
            Some((map, settled))
        }
        Err(e) => {
            out.fail_run(format!("cannot build `{spec}`: {e}"));
            None
        }
    }
}

/// Runs `f` on a helper thread named `name` and waits at most `cap`.
/// Returns the seconds it took, or `Err` with the seconds waited when the
/// deadline passed (the helper is then left running until the process
/// exits).
pub fn with_deadline<F: FnOnce() + Send + 'static>(
    name: &str,
    cap: Duration,
    f: F,
) -> Result<f64, f64> {
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .expect("spawn helper thread");
    match rx.recv_timeout(cap) {
        Ok(()) => Ok(t0.elapsed().as_secs_f64()),
        Err(_) => Err(t0.elapsed().as_secs_f64()),
    }
}

/// Drops `map` under [`TEARDOWN_DEADLINE`], once its background work has
/// settled (so the drop is timed alone). A missed deadline is a failed
/// operation; the seconds waited are returned either way.
pub fn teardown<M: Send + 'static>(map: M, what: &str, out: &mut Outcome) -> f64 {
    settle(Instant::now(), PRE_DROP_SETTLE_DEADLINE, &|| None);
    out.attempted += 1;
    match with_deadline("bench-teardown", TEARDOWN_DEADLINE, move || drop(map)) {
        Ok(s) => s,
        Err(s) => {
            out.fail(format!(
                "dropping the {what} did not return within {s:.1} s"
            ));
            s
        }
    }
}

/// [`teardown`] of a map whose last `flush()` may have missed its deadline.
/// The stuck flush still holds the map then, so dropping it here would only
/// drop a reference and time nothing: that drop is noted and left untimed.
pub fn teardown_flushed<M: Send + 'static>(
    map: M,
    flushed: bool,
    what: &str,
    out: &mut Outcome,
) -> Option<f64> {
    if flushed {
        Some(teardown(map, what, out))
    } else {
        out.notes.push(format!(
            "a drop of the {what} is not timed: its flush never returned"
        ));
        None
    }
}

/// `teardown_s` of a run: the median drop, or the longest one when a drop
/// missed its deadline (so a stalled drop reports at the cap).
pub fn teardown_seconds(drops: &[f64]) -> f64 {
    let cap = TEARDOWN_DEADLINE.as_secs_f64();
    if drops.iter().any(|&s| s >= cap) {
        drops.iter().copied().fold(cap, f64::max)
    } else {
        median(drops)
    }
}

/// Runs a map's `flush()` under [`FLUSH_DEADLINE`]; a missed deadline
/// fails the run.
pub fn flush<F: FnOnce() + Send + 'static>(flush: F, out: &mut Outcome) -> bool {
    match with_deadline("bench-flush", FLUSH_DEADLINE, flush) {
        Ok(_) => true,
        Err(s) => {
            out.fail_run(format!("flush() did not return within {s:.1} s"));
            false
        }
    }
}

/// The map's exported counters and gauges.
pub fn counters(map: &dyn ConcurrentMap) -> MetricsSnapshot {
    let mut obs = Observations::new();
    map.observe_metrics(&mut obs);
    obs.into_snapshot()
}

/// Change of a named counter between two snapshots.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.value(name).unwrap_or(0.0) - before.value(name).unwrap_or(0.0)
}

/// Median of the setup times, noting any setup that did not settle.
pub fn setup_seconds(times: &[(f64, bool)], out: &mut Outcome) -> f64 {
    for (i, &(s, settled)) in times.iter().enumerate() {
        if !settled {
            out.notes
                .push(format!("setup {i} did not settle within {s:.1} s"));
        }
    }
    median(&times.iter().map(|&(s, _)| s).collect::<Vec<_>>())
}

/// What the traced-run sampler gathered over a phase.
#[derive(Debug, Default)]
pub struct Sampled {
    pub trace: TraceTotals,
    pub cpu: CpuLedger,
    pub queue_depth_max: f64,
}

/// Background sampler of a traced phase: drains the trace rings every 10 ms
/// (so a ring is not overwritten before it is read), reads the thread CPU
/// ledger every 50 ms and samples the map's combining-queue depth.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    state: Arc<Mutex<Sampled>>,
}

impl Sampler {
    /// Starts sampling; events already in the rings are discarded.
    pub fn start(queue_depth: Option<Box<dyn Fn() -> f64 + Send>>) -> Sampler {
        trace::drain_all();
        let state = Arc::new(Mutex::new(Sampled {
            cpu: CpuLedger::start(),
            ..Sampled::default()
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-sampler".into())
                .spawn(move || {
                    let mut tick = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(10));
                        let depth = queue_depth.as_ref().map_or(0.0, |f| f());
                        let mut s = state.lock().unwrap();
                        s.trace.drain();
                        s.queue_depth_max = s.queue_depth_max.max(depth);
                        if tick.is_multiple_of(5) {
                            s.cpu.observe();
                        }
                        tick += 1;
                    }
                })
                .expect("spawn sampler")
        };
        Sampler {
            stop,
            handle,
            state,
        }
    }

    /// Stops sampling and returns what was gathered.
    pub fn stop(self) -> Sampled {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread");
        let mut s = std::mem::take(&mut *self.state.lock().unwrap());
        s.trace.drain();
        s.cpu.observe();
        s
    }
}

/// Coordinates the two threads of a timed phase. Each thread does a fixed
/// amount of measured work; whichever finishes first keeps its load running,
/// unmeasured, until the other is done, so all measured work ran under the
/// same contention. A deadline bounds the phase if the program stalls.
pub struct Phase {
    done: [AtomicBool; 2],
    deadline: Instant,
    /// Set when the deadline cut the measured work short.
    pub cut: AtomicBool,
}

impl Phase {
    /// A phase that must end by `deadline`.
    pub fn new(deadline: Instant) -> Phase {
        Phase {
            done: [AtomicBool::new(false), AtomicBool::new(false)],
            deadline,
            cut: AtomicBool::new(false),
        }
    }

    /// Marks side `side` (0 or 1) as done with its measured work.
    pub fn finish(&self, side: usize) {
        self.done[side].store(true, Ordering::Release);
    }

    /// Whether side `side` has finished its measured work.
    pub fn is_done(&self, side: usize) -> bool {
        self.done[side].load(Ordering::Acquire)
    }

    /// Whether the deadline has passed (and marks the phase as cut).
    pub fn expired(&self) -> bool {
        let expired = Instant::now() >= self.deadline;
        if expired {
            self.cut.store(true, Ordering::Relaxed);
        }
        expired
    }

    /// Whether side `side`'s unmeasured tail should keep going.
    pub fn keep_loading(&self, side: usize) -> bool {
        !self.is_done(1 - side) && Instant::now() < self.deadline
    }

    /// Drives side `side`: calls `op(measured)` for `quota` measured calls,
    /// then unmeasured ones until the other side is done. The deadline is
    /// checked every `check_every` calls.
    pub fn drive(
        &self,
        side: usize,
        quota: u64,
        check_every: u64,
        mut op: impl FnMut(bool),
    ) -> Drive {
        let start = raw_now();
        let mut measured_ns = None;
        let mut i = 0u64;
        loop {
            let measured = i < quota;
            if i == quota {
                measured_ns = Some(elapsed_ns(start, raw_now()));
                self.finish(side);
            }
            if i.is_multiple_of(check_every)
                && (if measured {
                    self.expired()
                } else {
                    !self.keep_loading(side)
                })
            {
                break;
            }
            op(measured);
            i += 1;
        }
        let measured_ns = measured_ns.unwrap_or_else(|| {
            self.finish(side);
            elapsed_ns(start, raw_now())
        });
        Drive {
            measured: i.min(quota),
            measured_ns,
            calls: i,
        }
    }
}

/// What one side of a phase did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Drive {
    /// Measured calls (the quota, unless the deadline cut the phase).
    pub measured: u64,
    /// Time of the measured calls.
    pub measured_ns: u64,
    /// All calls, measured or not.
    pub calls: u64,
}

impl Drive {
    /// Measured calls per second, in millions.
    pub fn mops(&self) -> f64 {
        self.measured as f64 / self.measured_ns.max(1) as f64 * 1e3
    }
}

/// The deadline of a timed phase sized for `seconds`.
pub fn phase_deadline(seconds: u64) -> Instant {
    Instant::now() + Duration::from_secs(4 * seconds + 20)
}

/// What each thread of a timed phase reports besides its samples.
#[derive(Debug, Default)]
pub struct Side {
    /// Its calls.
    pub run: Drive,
    /// Operations it attempted (a call may issue several).
    pub attempted: u64,
    /// Its first 100 wrong answers.
    pub wrong: Vec<String>,
}

impl Side {
    /// Records a wrong answer (described lazily: most runs have none).
    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        if self.wrong.len() < 100 {
            self.wrong.push(what());
        }
    }
}

/// Runs one timed phase on two threads named `names`: `a` drives side 0 of
/// the [`Phase`] and `b` side 1, until both have done their measured work.
/// A deadline cut is noted, and each side's attempted operations and wrong
/// answers are folded into `out`.
pub fn two_threads<A, B>(
    deadline: Instant,
    names: [&str; 2],
    a: impl FnOnce(&Phase) -> A + Send,
    b: impl FnOnce(&Phase) -> B + Send,
    out: &mut Outcome,
) -> (A, B)
where
    A: AsMut<Side> + Send,
    B: AsMut<Side> + Send,
{
    let phase = Phase::new(deadline);
    let (mut a, mut b) = std::thread::scope(|scope| {
        let spawn = |name: &str| std::thread::Builder::new().name(name.to_string());
        let a = spawn(names[0])
            .spawn_scoped(scope, || a(&phase))
            .expect("spawn phase thread");
        let b = spawn(names[1])
            .spawn_scoped(scope, || b(&phase))
            .expect("spawn phase thread");
        (a.join().expect(names[0]), b.join().expect(names[1]))
    });
    if phase.cut.load(Ordering::Relaxed) {
        out.notes
            .push("a phase hit its deadline before its work was done".into());
    }
    for side in [a.as_mut(), b.as_mut()] {
        out.attempted += side.attempted;
        for w in std::mem::take(&mut side.wrong) {
            out.fail(w);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_returns_or_gives_up() {
        assert!(with_deadline("t-ok", Duration::from_secs(5), || {}).is_ok());
        let (tx, rx) = mpsc::channel::<()>();
        let waited = with_deadline("t-stuck", Duration::from_millis(50), move || {
            let _ = rx.recv();
        });
        assert!(waited.unwrap_err() >= 0.05);
        drop(tx);
    }

    #[test]
    fn teardown_counts_an_attempt() {
        let mut out = Outcome::default();
        let s = teardown(vec![1u8; 1024], "vector", &mut out);
        assert!(s >= 0.0);
        assert_eq!((out.attempted, out.failed), (1, 0));
    }

    #[test]
    fn settle_returns_once_quiet() {
        let t0 = Instant::now();
        let (s, settled) = settle(t0, SETTLE_DEADLINE, &|| Some(8.0));
        assert!(settled);
        assert!(s < 0.5, "nothing runs in the background here: {s}");
    }

    #[test]
    fn phase_sides_wait_for_each_other() {
        let phase = Phase::new(Instant::now() + Duration::from_secs(60));
        assert!(phase.keep_loading(0));
        phase.finish(1);
        assert!(!phase.keep_loading(0));
        assert!(phase.is_done(1) && !phase.is_done(0));
        let past = Phase::new(Instant::now());
        assert!(past.expired());
        assert!(past.cut.load(Ordering::Relaxed));
    }

    #[test]
    fn drive_meets_its_quota_then_waits_for_the_other_side() {
        let phase = Phase::new(Instant::now() + Duration::from_secs(60));
        let mut measured = 0;
        phase.finish(1);
        let d = phase.drive(0, 10, 1, |m| measured += m as u64);
        assert_eq!((d.measured, d.calls, measured), (10, 10, 10));
        assert!(phase.is_done(0) && d.mops() > 0.0);

        let cut = Phase::new(Instant::now());
        let d = cut.drive(0, 10, 1, |_| {});
        assert_eq!((d.measured, d.calls), (0, 0));
        assert!(cut.is_done(0));
    }

    #[test]
    fn teardown_of_an_unflushed_map_is_not_timed() {
        let mut out = Outcome::default();
        assert_eq!(
            teardown_flushed(vec![0u8; 16], false, "vector", &mut out),
            None
        );
        assert_eq!((out.attempted, out.notes.len()), (0, 1));
        assert!(teardown_flushed(vec![0u8; 16], true, "vector", &mut out).is_some());
        assert_eq!(out.attempted, 1);
    }

    #[test]
    fn teardown_seconds_is_the_median_unless_a_drop_stalled() {
        assert_eq!(teardown_seconds(&[0.3, 0.1, 0.2]), 0.2);
        let cap = TEARDOWN_DEADLINE.as_secs_f64();
        assert_eq!(teardown_seconds(&[0.1, cap + 0.5, 0.2]), cap + 0.5);
    }

    #[derive(Default)]
    struct Count(Side);

    impl AsMut<Side> for Count {
        fn as_mut(&mut self) -> &mut Side {
            &mut self.0
        }
    }

    #[test]
    fn two_threads_fold_attempts_and_wrong_answers() {
        let mut out = Outcome::default();
        let side = |side: usize, wrong: bool| {
            move |phase: &Phase| {
                let mut c = Count::default();
                c.0.run = phase.drive(side, 5, 1, |_| {});
                c.0.attempted = c.0.run.calls;
                if wrong {
                    c.0.wrong(|| "wrong".into());
                }
                c
            }
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let (a, b) = two_threads(
            deadline,
            ["t-a", "t-b"],
            side(0, false),
            side(1, true),
            &mut out,
        );
        assert!(a.0.run.measured == 5 && b.0.run.measured == 5);
        assert_eq!(out.attempted, a.0.run.calls + b.0.run.calls);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn setup_seconds_is_the_median() {
        let mut out = Outcome::default();
        assert_eq!(
            setup_seconds(&[(3.0, true), (1.0, true), (2.0, false)], &mut out),
            2.0
        );
        assert_eq!(out.notes.len(), 1);
    }
}
