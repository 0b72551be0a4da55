//! The slice loop: a single-threaded, multi-tenant scheduler over
//! suspendable engines.
//!
//! One scheduler owns the live [`Engine`]s of one worker (all sharing
//! that worker's `Globals`, hence pinned to one thread) and interleaves
//! them in fuel slices. It is the only place an engine runs a slice:
//! every pool mode — static sharding, the stealing pool, the replay
//! simulator — drives its workers through a [`Scheduler`]. Two policies:
//!
//! * [`Policy::RoundRobin`] — FIFO; every runnable task gets one slice per
//!   turn of the queue.
//! * [`Policy::EarliestDeadlineFirst`] — the runnable task with the
//!   nearest wall-clock deadline runs next; deadline-free tasks fill in
//!   behind.
//!
//! Per-task timeouts reuse [`MachineConfig::deadline`]: the engine's
//! machine enforces the wall-clock cutoff *inside* long slices, and the
//! scheduler enforces it *between* slices, counted from when the task
//! was accepted (queue wait counts; in a pool that is the pool's start,
//! so worker setup and verification baselines count too), and a slice
//! smaller than the machine's deadline-poll stride still times out.
//!
//! # Supervision
//!
//! With [`SchedConfig::checkpoint`] on, the scheduler snapshots every
//! task at every suspension ([`Engine::snapshot`]) and becomes a
//! supervisor: a task that *faults* — runtime error (including injected
//! faults and [`VmErrorKind::HeapLimitExceeded`]) or deadline overrun —
//! is restarted from its last checkpoint instead of retired, up to
//! [`SchedConfig::retry_budget`] times, with exponential backoff
//! ([`SchedConfig::backoff_base`] scheduler ticks, doubling per retry).
//! A restarted task resumes on a restored engine with its own globals
//! (recovery is isolated: post-checkpoint global writes are rolled
//! back), and its deadline clock restarts with the attempt. Tasks that
//! fault before their first checkpoint, or exhaust the budget, retire
//! with the original outcome. A report sums every attempt's counters.
//!
//! [`MachineConfig::deadline`]: cm_vm::MachineConfig
//! [`VmErrorKind::HeapLimitExceeded`]: cm_vm::VmErrorKind

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cm_vm::{MachineStats, VmErrorKind};

use crate::engine::{Engine, RunResult};
use crate::spans::SpanLog;

/// Which runnable task gets the next slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// FIFO turn-taking.
    RoundRobin,
    /// Nearest wall-clock deadline first; deadline-free tasks last.
    EarliestDeadlineFirst,
}

impl Policy {
    /// Parses a policy name (`rr` / `edf`, long forms accepted).
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "rr" | "round-robin" => Some(Policy::RoundRobin),
            "edf" | "deadline" | "earliest-deadline-first" => Some(Policy::EarliestDeadlineFirst),
            _ => None,
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Slice-picking policy.
    pub policy: Policy,
    /// Fuel (instruction count) per slice.
    pub slice: u64,
    /// Verify machine invariants at every suspension (slow; tests and
    /// torture runs).
    pub check_invariants: bool,
    /// Record a `"slice"` span per scheduler pick (and, in a pool,
    /// `"steal"` / `"migrate"` / `"worker"` / `"pool"` spans) for the
    /// timeline `cm-trace` exports. Off by default: a disabled scheduler
    /// takes no clock reads for spans.
    pub record_spans: bool,
    /// Snapshot every task at every suspension and supervise it:
    /// faulting tasks restart from their last checkpoint (see the
    /// module docs). Off by default — checkpointing serializes the
    /// task's reachable heap once per slice.
    pub checkpoint: bool,
    /// Maximum automatic restarts per task (only with `checkpoint`).
    pub retry_budget: u32,
    /// Backoff before the first restart, in scheduler ticks (one tick
    /// per slice picked); doubles with each further retry of the same
    /// task. `0` restarts immediately.
    pub backoff_base: u64,
    /// Admission-control budget for pool workers: while the worker
    /// thread's live heap ([`cm_vm::heap_stats`]) exceeds this many
    /// bytes, the worker admits nothing more from its inbox, though one
    /// task always stays live. `None` disables backpressure.
    pub pool_budget_bytes: Option<u64>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            policy: Policy::RoundRobin,
            slice: 10_000,
            check_invariants: false,
            record_spans: false,
            checkpoint: false,
            retry_budget: 3,
            backoff_base: 2,
            pool_budget_bytes: None,
        }
    }
}

/// How a task ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Finished; holds the result's display string (rendered eagerly so
    /// reports are `Send`).
    Completed(String),
    /// Died with a runtime error (rendered message).
    Failed(String),
    /// Exceeded its [`MachineConfig::deadline`](cm_vm::MachineConfig)
    /// before finishing.
    TimedOut,
}

/// Per-task accounting, produced when the task leaves the scheduler.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Submission-order id, unique within one scheduler (a pool's job
    /// index).
    pub id: usize,
    /// Caller-supplied label.
    pub name: String,
    /// How the task ended.
    pub outcome: Outcome,
    /// Slices consumed (a completed task's final partial slice counts).
    pub slices: u64,
    /// Instructions executed ([`MachineStats::steps_executed`]) over
    /// every attempt and hop — the fairness measure.
    pub steps: u64,
    /// Heap objects the tenant allocated
    /// ([`MachineStats::allocations`]).
    pub allocations: u64,
    /// Heap collections the tenant's machines ran
    /// ([`MachineStats::collections`]).
    pub collections: u64,
    /// High-water mark of the tenant's live heap bytes, as measured at
    /// its collections ([`MachineStats::bytes_live_peak`]); `0` when the
    /// task never collected.
    pub bytes_live_peak: u64,
    /// Accept-to-finish wall time (queue wait included).
    pub turnaround: Duration,
    /// Supervised restarts this task consumed (`0` without
    /// [`SchedConfig::checkpoint`] or when it never faulted).
    pub retries: u32,
    /// Checkpoints taken for this task (one per suspension when
    /// [`SchedConfig::checkpoint`] is on).
    pub checkpoints: u64,
    /// Cross-worker moves of this task's *suspended* state — each one a
    /// serialize-on-victim / restore-on-thief round trip through
    /// [`Engine::snapshot`]. Always `0` outside the work-stealing pool.
    pub migrations: u32,
    /// Times this task was taken by a worker other than the one holding
    /// it — fresh-job steals included, so every migration is also a
    /// steal. Always `0` outside the work-stealing pool.
    pub steals: u32,
}

/// One task's record: identity, expectation and accounting. It outlives
/// any one engine — a restored engine (supervised restart, migration
/// hop) counts from zero, so each finished machine epoch is folded in
/// here — and it travels with the task between workers.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub id: usize,
    pub name: String,
    /// Entry source: a task that never ran is re-spawned from it.
    pub run: String,
    /// The uninterrupted result, when known; a mismatch is reported.
    pub expected: Option<String>,
    /// When the task was accepted; turnaround and deadline count from it.
    pub accepted: Instant,
    pub deadline_at: Option<Instant>,
    pub slices: u64,
    pub steps: u64,
    pub allocations: u64,
    pub collections: u64,
    pub bytes_live_peak: u64,
    pub migrations: u32,
    pub steals: u32,
    pub retries: u32,
    pub checkpoints: u64,
    /// Last durable checkpoint (serialized engine), when supervising.
    pub checkpoint: Option<Vec<u8>>,
}

impl Record {
    pub fn new(id: usize, name: String, accepted: Instant) -> Record {
        Record {
            id,
            name,
            run: String::new(),
            expected: None,
            accepted,
            deadline_at: None,
            slices: 0,
            steps: 0,
            allocations: 0,
            collections: 0,
            bytes_live_peak: 0,
            migrations: 0,
            steals: 0,
            retries: 0,
            checkpoints: 0,
            checkpoint: None,
        }
    }

    /// Folds one machine epoch's counters in (at every restart, hop and
    /// retirement).
    pub fn absorb(&mut self, stats: &MachineStats) {
        self.steps += stats.steps_executed;
        self.allocations += stats.allocations;
        self.collections += stats.collections;
        self.bytes_live_peak = self.bytes_live_peak.max(stats.bytes_live_peak);
    }

    /// The task's report: the one place a [`TaskReport`] is built.
    pub fn report(self, outcome: Outcome) -> TaskReport {
        TaskReport {
            id: self.id,
            name: self.name,
            outcome,
            slices: self.slices,
            steps: self.steps,
            allocations: self.allocations,
            collections: self.collections,
            bytes_live_peak: self.bytes_live_peak,
            turnaround: self.accepted.elapsed(),
            retries: self.retries,
            checkpoints: self.checkpoints,
            migrations: self.migrations,
            steals: self.steals,
        }
    }
}

/// A live task: its record plus the engine holding its state.
pub(crate) struct Task {
    pub record: Record,
    pub engine: Engine,
}

/// What one [`Scheduler::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing was runnable.
    Idle,
    /// A task ran (or timed out before running) and left the queue or
    /// went back to it without suspending anew.
    Ran,
    /// Task `.0` suspended after its `.1`-th slice; it is the last task
    /// in the queue ([`Scheduler::pop_last`]).
    Suspended(usize, u64),
}

/// The scheduler: a runnable queue, faulted tasks in backoff, and the
/// reports of retired ones.
pub struct Scheduler {
    config: SchedConfig,
    runnable: VecDeque<Task>,
    // Faulted tasks waiting out their backoff, with the tick at which
    // each becomes runnable again.
    parked: Vec<(u64, Task)>,
    // The record of the task whose slice is running, so a worker that
    // panics mid-slice still knows every task it held.
    running: Option<Record>,
    tick: u64,
    submitted: usize,
    pub(crate) reports: Vec<TaskReport>,
    pub(crate) mismatches: Vec<String>,
    pub(crate) spans: SpanLog,
    /// Instructions run across every slice, whichever task they served.
    pub(crate) steps_executed: u64,
    // Timeline lane for recorded spans (a pool worker's index).
    tid: u32,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new(config: SchedConfig) -> Scheduler {
        Scheduler::for_worker(config, Instant::now(), 0)
    }

    /// A pool worker's scheduler: spans share the pool's origin and sit
    /// in the worker's lane.
    pub(crate) fn for_worker(config: SchedConfig, origin: Instant, tid: u32) -> Scheduler {
        Scheduler {
            config,
            runnable: VecDeque::new(),
            parked: Vec::new(),
            running: None,
            tick: 0,
            submitted: 0,
            reports: Vec::new(),
            mismatches: Vec::new(),
            spans: SpanLog::with_origin(origin),
            steps_executed: 0,
            tid,
        }
    }

    /// Submits an engine under a display name; returns its task id. The
    /// deadline clock (if the engine has one) starts now.
    pub fn submit(&mut self, name: impl Into<String>, engine: Engine) -> usize {
        let id = self.submitted;
        self.admit(Record::new(id, name.into(), Instant::now()), engine);
        id
    }

    /// Queues a task under its record — fresh, or carrying accounting
    /// from earlier attempts and workers.
    pub(crate) fn admit(&mut self, mut record: Record, engine: Engine) {
        self.submitted += 1;
        if record.deadline_at.is_none() {
            record.deadline_at = engine
                .deadline()
                .and_then(|d| record.accepted.checked_add(d));
        }
        self.runnable.push_back(Task { record, engine });
    }

    /// Tasks still queued, suspended, or parked in backoff.
    pub fn pending(&self) -> usize {
        self.runnable.len() + self.parked.len()
    }

    /// Takes out the task that the last [`Step::Suspended`] put back.
    pub(crate) fn pop_last(&mut self) -> Option<Task> {
        self.runnable.pop_back()
    }

    /// Puts a task back at the end of the queue.
    pub(crate) fn requeue(&mut self, task: Task) {
        self.runnable.push_back(task);
    }

    /// Takes out every task still held, runnable or parked.
    pub(crate) fn drain(&mut self) -> Vec<Task> {
        let parked = self.parked.drain(..).map(|(_, task)| task);
        self.runnable.drain(..).chain(parked).collect()
    }

    /// The records of every task held, the running one included.
    pub(crate) fn held(&mut self) -> Vec<Record> {
        let mut held: Vec<Record> = self.running.take().into_iter().collect();
        held.extend(self.drain().into_iter().map(|t| t.record));
        held
    }

    /// Records a span in this scheduler's lane, from `start` (`None`: a
    /// zero-length mark) to now — when recording spans at all. Pool
    /// workers use it for their moves and their whole run.
    pub(crate) fn span(
        &mut self,
        name: &str,
        cat: &'static str,
        start: Option<Instant>,
        args: Vec<(&'static str, String)>,
    ) {
        if self.config.record_spans {
            let now = Instant::now();
            let start = start.unwrap_or(now);
            self.spans.record(name, cat, self.tid, start, now, args);
        }
    }

    /// Moves parked tasks whose backoff has elapsed back to the runnable
    /// queue; when nothing is runnable but tasks remain parked,
    /// fast-forwards the tick to the earliest release.
    fn unpark_due(&mut self) {
        if self.runnable.is_empty() {
            if let Some(next) = self.parked.iter().map(|&(at, _)| at).min() {
                self.tick = self.tick.max(next);
            }
        }
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].0 <= self.tick {
                let (_, task) = self.parked.swap_remove(i);
                self.runnable.push_back(task);
            } else {
                i += 1;
            }
        }
    }

    fn pick(&self) -> Option<usize> {
        match self.config.policy {
            Policy::RoundRobin => (!self.runnable.is_empty()).then_some(0),
            Policy::EarliestDeadlineFirst => self
                .runnable
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| {
                    let r = &t.record;
                    // None sorts after every Some; FIFO among ties.
                    (r.deadline_at.is_none(), r.deadline_at, r.id)
                })
                .map(|(pos, _)| pos),
        }
    }

    /// Retires a task whose counters are all folded in, checking a
    /// completed result against its expectation.
    pub(crate) fn retire(&mut self, record: Record, outcome: Outcome) {
        if let (Outcome::Completed(got), Some(want)) = (&outcome, &record.expected) {
            if got != want {
                self.mismatches.push(format!(
                    "{}: sliced run produced {got}, uninterrupted run produced {want}",
                    record.name
                ));
            }
        }
        self.reports.push(record.report(outcome));
    }

    /// Handles a faulted task: restart from its last checkpoint with
    /// exponential backoff while budget remains, else retire it with the
    /// faulting outcome.
    fn fault(&mut self, mut record: Record, outcome: Outcome) {
        let can_restart = self.config.checkpoint && record.retries < self.config.retry_budget;
        let Some(bytes) = record.checkpoint.as_deref().filter(|_| can_restart) else {
            return self.retire(record, outcome);
        };
        match Engine::restore(bytes) {
            Ok(engine) => {
                record.retries += 1;
                // The attempt's deadline clock restarts with the attempt.
                record.deadline_at = engine
                    .deadline()
                    .and_then(|d| Instant::now().checked_add(d));
                let backoff = self
                    .config
                    .backoff_base
                    .saturating_mul(1u64 << (record.retries - 1).min(62));
                let release = self.tick.saturating_add(backoff);
                self.parked.push((release, Task { record, engine }));
            }
            Err(e) => {
                // A checkpoint that no longer restores is itself a fault;
                // surface both failures rather than retrying blindly.
                let orig = match outcome {
                    Outcome::Failed(msg) | Outcome::Completed(msg) => msg,
                    Outcome::TimedOut => "deadline exceeded".into(),
                };
                let msg = format!("{orig}; checkpoint restore failed: {e}");
                self.retire(record, Outcome::Failed(msg));
            }
        }
    }

    /// Runs one slice of one task — the only place an engine runs.
    pub(crate) fn step(&mut self) -> Step {
        self.tick = self.tick.saturating_add(1);
        self.unpark_due();
        let Some(pos) = self.pick() else {
            return Step::Idle;
        };
        let Task { mut record, engine } = self.runnable.remove(pos).expect("picked task");
        if record.deadline_at.is_some_and(|at| Instant::now() >= at) {
            record.absorb(&engine.stats());
            self.fault(record, Outcome::TimedOut);
            return Step::Ran;
        }
        record.slices += 1;
        let steps_before = engine.stats().steps_executed;
        let span_start = self.config.record_spans.then(Instant::now);
        self.running = Some(record);
        let result = engine.run(self.config.slice);
        let slice_span = span_start.map(|start| (start, Instant::now()));
        let mut record = self.running.take().expect("set before the slice");
        let (outcome, stats) = match &result {
            RunResult::Done(_, s) => ("done", *s),
            RunResult::Suspended(_, s) => ("suspended", *s),
            RunResult::Failed(_, s) => ("failed", *s),
        };
        let steps = stats.steps_executed - steps_before;
        self.steps_executed += steps;
        if let Some((start, end)) = slice_span {
            let args = vec![
                ("task", record.id.to_string()),
                ("slice", record.slices.to_string()),
                ("steps", steps.to_string()),
                ("outcome", outcome.to_string()),
            ];
            let name = record.name.clone();
            self.spans.record(name, "slice", self.tid, start, end, args);
        }
        match result {
            RunResult::Done(v, _) => {
                record.absorb(&stats);
                self.retire(record, Outcome::Completed(v.write_string()));
            }
            RunResult::Failed(e, _) => {
                record.absorb(&stats);
                let outcome = if e.kind == VmErrorKind::DeadlineExceeded {
                    Outcome::TimedOut
                } else {
                    Outcome::Failed(e.to_string())
                };
                self.fault(record, outcome);
            }
            RunResult::Suspended(mut engine, _) => {
                let mut refused = None;
                if self.config.check_invariants {
                    refused = engine
                        .check_invariants()
                        .err()
                        .map(|msg| format!("invariant violated: {msg}"));
                }
                if self.config.checkpoint && refused.is_none() {
                    match engine.snapshot() {
                        Ok(bytes) => {
                            record.checkpoint = Some(bytes);
                            record.checkpoints += 1;
                        }
                        // A task whose state cannot checkpoint is not
                        // supervisable; fail it rather than silently
                        // running without crash coverage.
                        Err(e) => refused = Some(format!("checkpoint failed: {e}")),
                    }
                }
                if let Some(msg) = refused {
                    record.absorb(&stats);
                    self.retire(record, Outcome::Failed(msg));
                    return Step::Ran;
                }
                let (id, slices) = (record.id, record.slices);
                self.runnable.push_back(Task { record, engine });
                return Step::Suspended(id, slices);
            }
        }
        Step::Ran
    }

    /// Runs until every task has retired; returns the per-task reports in
    /// retirement order.
    pub fn run_all(self) -> Vec<TaskReport> {
        self.run_all_traced().0
    }

    /// Like [`Scheduler::run_all`], but also returns the recorded
    /// per-slice spans (empty unless [`SchedConfig::record_spans`]).
    pub fn run_all_traced(mut self) -> (Vec<TaskReport>, SpanLog) {
        while self.step() != Step::Idle {}
        (self.reports, self.spans)
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.config.policy)
            .field("pending", &self.pending())
            .field("retired", &self.reports.len())
            .finish()
    }
}

/// Aggregate throughput / latency / fairness over a batch of task
/// reports.
#[derive(Debug, Clone)]
pub struct SchedMetrics {
    /// Total tasks retired.
    pub tasks: usize,
    /// Tasks that completed normally.
    pub completed: usize,
    /// Tasks that died with a runtime error.
    pub failed: usize,
    /// Tasks that hit their deadline.
    pub timed_out: usize,
    /// Wall time for the whole batch.
    pub wall: Duration,
    /// Sum of per-task instruction counts.
    pub total_steps: u64,
    /// Sum of per-task slice counts.
    pub total_slices: u64,
    /// Retired tasks per wall-clock second.
    pub tasks_per_sec: f64,
    /// Instructions per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean turnaround.
    pub latency_mean: Duration,
    /// Median turnaround.
    pub latency_p50: Duration,
    /// 95th-percentile turnaround.
    pub latency_p95: Duration,
    /// 99th-percentile turnaround — the serving tier's tail-latency
    /// headline number.
    pub latency_p99: Duration,
    /// Worst turnaround.
    pub latency_max: Duration,
    /// Jain fairness index over per-task `steps` — 1.0 when every task got
    /// identical CPU, approaching `1/n` under total starvation. Only
    /// meaningful when tasks want similar amounts of work.
    pub fairness_jain: f64,
    /// Sum of per-task [`TaskReport::migrations`] — suspended-engine
    /// moves through the snapshot codec.
    pub total_migrations: u64,
    /// Sum of per-task [`TaskReport::steals`] — work items taken by a
    /// worker other than the one holding them.
    pub total_steals: u64,
}

/// Jain's fairness index over arbitrary nonnegative shares: `1.0` when
/// every share is identical, approaching `1/n` when one share holds
/// everything. The pool uses it both over per-task steps (CPU fairness)
/// and over per-worker executed steps (load balance).
pub fn jain_index(shares: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut sum, mut sum_sq) = (0usize, 0.0f64, 0.0f64);
    for s in shares {
        n += 1;
        sum += s;
        sum_sq += s * s;
    }
    if n == 0 || sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (n as f64 * sum_sq)
    }
}

impl SchedMetrics {
    /// Computes metrics from reports plus the batch's wall time.
    pub fn from_reports(reports: &[TaskReport], wall: Duration) -> SchedMetrics {
        let tasks = reports.len();
        let completed = reports
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Completed(_)))
            .count();
        let failed = reports
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Failed(_)))
            .count();
        let timed_out = tasks - completed - failed;
        let total_steps: u64 = reports.iter().map(|r| r.steps).sum();
        let total_slices: u64 = reports.iter().map(|r| r.slices).sum();
        let secs = wall.as_secs_f64().max(1e-9);
        let mut lat: Vec<Duration> = reports.iter().map(|r| r.turnaround).collect();
        lat.sort_unstable();
        let pick = |q: f64| -> Duration {
            if lat.is_empty() {
                Duration::ZERO
            } else {
                let idx = ((lat.len() - 1) as f64 * q).round() as usize;
                lat[idx.min(lat.len() - 1)]
            }
        };
        let latency_mean = if lat.is_empty() {
            Duration::ZERO
        } else {
            lat.iter().sum::<Duration>() / lat.len() as u32
        };
        let fairness_jain = jain_index(reports.iter().map(|r| r.steps as f64));
        SchedMetrics {
            tasks,
            completed,
            failed,
            timed_out,
            wall,
            total_steps,
            total_slices,
            tasks_per_sec: tasks as f64 / secs,
            steps_per_sec: total_steps as f64 / secs,
            latency_mean,
            latency_p50: pick(0.50),
            latency_p95: pick(0.95),
            latency_p99: pick(0.99),
            latency_max: lat.last().copied().unwrap_or(Duration::ZERO),
            fairness_jain,
            total_migrations: reports.iter().map(|r| u64::from(r.migrations)).sum(),
            total_steals: reports.iter().map(|r| u64::from(r.steals)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkerHost;
    use cm_core::EngineConfig;
    use std::time::Duration;

    fn spinner_host() -> WorkerHost {
        let mut host = WorkerHost::new(EngineConfig::default());
        host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        host
    }

    #[test]
    fn round_robin_drains_everything() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            check_invariants: true,
            ..Default::default()
        });
        for i in 0..20 {
            let engine = host.spawn(&format!("(spin {})", 200 + i * 50)).unwrap();
            sched.submit(format!("spin-{i}"), engine);
        }
        let start = Instant::now();
        let reports = sched.run_all();
        let metrics = SchedMetrics::from_reports(&reports, start.elapsed());
        assert_eq!(metrics.tasks, 20);
        assert_eq!(metrics.completed, 20);
        assert!(reports
            .iter()
            .all(|r| r.outcome == Outcome::Completed("done".into())));
        // Every task needed several slices at 100 fuel per slice.
        assert!(reports.iter().all(|r| r.slices > 1), "{reports:?}");
    }

    #[test]
    fn round_robin_is_fair_for_identical_tasks() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 97,
            ..Default::default()
        });
        for i in 0..8 {
            sched.submit(format!("t{i}"), host.spawn("(spin 3000)").unwrap());
        }
        let start = Instant::now();
        let reports = sched.run_all();
        let metrics = SchedMetrics::from_reports(&reports, start.elapsed());
        assert!(
            metrics.fairness_jain > 0.999,
            "identical tasks should share CPU evenly: {}",
            metrics.fairness_jain
        );
    }

    #[test]
    fn edf_runs_urgent_task_first() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            policy: Policy::EarliestDeadlineFirst,
            slice: 50,
            ..Default::default()
        });
        // Two slow tasks without deadlines, one urgent one with.
        sched.submit("slow-a", host.spawn("(spin 5000)").unwrap());
        sched.submit("slow-b", host.spawn("(spin 5000)").unwrap());
        let mut cfg = EngineConfig::default();
        cfg.machine.deadline = Some(Duration::from_secs(60));
        let mut urgent_host = WorkerHost::new(cfg);
        urgent_host
            .load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        sched.submit("urgent", urgent_host.spawn("(spin 500)").unwrap());
        let reports = sched.run_all();
        // The deadline-bearing task must retire before the deadline-free
        // ones despite being submitted last.
        assert_eq!(reports[0].name, "urgent");
        assert_eq!(reports[0].outcome, Outcome::Completed("done".into()));
    }

    #[test]
    fn slice_spans_cover_every_pick() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            record_spans: true,
            ..Default::default()
        });
        for i in 0..3 {
            sched.submit(format!("t{i}"), host.spawn("(spin 500)").unwrap());
        }
        let (reports, spans) = sched.run_all_traced();
        let total_slices: u64 = reports.iter().map(|r| r.slices).sum();
        assert_eq!(spans.len() as u64, total_slices);
        assert!(spans.spans().iter().all(|s| s.cat == "slice" && s.tid == 0));
        // Every span carries the per-slice step count.
        assert!(spans
            .spans()
            .iter()
            .all(|s| s.args.iter().any(|(k, _)| *k == "steps")));
    }

    #[test]
    fn spans_off_by_default() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig::default());
        sched.submit("t", host.spawn("(spin 100)").unwrap());
        let (_, spans) = sched.run_all_traced();
        assert!(spans.is_empty());
    }

    #[test]
    fn task_reports_carry_memory_accounting() {
        // One tenant churns the heap, one only counts; their retirement
        // reports must expose the difference.
        let mut cfg = EngineConfig::default();
        cfg.machine.gc_stress = true; // force collections within the run
        let mut host = WorkerHost::new(cfg);
        host.load(
            "(define (build n acc)
               (if (zero? n) 'done (build (- n 1) (cons n acc))))
             (define (spin n) (if (zero? n) 'done (spin (- n 1))))",
        )
        .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 200,
            ..Default::default()
        });
        sched.submit("alloc-heavy", host.spawn("(build 500 '())").unwrap());
        sched.submit("alloc-light", host.spawn("(spin 500)").unwrap());
        let reports = sched.run_all();
        let by_name = |n: &str| reports.iter().find(|r| r.name == n).unwrap();
        let heavy = by_name("alloc-heavy");
        let light = by_name("alloc-light");
        assert_eq!(heavy.outcome, Outcome::Completed("done".into()));
        assert!(heavy.allocations >= 400, "{heavy:?}");
        assert!(heavy.collections > 0, "{heavy:?}");
        assert!(heavy.bytes_live_peak > 0, "{heavy:?}");
        assert!(
            heavy.allocations > light.allocations,
            "heavy {heavy:?} vs light {light:?}"
        );
        assert!(heavy.bytes_live_peak > light.bytes_live_peak);
    }

    #[test]
    fn checkpointing_counts_and_does_not_disturb_results() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            checkpoint: true,
            ..Default::default()
        });
        sched.submit("t", host.spawn("(spin 2000)").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert_eq!(r.outcome, Outcome::Completed("done".into()), "{r:?}");
        assert_eq!(r.retries, 0);
        // One checkpoint per suspension: every slice but the final one.
        assert_eq!(r.checkpoints, r.slices - 1, "{r:?}");
    }

    #[test]
    fn supervisor_restarts_after_deadline_and_completes() {
        // The task needs far more wall time than one deadline grants, but
        // checkpoints persist across attempts: each restart resumes from
        // the last suspension with a fresh clock, so progress accumulates
        // until the task completes. This is the crash-recovery payoff —
        // without checkpointing the same config retires `TimedOut`.
        let uninterrupted = match spinner_host()
            .spawn("(spin 2000000)")
            .unwrap()
            .run(u64::MAX)
        {
            RunResult::Done(_, stats) => stats.steps_executed,
            other => panic!("expected Done, got {other:?}"),
        };
        let mut cfg = EngineConfig::default();
        cfg.machine.deadline = Some(Duration::from_millis(20));
        let mut host = WorkerHost::new(cfg);
        host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 10_000,
            checkpoint: true,
            retry_budget: 500,
            backoff_base: 1,
            ..Default::default()
        });
        sched.submit("marathon", host.spawn("(spin 2000000)").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert_eq!(r.outcome, Outcome::Completed("done".into()), "{r:?}");
        assert!(r.retries > 0, "never hit the deadline: {r:?}");
        assert!(r.checkpoints > 0, "{r:?}");
        // Every attempt's work counts, not just the last machine's.
        assert!(r.steps >= uninterrupted, "{} < {uninterrupted}", r.steps);
    }

    #[test]
    fn supervisor_exhausts_retry_budget_on_persistent_fault() {
        // A heap-limit fault caused by *live* data refires after every
        // restart (the checkpoint faithfully preserves the live graph),
        // so the supervisor burns its whole budget and then surfaces the
        // real failure.
        let mut cfg = EngineConfig::default();
        cfg.machine = cfg.machine.with_max_heap_bytes(32 * 1024);
        cfg.machine.gc_stress = true;
        let mut host = WorkerHost::new(cfg);
        host.load(
            "(define (build n acc)
               (if (zero? n) acc (build (- n 1) (cons n acc))))",
        )
        .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 200,
            checkpoint: true,
            retry_budget: 2,
            backoff_base: 1,
            ..Default::default()
        });
        sched.submit("hog", host.spawn("(build 100000 '())").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert!(
            matches!(&r.outcome, Outcome::Failed(msg) if msg.contains("heap limit")),
            "{r:?}"
        );
        assert_eq!(r.retries, 2, "{r:?}");
        assert!(r.checkpoints > 0, "{r:?}");
    }

    #[test]
    fn fault_before_first_checkpoint_retires_immediately() {
        // A fault early in the first slice leaves nothing to restart
        // from; the supervisor must not loop on a task it has no
        // checkpoint for.
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 10_000,
            checkpoint: true,
            retry_budget: 5,
            ..Default::default()
        });
        sched.submit("doomed", host.spawn("(car 5)").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert!(matches!(&r.outcome, Outcome::Failed(_)), "{r:?}");
        assert_eq!(r.retries, 0, "{r:?}");
        assert_eq!(r.checkpoints, 0, "{r:?}");
    }

    #[test]
    fn failed_task_does_not_poison_neighbors() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 64,
            ..Default::default()
        });
        sched.submit("ok", host.spawn("(spin 1000)").unwrap());
        sched.submit("bad", host.spawn("(car 5)").unwrap());
        sched.submit("ok2", host.spawn("(spin 100)").unwrap());
        let reports = sched.run_all();
        let by_name = |n: &str| reports.iter().find(|r| r.name == n).unwrap();
        assert!(matches!(by_name("bad").outcome, Outcome::Failed(_)));
        assert_eq!(by_name("ok").outcome, Outcome::Completed("done".into()));
        assert_eq!(by_name("ok2").outcome, Outcome::Completed("done".into()));
    }
}
