//! The pool: N workers, each a [`WorkerHost`], a [`Scheduler`] and an
//! inbox, with jobs sharded across them by `id % workers`.
//!
//! The VM's values are `Rc`-based and single-threaded by design, so an
//! engine never crosses threads. Only `Send` data does: job *specs*
//! (source strings) and suspended engines serialized to snapshot bytes
//! go in, rendered [`TaskReport`]s come out. Each worker builds its own
//! prelude-loaded host, loads the setup definitions once, computes the
//! verification baselines of its initial shard, and then admits from the
//! front of its inbox — up to 32 live engines, fewer while the heap is
//! over [`SchedConfig::pool_budget_bytes`] — into the scheduler that runs
//! every slice.
//!
//! Every task has one record that survives supervised restarts and
//! moves between workers, so deadline, checkpoint, retry and accounting
//! behave alike in all three modes, which differ only in who moves work:
//!
//! * **Static sharding** ([`PoolConfig::steal`] unset): one thread per
//!   worker and no moves — deterministic placement, so the
//!   sliced-vs-uninterrupted oracle runs against an unmoving pool.
//! * **Stealing pool**: one thread per worker; idle workers steal and
//!   busy ones donate (see [`crate::steal`]).
//! * **Replay simulator**: the same workers stepped round-robin on one
//!   thread; moves and kills come from a recorded schedule.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cm_core::EngineConfig;

use crate::engine::{Engine, WorkerHost};
use crate::sched::{Outcome, Record, SchedConfig, SchedMetrics, Scheduler, Task, TaskReport};
use crate::spans::Span;
use crate::steal::{self, StealConfig, StealSchedule};

/// Most engines a worker keeps live (materialized) at once; further
/// work waits in its inbox, where thieves can reach it.
const LOCAL_CAP: usize = 32;

/// One unit of work: an expression to run (against the pool's shared
/// setup definitions), plus what it should produce.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name in reports.
    pub name: String,
    /// Entry expression, compiled into a fresh engine on the worker.
    pub run: String,
    /// Expected result (display string). `None` with
    /// [`PoolSpec::verify`] set means the worker computes a baseline by
    /// evaluating `run` uninterrupted before scheduling it.
    pub expected: Option<String>,
}

/// A batch of jobs plus the definitions they share.
#[derive(Debug, Clone, Default)]
pub struct PoolSpec {
    /// Definition sources each worker evaluates once before spawning
    /// engines (workload bodies, helper functions).
    pub setups: Vec<String>,
    /// The jobs, sharded round-robin across workers.
    pub jobs: Vec<JobSpec>,
    /// Check every completed job's result against its expectation;
    /// missing expectations are filled by an uninterrupted baseline run
    /// on the worker.
    pub verify: bool,
}

/// Pool-level knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker count (clamped to at least 1).
    pub workers: usize,
    /// Scheduler configuration, cloned into every worker.
    pub sched: SchedConfig,
    /// Engine configuration (one of the eight engine variants), cloned
    /// into every worker.
    pub engine: EngineConfig,
    /// Work-stealing mode. `None` (the default) keeps the static
    /// sharded pool. `Some` with [`StealConfig::replay`] unset runs the
    /// multithreaded stealing pool; with `replay` set it runs the
    /// deterministic single-threaded simulator instead.
    pub steal: Option<StealConfig>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 4,
            sched: SchedConfig::default(),
            engine: EngineConfig::default(),
            steal: None,
        }
    }
}

/// What one worker produced.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Worker index (also the shard residue).
    pub worker: usize,
    /// Per-task reports in retirement order.
    pub reports: Vec<TaskReport>,
    /// Human-readable result mismatches (empty unless
    /// [`PoolSpec::verify`] or a job's `expected`).
    pub mismatches: Vec<String>,
    /// Pool start to this worker's finish.
    pub wall: Duration,
    /// Timeline spans (per-slice `"slice"` spans, `"steal"` / `"migrate"`
    /// marks, and one `"worker"` span), all relative to the pool's start
    /// and tagged with this worker's index as `tid`. Empty unless
    /// [`SchedConfig::record_spans`].
    pub spans: Vec<Span>,
    /// Instructions this worker actually executed (across every task it
    /// ran slices of, including tasks that later migrated away). The
    /// Jain index over these is the pool's *load-balance* measure —
    /// unlike per-task fairness, it stays meaningful when tasks want
    /// wildly different amounts of work.
    pub steps_executed: u64,
    /// Set if the worker thread panicked; the tasks it held fail.
    pub panicked: Option<String>,
}

/// The pool's combined result.
#[derive(Debug)]
pub struct PoolReport {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerSummary>,
    /// Batch wall time (submit to last worker joined).
    pub wall: Duration,
    /// Metrics over every task from every worker.
    pub metrics: SchedMetrics,
    /// Every cross-worker move, when the stealing pool ran with
    /// [`StealConfig::record`] (or replayed a schedule). Feed it back
    /// through [`StealConfig::replay`] to reproduce the run
    /// deterministically.
    pub schedule: Option<StealSchedule>,
    /// Pool-level spans (one `"pool"` metrics span carrying
    /// p50/p95/p99, Jain fairness, and migration counts). Empty unless
    /// [`SchedConfig::record_spans`].
    pub pool_spans: Vec<Span>,
}

impl WorkerSummary {
    /// A worker that panicked before it held anything.
    pub(crate) fn lost(worker: usize, panicked: Option<String>, epoch: Instant) -> WorkerSummary {
        WorkerSummary {
            worker,
            reports: Vec::new(),
            mismatches: Vec::new(),
            wall: epoch.elapsed(),
            spans: Vec::new(),
            steps_executed: 0,
            panicked,
        }
    }
}

impl PoolReport {
    /// All task reports across workers.
    pub fn all_reports(&self) -> Vec<&TaskReport> {
        self.workers.iter().flat_map(|w| &w.reports).collect()
    }

    /// All mismatches across workers.
    pub fn all_mismatches(&self) -> Vec<&str> {
        self.workers
            .iter()
            .flat_map(|w| w.mismatches.iter().map(String::as_str))
            .collect()
    }

    /// All timeline spans across workers (one shared time origin, lanes
    /// keyed by `tid`), plus the pool-level metrics span.
    pub fn all_spans(&self) -> Vec<&Span> {
        self.workers
            .iter()
            .flat_map(|w| &w.spans)
            .chain(&self.pool_spans)
            .collect()
    }

    /// True when every job completed with the expected result and no
    /// worker panicked.
    pub fn is_clean(&self) -> bool {
        self.metrics.failed == 0
            && self.metrics.timed_out == 0
            && self
                .workers
                .iter()
                .all(|w| w.panicked.is_none() && w.mismatches.is_empty())
    }
}

/// What sits in an inbox: a task's record plus, once it has run, its
/// snapshot bytes. Plain `Send` data — engines exist only inside one
/// worker.
pub(crate) struct Packet {
    pub record: Record,
    /// `None`: the task never ran, and any worker compiles `record.run`.
    pub snapshot: Option<Vec<u8>>,
}

impl Packet {
    fn fresh(id: usize, job: &JobSpec, accepted: Instant) -> Packet {
        let mut record = Record::new(id, job.name.clone(), accepted);
        record.run.clone_from(&job.run);
        record.expected.clone_from(&job.expected);
        Packet {
            record,
            snapshot: None,
        }
    }

    /// Serializes a live task for a move to another worker, folding the
    /// machine's counters into the record (the receiver's restored
    /// machine counts from zero). A task that never ran travels as its
    /// source. Hands the task back when the engine refuses to serialize.
    #[allow(clippy::result_large_err)] // a refused move keeps the task
    fn pack(task: Task) -> Result<Packet, (Task, String)> {
        let Task {
            mut record,
            mut engine,
        } = task;
        let snapshot = if engine.is_suspended() {
            match engine.snapshot() {
                Ok(bytes) => Some(bytes),
                Err(e) => return Err((Task { record, engine }, e.to_string())),
            }
        } else {
            None
        };
        record.absorb(&engine.stats());
        record.steals += 1;
        record.migrations += u32::from(snapshot.is_some());
        Ok(Packet { record, snapshot })
    }
}

/// One worker: a host, the scheduler that runs its slices, and the
/// admission rule that feeds it from an inbox the driver holds.
pub(crate) struct Worker<'a> {
    pub w: usize,
    config: &'a PoolConfig,
    verify: bool,
    // `Err` when a setup failed: every task this worker admits fails.
    host: Result<WorkerHost, String>,
    pub sched: Scheduler,
    epoch: Instant,
}

impl<'a> Worker<'a> {
    pub fn new(w: usize, config: &'a PoolConfig, spec: &PoolSpec, epoch: Instant) -> Worker<'a> {
        let mut host = WorkerHost::new(config.engine.clone());
        let host = spec
            .setups
            .iter()
            .enumerate()
            .try_for_each(|(i, setup)| {
                host.load(setup)
                    .map_err(|e| format!("worker setup #{i} failed: {e}"))
            })
            .map(|()| host);
        let tid = u32::try_from(w).unwrap_or(u32::MAX);
        Worker {
            w,
            config,
            verify: spec.verify,
            host,
            sched: Scheduler::for_worker(config.sched.clone(), epoch, tid),
            epoch,
        }
    }

    /// Whether every setup loaded; a worker that failed one steals
    /// nothing.
    pub fn is_ready(&self) -> bool {
        self.host.is_ok()
    }

    /// Fills in the missing expectations of `inbox` — this worker's
    /// initial shard — with uninterrupted baseline runs, before any
    /// sliced run touches the shared globals. Stolen packets carry
    /// theirs along.
    pub fn baselines(&mut self, inbox: &mut VecDeque<Packet>) {
        let (true, Ok(host)) = (self.verify, &mut self.host) else {
            return;
        };
        for pkt in inbox.iter_mut().filter(|p| p.record.expected.is_none()) {
            match host.eval(&pkt.record.run) {
                Ok(v) => pkt.record.expected = Some(v.write_string()),
                Err(e) => {
                    let name = &pkt.record.name;
                    self.sched
                        .mismatches
                        .push(format!("{name}: baseline run failed: {e}"));
                }
            }
        }
    }

    /// The one admission rule: take packets from the inbox front while
    /// fewer than [`LOCAL_CAP`] tasks are live and the thread's heap is
    /// within [`SchedConfig::pool_budget_bytes`] — but always keep one
    /// task live.
    pub fn admit(&mut self, mut next: impl FnMut() -> Option<Packet>) {
        let budget = self.config.sched.pool_budget_bytes;
        while self.sched.pending() < LOCAL_CAP
            && (self.sched.pending() == 0
                || budget.is_none_or(|b| cm_vm::heap_stats().bytes_live <= b))
        {
            let Some(Packet { record, snapshot }) = next() else {
                return;
            };
            let engine = match (&mut self.host, snapshot) {
                (Err(msg), _) => Err(msg.clone()),
                (Ok(host), None) => host
                    .spawn(&record.run)
                    .map_err(|e| format!("compile failed: {e}")),
                (Ok(_), Some(bytes)) => {
                    Engine::restore(&bytes).map_err(|e| format!("migration restore failed: {e}"))
                }
            };
            match engine {
                Ok(engine) => self.sched.admit(record, engine),
                Err(msg) => self.sched.retire(record, Outcome::Failed(msg)),
            }
        }
    }

    /// Takes out the task that just suspended, serialized for a move to
    /// worker `to`. `None` when it refuses to serialize: it stays here.
    pub fn evict_last(&mut self, to: usize) -> Option<Packet> {
        let task = self.sched.pop_last()?;
        match Packet::pack(task) {
            Ok(pkt) => {
                let args = vec![
                    ("task", pkt.record.id.to_string()),
                    ("to", to.to_string()),
                    ("suspension", pkt.record.slices.to_string()),
                    (
                        "bytes",
                        pkt.snapshot.as_ref().map_or(0, Vec::len).to_string(),
                    ),
                ];
                self.sched.span(&pkt.record.name, "migrate", None, args);
                Some(pkt)
            }
            Err((task, _)) => {
                self.sched.requeue(task);
                None
            }
        }
    }

    /// Takes out every task this worker holds (it is being killed); one
    /// that refuses to serialize fails here.
    pub fn evict_all(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        for task in self.sched.drain() {
            match Packet::pack(task) {
                Ok(pkt) => out.push(pkt),
                Err((task, e)) => {
                    let msg = format!("worker killed; snapshot failed: {e}");
                    self.sched.retire(task.record, Outcome::Failed(msg));
                }
            }
        }
        out
    }

    /// The worker's summary. After a panic, every task it still held
    /// fails: its engine is gone.
    pub fn finish(mut self, panicked: Option<String>) -> WorkerSummary {
        if let Some(msg) = &panicked {
            for record in self.sched.held() {
                let outcome = Outcome::Failed(format!("worker panicked: {msg}"));
                self.sched.retire(record, outcome);
            }
        }
        let steps = self.sched.steps_executed;
        let args = vec![("steps", steps.to_string())];
        let name = format!("worker-{}", self.w);
        self.sched.span(&name, "worker", Some(self.epoch), args);
        WorkerSummary {
            worker: self.w,
            reports: self.sched.reports,
            mismatches: self.sched.mismatches,
            wall: self.epoch.elapsed(),
            spans: self.sched.spans.into_spans(),
            steps_executed: steps,
            panicked,
        }
    }
}

/// The pool-level metrics span: one `"pool"`-category span spanning the
/// whole batch, carrying the latency percentiles (p50/p95/p99), Jain
/// fairness, and migration counters as args — the numbers `cm-trace`
/// surfaces on the exported timeline.
fn pool_metrics_spans(workers: usize, metrics: &SchedMetrics, enabled: bool) -> Vec<Span> {
    if !enabled {
        return Vec::new();
    }
    vec![Span {
        name: "pool".into(),
        cat: "pool",
        // One lane past the last worker, so the summary span doesn't
        // overlay a worker's own timeline.
        tid: u32::try_from(workers).unwrap_or(u32::MAX),
        start_us: 0,
        dur_us: u64::try_from(metrics.wall.as_micros()).unwrap_or(u64::MAX),
        args: vec![
            ("tasks", metrics.tasks.to_string()),
            ("p50_us", metrics.latency_p50.as_micros().to_string()),
            ("p95_us", metrics.latency_p95.as_micros().to_string()),
            ("p99_us", metrics.latency_p99.as_micros().to_string()),
            ("jain", format!("{:.4}", metrics.fairness_jain)),
            ("migrations", metrics.total_migrations.to_string()),
            ("steals", metrics.total_steals.to_string()),
        ],
    }]
}

/// Runs a batch of jobs and gathers the combined report. Worker panics
/// are caught and surfaced in the summary, never propagated.
///
/// With [`PoolConfig::steal`] set the workers steal and donate
/// (multithreaded), or replay a schedule in the deterministic
/// single-threaded simulator when [`StealConfig::replay`] or
/// [`StealConfig::kill_workers`] is set.
pub fn run_pool(config: &PoolConfig, spec: &PoolSpec) -> PoolReport {
    let replay = config
        .steal
        .as_ref()
        .filter(|sc| sc.replay.is_some() || !sc.kill_workers.is_empty());
    let workers = match replay.and_then(|sc| sc.replay.as_ref()) {
        Some(schedule) if schedule.workers > 0 => schedule.workers,
        _ => config.workers.max(1),
    };
    // The pool accepts every job now: turnaround and deadlines count
    // from here, queue wait included.
    let epoch = Instant::now();
    let mut inboxes: Vec<VecDeque<Packet>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (id, job) in spec.jobs.iter().enumerate() {
        inboxes[id % workers].push_back(Packet::fresh(id, job, epoch));
    }
    let (summaries, schedule) = match replay {
        Some(sc) => steal::run_replay(config, spec, sc, inboxes, epoch),
        None => steal::run_threads(config, spec, inboxes, epoch),
    };
    let wall = epoch.elapsed();
    let all: Vec<TaskReport> = summaries
        .iter()
        .flat_map(|s| s.reports.iter().cloned())
        .collect();
    let metrics = SchedMetrics::from_reports(&all, wall);
    let pool_spans = pool_metrics_spans(workers, &metrics, config.sched.record_spans);
    PoolReport {
        metrics,
        workers: summaries,
        wall,
        schedule,
        pool_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_spec(jobs: usize) -> PoolSpec {
        PoolSpec {
            setups: vec!["(define (spin n) (if (zero? n) 'done (spin (- n 1))))".into()],
            jobs: (0..jobs)
                .map(|i| JobSpec {
                    name: format!("spin-{i}"),
                    run: format!("(spin {})", 100 + (i % 7) * 100),
                    expected: Some("done".into()),
                })
                .collect(),
            verify: true,
        }
    }

    #[test]
    fn pool_shards_and_completes() {
        let config = PoolConfig {
            workers: 4,
            sched: SchedConfig {
                slice: 128,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_pool(&config, &spin_spec(40));
        assert_eq!(report.metrics.tasks, 40);
        assert_eq!(report.metrics.completed, 40);
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.workers.len(), 4);
        for w in &report.workers {
            assert_eq!(w.reports.len(), 10);
        }
        // Global ids survive the per-worker id remap: every id 0..40 once.
        let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn pool_detects_result_mismatch_via_expectation() {
        let config = PoolConfig {
            workers: 2,
            ..Default::default()
        };
        let mut spec = spin_spec(4);
        spec.jobs[2].expected = Some("never".into());
        let report = run_pool(&config, &spec);
        assert!(!report.is_clean());
        assert_eq!(report.all_mismatches().len(), 1);
        assert!(report.all_mismatches()[0].starts_with("spin-2:"));
    }

    #[test]
    fn pool_records_worker_and_slice_spans_on_one_timeline() {
        let config = PoolConfig {
            workers: 2,
            sched: SchedConfig {
                slice: 64,
                record_spans: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_pool(&config, &spin_spec(6));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        let spans = report.all_spans();
        assert_eq!(spans.iter().filter(|s| s.cat == "worker").count(), 2);
        assert!(spans.iter().any(|s| s.cat == "slice"));
        // Workers occupy lanes 0..N; the pool-level metrics span sits in
        // its own lane just past the last worker.
        let tids: std::collections::HashSet<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids, [0u32, 1, 2].into_iter().collect());
        assert_eq!(spans.iter().filter(|s| s.cat == "pool").count(), 1);
    }

    /// A worker that held tasks 3 and 7 when it panicked, in a pool that
    /// started 40 ms ago.
    fn panicked_summary() -> WorkerSummary {
        let epoch = Instant::now() - Duration::from_millis(40);
        let config = PoolConfig::default();
        let spec = spin_spec(8);
        let mut worker = Worker::new(1, &config, &spec, epoch);
        let mut inbox: VecDeque<Packet> = [3, 7]
            .into_iter()
            .map(|id| Packet::fresh(id, &spec.jobs[id], epoch))
            .collect();
        worker.admit(|| inbox.pop_front());
        worker.finish(Some("boom".into()))
    }

    #[test]
    fn panicked_worker_fails_every_queued_task() {
        let summary = panicked_summary();
        assert_eq!(summary.panicked.as_deref(), Some("boom"));
        let mut ids: Vec<usize> = summary.reports.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 7]);
        assert!(summary.reports.iter().all(|r| matches!(
            &r.outcome,
            Outcome::Failed(msg) if msg == "worker panicked: boom"
        )));
        // A panicked shard must count as failed work, not clean work.
        let report = PoolReport {
            metrics: SchedMetrics::from_reports(&summary.reports, Duration::from_millis(1)),
            workers: vec![summary],
            wall: Duration::from_millis(1),
            schedule: None,
            pool_spans: Vec::new(),
        };
        assert!(!report.is_clean());
        assert_eq!(report.metrics.failed, 2);
    }

    #[test]
    fn panicked_summary_carries_real_wall_time_not_zero() {
        // Regression: a panicked worker used to report `wall: ZERO` and
        // zero turnarounds, dragging the batch's latency percentiles
        // toward zero. The crash must be charged the time it actually
        // consumed (pool epoch → panic).
        let summary = panicked_summary();
        assert!(
            summary.wall >= Duration::from_millis(40),
            "{:?}",
            summary.wall
        );
        assert!(summary
            .reports
            .iter()
            .all(|r| r.turnaround >= Duration::from_millis(40)));
        // And the aggregate percentiles see the real latency, not zero.
        let metrics = SchedMetrics::from_reports(&summary.reports, summary.wall);
        assert!(metrics.latency_p50 >= Duration::from_millis(40));
        assert!(metrics.latency_p99 >= Duration::from_millis(40));
    }

    #[test]
    fn pool_computes_baselines_when_unspecified() {
        let config = PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let spec = PoolSpec {
            setups: vec![],
            jobs: (0..6)
                .map(|i| JobSpec {
                    name: format!("sum-{i}"),
                    run: format!("(+ {i} 10)"),
                    expected: None,
                })
                .collect(),
            verify: true,
        };
        let report = run_pool(&config, &spec);
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.metrics.completed, 6);
    }
}
