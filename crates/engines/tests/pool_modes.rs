//! The mode matrix: static sharding, the multithreaded stealing pool
//! and the single-threaded replay simulator run every task through the
//! same worker and the same `Scheduler`, so deadlines, supervised
//! restarts, the scheduling policy and the admission budget must behave
//! alike in all three. Each scenario runs on one worker, where no mode
//! can move work, so the three runs must agree exactly.

use std::time::Duration;

use cm_core::EngineConfig;
use cm_engines::{
    run_pool, JobSpec, Outcome, Policy, PoolConfig, PoolReport, PoolSpec, RunResult, SchedConfig,
    StealConfig, StealSchedule, WorkerHost,
};

const SPIN: &str = "(define (spin n) (if (zero? n) 'done (spin (- n 1))))";

const MODES: [&str; 3] = ["static", "stealing", "replay"];

/// Runs `jobs` (name, expression) on one worker in `mode`.
fn run(mode: &str, sched: SchedConfig, engine: EngineConfig, jobs: &[(&str, &str)]) -> PoolReport {
    let steal = match mode {
        "static" => None,
        "stealing" => Some(StealConfig {
            migrate: true,
            ..Default::default()
        }),
        _ => Some(StealConfig {
            migrate: true,
            replay: Some(StealSchedule {
                workers: 1,
                events: Vec::new(),
            }),
            ..Default::default()
        }),
    };
    let spec = PoolSpec {
        setups: vec![SPIN.into()],
        jobs: jobs
            .iter()
            .map(|(name, run)| JobSpec {
                name: (*name).into(),
                run: (*run).into(),
                expected: Some("done".into()),
            })
            .collect(),
        verify: true,
    };
    let config = PoolConfig {
        workers: 1,
        sched,
        engine,
        steal,
    };
    run_pool(&config, &spec)
}

fn with_deadline(ms: u64) -> EngineConfig {
    let mut engine = EngineConfig::default();
    engine.machine.deadline = Some(Duration::from_millis(ms));
    engine
}

/// Task names in retirement order.
fn retired(report: &PoolReport) -> Vec<&str> {
    report.workers[0]
        .reports
        .iter()
        .map(|r| r.name.as_str())
        .collect()
}

/// The machine re-arms its own deadline at every slice, so with
/// 500-step slices only the scheduler's cumulative clock — started when
/// the pool accepted the job — can stop a task that needs ~2.4M steps.
#[test]
fn deadline_times_out_between_slices() {
    for mode in MODES {
        let sched = SchedConfig {
            slice: 500,
            ..Default::default()
        };
        let report = run(mode, sched, with_deadline(5), &[("hog", "(spin 300000)")]);
        let r = report.all_reports()[0];
        assert_eq!(r.outcome, Outcome::TimedOut, "{mode}: {r:?}");
        assert!(r.turnaround < Duration::from_secs(5), "{mode}: {r:?}");
    }
}

/// With checkpointing, a task that needs more CPU than one deadline
/// grants restarts from its last suspension until it completes, and its
/// report counts the work of every attempt — at least an uninterrupted
/// run's. The deadline leaves room for worker setup, which its clock
/// includes, even in a loaded debug build; the work outlasts it even in
/// a release build.
#[test]
fn checkpoint_restart_completes_and_keeps_every_attempts_steps() {
    let run_src = "(spin 2500000)";
    let mut host = WorkerHost::new(EngineConfig::default());
    host.load(SPIN).unwrap();
    let uninterrupted = match host.spawn(run_src).unwrap().run(u64::MAX) {
        RunResult::Done(_, stats) => stats.steps_executed,
        other => panic!("expected Done, got {other:?}"),
    };
    for mode in MODES {
        let sched = SchedConfig {
            slice: 50_000,
            checkpoint: true,
            retry_budget: 10_000,
            backoff_base: 1,
            ..Default::default()
        };
        let report = run(mode, sched, with_deadline(250), &[("marathon", run_src)]);
        assert!(report.is_clean(), "{mode}: {:?}", report.all_reports());
        let r = report.all_reports()[0];
        assert!(r.retries > 0, "{mode}: never hit the deadline: {r:?}");
        assert!(r.checkpoints > 0, "{mode}: {r:?}");
        assert!(
            r.steps >= uninterrupted,
            "{mode}: {} < {uninterrupted}",
            r.steps
        );
    }
}

/// Every job carries the same deadline length from the same acceptance
/// instant, so EDF runs them in acceptance order, each to completion;
/// round-robin lets the short job finish first.
#[test]
fn edf_runs_in_deadline_order_on_one_worker() {
    let jobs = [("long", "(spin 3000)"), ("short", "(spin 50)")];
    for mode in MODES {
        for (policy, order) in [
            (Policy::EarliestDeadlineFirst, ["long", "short"]),
            (Policy::RoundRobin, ["short", "long"]),
        ] {
            let sched = SchedConfig {
                policy,
                slice: 100,
                ..Default::default()
            };
            let report = run(mode, sched, with_deadline(60_000), &jobs);
            assert!(report.is_clean(), "{mode} {policy:?}");
            assert_eq!(retired(&report), order, "{mode} {policy:?}");
        }
    }
}

/// Over budget, a worker admits nothing more from its inbox but keeps
/// one task live: with a zero-byte budget (gc_stress keeps the heap
/// gauge current and nonzero) the long first job drains before the
/// short second one is admitted, inverting the round-robin order. No
/// checkpointing is needed for the gauge to read.
#[test]
fn budget_backpressure_holds_fresh_jobs_in_the_inbox() {
    let jobs = [("long", "(spin 3000)"), ("short", "(spin 50)")];
    let mut engine = EngineConfig::default();
    engine.machine.gc_stress = true;
    for mode in MODES {
        for (budget, order) in [(Some(0), ["long", "short"]), (None, ["short", "long"])] {
            let sched = SchedConfig {
                slice: 100,
                pool_budget_bytes: budget,
                ..Default::default()
            };
            let report = run(mode, sched, engine.clone(), &jobs);
            assert!(report.is_clean(), "{mode} {budget:?}");
            assert_eq!(retired(&report), order, "{mode} {budget:?}");
        }
    }
}
