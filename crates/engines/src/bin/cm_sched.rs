//! `cm-sched` — run the paper's §2 examples and benchmark workloads as
//! thousands of concurrent engines over a multi-worker scheduler, and
//! report throughput, latency, and fairness.
//!
//! ```text
//! cm-sched [--quick] [--tasks N] [--workers N] [--slice FUEL]
//!          [--policy rr|edf] [--config NAME]... [--config all]
//!          [--deadline-ms N] [--no-verify] [--per-task] [--invariants]
//!          [--checkpoint] [--retry-budget N] [--backoff TICKS]
//!          [--pool-budget-mb N] [--fail-prim-at N]
//!          [--steal] [--migrate] [--record-schedule PATH]
//!          [--replay-schedule PATH]
//! ```
//!
//! Every flag composes: static sharding, `--steal` and
//! `--replay-schedule` run the same per-worker scheduler, so `--policy`,
//! `--deadline-ms`, `--checkpoint` (with its retry and backoff knobs)
//! and `--pool-budget-mb` apply in every mode.
//!
//! With `--checkpoint` the per-worker schedulers become supervisors:
//! every task is snapshotted at every suspension, and a faulting task
//! (runtime error, injected fault, heap limit, deadline) restarts from
//! its last checkpoint with exponential backoff instead of retiring.
//! `--fail-prim-at N` arms deterministic fault injection on every
//! engine: each task fails its Nth primitive call, counted across all of
//! its slices (a task restored from a checkpoint or migrated starts a
//! fresh count). Together with `--checkpoint` this demonstrates
//! end-to-end crash recovery: the run exits zero only when every task
//! still completes with the expected result.
//!
//! Every task is one engine: a §2 example or a small-scale workload
//! entry, compiled against its worker's shared globals and preempted
//! every `--slice` instructions. With verification on (the default),
//! each task's sliced result is compared against the uninterrupted
//! expectation — a mismatch means suspend/resume corrupted marks,
//! winders, or frames, and the run exits nonzero.
//!
//! With `--steal` the pool becomes a work-stealing serving tier: idle
//! workers take fresh jobs from the back of other workers' queues, and
//! with `--migrate` they also take *started* engines, serialized
//! through the snapshot codec at the victim's next suspension.
//! `--record-schedule PATH` writes every cross-worker move as a
//! deterministic steal schedule; `--replay-schedule PATH` re-runs it in
//! the single-threaded simulator, reproducing every migration decision
//! exactly.

use std::process::ExitCode;
use std::time::Duration;

use cm_engines::{
    run_pool, JobSpec, Policy, PoolConfig, PoolReport, PoolSpec, SchedConfig, StealConfig,
    StealSchedule,
};
use cm_torture::{engine_configs, torture_targets};

struct Args {
    tasks: usize,
    workers: usize,
    slice: u64,
    policy: Policy,
    configs: Vec<String>,
    deadline_ms: Option<u64>,
    verify: bool,
    per_task: bool,
    invariants: bool,
    checkpoint: bool,
    retry_budget: u32,
    backoff: u64,
    pool_budget_mb: Option<u64>,
    fail_prim_at: Option<u64>,
    steal: bool,
    migrate: bool,
    record_schedule: Option<std::path::PathBuf>,
    replay_schedule: Option<std::path::PathBuf>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            tasks: 1000,
            workers: 4,
            slice: 10_000,
            policy: Policy::RoundRobin,
            configs: vec!["full".into()],
            deadline_ms: None,
            verify: true,
            per_task: false,
            invariants: false,
            checkpoint: false,
            retry_budget: 3,
            backoff: 2,
            pool_budget_mb: None,
            fail_prim_at: None,
            steal: false,
            migrate: false,
            record_schedule: None,
            replay_schedule: None,
        }
    }
}

const USAGE: &str = "usage: cm-sched [--quick] [--tasks N] [--workers N] [--slice FUEL]
                [--policy rr|edf] [--config NAME|all]... [--deadline-ms N]
                [--no-verify] [--per-task] [--invariants] [--checkpoint]
                [--retry-budget N] [--backoff TICKS] [--pool-budget-mb N]
                [--fail-prim-at N] [--steal] [--migrate]
                [--record-schedule PATH] [--replay-schedule PATH]

  --quick           CI preset: 200 tasks, 4 workers, slice 2000, invariants on
  --tasks N         total engines to schedule (default 1000)
  --workers N       worker threads, each with its own scheduler (default 4)
  --slice FUEL      instructions per slice (default 10000)
  --policy P        rr (round-robin, default) or edf (earliest deadline first)
  --config NAME     engine configuration (repeatable; `all` = the paper's 7)
  --deadline-ms N   per-task wall-clock timeout via MachineConfig::deadline
  --no-verify       skip comparing sliced results against uninterrupted runs
  --per-task        print one line per task
  --invariants      check machine invariants at every suspension
  --checkpoint      supervise: snapshot tasks at every suspension and restart
                    faulting tasks from their last checkpoint
  --retry-budget N  max supervised restarts per task (default 3)
  --backoff TICKS   scheduler ticks before the first restart, doubling per
                    retry (default 2)
  --pool-budget-mb N  admit no more queued tasks while a worker's live
                    heap exceeds this budget (backpressure)
  --fail-prim-at N  arm fault injection: every engine fails its Nth
                    primitive call, counted across its slices; a restored
                    engine counts afresh (pairs with --checkpoint for
                    recovery)
  --steal           work-stealing pool: idle workers take fresh jobs from
                    the back of other workers' queues
  --migrate         with --steal: also migrate *started* engines via the
                    snapshot codec at the victim's next suspension
  --record-schedule PATH  write every cross-worker move as a replayable
                    steal schedule (implies --steal)
  --replay-schedule PATH  replay a recorded schedule deterministically in
                    the single-threaded simulator (implies --steal)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let mut configs_set = false;
    while let Some(arg) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--quick" => {
                args.tasks = 200;
                args.workers = 4;
                args.slice = 2_000;
                args.invariants = true;
            }
            "--tasks" => {
                args.tasks = take("--tasks")?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?;
            }
            "--workers" => {
                args.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--slice" => {
                args.slice = take("--slice")?
                    .parse()
                    .map_err(|e| format!("--slice: {e}"))?;
            }
            "--policy" => {
                let p = take("--policy")?;
                args.policy =
                    Policy::parse(&p).ok_or_else(|| format!("unknown policy `{p}` (rr|edf)"))?;
            }
            "--config" => {
                if !configs_set {
                    args.configs.clear();
                    configs_set = true;
                }
                args.configs.push(take("--config")?);
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--no-verify" => args.verify = false,
            "--per-task" => args.per_task = true,
            "--invariants" => args.invariants = true,
            "--checkpoint" => args.checkpoint = true,
            "--retry-budget" => {
                args.retry_budget = take("--retry-budget")?
                    .parse()
                    .map_err(|e| format!("--retry-budget: {e}"))?;
            }
            "--backoff" => {
                args.backoff = take("--backoff")?
                    .parse()
                    .map_err(|e| format!("--backoff: {e}"))?;
            }
            "--pool-budget-mb" => {
                args.pool_budget_mb = Some(
                    take("--pool-budget-mb")?
                        .parse()
                        .map_err(|e| format!("--pool-budget-mb: {e}"))?,
                );
            }
            "--fail-prim-at" => {
                args.fail_prim_at = Some(
                    take("--fail-prim-at")?
                        .parse()
                        .map_err(|e| format!("--fail-prim-at: {e}"))?,
                );
            }
            "--steal" => args.steal = true,
            "--migrate" => {
                args.steal = true;
                args.migrate = true;
            }
            "--record-schedule" => {
                args.steal = true;
                args.record_schedule = Some(take("--record-schedule")?.into());
            }
            "--replay-schedule" => {
                args.steal = true;
                args.replay_schedule = Some(take("--replay-schedule")?.into());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.tasks == 0 {
        return Err("--tasks must be at least 1".into());
    }
    Ok(args)
}

/// Builds the job batch: the torture corpus (§2 examples + one small
/// workload per group) cycled out to `tasks` engines.
fn build_spec(tasks: usize, verify: bool) -> PoolSpec {
    let targets = torture_targets(true);
    let mut setups = Vec::new();
    for t in &targets {
        if !t.setup.is_empty() && !setups.contains(&t.setup) {
            setups.push(t.setup.clone());
        }
    }
    let jobs = (0..tasks)
        .map(|i| {
            let t = &targets[i % targets.len()];
            JobSpec {
                name: format!("{}#{}", t.name, i / targets.len()),
                run: t.run.clone(),
                expected: t.expected.clone(),
            }
        })
        .collect();
    PoolSpec {
        setups,
        jobs,
        verify,
    }
}

fn ms(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

fn print_report(config_name: &str, args: &Args, report: &PoolReport) {
    let m = &report.metrics;
    println!(
        "[{config_name}] {} tasks on {} workers (slice {}, policy {:?})",
        m.tasks,
        report.workers.len(),
        args.slice,
        args.policy,
    );
    println!(
        "  outcome     {} completed, {} failed, {} timed out",
        m.completed, m.failed, m.timed_out
    );
    println!(
        "  throughput  {:.0} tasks/s, {:.2}M steps/s over {} ({} steps, {} slices)",
        m.tasks_per_sec,
        m.steps_per_sec / 1e6,
        ms(m.wall),
        m.total_steps,
        m.total_slices,
    );
    println!(
        "  latency     mean {} / p50 {} / p95 {} / p99 {} / max {}",
        ms(m.latency_mean),
        ms(m.latency_p50),
        ms(m.latency_p95),
        ms(m.latency_p99),
        ms(m.latency_max),
    );
    println!(
        "  fairness    Jain index {:.4} over per-task steps, {:.4} over per-worker load",
        m.fairness_jain,
        cm_engines::jain_index(report.workers.iter().map(|w| w.steps_executed as f64)),
    );
    if args.steal {
        println!(
            "  stealing    {} steals, {} migrations through the snapshot codec",
            m.total_steals, m.total_migrations
        );
    }
    if args.checkpoint {
        let retries: u64 = report
            .all_reports()
            .iter()
            .map(|r| u64::from(r.retries))
            .sum();
        let checkpoints: u64 = report.all_reports().iter().map(|r| r.checkpoints).sum();
        let recovered = report
            .all_reports()
            .iter()
            .filter(|r| r.retries > 0 && matches!(r.outcome, cm_engines::Outcome::Completed(_)))
            .count();
        println!(
            "  recovery    {checkpoints} checkpoints, {retries} restarts, {recovered} tasks recovered"
        );
    }
    for w in &report.workers {
        println!(
            "    worker {}: {} tasks, {} steps in {}{}",
            w.worker,
            w.reports.len(),
            w.steps_executed,
            ms(w.wall),
            w.panicked
                .as_deref()
                .map(|p| format!(" PANICKED: {p}"))
                .unwrap_or_default(),
        );
    }
    if args.per_task {
        let mut all = report.all_reports();
        all.sort_by_key(|r| r.id);
        for r in all {
            println!(
                "    #{:<5} {:<28} {:?} ({} slices, {} steps, {})",
                r.id,
                r.name,
                r.outcome,
                r.slices,
                r.steps,
                ms(r.turnaround),
            );
        }
    }
    for mm in report.all_mismatches() {
        println!("  MISMATCH    {mm}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cm-sched: {e}");
            return ExitCode::from(2);
        }
    };
    let catalog = engine_configs();
    let selected: Vec<(String, cm_core::EngineConfig)> = if args.configs.iter().any(|c| c == "all")
    {
        catalog
            .iter()
            .map(|(n, c)| ((*n).to_string(), c.clone()))
            .collect()
    } else {
        let mut out = Vec::new();
        for want in &args.configs {
            match catalog.iter().find(|(n, _)| n == want) {
                Some((n, c)) => out.push(((*n).to_string(), c.clone())),
                None => {
                    let names: Vec<_> = catalog.iter().map(|(n, _)| *n).collect();
                    eprintln!("cm-sched: unknown config `{want}` (have: {names:?}, or `all`)");
                    return ExitCode::from(2);
                }
            }
        }
        out
    };
    let replay = match &args.replay_schedule {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match StealSchedule::parse(&text) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("cm-sched: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("cm-sched: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let spec = build_spec(args.tasks, args.verify);
    let mut clean = true;
    for (name, mut engine_config) in selected {
        if let Some(ms) = args.deadline_ms {
            engine_config.machine.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(n) = args.fail_prim_at {
            engine_config.machine.fault_plan.fail_prim_at = Some(n);
        }
        let config = PoolConfig {
            workers: args.workers,
            sched: SchedConfig {
                policy: args.policy,
                slice: args.slice,
                check_invariants: args.invariants,
                record_spans: false,
                checkpoint: args.checkpoint,
                retry_budget: args.retry_budget,
                backoff_base: args.backoff,
                pool_budget_bytes: args.pool_budget_mb.map(|mb| mb * 1024 * 1024),
            },
            engine: engine_config,
            steal: args.steal.then(|| StealConfig {
                migrate: args.migrate,
                record: args.record_schedule.is_some(),
                replay: replay.clone(),
                kill_workers: Vec::new(),
            }),
        };
        let report = run_pool(&config, &spec);
        print_report(&name, &args, &report);
        if let (Some(path), Some(schedule)) = (&args.record_schedule, &report.schedule) {
            match std::fs::write(path, schedule.to_text()) {
                Ok(()) => println!(
                    "  schedule    {} steal events written to {}",
                    schedule.events.len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("cm-sched: cannot write {}: {e}", path.display());
                    clean = false;
                }
            }
        }
        // Deadline-induced timeouts are a requested behavior, not a
        // correctness failure.
        let acceptable_timeouts = args.deadline_ms.is_some();
        if report.metrics.failed > 0
            || (!acceptable_timeouts && report.metrics.timed_out > 0)
            || !report.all_mismatches().is_empty()
            || report.workers.iter().any(|w| w.panicked.is_some())
        {
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("cm-sched: FAILURES detected (see above)");
        ExitCode::FAILURE
    }
}
