//! Who moves work between pool workers: the threaded driver (static
//! sharding when stealing is off, the stealing pool when it is on) and
//! the deterministic replay simulator. Both drive the same workers, so
//! a task's deadline, supervision and accounting do not depend on the
//! mode.
//!
//! * **Per-worker inboxes.** Every worker owns a shared inbox of
//!   packets — fresh job specs or parked (serialized) engines — and
//!   admits from its front. An idle worker steals from the *back* of
//!   another worker's inbox with `try_lock`.
//! * **Migration via the snapshot codec.** Engines are `Rc`-based and
//!   thread-pinned, so a *started* task crosses threads only as bytes:
//!   the victim serializes the just-suspended engine with
//!   [`Engine::snapshot`](crate::Engine::snapshot) and the thief
//!   rebuilds it with [`Engine::restore`](crate::Engine::restore), so
//!   migrated bytecode is re-verified. The victim drops its engine, so
//!   a migrated one-shot continuation can never be resumed twice.
//! * **Cooperative donation.** A victim never has its suspended engines
//!   taken from under it (they are not `Send`, and pausing a foreign
//!   thread is not a thing). Instead a hungry thief raises a flag; the
//!   victim checks the flags at its next suspension — the natural safe
//!   point — and donates the engine it just suspended, provided it
//!   keeps other work.
//! * **Deterministic replay.** The multithreaded pool is timing-
//!   dependent by nature, so every cross-worker move is describable as a
//!   [`StealEvent`] keyed by `(task, suspension count)` — a key that
//!   depends only on the task's own progress, never on wall-clock. A
//!   recorded [`StealSchedule`] replays in a single-threaded simulator
//!   ([`StealConfig::replay`]) where each live worker takes exactly one
//!   slice per virtual tick, so every migration decision — including
//!   simulated worker kills ([`StealConfig::kill_workers`]) — is
//!   reproducible bit-for-bit.
//!
//! Semantics note: a migrated engine resumes with a *private* copy of
//! the globals captured in its snapshot (the same isolation the
//! supervisor's checkpoint-restore path imposes), so serving-tier tasks
//! must not rely on observing other tasks' global writes after a hop.
//! The scheduler's own oracle — sliced-and-stolen results bit-identical
//! to uninterrupted runs — holds for any task that computes through its
//! own state, which is what the workload corpus does.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::pool::{Packet, PoolConfig, PoolSpec, Worker, WorkerSummary};
use crate::sched::{Outcome, Step};

/// Work-stealing knobs, gated behind [`PoolConfig::steal`]; unset, the
/// pool shards statically and never moves work. Every
/// [`SchedConfig`](crate::SchedConfig) knob applies in every mode.
#[derive(Debug, Clone, Default)]
pub struct StealConfig {
    /// Allow *started* (suspended) engines to migrate via the snapshot
    /// codec. Off, only fresh (never-run) jobs are stolen.
    pub migrate: bool,
    /// Record every cross-worker move into
    /// [`PoolReport::schedule`](crate::pool::PoolReport) for later
    /// replay.
    pub record: bool,
    /// Replay this schedule in the deterministic single-threaded
    /// simulator instead of running real worker threads. The schedule's
    /// `workers` field overrides [`PoolConfig::workers`] when nonzero.
    pub replay: Option<StealSchedule>,
    /// Simulated worker kills, `(tick, worker)`: at the start of that
    /// virtual tick the worker dies and survivors re-steal its tasks —
    /// started ones hop through the snapshot codec. Replay mode only.
    pub kill_workers: Vec<(u64, usize)>,
}

/// One cross-worker move, keyed by the task's own progress so the same
/// schedule replays identically regardless of thread timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEvent {
    /// Global task id ([`JobSpec`](crate::JobSpec) submission index).
    pub task: usize,
    /// The task's cumulative slice count when it moved. `0` means the
    /// task had never run — a fresh steal, no snapshot involved.
    /// `k ≥ 1` means it moved after its `k`-th suspension, serialized
    /// through the snapshot codec.
    pub suspension: u64,
    /// Worker whose queue held the task.
    pub from: usize,
    /// Worker that took it.
    pub to: usize,
}

/// A complete record of every cross-worker move in one pool run —
/// enough to reproduce all placement decisions deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealSchedule {
    /// Worker count the schedule was recorded against.
    pub workers: usize,
    /// Moves in the order they were decided. Several events may share a
    /// `(task, suspension)` key when a parked engine was re-stolen from
    /// a queue before anyone resumed it; replay applies them in order
    /// (one serialization, several queue hops).
    pub events: Vec<StealEvent>,
}

impl StealSchedule {
    /// Serializes to the `cm-steal-schedule-v1` text format:
    ///
    /// ```text
    /// cm-steal-schedule-v1 workers=4
    /// steal 17 0 1 3
    /// steal 17 4 3 0
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!("cm-steal-schedule-v1 workers={}\n", self.workers);
        for e in &self.events {
            out.push_str(&format!(
                "steal {} {} {} {}\n",
                e.task, e.suspension, e.from, e.to
            ));
        }
        out
    }

    /// Parses the text format produced by [`StealSchedule::to_text`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<StealSchedule, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty schedule")?;
        let rest = header
            .strip_prefix("cm-steal-schedule-v1 workers=")
            .ok_or_else(|| format!("bad header: {header:?}"))?;
        let workers: usize = rest
            .trim()
            .parse()
            .map_err(|e| format!("bad worker count {rest:?}: {e}"))?;
        let mut events = Vec::new();
        for line in lines {
            let mut f = line.split_whitespace();
            if f.next() != Some("steal") {
                return Err(format!("bad event line: {line:?}"));
            }
            let mut num = |what: &str| -> Result<u64, String> {
                f.next()
                    .ok_or_else(|| format!("missing {what}: {line:?}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad {what} in {line:?}: {e}"))
            };
            events.push(StealEvent {
                task: num("task")? as usize,
                suspension: num("suspension")?,
                from: num("from")? as usize,
                to: num("to")? as usize,
            });
        }
        Ok(StealSchedule { workers, events })
    }
}

/// Poison-tolerant lock: a panicked worker must not cascade into every
/// survivor that touches the same queue.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cross-thread state of the threaded pool.
struct Shared<'a> {
    inboxes: Vec<Mutex<VecDeque<Packet>>>,
    hungry: Vec<AtomicBool>,
    remaining: AtomicUsize,
    recorded: Mutex<Vec<StealEvent>>,
    steal: Option<&'a StealConfig>,
}

impl Shared<'_> {
    fn record(&self, task: usize, suspension: u64, from: usize, to: usize) {
        if self.steal.is_some_and(|sc| sc.record) {
            lock(&self.recorded).push(StealEvent {
                task,
                suspension,
                from,
                to,
            });
        }
    }
}

/// One worker thread: admit, run a slice, and — with stealing on —
/// donate at suspensions and steal when idle. `counted` is how many of
/// its reports the pool's `remaining` already excludes.
fn drive(wk: &mut Worker<'_>, sh: &Shared<'_>, counted: &mut usize) {
    let w = wk.w;
    wk.baselines(&mut lock(&sh.inboxes[w]));
    loop {
        wk.admit(|| lock(&sh.inboxes[w]).pop_front());
        let step = wk.sched.step();
        let retired = wk.sched.reports.len();
        if retired > *counted {
            sh.remaining.fetch_sub(retired - *counted, Ordering::SeqCst);
            *counted = retired;
        }
        match step {
            Step::Ran => {}
            Step::Suspended(..) => donate(wk, sh),
            Step::Idle
                if sh.steal.is_some()
                    && wk.is_ready()
                    && sh.remaining.load(Ordering::SeqCst) > 0 =>
            {
                steal(wk, sh);
            }
            Step::Idle => return,
        }
    }
}

/// At a suspension: hand the engine that just suspended to a hungry
/// thief, provided this worker keeps other work (otherwise the hop just
/// moves the idleness).
fn donate(wk: &mut Worker<'_>, sh: &Shared<'_>) {
    let (w, n) = (wk.w, sh.inboxes.len());
    if !sh.steal.is_some_and(|sc| sc.migrate)
        || (wk.sched.pending() <= 1 && lock(&sh.inboxes[w]).is_empty())
    {
        return;
    }
    let Some(thief) = (1..n)
        .map(|d| (w + d) % n)
        .find(|&v| sh.hungry[v].swap(false, Ordering::SeqCst))
    else {
        return;
    };
    // A refused serialization keeps the task here; the thief re-raises
    // its flag.
    if let Some(pkt) = wk.evict_last(thief) {
        sh.record(pkt.record.id, pkt.record.slices, w, thief);
        lock(&sh.inboxes[thief]).push_back(pkt);
    }
}

/// Idle: take a packet from the back of another worker's inbox, or
/// leave the hungry flag up for a victim to donate at its next
/// suspension.
fn steal(wk: &mut Worker<'_>, sh: &Shared<'_>) {
    let (w, n) = (wk.w, sh.inboxes.len());
    sh.hungry[w].store(true, Ordering::SeqCst);
    for v in (1..n).map(|d| (w + d) % n) {
        let Some(mut pkt) = sh.inboxes[v].try_lock().ok().and_then(|mut q| q.pop_back()) else {
            continue;
        };
        sh.hungry[w].store(false, Ordering::SeqCst);
        let (task, suspension) = (pkt.record.id, pkt.record.slices);
        pkt.record.steals += 1;
        sh.record(task, suspension, v, w);
        let args = vec![
            ("task", task.to_string()),
            ("from", v.to_string()),
            ("suspension", suspension.to_string()),
        ];
        wk.sched.span(&pkt.record.name, "steal", None, args);
        lock(&sh.inboxes[w]).push_back(pkt);
        return;
    }
    if lock(&sh.inboxes[w]).is_empty() {
        // Nothing stealable yet (the remaining tasks are live on other
        // workers).
        std::thread::yield_now();
        std::thread::sleep(Duration::from_micros(50));
    } else {
        // A donation landed in our own inbox meanwhile.
        sh.hungry[w].store(false, Ordering::SeqCst);
    }
}

/// Runs the workers on one thread each: static sharding, or the
/// stealing pool with [`PoolConfig::steal`] set.
pub(crate) fn run_threads(
    config: &PoolConfig,
    spec: &PoolSpec,
    inboxes: Vec<VecDeque<Packet>>,
    epoch: Instant,
) -> (Vec<WorkerSummary>, Option<StealSchedule>) {
    let workers = inboxes.len();
    let sh = Shared {
        inboxes: inboxes.into_iter().map(Mutex::new).collect(),
        hungry: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        remaining: AtomicUsize::new(spec.jobs.len()),
        recorded: Mutex::default(),
        steal: config.steal.as_ref(),
    };
    let mut summaries: Vec<WorkerSummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let sh = &sh;
                scope.spawn(move || {
                    let (mut worker, mut counted) = (None, 0);
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        drive(
                            worker.insert(Worker::new(w, config, spec, epoch)),
                            sh,
                            &mut counted,
                        );
                    }));
                    let panicked = caught.err().map(|payload| {
                        payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into())
                    });
                    let summary = match worker {
                        Some(wk) => wk.finish(panicked),
                        None => WorkerSummary::lost(w, panicked, epoch),
                    };
                    // Release the completion slots of the tasks a panic
                    // failed, so survivors can terminate.
                    let lost = summary.reports.len().saturating_sub(counted);
                    sh.remaining.fetch_sub(lost, Ordering::SeqCst);
                    summary
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("panic already caught"))
            .collect()
    });
    // If every worker died there may be unclaimed packets left; surface
    // them rather than silently dropping jobs.
    for (summary, inbox) in summaries.iter_mut().zip(&sh.inboxes) {
        for pkt in lock(inbox).drain(..) {
            let outcome = Outcome::Failed("pool shut down before the task ran".into());
            summary.reports.push(pkt.record.report(outcome));
        }
    }
    let events = sh
        .recorded
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let schedule = sh
        .steal
        .is_some_and(|sc| sc.record)
        .then_some(StealSchedule { workers, events });
    (summaries, schedule)
}

/// Next live worker at or after `want`, searching forward cyclically.
fn route_alive(want: usize, alive: &[bool]) -> Option<usize> {
    let n = alive.len();
    (0..n).map(|d| (want + d) % n).find(|&w| alive[w])
}

/// Runs the workers in the deterministic single-threaded simulator,
/// replaying `sc.replay` (empty schedule = no moves). Each live worker
/// takes exactly one slice per virtual tick, in worker order, so the
/// whole run — including migrations and kills — is a pure function of
/// the spec, the config, and the schedule.
pub(crate) fn run_replay(
    config: &PoolConfig,
    spec: &PoolSpec,
    sc: &StealConfig,
    mut inboxes: Vec<VecDeque<Packet>>,
    epoch: Instant,
) -> (Vec<WorkerSummary>, Option<StealSchedule>) {
    let n = inboxes.len();
    let events = sc.replay.as_ref().map_or(&[][..], |s| &s.events[..]);
    let mut recorded = events.to_vec();
    let mut ws: Vec<Worker<'_>> = (0..n)
        .map(|w| Worker::new(w, config, spec, epoch))
        .collect();
    for (wk, inbox) in ws.iter_mut().zip(&mut inboxes) {
        wk.baselines(inbox);
    }
    let mut alive = vec![true; n];
    // Fresh steals (suspension 0) are placement decisions: apply them
    // before the first tick, in event order.
    for ev in events.iter().filter(|e| e.suspension == 0) {
        let found = inboxes.iter_mut().find_map(|q| {
            let pos = q.iter().position(|p| p.record.id == ev.task)?;
            q.remove(pos)
        });
        if let Some(mut pkt) = found {
            pkt.record.steals += 1;
            inboxes[ev.to % n].push_back(pkt);
        }
    }
    // Migrations, keyed by the task's suspension count. Several events
    // may share a key (a parked engine re-stolen before anyone resumed
    // it): one serialization, a hop to the last destination.
    let mut moves: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for ev in events.iter().filter(|e| e.suspension > 0) {
        moves
            .entry((ev.task, ev.suspension))
            .or_default()
            .push(ev.to);
    }
    let mut tick = 0u64;
    loop {
        tick += 1;
        for &(_, kw) in sc.kill_workers.iter().filter(|&&(at, _)| at == tick) {
            if kw >= n || !alive[kw] {
                continue;
            }
            alive[kw] = false;
            let survivors: Vec<usize> = (0..n).filter(|&x| alive[x]).collect();
            let mut victims = ws[kw].evict_all();
            victims.extend(inboxes[kw].drain(..).map(|mut pkt| {
                pkt.record.steals += 1;
                pkt
            }));
            for (i, pkt) in victims.into_iter().enumerate() {
                if survivors.is_empty() {
                    let outcome = Outcome::Failed("worker killed with no survivors".into());
                    ws[kw].sched.retire(pkt.record, outcome);
                    continue;
                }
                let dest = survivors[i % survivors.len()];
                if sc.record {
                    recorded.push(StealEvent {
                        task: pkt.record.id,
                        suspension: pkt.record.slices,
                        from: kw,
                        to: dest,
                    });
                }
                inboxes[dest].push_back(pkt);
            }
        }
        let mut progressed = false;
        for w in (0..n).filter(|&w| alive[w]) {
            let wk = &mut ws[w];
            wk.admit(|| inboxes[w].pop_front());
            let step = wk.sched.step();
            progressed |= step != Step::Idle;
            let Step::Suspended(task, suspension) = step else {
                continue;
            };
            let Some(hops) = moves.get(&(task, suspension)) else {
                continue;
            };
            let dest = route_alive(*hops.last().expect("nonempty"), &alive).unwrap_or(w);
            if let Some(mut pkt) = wk.evict_last(dest) {
                pkt.record.steals += u32::try_from(hops.len() - 1).unwrap_or(u32::MAX);
                inboxes[dest].push_back(pkt);
            }
        }
        if !progressed {
            break;
        }
    }
    let summaries = ws.into_iter().map(|wk| wk.finish(None)).collect();
    (
        summaries,
        Some(StealSchedule {
            workers: n,
            events: recorded,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{run_pool, JobSpec, PoolReport};
    use crate::sched::SchedConfig;

    fn spin_spec(jobs: usize) -> PoolSpec {
        PoolSpec {
            setups: vec!["(define (spin n) (if (zero? n) 'done (spin (- n 1))))".into()],
            jobs: (0..jobs)
                .map(|i| JobSpec {
                    name: format!("spin-{i}"),
                    run: format!("(spin {})", 200 + (i % 5) * 120),
                    expected: Some("done".into()),
                })
                .collect(),
            verify: true,
        }
    }

    #[test]
    fn schedule_text_round_trips() {
        let sched = StealSchedule {
            workers: 4,
            events: vec![
                StealEvent {
                    task: 17,
                    suspension: 0,
                    from: 1,
                    to: 3,
                },
                StealEvent {
                    task: 17,
                    suspension: 4,
                    from: 3,
                    to: 0,
                },
            ],
        };
        let text = sched.to_text();
        assert_eq!(StealSchedule::parse(&text).unwrap(), sched);
        assert!(StealSchedule::parse("garbage").is_err());
        assert!(StealSchedule::parse("cm-steal-schedule-v1 workers=2\nsteal 1 2\n").is_err());
    }

    #[test]
    fn stealing_pool_completes_and_verifies() {
        let config = PoolConfig {
            workers: 4,
            sched: SchedConfig {
                slice: 64,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                migrate: true,
                record: true,
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(24));
        assert_eq!(report.metrics.tasks, 24);
        assert_eq!(report.metrics.completed, 24);
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        // Exactly-once: every global id retires exactly once.
        let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
        assert!(report.schedule.is_some());
    }

    #[test]
    fn replay_empty_schedule_is_deterministic_and_clean() {
        let config = PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 64,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                replay: Some(StealSchedule {
                    workers: 3,
                    events: vec![],
                }),
                ..Default::default()
            }),
        };
        let a = run_pool(&config, &spin_spec(9));
        let b = run_pool(&config, &spin_spec(9));
        assert!(a.is_clean(), "{:?}", a.all_mismatches());
        let values = |r: &PoolReport| -> Vec<(usize, Outcome)> {
            let mut v: Vec<(usize, Outcome)> = r
                .all_reports()
                .iter()
                .map(|t| (t.id, t.outcome.clone()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(values(&a), values(&b));
        assert_eq!(a.metrics.total_migrations, 0);
    }

    #[test]
    fn replayed_migration_is_counted_and_bit_identical() {
        let schedule = StealSchedule {
            workers: 2,
            events: vec![
                StealEvent {
                    task: 0,
                    suspension: 1,
                    from: 0,
                    to: 1,
                },
                StealEvent {
                    task: 3,
                    suspension: 0,
                    from: 1,
                    to: 0,
                },
            ],
        };
        let config = PoolConfig {
            workers: 2,
            sched: SchedConfig {
                slice: 50,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                migrate: true,
                replay: Some(schedule),
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(6));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.metrics.total_migrations, 1);
        assert_eq!(report.metrics.total_steals, 2);
        let migrated = report
            .all_reports()
            .into_iter()
            .find(|r| r.id == 0)
            .cloned()
            .unwrap();
        assert_eq!(migrated.migrations, 1);
        // The migrated task retired on the thief.
        assert!(report.workers[1].reports.iter().any(|r| r.id == 0));
    }

    #[test]
    fn replay_kill_worker_resteals_everything() {
        let config = PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 40,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                migrate: true,
                replay: Some(StealSchedule {
                    workers: 3,
                    events: vec![],
                }),
                kill_workers: vec![(3, 1)],
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(9));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.metrics.completed, 9);
        // Worker 1's started tasks crossed the codec to survivors.
        assert!(report.metrics.total_migrations > 0);
        // Exactly-once even through the kill.
        let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
    }
}
