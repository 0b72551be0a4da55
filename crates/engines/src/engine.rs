//! Suspendable engines: the Dybvig–Hieb engines abstraction built on the
//! VM's preemption path.
//!
//! An [`Engine`] is a program plus the machine that runs it. Running an
//! engine consumes it and hands back either the program's value, a *new*
//! engine holding the preempted state (the classic Chez `make-engine`
//! shape: engines are one-shot), or the error that killed it. Suspension
//! and resumption use the VM's [`SuspendedRun`] — the §6
//! reify-as-one-shot mechanism — so an undisturbed suspend/resume cycle
//! moves the frames, never copies them.
//!
//! Engines are `Rc`-based (they share a [`Globals`] table with the
//! compiler that produced their code) and therefore pinned to the thread
//! that created them; the multi-worker story lives in
//! [`pool`](crate::pool).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use cm_core::{EngineConfig, EngineError};
use cm_vm::{
    Code, Globals, Machine, MachineConfig, MachineStats, RestoredRun, Rooted, RunStatus,
    SnapshotError, SuspendedRun, Value, VmError,
};

/// What one fuel slice of an engine produced.
///
/// `Suspended` returns the engine itself (updated in place) — the
/// one-shot discipline: the old engine value is consumed by
/// [`Engine::run`], and only the returned engine can continue the
/// computation.
#[derive(Debug)]
pub enum RunResult {
    /// The program finished with this value (rooted while held); the
    /// final per-engine stats ride along for fairness accounting.
    Done(Rooted, MachineStats),
    /// The slice expired (or `%engine-block` fired); run the returned
    /// engine to continue.
    Suspended(Engine, MachineStats),
    /// The program raised an error; the engine is spent.
    Failed(VmError, MachineStats),
}

enum State {
    /// Not yet started.
    Ready(Rc<Code>),
    /// Preempted mid-run.
    Suspended(SuspendedRun),
    /// Finished or failed; kept so misuse gets a clean error.
    Spent,
}

/// A suspendable, one-shot engine: a compiled program pinned to a
/// [`Machine`] whose globals it shares with its compiler.
pub struct Engine {
    // Boxed: an engine value is moved on every slice (`run` consumes and
    // returns it), and `Machine` is several hundred bytes.
    machine: Box<Machine>,
    state: State,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.state {
            State::Ready(_) => "ready",
            State::Suspended(_) => "suspended",
            State::Spent => "spent",
        };
        f.debug_struct("Engine").field("state", &state).finish()
    }
}

impl Engine {
    /// Creates an engine for `code` over an existing global table (the
    /// table the code was compiled against).
    pub fn new(code: Rc<Code>, config: MachineConfig, globals: Rc<RefCell<Globals>>) -> Engine {
        Engine {
            machine: Box::new(Machine::with_globals(config, globals)),
            state: State::Ready(code),
        }
    }

    /// Runs the engine for at most `fuel` steps.
    pub fn run(mut self, fuel: u64) -> RunResult {
        let status = match std::mem::replace(&mut self.state, State::Spent) {
            State::Ready(code) => self.machine.run_code_sliced(code, fuel),
            State::Suspended(run) => self.machine.resume(run, fuel),
            State::Spent => Err(VmError::other("engine already ran to completion")),
        };
        let stats = self.machine.stats;
        match status {
            Ok(RunStatus::Done(v)) => RunResult::Done(v, stats),
            Ok(RunStatus::Suspended(run)) => {
                self.state = State::Suspended(run);
                RunResult::Suspended(self, stats)
            }
            Err(e) => RunResult::Failed(e, stats),
        }
    }

    /// Runs the engine to completion in `slice`-step increments — the
    /// sliced execution a scheduler performs, inlined for tests and
    /// one-off callers. Returns the value and how many slices it took.
    ///
    /// # Errors
    ///
    /// The [`VmError`] that killed the engine, if any.
    pub fn run_to_completion(mut self, slice: u64) -> Result<(Rooted, u64), VmError> {
        let mut slices = 0;
        loop {
            slices += 1;
            match self.run(slice) {
                RunResult::Done(v, _) => return Ok((v, slices)),
                RunResult::Suspended(e, _) => self = e,
                RunResult::Failed(e, _) => return Err(e),
            }
        }
    }

    /// Cumulative event counters for this engine (fairness accounting:
    /// [`MachineStats::steps_executed`] is the scheduler's CPU measure).
    pub fn stats(&self) -> MachineStats {
        self.machine.stats
    }

    /// The per-task timeout this engine was configured with
    /// ([`MachineConfig::deadline`]); schedulers enforce it cumulatively
    /// across slices.
    pub fn deadline(&self) -> Option<Duration> {
        self.machine.config.deadline
    }

    /// Verifies the underlying machine's structural invariants (must hold
    /// at every suspension point).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.machine.check_invariants()
    }

    /// Whether the engine has been preempted at least once and not yet
    /// finished.
    pub fn is_suspended(&self) -> bool {
        matches!(self.state, State::Suspended(_))
    }

    /// The suspended run's full marks (attachments) register, or `None`
    /// unless suspended. This is the sampling profiler's window: reading
    /// `('profile-key . name)` pairs out of the paused continuation's
    /// marks reconstructs the Scheme-level stack between slices.
    pub fn suspended_marks(&self) -> Option<Value> {
        match &self.state {
            State::Suspended(run) => Some(run.marks()),
            _ => None,
        }
    }

    /// Serializes this engine's full state — the suspended run, its
    /// reachable heap graph, the shared globals, config, and accumulated
    /// output — into durable snapshot bytes ([`Machine::snapshot_suspended`]).
    /// Only a suspended engine can be snapshotted: a `Ready` engine is
    /// just its code (re-spawn it), and a `Spent` engine has no state.
    ///
    /// The engine is left suspended and still resumable; the bytes can be
    /// [`Engine::restore`]d later, on any thread. They are `Send`, unlike
    /// the engine, so they are the only form in which a started task
    /// crosses worker threads. The restored machine counts from zero:
    /// callers that account across the hop add [`Engine::stats`] first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Rejected`] when the engine is not suspended.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, SnapshotError> {
        // Destructure for disjoint borrows: the machine serializes a run
        // it does not own.
        let Engine { machine, state } = self;
        match state {
            State::Suspended(run) => machine.snapshot_suspended(run),
            State::Ready(_) => Err(SnapshotError::Rejected {
                what: "engine has not started (snapshot requires a suspension)".into(),
            }),
            State::Spent => Err(SnapshotError::Rejected {
                what: "engine is spent".into(),
            }),
        }
    }

    /// Rebuilds a suspended engine from snapshot bytes. Every code object
    /// decoded from the snapshot is re-run through the bytecode verifier
    /// before the engine can execute a single instruction, so a forged or
    /// stale snapshot cannot smuggle ill-formed code past compile-time
    /// checking.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from decoding, or
    /// [`SnapshotError::Rejected`] when restored bytecode fails
    /// verification.
    pub fn restore(bytes: &[u8]) -> Result<Engine, SnapshotError> {
        let RestoredRun {
            machine,
            run,
            codes,
            code_captures,
        } = Machine::restore_snapshot(bytes)?;
        let model = machine.config.mark_model;
        for (code, captures) in codes.iter().zip(&code_captures) {
            // Codes only reachable as children (`captures` is `None`) are
            // covered by the recursive verification of their parents.
            let Some(captures) = *captures else { continue };
            if let Err(violations) = cm_analysis::verify_instantiated(code, captures, model) {
                let first = violations
                    .first()
                    .map_or_else(|| "unknown violation".to_string(), ToString::to_string);
                return Err(SnapshotError::Rejected {
                    what: format!(
                        "restored bytecode failed verification ({} violation(s); first: {first})",
                        violations.len()
                    ),
                });
            }
        }
        Ok(Engine {
            machine: Box::new(machine),
            state: State::Suspended(run),
        })
    }
}

/// A per-worker engine factory: one prelude-loaded [`cm_core::Engine`]
/// whose globals and compiler every spawned [`Engine`] shares.
///
/// The host loads workload definitions once; spawned engines are then
/// just a fresh (empty) machine plus compiled entry code, so creating
/// thousands of them is cheap. Everything is `Rc`-based: a host and its
/// engines are pinned to one thread.
pub struct WorkerHost {
    core: cm_core::Engine,
}

impl WorkerHost {
    /// Creates a host with the prelude loaded.
    pub fn new(config: EngineConfig) -> WorkerHost {
        WorkerHost {
            core: cm_core::Engine::new(config),
        }
    }

    /// Evaluates definitions (workload sources) into the shared globals,
    /// un-sliced.
    ///
    /// # Errors
    ///
    /// Any compile or runtime error from the definitions.
    pub fn load(&mut self, src: &str) -> Result<(), EngineError> {
        self.core.eval(src).map(drop)
    }

    /// Evaluates an expression un-sliced on the host's own machine (used
    /// for uninterrupted baseline runs).
    ///
    /// # Errors
    ///
    /// Any compile or runtime error.
    pub fn eval(&mut self, src: &str) -> Result<Rooted, EngineError> {
        self.core.eval(src)
    }

    /// Compiles `src` and wraps it in a fresh [`Engine`] sharing this
    /// host's globals and machine configuration.
    ///
    /// # Errors
    ///
    /// Any compile error (including bytecode-verification failures).
    pub fn spawn(&mut self, src: &str) -> Result<Engine, EngineError> {
        let code = self.core.compile_only(src)?;
        let config = self.core.config().machine.clone();
        let globals = self.core.machine_mut().globals.clone();
        Ok(Engine::new(code, config, globals))
    }

    /// The host's engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.core.config()
    }

    /// Direct access to the underlying core engine.
    pub fn core_mut(&mut self) -> &mut cm_core::Engine {
        &mut self.core
    }
}

impl std::fmt::Debug for WorkerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHost").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_runs_to_done() {
        let mut host = WorkerHost::new(EngineConfig::default());
        let engine = host.spawn("(+ 40 2)").unwrap();
        match engine.run(1_000_000) {
            RunResult::Done(v, stats) => {
                assert!(v.eq_value(&Value::fixnum(42)));
                assert!(stats.steps_executed > 0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn engine_suspends_and_resumes_with_fusion() {
        let mut host = WorkerHost::new(EngineConfig::default());
        host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        let engine = host.spawn("(spin 2000)").unwrap();
        let mut engine = match engine.run(50) {
            RunResult::Suspended(e, stats) => {
                assert_eq!(stats.suspensions, 1);
                e
            }
            other => panic!("expected Suspended, got {other:?}"),
        };
        assert!(engine.is_suspended());
        engine.check_invariants().unwrap();
        let mut slices = 1u64;
        loop {
            match engine.run(50) {
                RunResult::Done(v, stats) => {
                    assert_eq!(v.display_string(), "done");
                    assert_eq!(stats.suspensions, slices);
                    assert_eq!(stats.resumes, slices);
                    // Undisturbed suspend/resume must fuse, not copy.
                    assert_eq!(stats.copies, 0);
                    assert!(stats.fusions >= slices);
                    break;
                }
                RunResult::Suspended(e, _) => {
                    slices += 1;
                    engine = e;
                }
                RunResult::Failed(e, _) => panic!("engine failed: {e}"),
            }
        }
        assert!(slices > 2, "only {slices} slices for 2000 recursions");
    }

    #[test]
    fn engine_snapshot_restore_resumes_to_same_value() {
        let mut host = WorkerHost::new(EngineConfig::default());
        host.load(
            "(define (loop n acc)
               (if (zero? n)
                   acc
                   (with-continuation-mark 'k n (loop (- n 1) (+ acc n)))))",
        )
        .unwrap();
        // Uninterrupted baseline.
        let baseline = match host.spawn("(loop 500 0)").unwrap().run(10_000_000) {
            RunResult::Done(v, _) => v.display_string(),
            other => panic!("expected Done, got {other:?}"),
        };
        // Suspend mid-loop, snapshot, drop the live engine entirely,
        // then restore from bytes and run to completion.
        let engine = host.spawn("(loop 500 0)").unwrap();
        let mut engine = match engine.run(64) {
            RunResult::Suspended(e, _) => e,
            other => panic!("expected Suspended, got {other:?}"),
        };
        let bytes = engine.snapshot().unwrap();
        // The snapshot is non-destructive: the source engine still runs.
        let (v, _) = engine.run_to_completion(64).unwrap();
        assert_eq!(v.display_string(), baseline);
        drop(host);
        let mut restored = Engine::restore(&bytes).unwrap();
        assert!(restored.is_suspended());
        assert_eq!(restored.stats().restores, 1);
        loop {
            match restored.run(64) {
                RunResult::Done(v, stats) => {
                    assert_eq!(v.display_string(), baseline);
                    assert_eq!(stats.restores, 1);
                    break;
                }
                RunResult::Suspended(e, _) => restored = e,
                RunResult::Failed(e, _) => panic!("restored engine failed: {e}"),
            }
        }
    }

    #[test]
    fn engine_snapshot_requires_suspension() {
        let mut host = WorkerHost::new(EngineConfig::default());
        // Ready (never run) engines reject snapshotting…
        let mut ready = host.spawn("(+ 1 2)").unwrap();
        assert!(matches!(
            ready.snapshot(),
            Err(SnapshotError::Rejected { .. })
        ));
        // …and corrupted bytes reject restoring, with a typed error.
        let engine = host
            .spawn("(let loop ((n 5000)) (if (zero? n) n (loop (- n 1))))")
            .unwrap();
        let mut engine = match engine.run(64) {
            RunResult::Suspended(e, _) => e,
            other => panic!("expected Suspended, got {other:?}"),
        };
        let mut bytes = engine.snapshot().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Engine::restore(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn engine_failure_is_terminal() {
        let mut host = WorkerHost::new(EngineConfig::default());
        let engine = host.spawn("(car 5)").unwrap();
        match engine.run(1_000) {
            RunResult::Failed(e, _) => {
                assert!(matches!(e.kind, cm_vm::VmErrorKind::WrongType { .. }));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn many_engines_interleave_on_one_host() {
        // Two engines over the same globals, run in alternating slices:
        // per-engine marks/attachment state must not bleed across.
        let mut host = WorkerHost::new(EngineConfig::default());
        host.load(
            "(define (deep n)
               (if (zero? n)
                   (continuation-mark-set-first #f 'd -1)
                   (with-continuation-mark 'd n (add1 (deep (- n 1))))))",
        )
        .unwrap();
        let mut a = Some(host.spawn("(deep 120)").unwrap());
        let mut b = Some(host.spawn("(deep 60)").unwrap());
        assert!(a.as_ref().unwrap().suspended_marks().is_none());
        let (mut va, mut vb) = (None, None);
        let mut saw_marks = false;
        while a.is_some() || b.is_some() {
            for (slot, out) in [(&mut a, &mut va), (&mut b, &mut vb)] {
                if let Some(engine) = slot.take() {
                    match engine.run(37) {
                        RunResult::Done(v, _) => *out = Some(v.display_string()),
                        RunResult::Suspended(e, _) => {
                            // The suspended marks register is the
                            // profiler's sampling surface: a proper list
                            // mid-`deep`.
                            let marks = e.suspended_marks().expect("suspended");
                            saw_marks |= marks.list_to_vec().map_or(0, |v| v.len()) > 0;
                            *slot = Some(e);
                        }
                        RunResult::Failed(e, _) => panic!("failed: {e}"),
                    }
                }
            }
        }
        assert!(saw_marks, "no suspension exposed a nonempty marks register");
        assert_eq!(va.as_deref(), Some("121"));
        assert_eq!(vb.as_deref(), Some("61"));
    }
}
