//! The virtual machine: a stack machine with segmented-stack continuations,
//! continuation attachments, winders, and prompts.
//!
//! # Continuation representation (paper §5–§6)
//!
//! The live stack is a pair of vectors (`stack` for values, `frames` for
//! frame metadata). Capturing a continuation *freezes* the live stack — an
//! O(1) move of both vectors into an [`Underflow`] record — and starts a
//! fresh, empty stack whose bottom conceptually "returns to the underflow
//! handler". Returning past the bottom (an *underflow*) resumes the frozen
//! segment, either by **fusing** it back (moving the vectors, no copying —
//! the opportunistic one-shot fast path of §6) when the machine holds the
//! only reference, or by **cloning** it (the multi-shot path) when a
//! first-class continuation still references it.
//!
//! Each underflow record carries the value of the `marks` register to
//! restore, which is the entire runtime story of continuation attachments:
//! setting an attachment in tail position reifies the continuation and
//! pushes onto `marks`; the pop happens for free at underflow.

pub mod control;
mod snapshot;

pub use snapshot::{RestoredRun, SnapshotError};

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem;
use std::rc::Rc;
use std::time::Instant;

use cm_sexpr::Sym;

use crate::code::{Code, Instr};
use crate::config::{MachineConfig, MarkModel};
use crate::error::{BacktraceFrame, VmBacktrace, VmError, VmErrorKind, VmResult};
use crate::heap::{self, GcReport, HClosure, HCont, RootGuard, Rooted};
use crate::prims::{self, ControlOp, NativeId};
use crate::stats::MachineStats;
use crate::trace::{TraceJournal, TraceKind};
use crate::values::{Closure, Value};

use control::{CompChainRec, CompData, ContData, ContKind, MetaFrame, Segment, Underflow, Winder};

/// One entry of the eager (old-Racket model) mark stack: an association
/// list of key/value marks for one continuation frame.
pub type MarkEntry = Vec<(Value, Value)>;

/// An activation frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The running code object.
    pub code: Rc<Code>,
    /// The closure providing captured variables (`None` for top level).
    pub closure: Option<HClosure>,
    /// Index of the next instruction.
    pub pc: u32,
    /// Index into the value stack where this frame's locals start.
    pub base: u32,
}

/// The global-variable table, shared between the compiler (which resolves
/// names to slot ids) and the machine (which reads and writes slots).
#[derive(Debug, Default)]
pub struct Globals {
    names: HashMap<Sym, u32>,
    slots: Vec<(Sym, Option<Value>)>,
}

impl Globals {
    /// Creates an empty table.
    pub fn new() -> Globals {
        Globals::default()
    }

    /// Returns the slot id for `name`, creating an unbound slot if new.
    pub fn intern(&mut self, name: Sym) -> u32 {
        if let Some(&id) = self.names.get(&name) {
            return id;
        }
        // A program would run out of memory long before interning 2^32
        // globals; the cast cannot truncate in practice.
        debug_assert!(self.slots.len() < u32::MAX as usize, "too many globals");
        let id = self.slots.len() as u32;
        self.slots.push((name, None));
        self.names.insert(name, id);
        id
    }

    /// Defines (or redefines) `name`.
    pub fn define(&mut self, name: Sym, value: Value) -> u32 {
        let id = self.intern(name);
        self.slots[id as usize].1 = Some(value);
        id
    }

    /// Reads a slot by id (`None` for unbound or out-of-range slots).
    pub fn get(&self, id: u32) -> Option<&Value> {
        self.slots.get(id as usize).and_then(|s| s.1.as_ref())
    }

    /// The name of a slot (a placeholder for out-of-range ids, which the
    /// bytecode verifier rules out for compiled code).
    pub fn name_of(&self, id: u32) -> Sym {
        match self.slots.get(id as usize) {
            Some(s) => s.0,
            None => cm_sexpr::sym("<bad-global-slot>"),
        }
    }

    /// Writes a slot by id (ignores out-of-range ids rather than abort).
    pub fn set(&mut self, id: u32, value: Value) {
        debug_assert!((id as usize) < self.slots.len(), "global id out of range");
        if let Some(slot) = self.slots.get_mut(id as usize) {
            slot.1 = Some(value);
        }
    }

    /// Looks up a binding by name.
    pub fn lookup(&self, name: Sym) -> Option<Value> {
        self.names
            .get(&name)
            .and_then(|&id| self.slots[id as usize].1)
    }

    /// Every bound global value (the garbage collector's view of the
    /// table: each machine's globals are a standing root set).
    pub fn values(&self) -> Vec<Value> {
        self.slots.iter().filter_map(|s| s.1).collect()
    }

    /// Every slot in id order, name and (possibly unbound) value. Slot
    /// *order* is the serialization contract: compiled bytecode refers to
    /// globals by slot id, so a snapshot stores bindings in this order and
    /// restore re-interns them in the same order to reproduce the ids.
    pub fn bindings(&self) -> &[(Sym, Option<Value>)] {
        &self.slots
    }
}

/// How a call site delivers control (decided by the compiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallMode {
    /// An ordinary call: the callee returns to the current frame.
    NonTail,
    /// A tail call: the current frame is replaced.
    Tail,
    /// §7.2 case (b): a call in tail position of a
    /// `with-continuation-mark` body that is itself non-tail — reify so
    /// the attachment pops via underflow when the callee returns.
    WithAttachment,
    /// Old-Racket model: the callee shares the caller's current
    /// mark-stack entry (pushed for a non-tail mark's conceptual frame).
    EagerShared,
}

/// A preempted execution, captured at a safe point by
/// [`Machine::run_code_sliced`]/[`Machine::resume`] when a fuel slice ran
/// out (or `%engine-block` fired).
///
/// The live frames were frozen with the same O(1) reify-as-one-shot
/// mechanism as `call/cc` — moved into an [`Underflow`] record, not
/// copied — and this struct holds the only reference, so
/// [`Machine::resume`] *fuses* them back without a copy (§6's
/// opportunistic one-shot path; observable as
/// [`MachineStats::fusions`](crate::MachineStats)). The struct is
/// deliberately not `Clone`: a suspended run is a one-shot continuation.
#[derive(Debug)]
pub struct SuspendedRun {
    /// Head of the frozen segment chain (the topmost record holds the
    /// frames that were live at suspension).
    head: Rc<Underflow>,
    /// Marks at the bottom of the suspended segment chain.
    base_marks: Value,
    /// Active `dynamic-wind` extents at suspension.
    winders: Vec<Winder>,
    /// Prompt boundaries at suspension.
    meta: Vec<MetaFrame>,
    /// Primitive calls so far in this run, across its slices.
    prim_count: u64,
    /// The run's wall-clock cutoff, armed when the run began.
    deadline_at: Option<Instant>,
    /// Keeps every value frozen in this run registered as a GC root: a
    /// suspended engine's state survives collections triggered by other
    /// runs on the same thread, and resumes bit-identical.
    _roots: RootGuard,
}

impl SuspendedRun {
    /// Frames pending in the frozen chain (live frames at suspension plus
    /// earlier reified segments) — a cheap progress/depth signal for
    /// schedulers.
    pub fn frame_count(&self) -> usize {
        let mut n = 0;
        let mut cur = Some(self.head.clone());
        while let Some(u) = cur {
            if let Some(seg) = u.seg.borrow().as_ref() {
                n += seg.frames.len();
            }
            cur = u.next.clone();
        }
        n
    }

    /// The full attachments (marks) register as of the suspension point.
    ///
    /// This is the `cm-trace` sampling profiler's window into a paused
    /// program: the suspended head record restores the complete current
    /// marks list, so walking it for `('profile-key . name)` pairs
    /// reconstructs the Scheme-level stack with the continuation-marks
    /// machinery itself — no shadow stack.
    pub fn marks(&self) -> Value {
        self.head.marks
    }
}

/// The outcome of one fuel slice of a sliced run.
#[derive(Debug)]
pub enum RunStatus {
    /// The program finished with this value.
    Done(Rooted),
    /// The slice was preempted; pass the [`SuspendedRun`] to
    /// [`Machine::resume`] to continue.
    Suspended(SuspendedRun),
}

/// How the interpreter loop ended (internal to the machine: the public
/// surface is [`RunStatus`]).
enum LoopExit {
    Done(Value),
    Suspended,
}

/// The virtual machine.
///
/// A machine owns its stacks and registers; globals are shared (with the
/// compiler) behind `Rc<RefCell<_>>`.
pub struct Machine {
    /// The live value stack of the current segment.
    pub(crate) stack: Vec<Value>,
    /// The live frames of the current segment.
    pub(crate) frames: Vec<Frame>,
    /// The attachments ("marks") register: a Scheme list.
    pub(crate) marks: Value,
    /// Marks at the bottom of the current segment chain (program start or
    /// enclosing prompt entry); the boundary for attachment presence when
    /// `next` is `None`.
    pub(crate) base_marks: Value,
    /// The next-stack register: the underflow chain.
    pub(crate) next: Option<Rc<Underflow>>,
    /// Active `dynamic-wind` extents.
    pub(crate) winders: Vec<Winder>,
    /// Prompt boundaries.
    pub(crate) meta: Vec<MetaFrame>,
    /// Eager-model mark stack (empty in attachments mode).
    pub(crate) mark_stack: Vec<MarkEntry>,
    /// Shared global table.
    pub globals: Rc<RefCell<Globals>>,
    /// Runtime configuration.
    pub config: MachineConfig,
    /// Event counters.
    pub stats: MachineStats,
    /// The event journal behind `cm-trace`. Empty (and never written)
    /// unless [`MachineConfig::trace`] is on; every counter in
    /// [`Machine::stats`] and every journal record flow through the same
    /// [`Machine::trace`] hook, so with tracing enabled the per-kind
    /// journal totals equal the stats counters by construction.
    pub journal: TraceJournal,
    /// Captured output of `display`/`write`/`newline`.
    pub output: String,
    fuel: Option<u64>,
    /// Whether the current top-level run entered through
    /// [`Machine::run_code_sliced`]/[`Machine::resume`]: fuel exhaustion
    /// then suspends instead of raising
    /// [`VmErrorKind::OutOfFuel`](crate::VmErrorKind).
    slice_mode: bool,
    /// Wall-clock cutoff for the current top-level run, armed from
    /// [`MachineConfig::deadline`] on entry.
    deadline_at: Option<Instant>,
    /// Primitive/native calls since the current top-level run began
    /// (drives [`FaultPlan::fail_prim_at`](crate::FaultPlan) injection).
    prim_count: u64,
    winder_counter: u64,
    /// Global slot of the prelude's `$wind-to`, which a continuation jump
    /// calls to cross winders. Interned right after the natives, so every
    /// machine built the same way gives it the same id; once defined, a
    /// program cannot rebind it.
    wind_to: u32,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("frames", &self.frames.len())
            .field("stack", &self.stack.len())
            .field("meta", &self.meta.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine with a fresh global table and the natives
    /// installed.
    pub fn new(config: MachineConfig) -> Machine {
        let globals = Rc::new(RefCell::new(Globals::new()));
        Machine::with_globals(config, globals)
    }

    /// Creates a machine over an existing global table (installing the
    /// natives into it).
    pub fn with_globals(config: MachineConfig, globals: Rc<RefCell<Globals>>) -> Machine {
        let wind_to = {
            let mut g = globals.borrow_mut();
            prims::install(&mut g);
            g.intern(cm_sexpr::sym("$wind-to"))
        };
        // The globals table is a standing GC root: values defined during
        // this machine's runs must survive collections triggered by other
        // machines on the same thread.
        heap::register_globals_root(&globals);
        let fuel = config.fuel;
        let journal = if config.trace {
            TraceJournal::with_capacity(config.trace_capacity)
        } else {
            TraceJournal::with_capacity(0)
        };
        Machine {
            stack: Vec::new(),
            frames: Vec::new(),
            marks: Value::Nil,
            base_marks: Value::Nil,
            next: None,
            winders: Vec::new(),
            meta: Vec::new(),
            mark_stack: Vec::new(),
            globals,
            config,
            stats: MachineStats::default(),
            journal,
            output: String::new(),
            fuel,
            slice_mode: false,
            deadline_at: None,
            prim_count: 0,
            winder_counter: 0,
            wind_to,
        }
    }

    /// Announces one continuation-machinery event: bumps the mirrored
    /// stats counter and, when [`MachineConfig::trace`] is on, journals
    /// the event with the current step index and live frame depth.
    ///
    /// Every counted event in the machine goes through here (there are no
    /// direct `stats.x += 1` sites left), which is what makes the
    /// counter/journal consistency invariant structural. The disabled
    /// path is one branch; this must stay unconditional — never behind
    /// `debug_assertions` — so release tracing works (CI greps for that).
    #[inline]
    pub(crate) fn trace(&mut self, kind: TraceKind) {
        kind.bump(&mut self.stats);
        if self.config.trace {
            self.journal
                .record(kind, self.stats.steps_executed, self.frames.len());
        }
    }

    /// Whether the eager (old Racket) mark model is active.
    pub fn eager_marks(&self) -> bool {
        self.config.mark_model == MarkModel::EagerMarkStack
    }

    /// Takes and clears the captured output.
    pub fn take_output(&mut self) -> String {
        mem::take(&mut self.output)
    }

    /// The current value of the marks (attachments) register.
    pub(crate) fn marks_snapshot(&self) -> Value {
        self.marks
    }

    /// Resets the step budget to the configured value.
    pub fn refuel(&mut self) {
        self.fuel = self.config.fuel;
    }

    /// Remaining fuel (`None` = unlimited).
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.fuel
    }

    /// Arms the per-run limits: the primitive-call counter (which drives
    /// fault injection) and the wall-clock deadline.
    fn arm_limits(&mut self) {
        self.prim_count = 0;
        self.deadline_at = self
            .config
            .deadline
            .and_then(|d| Instant::now().checked_add(d));
    }

    /// Runs a top-level code object to completion. The result comes back
    /// [`Rooted`]: it stays live across later runs' collections for as
    /// long as the caller holds it.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution; the machine is reset to an
    /// idle state on error.
    pub fn run_code(&mut self, code: Rc<Code>) -> VmResult<Rooted> {
        self.begin_run();
        let r = self
            .push_frame(code, None, Vec::new())
            .and_then(|()| self.run_until_done());
        let out = self.finish_run(r);
        self.drain_alloc_events();
        out.map(Rooted::new)
    }

    /// Calls a Scheme value from Rust (the machine must be idle). The
    /// result comes back [`Rooted`], as from [`Machine::run_code`].
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution; the machine is reset to an
    /// idle state on error.
    pub fn call_value(&mut self, f: Value, args: Vec<Value>) -> VmResult<Rooted> {
        self.begin_run();
        let r = (|| match self.do_call(f, args, CallMode::NonTail)? {
            Some(v) => Ok(v),
            None => self.run_until_done(),
        })();
        let out = self.finish_run(r);
        self.drain_alloc_events();
        out.map(Rooted::new)
    }

    /// Common top-level entry: checks the machine is idle, arms the
    /// per-run limits, and discards the allocation-event backlog from
    /// outside any run (compile time, embedder construction) so it is not
    /// attributed to this run.
    fn begin_run(&mut self) {
        self.ensure_idle();
        self.arm_limits();
        heap::take_alloc_pending();
    }

    /// Runs a top-level code object for at most `slice` steps.
    ///
    /// Like [`Machine::run_code`], but fuel exhaustion *suspends* the run
    /// instead of raising [`VmErrorKind::OutOfFuel`]: the in-flight
    /// frames, marks, winders, and prompt state are captured into a
    /// [`SuspendedRun`] (an O(1) freeze, no copying) and the machine is
    /// left idle, ready to run other code. Continue with
    /// [`Machine::resume`]. A `slice` of 0 is treated as 1 so every slice
    /// makes progress.
    ///
    /// Suspension happens at safe points (instruction boundaries), which
    /// include the inside of winder thunks: a continuation jump runs them
    /// as ordinary frames, so a frozen run captures them like any other
    /// code. The explicit `%engine-block` native requests the same
    /// suspension from Scheme code (and is a no-op outside sliced runs).
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution; the machine is reset to an
    /// idle state on error. [`VmErrorKind::OutOfFuel`] cannot occur.
    pub fn run_code_sliced(&mut self, code: Rc<Code>, slice: u64) -> VmResult<RunStatus> {
        self.begin_run();
        self.begin_slice(slice);
        let r = self
            .push_frame(code, None, Vec::new())
            .and_then(|()| self.run_loop());
        let out = self.finish_slice(r);
        self.drain_alloc_events();
        out
    }

    /// Resumes a [`SuspendedRun`] for at most `slice` further steps.
    ///
    /// The primitive-call count and the deadline continue from the run's
    /// earlier slices: both limits are per run, not per slice.
    ///
    /// When the suspension was undisturbed (the default configuration:
    /// one-shot fusion on, no forced clone), the frozen frames are fused
    /// back — moved, not copied — exactly like an opportunistic one-shot
    /// continuation on underflow;
    /// [`MachineStats::fusions`](crate::MachineStats) counts it. The run
    /// must be resumed on a machine sharing the globals it was started
    /// on.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution; the machine is reset to an
    /// idle state on error.
    pub fn resume(&mut self, run: SuspendedRun, slice: u64) -> VmResult<RunStatus> {
        self.begin_run();
        self.begin_slice(slice);
        self.trace(TraceKind::Resume);
        let SuspendedRun {
            head,
            base_marks,
            winders,
            meta,
            prim_count,
            deadline_at,
            _roots,
        } = run;
        self.prim_count = prim_count;
        self.deadline_at = deadline_at;
        self.base_marks = base_marks;
        self.winders = winders;
        self.meta = meta;
        let r = self.unfreeze_head(head).and_then(|()| self.run_loop());
        // The suspended state is live machine state now; its standing
        // root registration can go.
        drop(_roots);
        let out = self.finish_slice(r);
        self.drain_alloc_events();
        out
    }

    /// Arms slice mode: fuel becomes the per-slice step budget and
    /// exhaustion suspends instead of erroring.
    fn begin_slice(&mut self, slice: u64) {
        self.slice_mode = true;
        self.fuel = Some(slice.max(1));
    }

    /// Reinstalls a suspended run's frozen head segment as the live
    /// segment, fusing when this machine holds the only reference (the
    /// same policy as [`Machine::underflow`]).
    fn unfreeze_head(&mut self, head: Rc<Underflow>) -> VmResult<()> {
        self.marks = head.marks;
        self.next = head.next.clone();
        let seg = self.extract_segment(&head, "resume")?;
        self.stack = seg.stack;
        self.frames = seg.frames;
        self.mark_stack = seg.mark_entries;
        if self.frames.is_empty() {
            return Err(VmError::internal_recoverable(
                "resume",
                "suspended run has no live frames",
            ));
        }
        Ok(())
    }

    /// Finishes a slice: `Done`/`Err` close out like [`Machine::finish_run`];
    /// `Suspended` freezes the live state into a [`SuspendedRun`]
    /// (checking [`Machine::check_invariants`] at the suspension point
    /// when configured) and leaves the machine idle.
    fn finish_slice(&mut self, r: VmResult<LoopExit>) -> VmResult<RunStatus> {
        self.slice_mode = false;
        // Slice fuel must not leak into subsequent ordinary runs.
        self.fuel = self.config.fuel;
        match r {
            Ok(LoopExit::Done(v)) => self
                .finish_run(Ok(v))
                .map(|v| RunStatus::Done(Rooted::new(v))),
            Ok(LoopExit::Suspended) => {
                self.trace(TraceKind::Suspend);
                self.freeze_current(self.marks);
                if self.config.check_invariants {
                    if let Err(msg) = self.check_invariants() {
                        debug_assert!(false, "suspension-point invariant violation: {msg}");
                        self.reset();
                        return Err(VmError::internal_recoverable("suspend-invariants", msg));
                    }
                }
                let Some(head) = self.next.take() else {
                    // Unreachable: `freeze_current` just pushed a record.
                    self.reset();
                    return Err(VmError::internal_recoverable(
                        "suspend",
                        "no frozen segment at suspension",
                    ));
                };
                let base_marks = mem::replace(&mut self.base_marks, Value::Nil);
                let winders = mem::take(&mut self.winders);
                let meta = mem::take(&mut self.meta);
                // Register everything frozen in this run as a standing GC
                // root for as long as the SuspendedRun lives.
                let mut roots = Vec::new();
                push_chain_roots(&Some(head.clone()), &mut roots);
                roots.push(base_marks);
                push_winder_roots(&winders, &mut roots);
                for mf in &meta {
                    push_meta_roots(mf, &mut roots);
                }
                let run = SuspendedRun {
                    head,
                    base_marks,
                    winders,
                    meta,
                    prim_count: self.prim_count,
                    deadline_at: self.deadline_at,
                    _roots: heap::add_extra_roots(roots),
                };
                self.marks = Value::Nil;
                debug_assert!(self.is_idle(), "machine not idle after suspension");
                Ok(RunStatus::Suspended(run))
            }
            Err(e) => self
                .finish_run(Err(e))
                .map(|v| RunStatus::Done(Rooted::new(v))),
        }
    }

    /// Requests a suspension at the next safe point (the `%engine-block`
    /// native) by spending the rest of the slice's fuel. Returns whether
    /// the request took effect — `false` outside sliced runs, where
    /// `%engine-block` is a no-op.
    pub(crate) fn request_block(&mut self) -> bool {
        if self.slice_mode {
            self.fuel = Some(0);
        }
        self.slice_mode
    }

    /// Whether the machine has no live execution state. Top-level entries
    /// require this, and both their success and error paths restore it —
    /// the reuse-after-fault guarantee the torture harness verifies.
    pub fn is_idle(&self) -> bool {
        self.frames.is_empty()
            && self.stack.is_empty()
            && self.next.is_none()
            && self.meta.is_empty()
            && self.winders.is_empty()
            && self.mark_stack.is_empty()
            && matches!(self.marks, Value::Nil)
            && matches!(self.base_marks, Value::Nil)
    }

    /// A top-level entry found the machine mid-execution — possible only
    /// if a caller bypassed the public API or a previous run leaked state.
    /// Recover by discarding the stale state rather than misbehaving.
    fn ensure_idle(&mut self) {
        if !self.is_idle() {
            debug_assert!(false, "machine re-entered while not idle");
            self.reset();
        }
    }

    /// Finishes a top-level run: on success clears residual per-run
    /// registers; on error captures a fault-time backtrace and resets to
    /// idle. With [`MachineConfig::check_invariants`] on (the default in
    /// debug builds, the execution-layer analogue of `verify_bytecode`),
    /// verifies [`Machine::check_invariants`] on both paths and turns a
    /// violation into a recoverable error.
    fn finish_run(&mut self, r: VmResult<Value>) -> VmResult<Value> {
        let out = match r {
            Ok(v) => {
                self.reset();
                Ok(v)
            }
            Err(e) => {
                let bt = self.capture_backtrace();
                self.reset();
                Err(e.with_backtrace(bt))
            }
        };
        if self.config.check_invariants {
            if let Err(msg) = self.check_invariants() {
                debug_assert!(false, "post-run invariant violation: {msg}");
                self.reset();
                return Err(VmError::internal_recoverable("post-run-invariants", msg));
            }
        }
        out
    }

    /// Clears all execution state (used after an error escape).
    fn reset(&mut self) {
        self.stack.clear();
        self.frames.clear();
        self.next = None;
        self.marks = Value::Nil;
        self.base_marks = Value::Nil;
        self.winders.clear();
        self.meta.clear();
        self.mark_stack.clear();
    }

    // ------------------------------------------------------------------
    // The interpreter loop
    // ------------------------------------------------------------------

    /// Runs the interpreter loop to completion. Suspension cannot escape
    /// here: only the sliced entry points (which use
    /// [`Machine::run_loop`] directly) suspend.
    fn run_until_done(&mut self) -> VmResult<Value> {
        match self.run_loop()? {
            LoopExit::Done(v) => Ok(v),
            LoopExit::Suspended => Err(VmError::internal(
                "run",
                "suspension escaped an unsliced run",
            )),
        }
    }

    fn run_loop(&mut self) -> VmResult<LoopExit> {
        // The deadline is polled every 1024 steps so the hot loop pays one
        // increment-and-mask, not a clock read.
        let mut tick: u32 = 0;
        loop {
            // Empty fuel ends an unsliced run and suspends a sliced one
            // (a slice ran out, or `%engine-block` spent the rest).
            if let Some(fuel) = self.fuel.as_mut() {
                if *fuel == 0 {
                    if !self.slice_mode {
                        return Err(VmErrorKind::OutOfFuel.into());
                    }
                    return Ok(LoopExit::Suspended);
                }
                *fuel -= 1;
            }
            // GC safe point: every live edge is reachable from machine
            // state here (`gather_roots`). Alloc trace events are
            // drained in `collect_garbage` (so they precede the
            // `GcCollect` they triggered) and at run exit, not here — the
            // hot path pays a single `Cell` read per instruction.
            if self.config.gc_stress || heap::should_collect() {
                self.collect_garbage(&[]);
            }
            self.check_heap_limit()?;
            self.trace(TraceKind::Step);
            tick = tick.wrapping_add(1);
            if tick & 1023 == 0 {
                if let Some(at) = self.deadline_at {
                    if Instant::now() >= at {
                        return Err(VmErrorKind::DeadlineExceeded.into());
                    }
                }
            }
            let instr = {
                let Some(f) = self.frames.last_mut() else {
                    return Err(VmError::internal("run", "running without a frame"));
                };
                let Some(i) = f.code.instrs.get(f.pc as usize) else {
                    return Err(VmError::internal(
                        "run",
                        format!("pc {} out of range in {}", f.pc, f.code.name),
                    ));
                };
                let i = i.clone();
                f.pc += 1;
                i
            };
            match instr {
                Instr::Const(i) => {
                    let v = self
                        .cur_code()?
                        .consts
                        .get(i as usize)
                        .cloned()
                        .ok_or_else(|| VmError::internal("const", "constant index out of range"))?;
                    self.stack.push(v);
                }
                Instr::LocalRef(i) => {
                    let base = self.top_frame("local-ref")?.base as usize;
                    let v =
                        self.stack.get(base + i as usize).cloned().ok_or_else(|| {
                            VmError::internal("local-ref", "local slot out of range")
                        })?;
                    self.stack.push(v);
                }
                Instr::LocalSet(i) => {
                    let v = self.pop_value("local-set")?;
                    let base = self.top_frame("local-set")?.base as usize;
                    let slot = self
                        .stack
                        .get_mut(base + i as usize)
                        .ok_or_else(|| VmError::internal("local-set", "local slot out of range"))?;
                    *slot = v;
                }
                Instr::CaptureRef(i) => {
                    let cl = self.top_frame("capture-ref")?.closure;
                    let v = cl.and_then(|cl| cl.capture(i as usize)).ok_or_else(|| {
                        VmError::internal("capture-ref", "capture out of range or no closure")
                    })?;
                    self.stack.push(v);
                }
                Instr::GlobalRef(id) => {
                    let v = self.globals.borrow().get(id).cloned();
                    match v {
                        Some(v) => self.stack.push(v),
                        None => {
                            let name = self.globals.borrow().name_of(id);
                            return Err(VmError::unbound(name.name()));
                        }
                    }
                }
                Instr::GlobalSet(id) => {
                    let v = self.pop_value("global-set")?;
                    let mut g = self.globals.borrow_mut();
                    if id == self.wind_to && g.get(id).is_some() {
                        return Err(VmError::other(
                            "cannot redefine $wind-to: continuation jumps call it",
                        ));
                    }
                    g.set(id, v);
                }
                Instr::MakeClosure { code, captures } => {
                    let n = captures as usize;
                    let at = self.stack.len().checked_sub(n).ok_or_else(|| {
                        VmError::internal("make-closure", "captured values missing from stack")
                    })?;
                    let caps = self.stack.split_off(at);
                    let code = self
                        .cur_code()?
                        .codes
                        .get(code as usize)
                        .cloned()
                        .ok_or_else(|| {
                            VmError::internal("make-closure", "nested code index out of range")
                        })?;
                    self.stack.push(Value::closure(Closure {
                        code,
                        captures: caps,
                    }));
                }
                Instr::Jump(t) => self.top_frame_mut("jump")?.pc = t,
                Instr::JumpIfFalse(t) => {
                    let v = self.pop_value("jump-if-false")?;
                    if !v.is_true() {
                        self.top_frame_mut("jump-if-false")?.pc = t;
                    }
                }
                Instr::Leave(n) => {
                    let v = self.pop_value("leave")?;
                    let keep = self.stack.len().checked_sub(n as usize).ok_or_else(|| {
                        VmError::internal("leave", "more locals to drop than stack holds")
                    })?;
                    self.stack.truncate(keep);
                    self.stack.push(v);
                }
                Instr::Pop => {
                    self.stack.pop();
                }
                Instr::Call(n) => {
                    let (rator, args) = self.pop_call(n as usize)?;
                    if let Some(v) = self.do_call(rator, args, CallMode::NonTail)? {
                        return Ok(LoopExit::Done(v));
                    }
                }
                Instr::TailCall(n) => {
                    let (rator, args) = self.pop_call(n as usize)?;
                    if let Some(v) = self.do_call(rator, args, CallMode::Tail)? {
                        return Ok(LoopExit::Done(v));
                    }
                }
                Instr::CallWithAttachment(n) => {
                    let (rator, args) = self.pop_call(n as usize)?;
                    if let Some(v) = self.do_call(rator, args, CallMode::WithAttachment)? {
                        return Ok(LoopExit::Done(v));
                    }
                }
                Instr::EagerCallShared(n) => {
                    let (rator, args) = self.pop_call(n as usize)?;
                    if let Some(v) = self.do_call(rator, args, CallMode::EagerShared)? {
                        return Ok(LoopExit::Done(v));
                    }
                }
                Instr::Return => {
                    let v = self.pop_value("return")?;
                    if let Some(v) = self.return_value(v)? {
                        return Ok(LoopExit::Done(v));
                    }
                }
                Instr::PrimCall(op, argc) => prims::exec_prim(self, op, argc as usize)?,
                Instr::PushAttach => {
                    let v = self.pop_value("push-attach")?;
                    self.marks = Value::cons(v, self.marks);
                    self.trace(TraceKind::AttachPush);
                }
                Instr::PopAttach => {
                    self.marks = self.marks_rest()?;
                    self.trace(TraceKind::AttachPop);
                }
                Instr::SetAttach => {
                    let v = self.pop_value("set-attach")?;
                    let rest = self.marks_rest()?;
                    self.marks = Value::cons(v, rest);
                }
                Instr::ReifySetAttach { check_replace } => {
                    let v = self.pop_value("reify-set-attach")?;
                    self.reify_set_attachment(v, check_replace)?;
                }
                Instr::GetAttachDyn => {
                    let dflt = self.pop_value("get-attach")?;
                    let v = if self.frame_has_attachment() {
                        self.marks.car().ok_or_else(|| {
                            VmError::internal_recoverable("get-attach", "marks register empty")
                        })?
                    } else {
                        dflt
                    };
                    self.stack.push(v);
                }
                Instr::ConsumeAttachDyn => {
                    let dflt = self.pop_value("consume-attach")?;
                    let v = if self.frame_has_attachment() {
                        let v = self.marks.car().ok_or_else(|| {
                            VmError::internal_recoverable("consume-attach", "marks register empty")
                        })?;
                        self.marks = self.marks_rest()?;
                        self.trace(TraceKind::AttachPop);
                        v
                    } else {
                        dflt
                    };
                    self.stack.push(v);
                }
                Instr::GetAttachPresent => {
                    let v = self.marks.car().ok_or_else(|| {
                        VmError::other("attachment expected but marks register empty")
                    })?;
                    self.stack.push(v);
                }
                Instr::ConsumeAttachPresent => {
                    let v = self.marks.car().ok_or_else(|| {
                        VmError::other("attachment expected but marks register empty")
                    })?;
                    self.marks = self.marks_rest()?;
                    self.trace(TraceKind::AttachPop);
                    self.stack.push(v);
                }
                Instr::CurrentAttachments => {
                    self.stack.push(self.marks);
                }
                Instr::EagerPushFrame => {
                    self.mark_stack.push(Vec::new());
                    self.trace(TraceKind::MarkStackPush);
                }
                Instr::EagerPopFrame => {
                    self.mark_stack.pop();
                }
                Instr::EagerMarkSet => {
                    let val = self.pop_value("eager-mark-set")?;
                    let key = self.pop_value("eager-mark-set")?;
                    self.eager_set_mark(key, val);
                }
            }
        }
    }

    fn cur_code(&self) -> VmResult<Rc<Code>> {
        self.frames
            .last()
            .map(|f| f.code.clone())
            .ok_or_else(|| VmError::internal("cur-code", "no active frame"))
    }

    fn top_frame(&self, site: &'static str) -> VmResult<&Frame> {
        self.frames
            .last()
            .ok_or_else(|| VmError::internal(site, "no active frame"))
    }

    fn top_frame_mut(&mut self, site: &'static str) -> VmResult<&mut Frame> {
        self.frames
            .last_mut()
            .ok_or_else(|| VmError::internal(site, "no active frame"))
    }

    fn pop_value(&mut self, site: &'static str) -> VmResult<Value> {
        self.stack
            .pop()
            .ok_or_else(|| VmError::internal(site, "value stack empty"))
    }

    fn pop_call(&mut self, argc: usize) -> VmResult<(Value, Vec<Value>)> {
        let at = self.stack.len().checked_sub(argc).ok_or_else(|| {
            VmError::internal("call", "fewer values on stack than the call site expects")
        })?;
        let args = self.stack.split_off(at);
        let rator = self.pop_value("call")?;
        Ok((rator, args))
    }

    // ------------------------------------------------------------------
    // Calls and returns
    // ------------------------------------------------------------------

    /// Applies `rator` to `args` in the given call mode. Returns
    /// `Ok(Some(v))` if the whole execution finished with `v`.
    pub(crate) fn do_call(
        &mut self,
        rator: Value,
        args: Vec<Value>,
        mode: CallMode,
    ) -> VmResult<Option<Value>> {
        match rator {
            Value::Closure(cl) => {
                self.call_closure(cl, args, mode)?;
                Ok(None)
            }
            Value::Native(id) => self.call_native(id, args, mode),
            Value::Cont(k) => {
                let v = one_arg_for_cont(args)?;
                // The current frame is dead on a tail application; it must
                // not be captured by a composable splice.
                self.discard_frame_if_tail(mode)?;
                self.apply_continuation(k, v)
            }
            other => Err(VmErrorKind::NotAProcedure(other.write_string()).into()),
        }
    }

    fn call_closure(&mut self, cl: HClosure, args: Vec<Value>, mode: CallMode) -> VmResult<()> {
        let code = cl.code();
        let args = check_arity(&code, args)?;
        match mode {
            CallMode::NonTail => {
                if self.frames.len() >= self.config.segment_frame_limit {
                    self.trace(TraceKind::OverflowSplit);
                    self.freeze_current(self.marks);
                }
                self.push_frame(code, Some(cl), args)?;
            }
            CallMode::EagerShared => {
                // Like NonTail, but the callee's frame shares the mark
                // entry already on top of the mark stack (the conceptual
                // frame of a non-tail with-continuation-mark); the
                // callee's return pops it.
                if self.frames.len() >= self.config.segment_frame_limit {
                    self.trace(TraceKind::OverflowSplit);
                    self.freeze_current(self.marks);
                }
                self.push_frame_no_entry(code, Some(cl), args)?;
            }
            CallMode::Tail => {
                let Some(f) = self.frames.last_mut() else {
                    return Err(VmError::internal("tail-call", "tail call without a frame"));
                };
                self.stack.truncate(f.base as usize);
                self.stack.extend(args);
                f.pc = 0;
                f.code = code;
                f.closure = Some(cl);
                // The eager mark entry is intentionally retained: a tail
                // call shares its caller's continuation frame, so the old
                // Racket model keeps that frame's marks.
            }
            CallMode::WithAttachment => {
                // §7.2 case (b): reify with (cdr marks) in the underflow
                // record so the attachment pops when the callee returns.
                let rest = self.marks_rest()?;
                self.trace(TraceKind::Reify);
                self.freeze_current(rest);
                self.push_frame(code, Some(cl), args)?;
            }
        }
        Ok(())
    }

    fn call_native(
        &mut self,
        id: NativeId,
        args: Vec<Value>,
        mode: CallMode,
    ) -> VmResult<Option<Value>> {
        let def = id.def();
        def.check_arity(args.len())?;
        self.note_prim_call(def.name)?;
        match def.imp {
            prims::NativeImpl::Pure(f) => {
                let v = f(&args)?;
                self.deliver_native_result(v, mode)
            }
            prims::NativeImpl::Machine(f) => {
                let v = f(self, args)?;
                self.deliver_native_result(v, mode)
            }
            prims::NativeImpl::Control(op) => self.control_op(op, args, mode),
        }
    }

    /// Delivers the result of an inline (native) call according to mode.
    fn deliver_native_result(&mut self, v: Value, mode: CallMode) -> VmResult<Option<Value>> {
        match mode {
            CallMode::NonTail => self.deliver(v),
            CallMode::Tail => self.return_value(v),
            CallMode::WithAttachment => {
                // The callee could not observe or capture anything, so the
                // reification can be skipped entirely; just pop the
                // attachment now that the wcm body is done.
                self.marks = self.marks_rest()?;
                self.trace(TraceKind::AttachPop);
                self.deliver(v)
            }
            CallMode::EagerShared => {
                // The wcm body is done; pop its conceptual frame's entry.
                self.mark_stack.pop();
                self.deliver(v)
            }
        }
    }

    /// Pushes `v` as a result into the current context (or underflows if
    /// there is no live frame).
    fn deliver(&mut self, v: Value) -> VmResult<Option<Value>> {
        if self.frames.is_empty() {
            self.underflow(v)
        } else {
            self.stack.push(v);
            Ok(None)
        }
    }

    fn push_frame(
        &mut self,
        code: Rc<Code>,
        closure: Option<HClosure>,
        args: Vec<Value>,
    ) -> VmResult<()> {
        self.push_frame_no_entry(code, closure, args)?;
        if self.eager_marks() {
            self.mark_stack.push(Vec::new());
            self.trace(TraceKind::MarkStackPush);
        }
        Ok(())
    }

    fn push_frame_no_entry(
        &mut self,
        code: Rc<Code>,
        closure: Option<HClosure>,
        args: Vec<Value>,
    ) -> VmResult<()> {
        let base = u32::try_from(self.stack.len()).map_err(|_| {
            VmError::internal_recoverable("push-frame", "value stack exceeds u32 range")
        })?;
        self.stack.extend(args);
        self.frames.push(Frame {
            code,
            closure,
            pc: 0,
            base,
        });
        Ok(())
    }

    /// Returns `v` from the current frame; `Ok(Some(_))` means the whole
    /// execution completed.
    fn return_value(&mut self, v: Value) -> VmResult<Option<Value>> {
        let Some(f) = self.frames.pop() else {
            return Err(VmError::internal("return", "return without a frame"));
        };
        self.stack.truncate(f.base as usize);
        if self.eager_marks() {
            self.mark_stack.pop();
        }
        self.deliver(v)
    }

    // ------------------------------------------------------------------
    // Segments, underflow, reification
    // ------------------------------------------------------------------

    /// Freezes the entire live stack into a new underflow record whose
    /// `marks` field is `restore_marks`, leaving the machine with an empty
    /// segment. O(1): the vectors are moved, not copied.
    pub(crate) fn freeze_current(&mut self, restore_marks: Value) -> Rc<Underflow> {
        let seg = Segment {
            stack: mem::take(&mut self.stack),
            frames: mem::take(&mut self.frames),
            mark_entries: mem::take(&mut self.mark_stack),
        };
        let u = Rc::new(Underflow {
            seg: RefCell::new(Some(Rc::new(seg))),
            marks: restore_marks,
            next: self.next.take(),
        });
        self.next = Some(u.clone());
        u
    }

    /// Extracts an underflow record's segment under the one-shot policy
    /// (§6): when this machine holds the only reference to the record
    /// *and* to its segment, the segment is moved back without copying
    /// (fusion); when the record is unshared but the segment handle is
    /// still held by a composable capture, the record gives up its
    /// handle and only then pays the copy; otherwise — shared record, or
    /// fusion disabled — the segment is deep-copied and the record left
    /// intact for the other owners.
    fn extract_segment(&mut self, u: &Rc<Underflow>, site: &'static str) -> VmResult<Segment> {
        let fusible = self.config.one_shot_fusion && !self.config.fault_plan.force_clone;
        if fusible && Rc::strong_count(u) == 1 {
            let rc =
                u.seg.borrow_mut().take().ok_or_else(|| {
                    VmError::internal_recoverable(site, "segment already fused away")
                })?;
            return Ok(match Rc::try_unwrap(rc) {
                Ok(seg) => {
                    self.trace(TraceKind::Fuse);
                    seg
                }
                Err(rc) => {
                    self.trace(TraceKind::Copy);
                    (*rc).clone()
                }
            });
        }
        let rc = u
            .seg
            .borrow()
            .clone()
            .ok_or_else(|| VmError::internal_recoverable(site, "segment already fused away"))?;
        self.trace(TraceKind::Copy);
        Ok((*rc).clone())
    }

    /// Control has returned past the bottom of the live segment: resume
    /// the next frozen segment (fusing when possible), or pop a prompt, or
    /// finish.
    fn underflow(&mut self, v: Value) -> VmResult<Option<Value>> {
        loop {
            match self.next.take() {
                Some(u) => {
                    self.trace(TraceKind::Underflow);
                    self.marks = u.marks;
                    self.next = u.next.clone();
                    let seg = self.extract_segment(&u, "underflow")?;
                    self.stack = seg.stack;
                    self.frames = seg.frames;
                    self.mark_stack = seg.mark_entries;
                    if self.frames.is_empty() {
                        // A degenerate segment (e.g. reified around a
                        // native): keep unwinding.
                        continue;
                    }
                    self.stack.push(v);
                    return Ok(None);
                }
                None => match self.meta.pop() {
                    Some(mf) => {
                        self.restore_meta(mf);
                        if self.frames.is_empty() {
                            continue;
                        }
                        self.stack.push(v);
                        return Ok(None);
                    }
                    None => return Ok(Some(v)),
                },
            }
        }
    }

    fn restore_meta(&mut self, mf: MetaFrame) {
        self.stack = mf.stack;
        self.frames = mf.frames;
        self.next = mf.next;
        self.marks = mf.marks;
        self.base_marks = mf.base_marks;
        self.winders = mf.winders;
        self.mark_stack = mf.mark_stack;
    }

    /// Splits the stack below the current frame so that the current frame
    /// becomes the base of a fresh segment (`reify-continuation!`). No-op
    /// if already reified.
    fn reify_keep_top(&mut self) {
        if self.frames.len() <= 1 {
            return;
        }
        self.trace(TraceKind::Reify);
        let Some(mut top) = self.frames.pop() else {
            // Unreachable: the length was checked above.
            return;
        };
        let top_base = top.base as usize;
        let lower_stack: Vec<Value> = self.stack.drain(..top_base).collect();
        let lower_frames = mem::take(&mut self.frames);
        let top_entry = if self.eager_marks() {
            self.mark_stack.pop()
        } else {
            None
        };
        let lower_entries = mem::take(&mut self.mark_stack);
        let u = Rc::new(Underflow {
            seg: RefCell::new(Some(Rc::new(Segment {
                stack: lower_stack,
                frames: lower_frames,
                mark_entries: lower_entries,
            }))),
            marks: self.marks,
            next: self.next.take(),
        });
        self.next = Some(u);
        top.base = 0;
        self.frames.push(top);
        if let Some(e) = top_entry {
            self.mark_stack.push(e);
        }
    }

    // ------------------------------------------------------------------
    // Attachments
    // ------------------------------------------------------------------

    fn marks_rest(&self) -> VmResult<Value> {
        self.marks
            .cdr()
            .ok_or_else(|| VmError::other("attachment pop from empty marks register"))
    }

    /// The marks value at the current segment-chain boundary.
    fn marks_boundary(&self) -> &Value {
        match &self.next {
            Some(u) => &u.marks,
            None => &self.base_marks,
        }
    }

    /// §7.2: the current frame has an attachment iff the continuation is
    /// reified and the marks register differs from the marks saved in the
    /// next-stack underflow record.
    fn frame_has_attachment(&self) -> bool {
        self.frames.len() <= 1 && !self.marks.eq_value(self.marks_boundary())
    }

    fn reify_set_attachment(&mut self, v: Value, check_replace: bool) -> VmResult<()> {
        self.reify_keep_top();
        let rest = if check_replace && self.frame_has_attachment() {
            self.marks_rest()?
        } else {
            self.marks
        };
        self.marks = Value::cons(v, rest);
        self.trace(TraceKind::AttachPush);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Control operations
    // ------------------------------------------------------------------

    fn control_op(
        &mut self,
        op: ControlOp,
        mut args: Vec<Value>,
        mode: CallMode,
    ) -> VmResult<Option<Value>> {
        match op {
            ControlOp::CallCc | ControlOp::Call1cc => {
                let proc = pop_arg(&mut args, "call/cc")?;
                self.discard_frame_if_tail(mode)?;
                let head = if self.frames.is_empty() {
                    self.next.clone()
                } else {
                    Some(self.freeze_current(self.marks))
                };
                // The old-Racket model has no segmented stacks: capturing
                // a continuation copies the entire stack (and its mark
                // entries) eagerly, which is what makes its first-class
                // continuations slow (§8.1).
                let head = if self.eager_marks() {
                    head.map(|u| deep_copy_chain(&u))
                } else {
                    head
                };
                self.trace(TraceKind::Capture);
                if self.config.wrapped_control {
                    // Model the Racket CS wrapper: extra allocations for
                    // the wrapper record and saved winder/mark state.
                    let _wrap = Value::vector(vec![Value::Nil, self.marks]);
                    let _winders_copy = self.winders.clone();
                }
                let k = Value::cont(ContData {
                    kind: ContKind::Full { head },
                    marks: self.marks,
                    base_marks: self.base_marks,
                    winders: self.winders.clone(),
                    meta_depth: self.meta.len(),
                    one_shot_used: if op == ControlOp::Call1cc {
                        Some(Cell::new(false))
                    } else {
                        None
                    },
                });
                self.do_call(proc, vec![k], CallMode::NonTail)
            }
            ControlOp::Apply => {
                let lst = pop_arg(&mut args, "apply")?;
                if args.is_empty() {
                    return Err(VmError::internal("apply", "operator argument missing"));
                }
                let f = args.remove(0);
                let tail = lst.list_to_vec().ok_or_else(|| {
                    VmError::wrong_type("apply", "proper list as last argument", &lst)
                })?;
                args.extend(tail);
                self.do_call(f, args, mode)
            }
            ControlOp::PromptCall => {
                let handler = pop_arg(&mut args, "prompt")?;
                let thunk = pop_arg(&mut args, "prompt")?;
                let tag = pop_arg(&mut args, "prompt")?;
                self.discard_frame_if_tail(mode)?;
                let mf = MetaFrame {
                    tag,
                    handler,
                    stack: mem::take(&mut self.stack),
                    frames: mem::take(&mut self.frames),
                    next: self.next.take(),
                    marks: self.marks,
                    base_marks: mem::replace(&mut self.base_marks, self.marks),
                    winders: mem::take(&mut self.winders),
                    mark_stack: mem::take(&mut self.mark_stack),
                };
                self.meta.push(mf);
                self.do_call(thunk, vec![], CallMode::NonTail)
            }
            ControlOp::Abort => {
                let v = pop_arg(&mut args, "abort")?;
                let tag = pop_arg(&mut args, "abort")?;
                loop {
                    let Some(mf) = self.meta.pop() else {
                        return Err(VmErrorKind::NoMatchingPrompt(tag.write_string()).into());
                    };
                    if mf.tag.eq_value(&tag) {
                        let handler = mf.handler;
                        self.restore_meta(mf);
                        return self.do_call(handler, vec![v], CallMode::NonTail);
                    }
                }
            }
            ControlOp::CompCapture => {
                let proc = pop_arg(&mut args, "composable-capture")?;
                let tag = pop_arg(&mut args, "composable-capture")?;
                self.discard_frame_if_tail(mode)?;
                let k = self.capture_composable(&tag)?;
                self.do_call(proc, vec![k], CallMode::NonTail)
            }
            ControlOp::CallSettingAttachment => {
                let thunk = pop_arg(&mut args, "call/cm")?;
                let val = pop_arg(&mut args, "call/cm")?;
                self.discard_frame_if_tail(mode)?;
                if mode == CallMode::Tail {
                    // Shares the caller's conceptual frame: replace or push.
                    let rest =
                        if self.frames.is_empty() && !self.marks.eq_value(self.marks_boundary()) {
                            self.marks_rest()?
                        } else if self.frames.is_empty() {
                            self.marks
                        } else {
                            self.trace(TraceKind::Reify);
                            self.freeze_current(self.marks);
                            self.marks
                        };
                    self.marks = Value::cons(val, rest);
                } else {
                    // Uniform non-tail path: always reify a fresh
                    // conceptual frame (this is the unoptimized `call/cm`
                    // expansion the compiler avoids in §7.2).
                    self.trace(TraceKind::Reify);
                    self.freeze_current(self.marks);
                    self.marks = Value::cons(val, self.marks);
                }
                self.trace(TraceKind::AttachPush);
                self.do_call(thunk, vec![], CallMode::NonTail)
            }
            ControlOp::CallGettingAttachment | ControlOp::CallConsumingAttachment => {
                let proc = pop_arg(&mut args, "call-getting-attachment")?;
                let dflt = pop_arg(&mut args, "call-getting-attachment")?;
                self.discard_frame_if_tail(mode)?;
                let present = mode == CallMode::Tail
                    && self.frames.is_empty()
                    && !self.marks.eq_value(self.marks_boundary());
                let v = if present {
                    let v = self.marks.car().ok_or_else(|| {
                        VmError::internal_recoverable(
                            "call-getting-attachment",
                            "marks register empty",
                        )
                    })?;
                    if op == ControlOp::CallConsumingAttachment {
                        self.marks = self.marks_rest()?;
                        self.trace(TraceKind::AttachPop);
                    }
                    v
                } else {
                    dflt
                };
                self.do_call(proc, vec![v], CallMode::NonTail)
            }
            ControlOp::CallWinderThunk => {
                let step = pop_arg(&mut args, "$call-winder-thunk")?;
                self.discard_frame_if_tail(mode)?;
                self.call_winder_thunk(step)
            }
        }
    }

    /// For a control operation arriving via a tail call: the current frame
    /// is dead, so drop it before capturing/saving state.
    fn discard_frame_if_tail(&mut self, mode: CallMode) -> VmResult<()> {
        match mode {
            CallMode::Tail => {
                let Some(f) = self.frames.pop() else {
                    return Err(VmError::internal("tail-call", "tail call without a frame"));
                };
                self.stack.truncate(f.base as usize);
                if self.eager_marks() {
                    self.mark_stack.pop();
                }
                Ok(())
            }
            CallMode::NonTail => Ok(()),
            CallMode::WithAttachment => {
                // Reify so the pending attachment pops on return, then
                // treat as non-tail on the fresh segment.
                let rest = self.marks_rest()?;
                self.trace(TraceKind::Reify);
                self.freeze_current(rest);
                Ok(())
            }
            CallMode::EagerShared => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Continuation application
    // ------------------------------------------------------------------

    fn apply_continuation(&mut self, hk: HCont, v: Value) -> VmResult<Option<Value>> {
        let k = hk.data();
        // The one-shot flag must be read and set on the heap's copy: `k`
        // is a clone whose cell is not aliased with it. It is set only
        // when the jump lands, so the `(k v)` that ends `$wind-to` still
        // finds it clear.
        if k.one_shot_used.is_some() && hk.one_shot_used() {
            return Err(VmErrorKind::OneShotReused.into());
        }
        let head = match &k.kind {
            ContKind::Full { head } => head,
            ContKind::Composable(comp) => return self.apply_composable(comp, v),
        };
        // Prompts above `k`'s are left innermost first, as Racket CS
        // unwinds metacontinuation frames: a prompt's frame is dropped
        // once the extents entered inside it are left, and the extents
        // saved in the frame are then left from the prompt's own
        // continuation. So no after-thunk runs inside a prompt the jump
        // has left, and none can abort to it or re-enter it.
        loop {
            let target = self.wind_target(&k)?;
            let common = common_winders(&self.winders, target);
            if self.winders.len() > common || target.len() > common {
                // Winders to cross: the prelude's `$wind-to` runs their
                // thunks as ordinary calls in this, the jump's own
                // continuation, then applies `k` again.
                let wind_to = self
                    .globals
                    .borrow()
                    .get(self.wind_to)
                    .copied()
                    .ok_or_else(|| VmError::unbound("$wind-to"))?;
                let args = vec![Value::Cont(hk), v, Value::Bool(false)];
                return self.do_call(wind_to, args, CallMode::NonTail);
            }
            if self.meta.len() == k.meta_depth {
                break;
            }
            if let Some(mf) = self.meta.pop() {
                self.restore_meta(mf);
            }
        }
        if k.one_shot_used.is_some() {
            hk.set_one_shot_used();
        }
        if self.config.wrapped_control {
            let _wrap = Value::vector(vec![Value::Nil, k.marks]);
        }
        self.stack.clear();
        self.frames.clear();
        self.mark_stack.clear();
        self.marks = k.marks;
        self.base_marks = k.base_marks;
        self.next = head.clone();
        self.underflow(v)
    }

    /// The winders a jump to `k` must reach in the current prompt
    /// context: none while a prompt above `k`'s remains, then `k`'s own.
    /// Refuses a continuation whose prompt is gone.
    fn wind_target<'k>(&self, k: &'k ContData) -> VmResult<&'k [Winder]> {
        match self.meta.len().cmp(&k.meta_depth) {
            Ordering::Less => Err(VmError::other("continuation's prompt is no longer active")),
            Ordering::Equal => Ok(&k.winders),
            Ordering::Greater => Ok(&[]),
        }
    }

    /// One step of a jump's winder crossing (`$wind-step!`, looped over
    /// by the prelude's `$wind-to`). `done` is the step whose thunk just
    /// returned, or `#f`; an entered winder becomes active only now,
    /// after its before-thunk returned. Returns the next step as
    /// `(thunk marks entering?)` — leaving the innermost extent pops its
    /// winder before the after-thunk runs, entering the outermost pending
    /// one does not push yet — or `#f` once the current prompt context's
    /// winders agree with the jump's target.
    pub(crate) fn wind_step(&mut self, k: Value, done: Value) -> VmResult<Value> {
        let Value::Cont(hk) = k else {
            return Err(VmError::wrong_type("$wind-step!", "continuation", &k));
        };
        let k = hk.data();
        let target = self.wind_target(&k)?;
        if done.is_true() {
            // Journal-only: a thunk that faults or escapes enters but
            // never leaves, so `WinderLeave` has no mirrored counter.
            self.trace(TraceKind::WinderLeave);
            let (_, _, entering) = winder_step(done)?;
            let n = self.winders.len();
            if entering && common_winders(&self.winders, target) == n {
                if let Some(w) = target.get(n) {
                    self.winders.push(w.clone());
                }
            }
        }
        let common = common_winders(&self.winders, target);
        let (w, entering) = if self.winders.len() > common {
            let w = self.winders.pop().ok_or_else(|| {
                VmError::internal("wind-step", "winder stack shorter than its length")
            })?;
            (w, false)
        } else if let Some(w) = target.get(common) {
            (w.clone(), true)
        } else {
            return Ok(Value::Bool(false));
        };
        // An eager winder's `(attachments . depth)` gains where its
        // entries are found: below the thunk when leaving, in `k`.
        let marks = match (self.eager_marks(), entering) {
            (false, _) => w.marks,
            (true, false) => Value::cons(Value::Bool(false), w.marks),
            (true, true) => Value::cons(Value::Cont(hk), w.marks),
        };
        let thunk = if entering { w.pre } else { w.post };
        Ok(Value::list([thunk, marks, Value::Bool(entering)]))
    }

    /// Calls a winder thunk (`$call-winder-thunk`) as an ordinary
    /// non-tail call under its winder's marks (paper footnote 4). The
    /// thunk gets a fresh segment bounded by an empty record carrying
    /// those marks, so its own frame has no attachment; below that, the
    /// caller's segment is frozen with the caller's marks. In the eager
    /// model that record holds one barrier entry, `(where attachments .
    /// depth)`, which shows the thunk the bottom `depth` entries of
    /// `where` — the chain below, or a continuation's — in place of
    /// every entry below it, as old Racket reset its mark stack to a
    /// winder's saved position.
    fn call_winder_thunk(&mut self, step: Value) -> VmResult<Option<Value>> {
        let (thunk, marks, _) = winder_step(step)?;
        let attachments = if self.eager_marks() {
            marks
                .cdr()
                .and_then(|m| m.car())
                .ok_or_else(|| VmError::wrong_type("$call-winder-thunk", "winder marks", &marks))?
        } else {
            marks
        };
        self.trace(TraceKind::WinderEnter);
        self.freeze_current(self.marks);
        if self.eager_marks() {
            self.mark_stack
                .push(vec![(Value::Native(prims::WINDER_MARKS), marks)]);
        }
        self.freeze_current(attachments);
        self.marks = attachments;
        self.do_call(thunk, Vec::new(), CallMode::NonTail)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Every live edge of this machine's execution state, for the
    /// collector: operand stack, frame closures, the marks/attachment
    /// registers, winders, eager mark entries, the underflow chain, and
    /// prompt (meta) frames. (Globals, live codes' constant pools,
    /// suspended runs, and embedder-held results are standing roots owned
    /// by the heap itself.)
    fn gather_roots(&self, roots: &mut Vec<Value>) {
        roots.extend_from_slice(&self.stack);
        for f in &self.frames {
            if let Some(cl) = f.closure {
                roots.push(Value::Closure(cl));
            }
        }
        roots.push(self.marks);
        roots.push(self.base_marks);
        push_winder_roots(&self.winders, roots);
        for entry in &self.mark_stack {
            push_entry_roots(entry, roots);
        }
        push_chain_roots(&self.next, roots);
        for mf in &self.meta {
            push_meta_roots(mf, roots);
        }
    }

    /// Collects garbage now, rooting this machine's live state (plus the
    /// heap's standing roots). Called automatically at interpreter safe
    /// points; public so embedders and tests can force a collection while
    /// the machine is idle (or between slices).
    pub fn collect_now(&mut self) -> GcReport {
        self.collect_garbage(&[])
    }

    /// Like [`Machine::collect_now`], additionally rooting `extra` —
    /// values an embedder holds in locals that no machine register or
    /// standing root reaches (e.g. a benchmark's working set built
    /// outside any run).
    pub fn collect_now_rooting(&mut self, extra: &[Value]) -> GcReport {
        self.collect_garbage(extra)
    }

    /// Announces allocations made since the last drain as
    /// [`TraceKind::Alloc`] events, keeping the stats counter and any
    /// enabled journal in step with the heap.
    fn drain_alloc_events(&mut self) {
        let pending = heap::take_alloc_pending();
        for _ in 0..pending {
            self.trace(TraceKind::Alloc);
        }
    }

    /// Enforces [`MachineConfig::max_heap_bytes`] at the safe point: when
    /// the heap's live-plus-allocated estimate crosses the cap, collect
    /// (the estimate over-approximates), and only if the *live* bytes
    /// still exceed it fail the run with a recoverable
    /// [`VmErrorKind::HeapLimitExceeded`]. The uncapped path costs one
    /// `Option` branch per instruction.
    fn check_heap_limit(&mut self) -> VmResult<()> {
        let Some(limit) = self.config.max_heap_bytes else {
            return Ok(());
        };
        if heap::bytes_estimate() <= limit {
            return Ok(());
        }
        let report = self.collect_garbage(&[]);
        if report.bytes_live > limit {
            return Err(VmErrorKind::HeapLimitExceeded {
                limit,
                live: report.bytes_live,
            }
            .into());
        }
        Ok(())
    }

    /// Collects now, rooting this machine's state plus `extra`.
    fn collect_garbage(&mut self, extra: &[Value]) -> GcReport {
        // Alloc events first, so the records for the allocations that
        // triggered this collection precede its `GcCollect` record.
        self.drain_alloc_events();
        let mut roots = extra.to_vec();
        self.gather_roots(&mut roots);
        let report = heap::collect_with_roots(&roots);
        self.trace(TraceKind::GcCollect);
        self.stats.bytes_live = report.bytes_live;
        if report.bytes_live > self.stats.bytes_live_peak {
            self.stats.bytes_live_peak = report.bytes_live;
        }
        report
    }

    // ------------------------------------------------------------------
    // Fault injection, invariants, and diagnostics
    // ------------------------------------------------------------------

    /// Counts a primitive/native call toward the per-run total and, when a
    /// [`FaultPlan`](crate::FaultPlan) arms `fail_prim_at`, injects a
    /// deterministic fault at that boundary.
    pub(crate) fn note_prim_call(&mut self, site: &'static str) -> VmResult<()> {
        let n = self.prim_count;
        self.prim_count += 1;
        self.trace(TraceKind::PrimCall);
        if self.config.fault_plan.fail_prim_at == Some(n) {
            self.trace(TraceKind::InjectedFault);
            return Err(VmErrorKind::InjectedFault {
                site: site.to_string(),
                at: n,
            }
            .into());
        }
        Ok(())
    }

    /// Verifies the machine's cross-cutting structural invariants (the
    /// properties §5–§6 of the paper rely on):
    ///
    /// - live, frozen, and meta-frame segments are well-formed (frame
    ///   bases monotone and within their value stack, pcs within code);
    /// - the marks register, base marks, and every underflow record's
    ///   saved marks are proper (acyclic) lists;
    /// - the underflow chain is acyclic;
    /// - winder ids are strictly increasing (allocation order);
    /// - the eager mark stack is unused outside
    ///   [`MarkModel::EagerMarkStack`] mode.
    ///
    /// Returns a description of the first violation found. Run by the
    /// torture harness after every injected fault, and by debug builds
    /// after every top-level run.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_frames_well_formed(&self.frames, self.stack.len(), "live segment")?;
        check_proper_list(&self.marks, "marks register")?;
        check_proper_list(&self.base_marks, "base marks")?;
        if !self.eager_marks() && !self.mark_stack.is_empty() {
            return Err("eager mark stack nonempty in attachments mode".to_string());
        }
        let mut seen: Vec<*const Underflow> = Vec::new();
        let mut cur = self.next.clone();
        while let Some(u) = cur {
            let p = Rc::as_ptr(&u);
            if seen.contains(&p) {
                return Err("underflow chain contains a cycle".to_string());
            }
            seen.push(p);
            if let Some(seg) = u.seg.borrow().as_ref() {
                check_frames_well_formed(&seg.frames, seg.stack.len(), "frozen segment")?;
                if !self.eager_marks() && !seg.mark_entries.is_empty() {
                    return Err(
                        "frozen segment carries mark entries in attachments mode".to_string()
                    );
                }
            }
            check_proper_list(&u.marks, "underflow record marks")?;
            cur = u.next.clone();
        }
        check_winder_ids(&self.winders, "winder chain")?;
        for mf in &self.meta {
            check_frames_well_formed(&mf.frames, mf.stack.len(), "meta frame segment")?;
            check_proper_list(&mf.marks, "meta frame marks")?;
            check_proper_list(&mf.base_marks, "meta frame base marks")?;
            check_winder_ids(&mf.winders, "meta frame winder chain")?;
        }
        Ok(())
    }

    /// Captures the active code objects — the live frames, then the frozen
    /// underflow chain — innermost first, capped at a fixed depth. Used to
    /// attach a [`VmBacktrace`] to errors escaping a top-level run.
    pub fn capture_backtrace(&self) -> VmBacktrace {
        const CAP: usize = 64;
        let mut frames = Vec::new();
        let mut truncated = false;
        for f in self.frames.iter().rev() {
            if frames.len() >= CAP {
                truncated = true;
                break;
            }
            frames.push(backtrace_frame(f));
        }
        let mut cur = self.next.clone();
        'chain: while let Some(u) = cur {
            if let Some(seg) = u.seg.borrow().as_ref() {
                for f in seg.frames.iter().rev() {
                    if frames.len() >= CAP {
                        truncated = true;
                        break 'chain;
                    }
                    frames.push(backtrace_frame(f));
                }
            }
            cur = u.next.clone();
        }
        VmBacktrace { frames, truncated }
    }

    // ------------------------------------------------------------------
    // Composable continuations
    // ------------------------------------------------------------------

    fn capture_composable(&mut self, tag: &Value) -> VmResult<Value> {
        let Some(mf) = self.meta.last() else {
            return Err(VmErrorKind::NoMatchingPrompt(tag.write_string()).into());
        };
        if !mf.tag.eq_value(tag) {
            return Err(VmErrorKind::NoMatchingPrompt(format!(
                "{} (composable capture across intervening prompts is not supported)",
                tag.write_string()
            ))
            .into());
        }
        let boundary = self.base_marks;
        let top_marks_prefix = marks_prefix(&self.marks, &boundary)?;
        let fusible = self.config.one_shot_fusion && !self.config.fault_plan.force_clone;
        // Chain records reference the frozen segments *below* the live
        // one, so collect them before the live segment is (possibly)
        // frozen onto `self.next` itself.
        let mut chain = Vec::new();
        let mut cur = self.next.clone();
        while let Some(u) = cur {
            let seg = if fusible {
                // Share the frozen segment's handle; an owner that turns
                // out to be last fuses it back copy-free, earlier
                // resumes pay their copy lazily at underflow.
                u.seg.borrow().clone()
            } else {
                // Reify-and-copy model: the capture owns a private copy
                // of every segment from the word go.
                self.trace(TraceKind::Copy);
                u.seg.borrow().as_deref().cloned().map(Rc::new)
            }
            .ok_or_else(|| {
                VmError::internal_recoverable("composable-capture", "segment already fused away")
            })?;
            chain.push(CompChainRec {
                seg,
                marks_prefix: marks_prefix(&u.marks, &boundary)?,
            });
            cur = u.next.clone();
        }
        let top_seg = if fusible {
            // §6's one-shot capture applied to composable capture: freeze
            // the live segment (an O(1) move) and share the handle. The
            // machine keeps the frozen record on `self.next`, so falling
            // out of the handler thunk resumes through it as usual; in
            // the common perform-then-abort protocol the abort drops that
            // reference and the continuation becomes sole owner, making
            // its one resume copy-free.
            let marks = self.marks;
            let u = self.freeze_current(marks);
            let shared = u.seg.borrow().clone();
            match shared {
                Some(rc) => rc,
                // Unreachable: `freeze_current` just filled the slot.
                None => {
                    return Err(VmError::internal_recoverable(
                        "composable-capture",
                        "freshly frozen segment missing",
                    ))
                }
            }
        } else {
            self.trace(TraceKind::Copy);
            Rc::new(Segment {
                stack: self.stack.clone(),
                frames: self.frames.clone(),
                mark_entries: self.mark_stack.clone(),
            })
        };
        self.trace(TraceKind::Capture);
        // The continuation value pins these segments until a sweep frees
        // it; charge their bytes to the collection budget so a
        // capture-heavy loop cannot balloon resident memory while the
        // slabs look quiet.
        let mut pinned = segment_bytes(&top_seg);
        for rec in &chain {
            pinned += segment_bytes(&rec.seg);
        }
        heap::note_external_bytes(pinned);
        Ok(Value::cont(ContData {
            kind: ContKind::Composable(CompData {
                top_seg,
                chain,
                top_marks_prefix,
            }),
            marks: self.marks,
            base_marks: boundary,
            winders: Vec::new(),
            meta_depth: self.meta.len(),
            one_shot_used: None,
        }))
    }

    fn apply_composable(&mut self, comp: &CompData, v: Value) -> VmResult<Option<Value>> {
        let app_marks = self.marks;
        // Freeze the application-site continuation; the spliced chain
        // bottoms out into it.
        let base = if self.frames.is_empty() {
            self.next.take()
        } else {
            self.freeze_current(app_marks);
            self.next.take()
        };
        let mut next = base;
        for rec in comp.chain.iter().rev() {
            // Share the handle: the continuation value keeps its own
            // reference, so resuming through this record copies then —
            // unless the continuation has been dropped by the time
            // control returns this deep, in which case it fuses.
            next = Some(Rc::new(Underflow {
                seg: RefCell::new(Some(rec.seg.clone())),
                marks: cons_prefix(&rec.marks_prefix, app_marks),
                next,
            }));
        }
        self.next = next;
        // The continuation value keeps its own segment handle (it may be
        // applied again), so installing the top as live mutable state is
        // a copy on every application — the multi-shot-safety cost the
        // capture-strategy benchmark measures.
        self.trace(TraceKind::Copy);
        let top = (*comp.top_seg).clone();
        self.stack = top.stack;
        self.frames = top.frames;
        self.mark_stack = top.mark_entries;
        self.marks = cons_prefix(&comp.top_marks_prefix, app_marks);
        if self.frames.is_empty() {
            self.underflow(v)
        } else {
            self.stack.push(v);
            Ok(None)
        }
    }

    // ------------------------------------------------------------------
    // Winder bookkeeping (used by the `dynamic-wind` prelude definition)
    // ------------------------------------------------------------------

    /// Pushes a winder extent; called by the `$push-winder` native. The
    /// eager model keeps its marks in mark-stack entries, which a jump
    /// finds again at the bottom of a continuation that extends this
    /// call's, so its winders save only how many there are (as old
    /// Racket saved a mark-stack position).
    pub(crate) fn push_winder(&mut self, pre: Value, post: Value) {
        self.winder_counter += 1;
        let marks = if self.eager_marks() {
            let depth = eager_context_depth(&self.mark_stack, &self.next);
            Value::cons(self.marks, Value::Fixnum(depth as i64))
        } else {
            self.marks
        };
        self.winders.push(Winder {
            id: self.winder_counter,
            pre,
            post,
            marks,
        });
    }

    /// Pops the innermost winder extent; called by `$pop-winder`.
    pub(crate) fn pop_winder(&mut self) {
        self.winders.pop();
    }

    // ------------------------------------------------------------------
    // Eager (old Racket) mark-stack operations
    // ------------------------------------------------------------------

    pub(crate) fn eager_set_mark(&mut self, key: Value, val: Value) {
        if self.mark_stack.is_empty() {
            self.mark_stack.push(Vec::new());
        }
        let Some(entry) = self.mark_stack.last_mut() else {
            return;
        };
        for slot in entry.iter_mut() {
            if slot.0.eq_value(&key) {
                slot.1 = val;
                return;
            }
        }
        entry.push((key, val));
    }

    /// Visits every eager mark entry newest-first: the live mark stack,
    /// its underflow chain, then each meta frame's saved mark stack and
    /// chain (innermost prompt first). Prompts delimit *capture*, not
    /// mark visibility — the attachments model sees marks below a
    /// prompt, so the eager model must too. A winder-thunk barrier
    /// (see [`Machine::call_winder_thunk`]) ends its chain with the
    /// entries it stands for. The visitor returns `true` to stop early.
    fn eager_walk_entries(&self, mut visit: impl FnMut(&MarkEntry) -> bool) {
        /// Visits `entries` newest first; `true` once the walk is over.
        fn walk(entries: &[MarkEntry], visit: &mut dyn FnMut(&MarkEntry) -> bool) -> bool {
            entries.iter().rev().any(visit)
        }
        fn walk_chain(
            start: &Option<Rc<Underflow>>,
            visit: &mut dyn FnMut(&MarkEntry) -> bool,
        ) -> bool {
            let mut cur = start.clone();
            while let Some(u) = cur {
                if let Some(seg) = u.seg.borrow().as_ref() {
                    if let Some((chain, depth)) = barrier(seg, &u) {
                        let mut skip = eager_context_depth(&[], &chain).saturating_sub(depth);
                        return walk_chain(&chain, &mut |e| {
                            if skip == 0 {
                                return visit(e);
                            }
                            skip -= 1;
                            false
                        });
                    }
                    if walk(&seg.mark_entries, visit) {
                        return true;
                    }
                }
                cur = u.next.clone();
            }
            false
        }
        if walk(&self.mark_stack, &mut visit) || walk_chain(&self.next, &mut visit) {
            return;
        }
        for mf in self.meta.iter().rev() {
            if walk(&mf.mark_stack, &mut visit) || walk_chain(&mf.next, &mut visit) {
                return;
            }
        }
    }

    /// The newest mark for `key` visible from the current continuation.
    pub(crate) fn eager_first_mark(&self, key: &Value) -> Option<Value> {
        let mut found = None;
        self.eager_walk_entries(|entry| {
            if let Some(v) = lookup_entry(entry, key) {
                found = Some(v);
                true
            } else {
                false
            }
        });
        found
    }

    /// All marks for `key`, newest first.
    pub(crate) fn eager_marks_list(&self, key: &Value) -> Vec<Value> {
        let mut out = Vec::new();
        self.eager_walk_entries(|entry| {
            if let Some(v) = lookup_entry(entry, key) {
                out.push(v);
            }
            false
        });
        out
    }

    /// The mark for `key` on the immediate frame only.
    pub(crate) fn eager_immediate_mark(&self, key: &Value) -> Option<Value> {
        self.mark_stack
            .last()
            .and_then(|entry| lookup_entry(entry, key))
    }

    /// Every mark entry (newest first), following the underflow chain
    /// and the meta-continuation, as a list of association lists.
    pub(crate) fn eager_marks_value(&self) -> Value {
        let mut out = Vec::new();
        self.eager_walk_entries(|entry| {
            out.push(Value::list(entry.iter().map(|&(k, v)| Value::cons(k, v))));
            false
        });
        Value::list(out)
    }
}

/// Pushes the values of one eager mark entry.
fn push_entry_roots(entry: &MarkEntry, roots: &mut Vec<Value>) {
    for (k, v) in entry {
        roots.push(*k);
        roots.push(*v);
    }
}

/// Pushes a winder list's thunks and saved marks.
fn push_winder_roots(winders: &[Winder], roots: &mut Vec<Value>) {
    for w in winders {
        roots.push(w.pre);
        roots.push(w.post);
        roots.push(w.marks);
    }
}

/// Pushes everything a frozen segment holds.
fn push_segment_roots(seg: &Segment, roots: &mut Vec<Value>) {
    roots.extend_from_slice(&seg.stack);
    for f in &seg.frames {
        if let Some(cl) = f.closure {
            roots.push(Value::Closure(cl));
        }
    }
    for entry in &seg.mark_entries {
        push_entry_roots(entry, roots);
    }
}

/// Walks an underflow chain, pushing each record's restore-marks and
/// segment contents. Chains are acyclic (a checked machine invariant), so
/// plain iteration terminates; records shared with a continuation just
/// get pushed more than once, which marking tolerates.
fn push_chain_roots(head: &Option<Rc<Underflow>>, roots: &mut Vec<Value>) {
    let mut cur = head.clone();
    while let Some(u) = cur {
        roots.push(u.marks);
        if let Some(seg) = u.seg.borrow().as_ref() {
            push_segment_roots(seg, roots);
        }
        cur = u.next.clone();
    }
}

/// Pushes everything a prompt (meta) frame saved.
fn push_meta_roots(mf: &MetaFrame, roots: &mut Vec<Value>) {
    roots.push(mf.tag);
    roots.push(mf.handler);
    roots.push(mf.marks);
    roots.push(mf.base_marks);
    roots.extend_from_slice(&mf.stack);
    for f in &mf.frames {
        if let Some(cl) = f.closure {
            roots.push(Value::Closure(cl));
        }
    }
    push_chain_roots(&mf.next, roots);
    push_winder_roots(&mf.winders, roots);
    for entry in &mf.mark_stack {
        push_entry_roots(entry, roots);
    }
}

/// For the record `u` whose segment `seg` is a winder-thunk barrier
/// (see [`Machine::call_winder_thunk`]): the chain whose bottom `depth`
/// mark entries it stands for. No global binds the barrier's key, so no
/// program can build one.
fn barrier(seg: &Segment, u: &Underflow) -> Option<(Option<Rc<Underflow>>, usize)> {
    let [entry] = seg.mark_entries.as_slice() else {
        return None;
    };
    let [(Value::Native(prims::WINDER_MARKS), saved)] = entry.as_slice() else {
        return None;
    };
    let Some(Value::Fixnum(depth)) = saved.cdr().and_then(|m| m.cdr()) else {
        return None;
    };
    let chain = match saved.car() {
        Some(Value::Cont(k)) => match k.data().kind {
            ContKind::Full { head } => head,
            ContKind::Composable(_) => None,
        },
        _ => u.next.clone(),
    };
    Some((chain, usize::try_from(depth).unwrap_or(0)))
}

/// How many eager mark entries are visible from the prompt context whose
/// live entries are `live` and whose chain starts at `head`, not counting
/// the meta frames below it. A barrier stands for its `depth` entries and
/// ends the count, so this costs one step per segment, not per entry.
fn eager_context_depth(live: &[MarkEntry], head: &Option<Rc<Underflow>>) -> usize {
    let mut depth = live.len();
    let mut cur = head.clone();
    while let Some(u) = cur {
        if let Some(seg) = u.seg.borrow().as_ref() {
            if let Some((_, below)) = barrier(seg, &u) {
                return depth + below;
            }
            depth += seg.mark_entries.len();
        }
        cur = u.next.clone();
    }
    depth
}

/// How many winders, from the outermost, two winder stacks share.
fn common_winders(a: &[Winder], b: &[Winder]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x.id == y.id).count()
}

/// Unpacks a `(thunk marks entering?)` step built by
/// [`Machine::wind_step`].
fn winder_step(step: Value) -> VmResult<(Value, Value, bool)> {
    match step.list_to_vec().as_deref() {
        Some(&[thunk, marks, entering]) => Ok((thunk, marks, entering.is_true())),
        _ => Err(VmError::wrong_type(
            "winder step",
            "(thunk marks entering?)",
            &step,
        )),
    }
}

fn lookup_entry(entry: &MarkEntry, key: &Value) -> Option<Value> {
    entry.iter().find(|(k, _)| k.eq_value(key)).map(|(_, v)| *v)
}

/// Checks that a segment's frames have monotone bases within the value
/// stack and in-range pcs.
fn check_frames_well_formed(frames: &[Frame], stack_len: usize, what: &str) -> Result<(), String> {
    let mut prev_base = 0usize;
    for f in frames {
        let base = f.base as usize;
        if base < prev_base {
            return Err(format!("{what}: frame bases not monotone"));
        }
        if base > stack_len {
            return Err(format!(
                "{what}: frame base {base} beyond stack length {stack_len}"
            ));
        }
        if f.pc as usize > f.code.instrs.len() {
            return Err(format!(
                "{what}: pc {} out of range in {}",
                f.pc, f.code.name
            ));
        }
        prev_base = base;
    }
    Ok(())
}

/// Checks that a value is a proper, acyclic list (with a generous length
/// cap standing in for true cycle detection).
fn check_proper_list(v: &Value, what: &str) -> Result<(), String> {
    const CAP: u64 = 10_000_000;
    let mut cur = *v;
    let mut n = 0u64;
    loop {
        if matches!(cur, Value::Nil) {
            return Ok(());
        }
        match cur.cdr() {
            Some(rest) => {
                cur = rest;
                n += 1;
                if n > CAP {
                    return Err(format!("{what}: list longer than {CAP} (likely cyclic)"));
                }
            }
            None => return Err(format!("{what}: improper list")),
        }
    }
}

/// Checks that winder ids strictly increase (they are allocated from a
/// monotone counter, so any other order means corruption).
fn check_winder_ids(winders: &[Winder], what: &str) -> Result<(), String> {
    for pair in winders.windows(2) {
        if pair[0].id >= pair[1].id {
            return Err(format!("{what}: winder ids not strictly increasing"));
        }
    }
    Ok(())
}

/// Renders one frame for a fault-time backtrace, naming the instruction
/// the same way `Code::disassemble` does. `pc` has already advanced past
/// the faulting instruction, so step back one.
fn backtrace_frame(f: &Frame) -> BacktraceFrame {
    let pc = f.pc.saturating_sub(1);
    let instr = f
        .code
        .instrs
        .get(pc as usize)
        .map(|i| f.code.render_instr(i));
    BacktraceFrame {
        code: f.code.name.clone(),
        pc,
        instr,
    }
}

/// Pops an argument whose presence the arity check already guaranteed.
fn pop_arg(args: &mut Vec<Value>, site: &'static str) -> VmResult<Value> {
    args.pop()
        .ok_or_else(|| VmError::internal(site, "arity-checked argument missing"))
}

fn one_arg_for_cont(args: Vec<Value>) -> VmResult<Value> {
    match <[Value; 1]>::try_from(args) {
        Ok([v]) => Ok(v),
        Err(args) => Err(VmError::arity("continuation", "1", args.len())),
    }
}

fn check_arity(code: &Code, mut args: Vec<Value>) -> VmResult<Vec<Value>> {
    let required = code.arity_required as usize;
    if args.len() < required || (!code.rest && args.len() > required) {
        let expected = if code.rest {
            format!("at least {required}")
        } else {
            format!("{required}")
        };
        return Err(VmError::arity(code.name.clone(), expected, args.len()));
    }
    if code.rest {
        let rest = Value::list(args.split_off(required));
        args.push(rest);
    }
    Ok(args)
}

/// The marks that `marks` adds relative to `boundary`, newest first.
fn marks_prefix(marks: &Value, boundary: &Value) -> VmResult<Vec<Value>> {
    let mut out = Vec::new();
    let mut cur = *marks;
    loop {
        if cur.eq_value(boundary) {
            return Ok(out);
        }
        match (cur.car(), cur.cdr()) {
            (Some(v), Some(rest)) => {
                out.push(v);
                cur = rest;
            }
            _ => {
                return Err(VmError::other(
                    "marks register does not extend the prompt boundary",
                ))
            }
        }
    }
}

/// Clones an entire underflow chain (segments included) — the eager
/// (old Racket) model's O(stack size) continuation capture. Iterative so
/// a deep chain (e.g. under a tiny `segment_frame_limit`) cannot overflow
/// the native stack.
fn deep_copy_chain(head: &Rc<Underflow>) -> Rc<Underflow> {
    let mut records = Vec::new();
    let mut cur = Some(head.clone());
    while let Some(u) = cur {
        // A genuine deep copy (not an `Rc` bump): this path exists to
        // model the eager capture's O(stack size) cost.
        records.push((u.seg.borrow().as_deref().cloned().map(Rc::new), u.marks));
        cur = u.next.clone();
    }
    let mut next: Option<Rc<Underflow>> = None;
    for (seg, marks) in records.into_iter().rev() {
        next = Some(Rc::new(Underflow {
            seg: RefCell::new(seg),
            marks,
            next,
        }));
    }
    match next {
        Some(u) => u,
        // Unreachable: the chain contains at least `head`.
        None => head.clone(),
    }
}

/// Approximate VM-external footprint of a frozen segment (the vector
/// payloads; the slab objects its values point at are accounted
/// separately by the allocator).
fn segment_bytes(seg: &Segment) -> u64 {
    (mem::size_of_val(&seg.stack[..])
        + mem::size_of_val(&seg.frames[..])
        + mem::size_of_val(&seg.mark_entries[..])) as u64
}

/// Builds `prefix[0] :: prefix[1] :: ... :: tail`.
fn cons_prefix(prefix: &[Value], tail: Value) -> Value {
    let mut out = tail;
    for v in prefix.iter().rev() {
        out = Value::cons(*v, out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Instr;

    fn run(instrs: Vec<Instr>, consts: Vec<Value>) -> Rooted {
        let code = Code::build("test", 0, false, instrs, consts, vec![]);
        let mut m = Machine::new(MachineConfig::default());
        m.run_code(code).unwrap()
    }

    #[test]
    fn heap_limit_faults_recoverably_at_safe_point() {
        use crate::error::VmErrorKind;
        // Grow a global list forever; the heap cap must stop it with a
        // recoverable HeapLimitExceeded (fuel is only a backstop so a
        // broken limit check cannot hang the test).
        let mut m = Machine::new(
            MachineConfig::default()
                .with_max_heap_bytes(64 * 1024)
                .with_fuel(2_000_000),
        );
        let gid = m
            .globals
            .borrow_mut()
            .define(cm_sexpr::sym("heap-acc"), Value::Nil);
        let code = Code::build(
            "alloc-loop",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::GlobalRef(gid),
                Instr::PrimCall(NativeId::named("cons"), 2),
                Instr::GlobalSet(gid),
                Instr::Jump(0),
            ],
            vec![Value::fixnum(1)],
            vec![],
        );
        let err = m.run_code(code).expect_err("allocation loop must fault");
        match &err.kind {
            VmErrorKind::HeapLimitExceeded { limit, live } => {
                assert_eq!(*limit, 64 * 1024);
                assert!(*live > *limit, "reported {live} live <= limit {limit}");
            }
            other => panic!("expected HeapLimitExceeded, got {other:?}"),
        }
        // The fault is recoverable: the machine is idle and can run again.
        assert!(m.is_idle());
        let v = m
            .run_code(Code::build(
                "after-fault",
                0,
                false,
                vec![Instr::Const(0), Instr::Return],
                vec![Value::fixnum(7)],
                vec![],
            ))
            .expect("machine reusable after heap fault");
        assert!(v.eq_value(&Value::fixnum(7)));
    }

    #[test]
    fn constants_and_prims() {
        let v = run(
            vec![
                Instr::Const(0),
                Instr::Const(1),
                Instr::PrimCall(NativeId::named("+"), 2),
                Instr::Return,
            ],
            vec![Value::fixnum(40), Value::fixnum(2)],
        );
        assert!(v.eq_value(&Value::fixnum(42)));
    }

    #[test]
    fn prim_call_of_a_row_without_a_pure_function_is_refused() {
        // Unverified code can name any row; only Pure rows run inline.
        let code = Code::build(
            "display-inline",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::PrimCall(NativeId::named("display"), 1),
                Instr::Return,
            ],
            vec![Value::fixnum(1)],
            vec![],
        );
        let mut m = Machine::new(MachineConfig::default());
        let err = m.run_code(code).expect_err("display is not inlinable");
        assert_eq!(err.kind, VmErrorKind::NotInlinable("display"));
        assert!(m.is_idle());
        assert_eq!(m.take_output(), "");
    }

    #[test]
    fn jumps_and_conditionals() {
        // if #f then 1 else 2
        let v = run(
            vec![
                Instr::Const(0),
                Instr::JumpIfFalse(4),
                Instr::Const(1),
                Instr::Jump(5),
                Instr::Const(2),
                Instr::Return,
            ],
            vec![Value::Bool(false), Value::fixnum(1), Value::fixnum(2)],
        );
        assert!(v.eq_value(&Value::fixnum(2)));
    }

    #[test]
    fn attachments_push_and_read() {
        // Push an attachment, read the attachments list, pop.
        let v = run(
            vec![
                Instr::Const(0),
                Instr::PushAttach,
                Instr::CurrentAttachments,
                Instr::PopAttach,
                Instr::Return,
            ],
            vec![Value::symbol("mark")],
        );
        let items = v.list_to_vec().unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].eq_value(&Value::symbol("mark")));
    }

    #[test]
    fn reify_set_attachment_at_top_level() {
        let v = run(
            vec![
                Instr::Const(0),
                Instr::ReifySetAttach {
                    check_replace: true,
                },
                Instr::CurrentAttachments,
                Instr::Return,
            ],
            vec![Value::fixnum(7)],
        );
        assert_eq!(v.list_to_vec().unwrap().len(), 1);
    }

    #[test]
    fn tail_set_replaces_existing_attachment() {
        // Set twice in tail position: second replaces first.
        let v = run(
            vec![
                Instr::Const(0),
                Instr::ReifySetAttach {
                    check_replace: true,
                },
                Instr::Const(1),
                Instr::ReifySetAttach {
                    check_replace: true,
                },
                Instr::CurrentAttachments,
                Instr::Return,
            ],
            vec![Value::fixnum(1), Value::fixnum(2)],
        );
        let items = v.list_to_vec().unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].eq_value(&Value::fixnum(2)));
    }

    #[test]
    fn fuel_limit_stops_loops() {
        let code = Code::build("loop", 0, false, vec![Instr::Jump(0)], vec![], vec![]);
        let mut m = Machine::new(MachineConfig::default().with_fuel(1000));
        match m.run_code(code) {
            Err(e) if e.kind == VmErrorKind::OutOfFuel => {
                // The machine must be reusable and carry a backtrace
                // naming the looping code object.
                assert!(m.is_idle());
                assert!(e.detailed().contains("loop"));
            }
            other => panic!("expected out-of-fuel, got {other:?}"),
        }
    }

    #[test]
    fn deadline_stops_loops() {
        let code = Code::build("loop", 0, false, vec![Instr::Jump(0)], vec![], vec![]);
        let mut m = Machine::new(
            MachineConfig::default().with_deadline(std::time::Duration::from_millis(5)),
        );
        match m.run_code(code) {
            Err(e) if e.kind == VmErrorKind::DeadlineExceeded => assert!(m.is_idle()),
            other => panic!("expected deadline-exceeded, got {other:?}"),
        }
    }

    #[test]
    fn sliced_run_counts_fault_injection_per_run() {
        // One primitive call per five-step iteration: a 100-step slice
        // makes 20, so call #50 falls in the third slice.
        let code = Code::build(
            "count",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::Const(0),
                Instr::PrimCall(NativeId::named("+"), 2),
                Instr::Pop,
                Instr::Jump(0),
            ],
            vec![Value::fixnum(1)],
            vec![],
        );
        let mut config = MachineConfig::default();
        config.fault_plan.fail_prim_at = Some(50);
        let mut m = Machine::new(config);
        let mut status = m.run_code_sliced(code, 100);
        for _ in 0..10 {
            match status {
                Ok(RunStatus::Suspended(run)) => status = m.resume(run, 100),
                Ok(RunStatus::Done(v)) => panic!("loop finished: {v:?}"),
                Err(e) => {
                    assert!(
                        matches!(e.kind, VmErrorKind::InjectedFault { at: 50, .. }),
                        "{e}"
                    );
                    return;
                }
            }
        }
        panic!("no injected fault in ten slices");
    }

    #[test]
    fn resumed_run_keeps_its_deadline() {
        let code = Code::build("loop", 0, false, vec![Instr::Jump(0)], vec![], vec![]);
        let deadline = std::time::Duration::from_millis(20);
        let mut m = Machine::new(MachineConfig::default().with_deadline(deadline));
        let Ok(RunStatus::Suspended(run)) = m.run_code_sliced(code, 10) else {
            panic!("expected the first slice to suspend");
        };
        std::thread::sleep(deadline + deadline / 2);
        // The deadline is polled every 1024 steps; this slice runs more.
        match m.resume(run, 100_000) {
            Err(e) => assert_eq!(e.kind, VmErrorKind::DeadlineExceeded),
            Ok(_) => panic!("the resumed run outlived its deadline"),
        }
        assert!(m.is_idle());
    }

    #[test]
    fn sliced_single_stepping_matches_straight_run() {
        // (+ (+ 40 2) 8) sliced one instruction at a time: every
        // suspension leaves the machine idle, every resume fuses.
        let instrs = vec![
            Instr::Const(0),
            Instr::Const(1),
            Instr::PrimCall(NativeId::named("+"), 2),
            Instr::Const(2),
            Instr::PrimCall(NativeId::named("+"), 2),
            Instr::Return,
        ];
        let consts = vec![Value::fixnum(40), Value::fixnum(2), Value::fixnum(8)];
        let straight = run(instrs.clone(), consts.clone());
        let code = Code::build("sliced", 0, false, instrs, consts, vec![]);
        let mut m = Machine::new(MachineConfig::default());
        let mut status = m.run_code_sliced(code, 1).unwrap();
        let mut suspensions = 0;
        let v = loop {
            match status {
                RunStatus::Done(v) => break v,
                RunStatus::Suspended(run) => {
                    suspensions += 1;
                    assert!(m.is_idle(), "machine not idle at suspension {suspensions}");
                    m.check_invariants().unwrap();
                    assert!(run.frame_count() >= 1);
                    status = m.resume(run, 1).unwrap();
                }
            }
        };
        assert!(v.eq_value(&straight));
        assert!(suspensions >= 4, "only {suspensions} suspensions");
        assert_eq!(m.stats.suspensions, suspensions);
        assert_eq!(m.stats.resumes, suspensions);
        // Undisturbed suspensions resume on the one-shot fast path: every
        // resume fused, nothing was copied.
        assert!(m.stats.fusions >= suspensions);
        assert_eq!(m.stats.copies, 0);
    }

    #[test]
    fn sliced_infinite_loop_keeps_suspending() {
        let code = Code::build("loop", 0, false, vec![Instr::Jump(0)], vec![], vec![]);
        let mut m = Machine::new(MachineConfig::default());
        let mut status = m.run_code_sliced(code, 100).unwrap();
        for _ in 0..10 {
            match status {
                RunStatus::Done(v) => panic!("loop finished: {v:?}"),
                RunStatus::Suspended(run) => {
                    assert!(m.is_idle());
                    status = m.resume(run, 100).unwrap();
                }
            }
        }
        assert!(m.stats.steps_executed >= 1000);
        // The machine is still usable for ordinary runs afterwards.
        drop(status);
        let v = m
            .run_code(Code::build(
                "after",
                0,
                false,
                vec![Instr::Const(0), Instr::Return],
                vec![Value::fixnum(7)],
                vec![],
            ))
            .unwrap();
        assert!(v.eq_value(&Value::fixnum(7)));
    }

    #[test]
    fn engine_block_native_suspends_sliced_runs_only() {
        let mut m = Machine::new(MachineConfig::default());
        let id = m
            .globals
            .borrow_mut()
            .intern(cm_sexpr::sym("%engine-block"));
        let build = || {
            Code::build(
                "block",
                0,
                false,
                vec![Instr::GlobalRef(id), Instr::Call(0), Instr::Return],
                vec![],
                vec![],
            )
        };
        // Outside a sliced run: a no-op returning #f.
        let v = m.run_code(build()).unwrap();
        assert!(v.eq_value(&Value::Bool(false)));
        // Inside a sliced run: suspends at the next safe point even with
        // plenty of fuel left, and the blocked call returns #t on resume.
        match m.run_code_sliced(build(), 1_000_000).unwrap() {
            RunStatus::Suspended(run) => {
                assert!(m.is_idle());
                match m.resume(run, 1_000_000).unwrap() {
                    RunStatus::Done(v) => assert!(v.eq_value(&Value::Bool(true))),
                    RunStatus::Suspended(_) => panic!("second suspension after %engine-block"),
                }
            }
            RunStatus::Done(v) => panic!("%engine-block did not suspend: {v:?}"),
        }
    }

    #[test]
    fn sliced_error_resets_to_idle() {
        // `car` of a fixnum faults mid-slice; the machine must come back
        // idle with slice state cleared.
        let code = Code::build(
            "bad",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::PrimCall(NativeId::named("car"), 1),
                Instr::Return,
            ],
            vec![Value::fixnum(3)],
            vec![],
        );
        let mut m = Machine::new(MachineConfig::default());
        let err = m.run_code_sliced(code, 1_000).unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::WrongType { .. }));
        assert!(m.is_idle());
        m.check_invariants().unwrap();
    }

    #[test]
    fn traced_run_keeps_counter_journal_consistency() {
        // Attachment traffic + sliced suspension/resume with tracing on:
        // every counter must equal its journal total, and the journal
        // must actually hold events with sane step/depth payloads.
        let instrs = vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::CurrentAttachments,
            Instr::PopAttach,
            Instr::Return,
        ];
        let code = Code::build(
            "traced",
            0,
            false,
            instrs,
            vec![Value::symbol("mark")],
            vec![],
        );
        let mut m = Machine::new(MachineConfig::default().with_trace(true));
        let mut status = m.run_code_sliced(code, 1).unwrap();
        loop {
            match status {
                RunStatus::Done(_) => break,
                RunStatus::Suspended(run) => {
                    assert!(matches!(run.marks(), Value::Nil | Value::Pair(_)));
                    status = m.resume(run, 1).unwrap();
                }
            }
        }
        m.journal.verify_consistency(&m.stats).unwrap();
        assert_eq!(m.journal.count_of(TraceKind::AttachPush), 1);
        assert_eq!(m.journal.count_of(TraceKind::AttachPop), 1);
        assert!(m.journal.count_of(TraceKind::Suspend) >= 4);
        assert!(!m.journal.is_empty());
        let mut last_step = 0;
        for ev in m.journal.events() {
            assert!(ev.step >= last_step, "journal steps not monotone");
            last_step = ev.step;
        }
    }

    #[test]
    fn untraced_machine_journals_nothing() {
        let code = Code::build(
            "plain",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::PushAttach,
                Instr::Const(0),
                Instr::Return,
            ],
            vec![Value::fixnum(1)],
            vec![],
        );
        let mut m = Machine::new(MachineConfig::default());
        m.run_code(code).unwrap();
        assert!(m.journal.is_empty());
        assert_eq!(m.journal.count_of(TraceKind::AttachPush), 0);
        assert!(m.stats.attachments_pushed >= 1);
    }

    #[test]
    fn invariants_hold_on_fresh_and_idle_machines() {
        let m = Machine::new(MachineConfig::default());
        assert!(m.is_idle());
        m.check_invariants().unwrap();
    }

    #[test]
    fn globals_define_and_lookup() {
        let mut g = Globals::new();
        let s = cm_sexpr::sym("x");
        let id = g.define(s, Value::fixnum(1));
        assert!(g.get(id).unwrap().eq_value(&Value::fixnum(1)));
        assert_eq!(g.intern(s), id);
        assert!(g.lookup(s).unwrap().eq_value(&Value::fixnum(1)));
        assert_eq!(g.name_of(id), s);
    }
}
