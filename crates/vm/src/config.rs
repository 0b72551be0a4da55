//! Machine configuration, including the ablation switches measured in the
//! paper's §8.5 (figure 6), resource limits, and the fault-injection plan
//! used by the `cm-torture` harness.

use std::time::Duration;

/// How continuation marks are represented at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarkModel {
    /// Continuation attachments (the paper's design, §6): a `marks`
    /// register holding a list, popped via underflow records.
    #[default]
    Attachments,
    /// The *old* Racket strategy: an eager side mark stack with an entry
    /// pushed on every non-tail call. Cheap `with-continuation-mark`,
    /// expensive continuation capture, overhead on all non-tail calls.
    /// Used as the figure-5 comparison baseline.
    EagerMarkStack,
}

/// Deterministic fault-injection points, threaded through
/// [`MachineConfig`] so the torture harness can force the machine down
/// its rare paths and verify it recovers.
///
/// The other two injection axes need no extra state: out-of-fuel at step
/// *k* is [`MachineConfig::fuel`], and forced segment overflow is a low
/// [`MachineConfig::segment_frame_limit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the nth (0-based) primitive or native call of a top-level run
    /// with [`VmErrorKind::InjectedFault`](crate::VmErrorKind). The count
    /// runs across a sliced run's slices; a run restored from a snapshot
    /// starts a fresh count.
    pub fail_prim_at: Option<u64>,
    /// Take the clone (multi-shot) path on every underflow, even where
    /// one-shot fusion would fire — exercises the copy path with the
    /// fusion-eligible reference pattern.
    pub force_clone: bool,
}

impl FaultPlan {
    /// Whether any injection is armed.
    pub fn is_armed(&self) -> bool {
        self.fail_prim_at.is_some() || self.force_clone
    }
}

/// Runtime configuration for a [`Machine`](crate::Machine).
///
/// The defaults correspond to the paper's full system ("Racket CS"); each
/// switch disables one mechanism to reproduce an ablation row.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Mark representation strategy.
    pub mark_model: MarkModel,
    /// Enable opportunistic one-shot fusion on underflow (§6). Disabling
    /// this is the paper's "no 1cc" variant: every underflow copies the
    /// resumed segment as if the continuation were multi-shot.
    pub one_shot_fusion: bool,
    /// Maximum number of frames per stack segment before the machine
    /// splits the stack (the analogue of Chez's stack overflow handling,
    /// which triggers the same underflow path as `call/cc`).
    pub segment_frame_limit: usize,
    /// Optional step budget; `None` means unlimited. Useful for tests that
    /// must terminate even if a program loops.
    pub fuel: Option<u64>,
    /// Optional wall-clock budget per top-level run, sliced or not;
    /// `None` means unlimited. A run restored from a snapshot starts a
    /// fresh budget. Checked every 1024 steps, so very short deadlines
    /// overshoot by a bounded amount.
    pub deadline: Option<Duration>,
    /// Maximum depth of nested executions. Winder thunks (and anything
    /// else entering the interpreter from inside the interpreter) recurse
    /// on the native Rust stack; this bounds that recursion with a clean
    /// [`VmErrorKind::NativeDepthExceeded`](crate::VmErrorKind) instead
    /// of a native stack overflow.
    pub max_nested_executions: usize,
    /// Model the "Racket CS" control-operation wrapper: `call/cc` arrives
    /// through an extra closure indirection that also saves/restores
    /// winders and mark state, costing extra allocation per capture. `false`
    /// models raw Chez Scheme.
    pub wrapped_control: bool,
    /// Verify [`Machine::check_invariants`](crate::Machine) after every
    /// top-level run, turning a violation into a recoverable error.
    /// Defaults on in debug builds (mirroring the compiler's
    /// `verify_bytecode`); the torture harness turns it on in release.
    pub check_invariants: bool,
    /// Deterministic fault injection (all off by default).
    pub fault_plan: FaultPlan,
    /// Enable the interprocedural mark-flow optimizer: the compiler runs
    /// the `cm-analysis` mark-flow pass over each compiled program and
    /// rewrites call sites whose callee provably never observes
    /// attachments (plus elides dead-key `with-continuation-mark`
    /// forms). The flag lives here — next to the other ablation
    /// switches — so the eighth engine config is selectable the same way
    /// the §8.5 ablations are; the machine itself executes the rewritten
    /// bytecode with no new instructions.
    pub mark_flow_opt: bool,
    /// Record continuation-machinery events into the machine's
    /// [`TraceJournal`](crate::TraceJournal). Off by default: the off
    /// path is a single branch per event, so disabled tracing costs <2%
    /// on the marks benchmarks.
    pub trace: bool,
    /// Ring capacity (newest events kept) of the journal when
    /// [`MachineConfig::trace`] is on. Per-kind totals stay exact even
    /// after eviction.
    pub trace_capacity: usize,
    /// GC stress mode: collect garbage at *every* instruction-boundary
    /// safe point, not just when the heap's growth threshold trips. Shakes
    /// out missing-root bugs (a value reachable by the program but not by
    /// [`Machine::collect_now`](crate::Machine)'s root scan is freed and
    /// the next access panics); the torture harness runs its quick matrix
    /// with this on.
    pub gc_stress: bool,
    /// Optional cap on live heap bytes, enforced at instruction-boundary
    /// safe points: when the heap's live-plus-allocated estimate crosses
    /// the cap the machine collects, and if the *live* bytes still exceed
    /// it the run fails with a recoverable
    /// [`VmErrorKind::HeapLimitExceeded`](crate::VmErrorKind) —
    /// graceful degradation instead of unbounded growth. The measure is
    /// the thread heap (machines sharing a thread share the budget);
    /// `None` means unlimited.
    pub max_heap_bytes: Option<u64>,
}

/// Default journal ring capacity: deep enough to hold every non-`Step`
/// event of the §2 examples with room to spare, small enough (~1 MiB)
/// to embed per machine.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mark_model: MarkModel::Attachments,
            one_shot_fusion: true,
            segment_frame_limit: 2048,
            fuel: None,
            deadline: None,
            max_nested_executions: 128,
            wrapped_control: false,
            check_invariants: cfg!(debug_assertions),
            fault_plan: FaultPlan::default(),
            mark_flow_opt: false,
            trace: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            gc_stress: false,
            max_heap_bytes: None,
        }
    }
}

impl MachineConfig {
    /// The paper's "no 1cc" ablation: multi-shot-only continuations.
    pub fn without_one_shot_fusion(mut self) -> MachineConfig {
        self.one_shot_fusion = false;
        self
    }

    /// The figure-5 baseline: the old Racket eager mark stack.
    pub fn with_eager_mark_stack(mut self) -> MachineConfig {
        self.mark_model = MarkModel::EagerMarkStack;
        self
    }

    /// Adds a step budget.
    pub fn with_fuel(mut self, fuel: u64) -> MachineConfig {
        self.fuel = Some(fuel);
        self
    }

    /// Adds a wall-clock budget per top-level run.
    pub fn with_deadline(mut self, deadline: Duration) -> MachineConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Caps nested-execution (winder thunk) depth.
    pub fn with_max_nested_executions(mut self, limit: usize) -> MachineConfig {
        self.max_nested_executions = limit;
        self
    }

    /// Arms a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> MachineConfig {
        self.fault_plan = plan;
        self
    }

    /// Forces post-run invariant verification on (or off) regardless of
    /// build profile.
    pub fn with_invariant_checks(mut self, on: bool) -> MachineConfig {
        self.check_invariants = on;
        self
    }

    /// Enables the interprocedural mark-flow optimizer (the eighth
    /// engine config of the ablation matrix).
    pub fn with_mark_flow_opt(mut self, on: bool) -> MachineConfig {
        self.mark_flow_opt = on;
        self
    }

    /// Enables (or disables) event journaling at the default ring
    /// capacity.
    pub fn with_trace(mut self, on: bool) -> MachineConfig {
        self.trace = on;
        self
    }

    /// Enables event journaling with an explicit ring capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> MachineConfig {
        self.trace = true;
        self.trace_capacity = capacity;
        self
    }

    /// Enables (or disables) GC stress mode: collect at every safe point.
    pub fn with_gc_stress(mut self, on: bool) -> MachineConfig {
        self.gc_stress = on;
        self
    }

    /// Caps live heap bytes; crossing the cap at a safe point raises a
    /// recoverable [`VmErrorKind::HeapLimitExceeded`](crate::VmErrorKind).
    pub fn with_max_heap_bytes(mut self, limit: u64) -> MachineConfig {
        self.max_heap_bytes = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_full_system() {
        let c = MachineConfig::default();
        assert_eq!(c.mark_model, MarkModel::Attachments);
        assert!(c.one_shot_fusion);
        assert!(c.fuel.is_none());
        assert!(c.deadline.is_none());
        assert!(c.max_nested_executions > 0);
        assert!(!c.fault_plan.is_armed());
    }

    #[test]
    fn builders_flip_switches() {
        let c = MachineConfig::default()
            .without_one_shot_fusion()
            .with_eager_mark_stack()
            .with_fuel(10);
        assert!(!c.one_shot_fusion);
        assert_eq!(c.mark_model, MarkModel::EagerMarkStack);
        assert_eq!(c.fuel, Some(10));
    }

    #[test]
    fn limit_builders_mirror_with_fuel() {
        let c = MachineConfig::default()
            .with_deadline(Duration::from_millis(5))
            .with_max_nested_executions(3);
        assert_eq!(c.deadline, Some(Duration::from_millis(5)));
        assert_eq!(c.max_nested_executions, 3);
    }

    #[test]
    fn mark_flow_opt_defaults_off_with_builder() {
        let c = MachineConfig::default();
        assert!(!c.mark_flow_opt);
        let c = c.with_mark_flow_opt(true);
        assert!(c.mark_flow_opt);
    }

    #[test]
    fn trace_defaults_off_with_builders() {
        let c = MachineConfig::default();
        assert!(!c.trace);
        assert_eq!(c.trace_capacity, DEFAULT_TRACE_CAPACITY);
        let c = c.with_trace(true);
        assert!(c.trace);
        let c = MachineConfig::default().with_trace_capacity(128);
        assert!(c.trace);
        assert_eq!(c.trace_capacity, 128);
    }

    #[test]
    fn gc_stress_defaults_off_with_builder() {
        let c = MachineConfig::default();
        assert!(!c.gc_stress);
        let c = c.with_gc_stress(true);
        assert!(c.gc_stress);
    }

    #[test]
    fn heap_limit_defaults_off_with_builder() {
        let c = MachineConfig::default();
        assert!(c.max_heap_bytes.is_none());
        let c = c.with_max_heap_bytes(1 << 20);
        assert_eq!(c.max_heap_bytes, Some(1 << 20));
    }

    #[test]
    fn fault_plan_arms() {
        let mut p = FaultPlan::default();
        assert!(!p.is_armed());
        p.fail_prim_at = Some(7);
        assert!(p.is_armed());
        let c = MachineConfig::default().with_fault_plan(p.clone());
        assert_eq!(c.fault_plan, p);
    }
}
