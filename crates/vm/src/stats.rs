//! Event counters for the mechanisms the paper measures.
//!
//! These counters power the repo's tests ("this benchmark must fuse" /
//! "this one must copy") and the `EXPERIMENTS.md` methodology notes; they
//! are cheap unconditional increments of plain `u64` fields.

/// Counts of continuation-machinery events since the machine was created
/// (or since [`MachineStats::reset`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Segments frozen by `call/cc`-style full capture.
    pub captures: u64,
    /// Segments frozen by attachment bookkeeping (`reify-continuation!`).
    pub reifications: u64,
    /// Underflow events (control returned across a segment boundary).
    pub underflows: u64,
    /// Underflows satisfied by *fusing* (moving) the frozen segment back —
    /// the opportunistic one-shot fast path.
    pub fusions: u64,
    /// Underflows that had to *copy* the frozen segment (multi-shot or
    /// shared).
    pub copies: u64,
    /// Stack splits forced by segment overflow (deep recursion).
    pub overflow_splits: u64,
    /// Attachments pushed onto the marks register.
    pub attachments_pushed: u64,
    /// Attachments explicitly popped from the marks register (the
    /// compiled pop/consume forms). Pops that happen "for free" at
    /// underflow — the paper's design point — are counted by
    /// `underflows`, not here; replacing updates count as pushes only.
    pub attachments_popped: u64,
    /// Non-tail calls that paid the eager-mark-stack tax (only nonzero in
    /// [`MarkModel::EagerMarkStack`](crate::MarkModel) mode).
    pub mark_stack_pushes: u64,
    /// Winder thunks run by continuation jumps (`$wind-to` in the
    /// prelude). Thunks that `dynamic-wind` calls in normal flow are
    /// ordinary calls and are not counted.
    pub winders_run: u64,
    /// Primitive and native calls (the boundaries where
    /// [`FaultPlan`](crate::FaultPlan) faults can be injected).
    pub prim_calls: u64,
    /// Faults injected by an armed [`FaultPlan`](crate::FaultPlan).
    pub injected_faults: u64,
    /// Instructions executed (one per interpreter-loop iteration), winder
    /// thunks included: they run in the same loop as everything else. The
    /// scheduler's fairness accounting divides CPU by this.
    pub steps_executed: u64,
    /// Sliced runs preempted into a
    /// [`SuspendedRun`](crate::SuspendedRun) — by fuel-slice exhaustion
    /// or an explicit `%engine-block`.
    pub suspensions: u64,
    /// Suspended runs resumed via [`Machine::resume`](crate::Machine).
    /// `fusions`/`copies` tell whether each resume fused (the one-shot
    /// fast path) or had to copy the frozen frames.
    pub resumes: u64,
    /// Heap objects allocated by this machine's runs (drained from the
    /// thread-local heap at each instruction-boundary safe point, so
    /// allocations made by a different machine on the same thread are
    /// attributed to whichever machine is running).
    pub allocations: u64,
    /// Garbage collections triggered during this machine's runs (threshold
    /// or [`MachineConfig::gc_stress`](crate::MachineConfig)).
    pub collections: u64,
    /// Suspended runs serialized to durable snapshot bytes
    /// (`Machine::snapshot_suspended`).
    pub snapshots: u64,
    /// Machines rebuilt from snapshot bytes; counted on the restored
    /// machine (`Machine::restore_snapshot`).
    pub restores: u64,
    /// Bytes live in the heap after the most recent collection. A *gauge*,
    /// not a counter: it is overwritten per collection and has no
    /// [`TraceKind`](crate::TraceKind) counterpart in the journal
    /// consistency table.
    pub bytes_live: u64,
    /// High-water mark of `bytes_live` across collections (also a gauge).
    pub bytes_live_peak: u64,
}

impl MachineStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = MachineStats::default();
    }

    /// Every counter with its field name, in declaration order.
    ///
    /// Exhaustive by construction (the destructuring below fails to
    /// compile when a field is added), so tests iterating this accessor —
    /// the all-fields `reset` round-trip, the counter/journal consistency
    /// suite — cannot silently skip a new counter.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let MachineStats {
            captures,
            reifications,
            underflows,
            fusions,
            copies,
            overflow_splits,
            attachments_pushed,
            attachments_popped,
            mark_stack_pushes,
            winders_run,
            prim_calls,
            injected_faults,
            steps_executed,
            suspensions,
            resumes,
            allocations,
            collections,
            snapshots,
            restores,
            bytes_live,
            bytes_live_peak,
        } = *self;
        vec![
            ("captures", captures),
            ("reifications", reifications),
            ("underflows", underflows),
            ("fusions", fusions),
            ("copies", copies),
            ("overflow_splits", overflow_splits),
            ("attachments_pushed", attachments_pushed),
            ("attachments_popped", attachments_popped),
            ("mark_stack_pushes", mark_stack_pushes),
            ("winders_run", winders_run),
            ("prim_calls", prim_calls),
            ("injected_faults", injected_faults),
            ("steps_executed", steps_executed),
            ("suspensions", suspensions),
            ("resumes", resumes),
            ("allocations", allocations),
            ("collections", collections),
            ("snapshots", snapshots),
            ("restores", restores),
            ("bytes_live", bytes_live),
            ("bytes_live_peak", bytes_live_peak),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a stats value with every field set to a distinct nonzero
    /// value, keyed off `fields()` so a new counter is picked up (and a
    /// forgotten `fields()` entry fails the count assertion below).
    fn all_nonzero() -> MachineStats {
        let mut s = MachineStats::default();
        let names: Vec<&'static str> = s.fields().iter().map(|(n, _)| *n).collect();
        for (i, name) in names.iter().enumerate() {
            let v = (i as u64) + 1;
            match *name {
                "captures" => s.captures = v,
                "reifications" => s.reifications = v,
                "underflows" => s.underflows = v,
                "fusions" => s.fusions = v,
                "copies" => s.copies = v,
                "overflow_splits" => s.overflow_splits = v,
                "attachments_pushed" => s.attachments_pushed = v,
                "attachments_popped" => s.attachments_popped = v,
                "mark_stack_pushes" => s.mark_stack_pushes = v,
                "winders_run" => s.winders_run = v,
                "prim_calls" => s.prim_calls = v,
                "injected_faults" => s.injected_faults = v,
                "steps_executed" => s.steps_executed = v,
                "suspensions" => s.suspensions = v,
                "resumes" => s.resumes = v,
                "allocations" => s.allocations = v,
                "collections" => s.collections = v,
                "snapshots" => s.snapshots = v,
                "restores" => s.restores = v,
                "bytes_live" => s.bytes_live = v,
                "bytes_live_peak" => s.bytes_live_peak = v,
                other => panic!("fields() lists {other}, but all_nonzero cannot set it"),
            }
        }
        s
    }

    #[test]
    fn reset_zeroes_every_field() {
        let mut s = all_nonzero();
        // Every field really was set to a distinct nonzero value...
        for (name, v) in s.fields() {
            assert_ne!(v, 0, "field {name} was not populated");
        }
        let distinct: std::collections::HashSet<u64> = s.fields().iter().map(|(_, v)| *v).collect();
        assert_eq!(distinct.len(), s.fields().len());
        // ...and reset zeroes all of them.
        s.reset();
        for (name, v) in s.fields() {
            assert_eq!(v, 0, "reset left field {name} at {v}");
        }
        assert_eq!(s, MachineStats::default());
    }

    #[test]
    fn fields_is_exhaustive_and_distinct() {
        let s = MachineStats::default();
        let names: Vec<&'static str> = s.fields().iter().map(|(n, _)| *n).collect();
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate names in fields()");
    }
}
