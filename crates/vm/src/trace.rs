//! The structured event journal behind `cm-trace` (§2's observability
//! clients, built *into* the VM).
//!
//! Every continuation-machinery event the paper's experiments count —
//! captures, reifications, underflows, fusion vs. copy decisions,
//! overflow splits, attachment pushes/pops, winder runs, suspensions —
//! is both *counted* (a [`MachineStats`] field, always on) and, when
//! [`MachineConfig::trace`](crate::MachineConfig) is set, *recorded* as a
//! [`TraceEvent`] in a fixed-capacity ring buffer. Both flow through one
//! hook (`Machine::trace`), so the per-kind journal totals equal the
//! stats counters **by construction**; [`TraceJournal::verify_consistency`]
//! turns that into a checkable invariant that catches any code path that
//! bumps a counter without announcing the event (or vice versa).
//!
//! Design notes:
//!
//! - The off path is a single well-predicted branch per event
//!   (`if config.trace`), keeping the disabled-tracing overhead on the
//!   `marks.rs` benchmarks under the 2% budget.
//! - [`TraceKind::Step`] is *counted* but never ring-recorded: one event
//!   per interpreter cycle would evict everything else from the ring
//!   within microseconds. Its journal total still mirrors
//!   `steps_executed`.
//! - [`TraceKind::WinderLeave`] is journal-only (it closes the span that
//!   [`TraceKind::WinderEnter`] opens); there is deliberately no stats
//!   counter for it, since a winder thunk that faults or escapes never
//!   leaves.

use crate::stats::MachineStats;

/// The kinds of events the VM journals. Each kind with a `Some` result
/// from [`TraceKind::stat`] mirrors exactly one [`MachineStats`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// Full continuation capture (`call/cc` / `call/1cc` / composable).
    Capture = 0,
    /// Attachment-driven reification (`reify-continuation!` and the §7.2
    /// compiled forms).
    Reify = 1,
    /// Control returned across a segment boundary.
    Underflow = 2,
    /// An underflow (or resume) satisfied by fusing — moving — the frozen
    /// segment back (the opportunistic one-shot path, §6).
    Fuse = 3,
    /// An underflow (or resume) that had to copy the frozen segment.
    Copy = 4,
    /// A stack split forced by `segment_frame_limit`.
    OverflowSplit = 5,
    /// An attachment pushed onto the marks register.
    AttachPush = 6,
    /// An attachment explicitly popped from the marks register (the
    /// compiled pop/consume forms). Implicit pops at underflow are the
    /// paper's "free" pops and are observable as [`TraceKind::Underflow`];
    /// replacing updates (`SetAttach` and the tail-replace paths) are
    /// counted as pushes only, mirroring `attachments_pushed`.
    AttachPop = 7,
    /// An eager-model mark-stack entry pushed (old-Racket baseline only).
    MarkStackPush = 8,
    /// A continuation jump began running a winder thunk (a `dynamic-wind`
    /// pre or post; normal-flow calls of them are not events). Mirrors
    /// `winders_run`.
    WinderEnter = 9,
    /// A jump-run winder thunk returned (journal-only; a thunk that
    /// faults or escapes enters but never leaves).
    WinderLeave = 10,
    /// A primitive or native call boundary.
    PrimCall = 11,
    /// A fault injected by an armed [`FaultPlan`](crate::FaultPlan).
    InjectedFault = 12,
    /// One interpreter step (counted, never ring-recorded).
    Step = 13,
    /// A sliced run was preempted into a
    /// [`SuspendedRun`](crate::SuspendedRun).
    Suspend = 14,
    /// A suspended run was resumed.
    Resume = 15,
    /// One heap object allocated. Allocations happen inside the
    /// thread-local heap (no machine in scope), so the allocator counts
    /// them and the machine drains the pending count into events at the
    /// next instruction-boundary safe point — always *before* any
    /// [`TraceKind::GcCollect`] at the same safe point, matching the order
    /// things actually happened.
    Alloc = 16,
    /// One garbage collection (threshold-triggered or
    /// [`MachineConfig::gc_stress`](crate::MachineConfig)). The
    /// `bytes_live` / `bytes_live_peak` stats fields are gauges updated at
    /// the same moment but deliberately have no [`TraceKind`]: the
    /// counter/journal consistency table only covers monotone counters.
    GcCollect = 17,
    /// A [`SuspendedRun`](crate::SuspendedRun) and its reachable heap
    /// graph were serialized to durable bytes
    /// (`Machine::snapshot_suspended`).
    Snapshot = 18,
    /// A machine plus suspended run were rebuilt from snapshot bytes
    /// (`Machine::restore_snapshot`); recorded on the *restored* machine.
    Restore = 19,
}

/// Number of distinct [`TraceKind`]s (the size of the per-kind count
/// table).
pub const TRACE_KIND_COUNT: usize = 20;

impl TraceKind {
    /// Every kind, in discriminant order.
    pub const ALL: [TraceKind; TRACE_KIND_COUNT] = [
        TraceKind::Capture,
        TraceKind::Reify,
        TraceKind::Underflow,
        TraceKind::Fuse,
        TraceKind::Copy,
        TraceKind::OverflowSplit,
        TraceKind::AttachPush,
        TraceKind::AttachPop,
        TraceKind::MarkStackPush,
        TraceKind::WinderEnter,
        TraceKind::WinderLeave,
        TraceKind::PrimCall,
        TraceKind::InjectedFault,
        TraceKind::Step,
        TraceKind::Suspend,
        TraceKind::Resume,
        TraceKind::Alloc,
        TraceKind::GcCollect,
        TraceKind::Snapshot,
        TraceKind::Restore,
    ];

    /// Stable, documented label (the `name` field of the exported JSON —
    /// part of the `cm-trace` schema covered by golden tests).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Capture => "capture",
            TraceKind::Reify => "reify",
            TraceKind::Underflow => "underflow",
            TraceKind::Fuse => "fuse",
            TraceKind::Copy => "copy",
            TraceKind::OverflowSplit => "overflow-split",
            TraceKind::AttachPush => "attach-push",
            TraceKind::AttachPop => "attach-pop",
            TraceKind::MarkStackPush => "mark-stack-push",
            TraceKind::WinderEnter => "winder-enter",
            TraceKind::WinderLeave => "winder-leave",
            TraceKind::PrimCall => "prim-call",
            TraceKind::InjectedFault => "injected-fault",
            TraceKind::Step => "step",
            TraceKind::Suspend => "suspend",
            TraceKind::Resume => "resume",
            TraceKind::Alloc => "alloc",
            TraceKind::GcCollect => "gc-collect",
            TraceKind::Snapshot => "snapshot",
            TraceKind::Restore => "restore",
        }
    }

    /// The [`MachineStats`] field this kind mirrors (`None` for the
    /// journal-only [`TraceKind::WinderLeave`]).
    pub fn stat(self, stats: &MachineStats) -> Option<u64> {
        match self {
            TraceKind::Capture => Some(stats.captures),
            TraceKind::Reify => Some(stats.reifications),
            TraceKind::Underflow => Some(stats.underflows),
            TraceKind::Fuse => Some(stats.fusions),
            TraceKind::Copy => Some(stats.copies),
            TraceKind::OverflowSplit => Some(stats.overflow_splits),
            TraceKind::AttachPush => Some(stats.attachments_pushed),
            TraceKind::AttachPop => Some(stats.attachments_popped),
            TraceKind::MarkStackPush => Some(stats.mark_stack_pushes),
            TraceKind::WinderEnter => Some(stats.winders_run),
            TraceKind::WinderLeave => None,
            TraceKind::PrimCall => Some(stats.prim_calls),
            TraceKind::InjectedFault => Some(stats.injected_faults),
            TraceKind::Step => Some(stats.steps_executed),
            TraceKind::Suspend => Some(stats.suspensions),
            TraceKind::Resume => Some(stats.resumes),
            TraceKind::Alloc => Some(stats.allocations),
            TraceKind::GcCollect => Some(stats.collections),
            TraceKind::Snapshot => Some(stats.snapshots),
            TraceKind::Restore => Some(stats.restores),
        }
    }

    /// Bumps the mirrored [`MachineStats`] field (no-op for journal-only
    /// kinds). The single place event kinds turn into counters.
    pub(crate) fn bump(self, stats: &mut MachineStats) {
        match self {
            TraceKind::Capture => stats.captures += 1,
            TraceKind::Reify => stats.reifications += 1,
            TraceKind::Underflow => stats.underflows += 1,
            TraceKind::Fuse => stats.fusions += 1,
            TraceKind::Copy => stats.copies += 1,
            TraceKind::OverflowSplit => stats.overflow_splits += 1,
            TraceKind::AttachPush => stats.attachments_pushed += 1,
            TraceKind::AttachPop => stats.attachments_popped += 1,
            TraceKind::MarkStackPush => stats.mark_stack_pushes += 1,
            TraceKind::WinderEnter => stats.winders_run += 1,
            TraceKind::WinderLeave => {}
            TraceKind::PrimCall => stats.prim_calls += 1,
            TraceKind::InjectedFault => stats.injected_faults += 1,
            TraceKind::Step => stats.steps_executed += 1,
            TraceKind::Suspend => stats.suspensions += 1,
            TraceKind::Resume => stats.resumes += 1,
            TraceKind::Alloc => stats.allocations += 1,
            TraceKind::GcCollect => stats.collections += 1,
            TraceKind::Snapshot => stats.snapshots += 1,
            TraceKind::Restore => stats.restores += 1,
        }
    }
}

/// One journaled event: what happened, when (interpreter step index), and
/// how deep the live segment was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// `steps_executed` at the time of the event (a global, monotone
    /// logical clock across suspensions).
    pub step: u64,
    /// Number of live frames in the current segment at the time of the
    /// event (the frozen chain is not walked: recording is O(1)).
    pub depth: u32,
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s plus exact per-kind
/// totals.
///
/// The ring keeps the newest `capacity` events (oldest are overwritten);
/// the totals are exact over the machine's whole life regardless of
/// eviction, which is what [`TraceJournal::verify_consistency`] compares
/// against [`MachineStats`].
#[derive(Debug, Clone, Default)]
pub struct TraceJournal {
    capacity: usize,
    /// Ring storage; once full, `write` wraps.
    buf: Vec<TraceEvent>,
    /// Next write position (valid once `buf.len() == capacity`).
    write: usize,
    /// Total events ring-recorded (including ones since evicted).
    recorded: u64,
    /// Exact per-kind totals, indexed by discriminant.
    counts: [u64; TRACE_KIND_COUNT],
}

impl TraceJournal {
    /// Creates a journal keeping the newest `capacity` events.
    pub fn with_capacity(capacity: usize) -> TraceJournal {
        TraceJournal {
            capacity,
            ..TraceJournal::default()
        }
    }

    /// Records one event. [`TraceKind::Step`] is counted but not stored
    /// (see module docs). Inside the VM all recording goes through the
    /// machine's `trace` hook (which also bumps the matching stats
    /// counter); standalone journals are fair game for external tools.
    pub fn record(&mut self, kind: TraceKind, step: u64, depth: usize) {
        self.counts[kind as usize] += 1;
        if kind == TraceKind::Step || self.capacity == 0 {
            return;
        }
        let ev = TraceEvent {
            kind,
            step,
            depth: u32::try_from(depth).unwrap_or(u32::MAX),
        };
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.write] = ev;
            self.write = (self.write + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exact total of events of `kind` over the journal's life.
    pub fn count_of(&self, kind: TraceKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring-recorded events that have been overwritten (evicted oldest
    /// first).
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Iterates the retained events oldest → newest.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, recent) = if self.buf.len() < self.capacity {
            (&self.buf[..0], &self.buf[..])
        } else {
            (&self.buf[self.write..], &self.buf[..self.write])
        };
        wrapped.iter().chain(recent.iter())
    }

    /// Clears the ring and the per-kind totals.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.write = 0;
        self.recorded = 0;
        self.counts = [0; TRACE_KIND_COUNT];
    }

    /// Checks that every per-kind journal total equals the mirrored
    /// [`MachineStats`] counter — the counter/journal invariant the
    /// torture harness asserts after every trial. Holds whenever tracing
    /// was enabled for the machine's whole life and neither side was
    /// cleared independently.
    ///
    /// # Errors
    ///
    /// A description of the first mismatching kind.
    pub fn verify_consistency(&self, stats: &MachineStats) -> Result<(), String> {
        for kind in TraceKind::ALL {
            let Some(counter) = kind.stat(stats) else {
                continue;
            };
            let journaled = self.count_of(kind);
            if counter != journaled {
                return Err(format!(
                    "counter/journal mismatch for {}: stats say {counter}, journal says {journaled}",
                    kind.label()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_exactly() {
        let mut j = TraceJournal::with_capacity(3);
        for i in 0..5u64 {
            j.record(TraceKind::Capture, i, i as usize);
        }
        assert_eq!(j.count_of(TraceKind::Capture), 5);
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let steps: Vec<u64> = j.events().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn steps_counted_but_not_stored() {
        let mut j = TraceJournal::with_capacity(4);
        j.record(TraceKind::Step, 1, 0);
        j.record(TraceKind::Step, 2, 0);
        j.record(TraceKind::Underflow, 3, 1);
        assert_eq!(j.count_of(TraceKind::Step), 2);
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn consistency_detects_unhooked_counter() {
        let mut j = TraceJournal::with_capacity(8);
        let mut stats = MachineStats::default();
        TraceKind::Capture.bump(&mut stats);
        j.record(TraceKind::Capture, 0, 0);
        j.verify_consistency(&stats).unwrap();
        // A counter bumped without a journal record is the bug this check
        // exists to catch.
        stats.underflows += 1;
        let err = j.verify_consistency(&stats).unwrap_err();
        assert!(err.contains("underflow"), "unexpected message: {err}");
    }

    #[test]
    fn every_kind_bumps_its_own_stat() {
        for kind in TraceKind::ALL {
            let mut stats = MachineStats::default();
            kind.bump(&mut stats);
            match kind.stat(&stats) {
                Some(v) => assert_eq!(v, 1, "{} did not bump its field", kind.label()),
                None => assert_eq!(
                    stats,
                    MachineStats::default(),
                    "journal-only {} touched a counter",
                    kind.label()
                ),
            }
        }
    }

    #[test]
    fn zero_capacity_journal_still_counts() {
        let mut j = TraceJournal::with_capacity(0);
        j.record(TraceKind::Fuse, 0, 0);
        assert_eq!(j.count_of(TraceKind::Fuse), 1);
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in TraceKind::ALL {
            assert!(
                seen.insert(kind.label()),
                "duplicate label {}",
                kind.label()
            );
        }
    }
}
