//! First-class control: continuation data, winders, prompts.
//!
//! The representations here follow §5–§6 of the paper:
//!
//! * a frozen stack segment plus an *underflow record* per split point,
//! * a full continuation is (a pointer to) an underflow record,
//! * a winder record carries the marks of the `dynamic-wind` call's
//!   continuation (footnote 4),
//! * a composable continuation additionally remembers, per record, the
//!   *relative* marks prefix so marks splice onto the application-site
//!   marks (§2.3's "delimited and composable continuations will capture
//!   and splice subchains in a natural way").

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::values::Value;

use super::{Frame, MarkEntry};

/// A frozen run of stack frames (plus their value-stack region and, in
/// eager-mark-stack mode, their mark entries).
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// The frozen value stack.
    pub stack: Vec<Value>,
    /// The frozen frames (bottom first).
    pub frames: Vec<Frame>,
    /// Eager-mode mark entries parallel to `frames`.
    pub mark_entries: Vec<MarkEntry>,
}

/// An underflow record: what the machine needs to resume a frozen segment
/// when control returns across a segment boundary (§5).
///
/// The `marks` field is the paper's key addition (§6): restoring it on
/// underflow is what pops continuation attachments without any per-return
/// bookkeeping.
#[derive(Debug)]
pub struct Underflow {
    /// The frozen segment. `None` only after the segment was *fused* back
    /// onto the live stack (the record is then dead: fusion requires the
    /// machine to hold the only reference). The inner `Rc` lets a
    /// composable capture share the frozen segment instead of copying it
    /// eagerly (§6's one-shot trick applied to `shift`-style capture):
    /// whichever owner turns out to be the last pays nothing, and any
    /// earlier resume pays its copy lazily at underflow time.
    pub seg: RefCell<Option<Rc<Segment>>>,
    /// Marks register value to restore on underflow.
    pub marks: Value,
    /// The rest of the continuation.
    pub next: Option<Rc<Underflow>>,
}

/// Dropping a deep underflow chain recursively (record → next → …) would
/// overflow the native stack — chains grow one record per
/// `segment_frame_limit` frames, and the torture harness runs with limits
/// as low as 1. Unlink iteratively instead: each record is detached from
/// its successor before being freed, so the default recursive drop only
/// ever sees chains of length one.
impl Drop for Underflow {
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(u) = next {
            match Rc::try_unwrap(u) {
                Ok(mut u) => next = u.next.take(),
                // Still shared: the other owner keeps the rest alive.
                Err(_) => break,
            }
        }
    }
}

/// A `dynamic-wind` extent currently on the winder stack.
#[derive(Debug, Clone)]
pub struct Winder {
    /// Unique id, used to compute common winder prefixes on jumps.
    pub id: u64,
    /// The before thunk (re-run when a continuation re-enters).
    pub pre: Value,
    /// The after thunk (run when a continuation escapes).
    pub post: Value,
    /// Marks of the `dynamic-wind` call's continuation, restored while a
    /// continuation jump runs one of the thunks (paper footnote 4). In
    /// the eager model this is `(attachments . depth)`: the marks
    /// register and how many mark-stack entries the call's prompt
    /// context had, which a jump reads back from the bottom of a
    /// continuation that extends the call.
    pub marks: Value,
}

/// A prompt boundary: the full machine state saved when
/// `%call-with-prompt` entered a delimited extent.
#[derive(Debug)]
pub struct MetaFrame {
    /// The prompt tag (compared with `eq?`).
    pub tag: Value,
    /// Handler called with the value delivered by `%abort`.
    pub handler: Value,
    /// Saved value stack.
    pub stack: Vec<Value>,
    /// Saved frames.
    pub frames: Vec<Frame>,
    /// Saved underflow chain.
    pub next: Option<Rc<Underflow>>,
    /// Saved marks register.
    pub marks: Value,
    /// Saved chain-bottom marks.
    pub base_marks: Value,
    /// Saved winder stack.
    pub winders: Vec<Winder>,
    /// Saved eager mark stack.
    pub mark_stack: Vec<MarkEntry>,
}

/// One rebuildable link of a composable continuation.
#[derive(Debug, Clone)]
pub struct CompChainRec {
    /// Shared frozen segment (copied lazily, when an application
    /// actually resumes into it).
    pub seg: Rc<Segment>,
    /// The marks this record adds relative to the prompt boundary,
    /// newest first; spliced onto the application-site marks.
    pub marks_prefix: Vec<Value>,
}

/// The payload of a composable continuation.
#[derive(Debug, Clone)]
pub struct CompData {
    /// The captured top (innermost) segment.
    pub top_seg: Rc<Segment>,
    /// Records from innermost to outermost (ending at the prompt).
    pub chain: Vec<CompChainRec>,
    /// Marks of the capture point relative to the prompt boundary,
    /// newest first.
    pub top_marks_prefix: Vec<Value>,
}

/// What kind of continuation a [`ContData`] is.
#[derive(Debug, Clone)]
pub enum ContKind {
    /// A full (escaping) continuation from `call/cc` / `call/1cc`.
    Full {
        /// Head of the frozen chain; `None` for the empty continuation.
        head: Option<Rc<Underflow>>,
    },
    /// A composable continuation from
    /// `%call-with-composable-continuation`.
    Composable(CompData),
}

/// A first-class continuation value.
///
/// `Clone` is shallow (`Rc` bumps); it exists so the heap can hand the
/// payload out of a slab slot ([`crate::heap::HCont::data`]). The cloned
/// `one_shot_used` cell is *not* aliased with the heap's copy — mutate
/// through [`crate::heap::HCont::set_one_shot_used`] instead.
#[derive(Debug, Clone)]
pub struct ContData {
    /// Full or composable.
    pub kind: ContKind,
    /// Marks register at capture.
    pub marks: Value,
    /// Chain-bottom marks at capture.
    pub base_marks: Value,
    /// Winder stack at capture.
    pub winders: Vec<Winder>,
    /// Prompt (meta) depth at capture.
    pub meta_depth: usize,
    /// For `call/1cc`: whether the single shot has been used.
    pub one_shot_used: Option<Cell<bool>>,
}

/// The default continuation is the empty full continuation (used as the
/// heap's freed-slot poison value).
impl Default for ContData {
    fn default() -> ContData {
        ContData {
            kind: ContKind::Full { head: None },
            marks: Value::Nil,
            base_marks: Value::Nil,
            winders: Vec::new(),
            meta_depth: 0,
            one_shot_used: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_default_is_empty() {
        let s = Segment::default();
        assert!(s.stack.is_empty() && s.frames.is_empty());
    }

    #[test]
    fn underflow_fusion_slot_can_be_emptied() {
        let u = Underflow {
            seg: RefCell::new(Some(Rc::new(Segment::default()))),
            marks: Value::Nil,
            next: None,
        };
        assert!(u.seg.borrow_mut().take().is_some());
        assert!(u.seg.borrow().is_none());
    }
}
