//! The runtime half of the continuation-marks system (Flatt & Dybvig,
//! PLDI 2020): a bytecode virtual machine with
//!
//! * **segmented stack continuations** in the Hieb–Dybvig style (§5 of the
//!   paper): the current stack lives in growable segments; `call/cc`
//!   *freezes* the current segment in O(1) and starts a fresh one, and an
//!   **underflow** step restores a frozen segment when control returns past
//!   a segment boundary,
//! * **continuation attachments** (§6): a `marks` register holding a
//!   Scheme list, with each underflow record carrying the marks to restore,
//!   so attachments pop automatically when frames return across segment
//!   boundaries,
//! * **opportunistic one-shot continuations** (§6): a segment frozen only
//!   for attachment bookkeeping is *fused* back (moved, not copied) on
//!   underflow when nothing else references it,
//! * `dynamic-wind` whose winder records carry a marks field (footnote 4),
//! * multi-prompt delimited control (`%call-with-prompt`, `%abort`,
//!   `%call-with-composable-continuation`), and
//! * an optional **eager mark-stack** mode that models the *old* Racket
//!   implementation strategy (a side mark stack paid for on every non-tail
//!   call), used as the comparison baseline for the paper's figure 5.
//!
//! The compile-time half lives in `cm-compiler`; the user-facing
//! continuation-marks API lives in `cm-core`.
//!
//! # Examples
//!
//! Machine code is normally produced by `cm-compiler`, but can be built by
//! hand:
//!
//! ```
//! use cm_vm::{Code, Instr, Machine, Value};
//!
//! // (lambda () (+ 40 2)) compiled by hand:
//! let code = Code::build("main", 0, false, vec![
//!     Instr::Const(0),
//!     Instr::Const(1),
//!     Instr::PrimCall(cm_vm::NativeId::named("+"), 2),
//!     Instr::Return,
//! ], vec![Value::fixnum(40), Value::fixnum(2)], vec![]);
//! let mut m = Machine::new(Default::default());
//! let result = m.run_code(code).unwrap();
//! assert!(result.eq_value(&Value::fixnum(42)));
//! ```

mod code;
mod config;
mod error;
pub mod heap;
mod machine;
mod prims;
mod stats;
mod trace;
mod values;

pub use code::{Code, Instr};
pub use config::{FaultPlan, MachineConfig, MarkModel, DEFAULT_TRACE_CAPACITY};
pub use error::{BacktraceFrame, VmBacktrace, VmError, VmErrorKind, VmResult};
pub use heap::{
    heap_stats, GcReport, HBox, HClosure, HCont, HPair, HRecord, HStr, HTable, HVec, HeapStats,
    RootGuard, Rooted,
};
pub use machine::{Globals, Machine, RestoredRun, RunStatus, SnapshotError, SuspendedRun};
pub use prims::{all as natives, lookup as lookup_native, Cp0Rule, NativeDef, NativeId, PrimClass};
pub use stats::MachineStats;
pub use trace::{TraceEvent, TraceJournal, TraceKind, TRACE_KIND_COUNT};
pub use values::{Closure, EqKey, RecordData, Value};
