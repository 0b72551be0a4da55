//! Runtime errors.
//!
//! Every fault a Scheme program can provoke surfaces as a [`VmError`]
//! carrying a [`VmErrorKind`] and, when the machine was mid-execution, a
//! [`VmBacktrace`] of the active code objects. Errors are *recoverable*:
//! the machine resets itself to an idle, re-enterable state when one
//! escapes `run_code`/`call_value`, and the torture harness
//! (`cm-torture`) verifies that guarantee under systematic fault
//! injection.

use std::fmt;

use crate::values::Value;

/// The result type of machine operations.
pub type VmResult<T> = Result<T, VmError>;

/// What went wrong.
///
/// Library-level exceptions (the paper's §2.3 `catch`/`throw`) are
/// implemented *above* the VM with continuation marks and never surface
/// here; this type covers genuine runtime faults.
#[derive(Debug, Clone, PartialEq)]
pub enum VmErrorKind {
    /// A primitive received an argument of the wrong type.
    WrongType {
        /// The primitive or operation name.
        who: &'static str,
        /// What was expected (e.g. "pair").
        expected: &'static str,
        /// A rendering of the value received.
        got: String,
    },
    /// A procedure was applied to the wrong number of arguments.
    Arity {
        /// The procedure name.
        who: String,
        /// Expected argument count description (e.g. "2" or "at least 1").
        expected: String,
        /// The number of arguments received.
        got: usize,
    },
    /// Application of a non-procedure.
    NotAProcedure(String),
    /// A reference to an unbound global variable.
    Unbound(String),
    /// A one-shot continuation was invoked a second time.
    OneShotReused,
    /// `%abort` or composable capture found no matching prompt.
    NoMatchingPrompt(String),
    /// The step-count budget was exhausted (see
    /// [`MachineConfig::fuel`](crate::MachineConfig)).
    OutOfFuel,
    /// The wall-clock deadline passed (see
    /// [`MachineConfig::deadline`](crate::MachineConfig)).
    DeadlineExceeded,
    /// Nested executions (winder thunks re-entering the interpreter on
    /// the native Rust stack) exceeded
    /// [`MachineConfig::max_nested_executions`](crate::MachineConfig).
    NativeDepthExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// Live heap bytes exceeded
    /// [`MachineConfig::max_heap_bytes`](crate::MachineConfig) even after
    /// a collection at the safe point that detected the crossing.
    HeapLimitExceeded {
        /// The configured cap.
        limit: u64,
        /// Live bytes after the collection that failed to get under it.
        live: u64,
    },
    /// A fault injected by the torture harness's
    /// [`FaultPlan`](crate::FaultPlan) at a primitive boundary.
    InjectedFault {
        /// The primitive boundary the fault was injected at.
        site: String,
        /// The 0-based primitive-call index that faulted.
        at: u64,
    },
    /// An `Instr::PrimCall` named a primitive without a Pure function;
    /// only bytecode the verifier never saw can do that.
    NotInlinable(&'static str),
    /// An uncaught Scheme-level error raised by the `error` primitive (or
    /// escaped `raise`), carrying the raised payload rendering.
    SchemeError(String),
    /// A machine invariant believed unreachable was violated. In debug
    /// builds these also `debug_assert!`; in release they surface as a
    /// recoverable error instead of a process abort.
    Internal {
        /// The code location (function or instruction) that detected it.
        site: &'static str,
        /// What was inconsistent.
        detail: String,
    },
    /// Some other invariant violation, with a message.
    Other(String),
}

impl fmt::Display for VmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmErrorKind::WrongType { who, expected, got } => {
                write!(f, "{who}: expected {expected}, got {got}")
            }
            VmErrorKind::Arity { who, expected, got } => {
                write!(f, "{who}: expected {expected} arguments, got {got}")
            }
            VmErrorKind::NotAProcedure(v) => write!(f, "application: not a procedure: {v}"),
            VmErrorKind::Unbound(name) => write!(f, "unbound variable: {name}"),
            VmErrorKind::OneShotReused => write!(f, "one-shot continuation invoked twice"),
            VmErrorKind::NoMatchingPrompt(tag) => write!(f, "no matching prompt for tag {tag}"),
            VmErrorKind::OutOfFuel => write!(f, "step budget exhausted"),
            VmErrorKind::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            VmErrorKind::NativeDepthExceeded { limit } => {
                write!(f, "nested execution depth exceeded (limit {limit})")
            }
            VmErrorKind::HeapLimitExceeded { limit, live } => {
                write!(f, "heap limit exceeded ({live} bytes live, limit {limit})")
            }
            VmErrorKind::InjectedFault { site, at } => {
                write!(
                    f,
                    "injected fault at primitive boundary {site} (call #{at})"
                )
            }
            VmErrorKind::NotInlinable(who) => write!(f, "{who}: not an inlinable primitive"),
            VmErrorKind::SchemeError(msg) => write!(f, "error: {msg}"),
            VmErrorKind::Internal { site, detail } => {
                write!(f, "internal invariant violated at {site}: {detail}")
            }
            VmErrorKind::Other(msg) => write!(f, "{msg}"),
        }
    }
}

/// One frame of a fault-time backtrace: which code object was active and
/// where, named the same way [`Code::disassemble`](crate::Code) names
/// instructions.
#[derive(Debug, Clone)]
pub struct BacktraceFrame {
    /// The code object's diagnostic name.
    pub code: String,
    /// The instruction offset (the instruction being executed).
    pub pc: u32,
    /// The rendered instruction at `pc`, if available.
    pub instr: Option<String>,
}

impl fmt::Display for BacktraceFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.instr {
            Some(i) => write!(f, "{} @ {}: {}", self.code, self.pc, i),
            None => write!(f, "{} @ {}", self.code, self.pc),
        }
    }
}

/// The active code objects at fault time, innermost first, following the
/// live frames and then the frozen underflow chain.
#[derive(Debug, Clone, Default)]
pub struct VmBacktrace {
    /// Frames, innermost first (capped; deep stacks are truncated).
    pub frames: Vec<BacktraceFrame>,
    /// Whether frames were dropped because the stack was deeper than the
    /// capture cap.
    pub truncated: bool,
}

impl VmBacktrace {
    /// Renders one frame per line, indented, innermost first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for fr in &self.frames {
            let _ = writeln!(out, "  at {fr}");
        }
        if self.truncated {
            out.push_str("  ... (truncated)\n");
        }
        out
    }
}

/// An error raised while running machine code: a [`VmErrorKind`] plus an
/// optional fault-time [`VmBacktrace`].
#[derive(Debug, Clone)]
pub struct VmError {
    /// What went wrong.
    pub kind: VmErrorKind,
    /// Active code objects at fault time (attached when the error escaped
    /// a top-level `run_code`/`call_value` with frames live).
    pub backtrace: Option<Box<VmBacktrace>>,
}

impl From<VmErrorKind> for VmError {
    fn from(kind: VmErrorKind) -> VmError {
        VmError {
            kind,
            backtrace: None,
        }
    }
}

impl VmError {
    /// Convenience constructor for type errors.
    pub fn wrong_type(who: &'static str, expected: &'static str, got: &Value) -> VmError {
        VmErrorKind::WrongType {
            who,
            expected,
            got: got.write_string(),
        }
        .into()
    }

    /// Convenience constructor for arity errors.
    pub fn arity(who: impl Into<String>, expected: impl Into<String>, got: usize) -> VmError {
        VmErrorKind::Arity {
            who: who.into(),
            expected: expected.into(),
            got,
        }
        .into()
    }

    /// Convenience constructor for unbound-variable errors.
    pub fn unbound(name: impl Into<String>) -> VmError {
        VmErrorKind::Unbound(name.into()).into()
    }

    /// Convenience constructor for uncategorized faults.
    pub fn other(msg: impl Into<String>) -> VmError {
        VmErrorKind::Other(msg.into()).into()
    }

    /// Convenience constructor for Scheme-level `error` escapes.
    pub fn scheme_error(msg: impl Into<String>) -> VmError {
        VmErrorKind::SchemeError(msg.into()).into()
    }

    /// An internal-invariant violation: `debug_assert!`s in debug builds,
    /// a recoverable error in release.
    pub fn internal(site: &'static str, detail: impl Into<String>) -> VmError {
        let detail = detail.into();
        debug_assert!(false, "internal invariant violated at {site}: {detail}");
        VmErrorKind::Internal { site, detail }.into()
    }

    /// Like [`VmError::internal`] but without the debug assertion, for
    /// invariants that injected faults can legitimately reach.
    pub fn internal_recoverable(site: &'static str, detail: impl Into<String>) -> VmError {
        VmErrorKind::Internal {
            site,
            detail: detail.into(),
        }
        .into()
    }

    /// Attaches a backtrace (keeping an existing one if already set, so
    /// the innermost capture wins).
    pub fn with_backtrace(mut self, bt: VmBacktrace) -> VmError {
        if self.backtrace.is_none() && !bt.frames.is_empty() {
            self.backtrace = Some(Box::new(bt));
        }
        self
    }

    /// Whether this is a resource-limit fault (fuel, deadline, nested
    /// native depth, or heap cap) rather than a program error.
    pub fn is_resource_limit(&self) -> bool {
        matches!(
            self.kind,
            VmErrorKind::OutOfFuel
                | VmErrorKind::DeadlineExceeded
                | VmErrorKind::NativeDepthExceeded { .. }
                | VmErrorKind::HeapLimitExceeded { .. }
        )
    }

    /// The message plus the backtrace (when present), for diagnostics.
    pub fn detailed(&self) -> String {
        match &self.backtrace {
            Some(bt) => format!("{}\n{}", self.kind, bt.render()),
            None => self.kind.to_string(),
        }
    }
}

/// `Display` shows only the message; use [`VmError::detailed`] for the
/// backtrace.
impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VmError::wrong_type("car", "pair", &Value::fixnum(3));
        assert_eq!(e.to_string(), "car: expected pair, got 3");
        assert!(VmError::unbound("x").to_string().contains("x"));
        assert!(VmError::from(VmErrorKind::DeadlineExceeded)
            .to_string()
            .contains("deadline"));
        assert!(VmError::from(VmErrorKind::NativeDepthExceeded { limit: 7 })
            .to_string()
            .contains("7"));
    }

    #[test]
    fn backtrace_renders_frames() {
        let bt = VmBacktrace {
            frames: vec![BacktraceFrame {
                code: "loop".into(),
                pc: 3,
                instr: Some("jump         -> 0".into()),
            }],
            truncated: true,
        };
        let e = VmError::from(VmErrorKind::OutOfFuel).with_backtrace(bt);
        let d = e.detailed();
        assert!(d.contains("loop @ 3"));
        assert!(d.contains("truncated"));
    }

    #[test]
    fn resource_limits_are_classified() {
        assert!(VmError::from(VmErrorKind::OutOfFuel).is_resource_limit());
        assert!(VmError::from(VmErrorKind::HeapLimitExceeded {
            limit: 100,
            live: 200
        })
        .is_resource_limit());
        assert!(!VmError::other("boom").is_resource_limit());
    }

    #[test]
    fn heap_limit_display_carries_both_numbers() {
        let e = VmError::from(VmErrorKind::HeapLimitExceeded {
            limit: 4096,
            live: 8192,
        });
        let s = e.to_string();
        assert!(s.contains("4096") && s.contains("8192"), "{s}");
    }
}
