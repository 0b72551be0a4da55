//! JVM-style bytecode verification for the continuation-marks VM.
//!
//! [`verify`] abstractly interprets a compiled [`Code`] object (recursing
//! into child codes) and rejects bytecode that could corrupt the value
//! stack or — the part specific to this system — the `marks` register
//! holding the paper's continuation *attachments* (§5–§7 of Flatt &
//! Dybvig, *Compiler and Runtime Support for Continuation Marks*, PLDI
//! 2020).
//!
//! Three families of invariants are checked:
//!
//! 1. **Stack discipline.** Every reachable path ends in
//!    `Return`/`TailCall` with a result value available; `Leave(n)`,
//!    `Pop`, `Call(argc)` and friends never pop below the frame base; and
//!    the stack depth is the same along every edge into a join point.
//! 2. **Index soundness.** `Const`, `LocalRef`/`LocalSet`, `CaptureRef`,
//!    `MakeClosure{code}`, and jump targets are all in bounds, with child
//!    codes checked against the capture counts of their `MakeClosure`
//!    sites.
//! 3. **Attachment discipline** (§7.2). `PushAttach`/`PopAttach` balance
//!    along all control paths and never leak across a return;
//!    `GetAttachPresent`/`ConsumeAttachPresent`/`SetAttach`/
//!    `CallWithAttachment` are reachable only in states where the
//!    analysis proves an attachment is present on the current conceptual
//!    frame; `ReifySetAttach { check_replace: false }` — the §7.2
//!    "consume"+"set" fusion — is legal only when the attachment is
//!    proven *absent* (i.e. after a consume); and eager-mark-stack
//!    instructions appear only under [`MarkModel::EagerMarkStack`].
//!    (The reverse direction is deliberately not checked: the machine's
//!    `marks` register coexists with the eager mark stack, and the §7.1
//!    attachment primitives compile to attachment instructions under
//!    *both* models — the eager model only changes how
//!    `with-continuation-mark` itself is lowered.)
//!
//! The abstract state per instruction offset is small: the operand-stack
//! depth above the frame base, the number of attachments the code has
//! pushed and not yet popped (`owned`), the same counter for eager mark
//! frames, and a three-point lattice describing whether the *current
//! conceptual frame* carries an attachment underneath those pushes
//! ([`Presence`]). Joins require depth and ownership to agree exactly
//! (mismatch is a verification error, as in the JVM) and meet `Presence`
//! to [`Presence::Dynamic`].

pub mod markflow;

use std::fmt;

use cm_vm::{Code, Instr, MarkModel};

/// Three-point presence lattice for the current frame's attachment.
///
/// `Present`/`Absent` are proofs; `Dynamic` is "unknown", the state at
/// function entry (the caller may or may not have reified an attachment
/// for this frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// An attachment is proven present on the current conceptual frame.
    Present,
    /// Proven absent (e.g. just consumed).
    Absent,
    /// Statically unknown.
    Dynamic,
}

impl Presence {
    fn join(self, other: Presence) -> Presence {
        if self == other {
            self
        } else {
            Presence::Dynamic
        }
    }
}

/// What a [`Violation`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A constant-pool index is out of bounds.
    ConstOutOfBounds,
    /// A `LocalRef`/`LocalSet` slot is outside the frame's live region.
    LocalOutOfBounds,
    /// A `CaptureRef` index exceeds the closure's capture count.
    CaptureOutOfBounds,
    /// A `MakeClosure` child-code index is out of bounds.
    CodeIndexOutOfBounds,
    /// A jump target is outside the instruction sequence.
    JumpOutOfBounds,
    /// An instruction would pop below the frame base.
    StackUnderflow,
    /// Two control-flow edges reach the same offset with different
    /// stack depths or attachment ownership.
    JoinMismatch,
    /// Control can run past the last instruction.
    FallsOffEnd,
    /// `PushAttach`/`PopAttach` (or the eager frame pair) do not balance,
    /// or an owned attachment leaks across `Return`/`TailCall`.
    UnbalancedAttachment,
    /// An instruction requiring a statically-proven attachment
    /// (`GetAttachPresent`, `ConsumeAttachPresent`, `SetAttach`,
    /// `CallWithAttachment`) is reachable without that proof.
    AttachmentNotProven,
    /// `ReifySetAttach { check_replace: false }` without a preceding
    /// consume proving the attachment absent (§7.2 fusion legality).
    IllegalFusion,
    /// A reifying or dynamically-checking attachment instruction executed
    /// while this code still owns `PushAttach`ed attachments, which the
    /// runtime check would misattribute to the frame.
    OwnedAttachmentInterference,
    /// An instruction belonging to the other mark model.
    WrongMarkModel,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::ConstOutOfBounds => "const index out of bounds",
            ViolationKind::LocalOutOfBounds => "local index out of bounds",
            ViolationKind::CaptureOutOfBounds => "capture index out of bounds",
            ViolationKind::CodeIndexOutOfBounds => "child-code index out of bounds",
            ViolationKind::JumpOutOfBounds => "jump target out of bounds",
            ViolationKind::StackUnderflow => "stack underflow",
            ViolationKind::JoinMismatch => "inconsistent state at join",
            ViolationKind::FallsOffEnd => "control falls off the end",
            ViolationKind::UnbalancedAttachment => "unbalanced attachment push/pop",
            ViolationKind::AttachmentNotProven => "attachment presence not proven",
            ViolationKind::IllegalFusion => "consume+set fusion without consume",
            ViolationKind::OwnedAttachmentInterference => {
                "owned attachment interferes with dynamic check"
            }
            ViolationKind::WrongMarkModel => "instruction from the wrong mark model",
        };
        f.write_str(s)
    }
}

/// A single verification failure, located by code path and offset.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `/`-joined names of the code objects from the root down.
    pub code_path: String,
    /// Instruction offset within that code object.
    pub offset: usize,
    /// The invariant violated.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {:4}: {}: {}",
            self.code_path, self.offset, self.kind, self.detail
        )
    }
}

/// Abstract machine state at one instruction offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsState {
    /// Operand-stack depth above the frame base.
    depth: u32,
    /// Attachments pushed by this code and not yet popped/consumed.
    owned: u32,
    /// Eager mark-stack frames pushed by this code and not yet popped.
    eager_owned: u32,
    /// The frame's own attachment, underneath any `owned` pushes.
    head: Presence,
}

impl AbsState {
    /// Is an attachment statically known to be on top of `marks`?
    fn proven_present(&self) -> bool {
        self.owned > 0 || self.head == Presence::Present
    }

    /// Removes the top attachment: an owned push if any, else the frame's.
    fn consume_one(&mut self) {
        if self.owned > 0 {
            self.owned -= 1;
        } else {
            self.head = Presence::Absent;
        }
    }
}

/// Verifies `code` (and, recursively, its child codes) against the
/// instruction set's invariants under the given mark model.
///
/// # Errors
///
/// Returns every [`Violation`] found; an empty `Ok(())` means the code is
/// well-formed.
pub fn verify(code: &Code, model: MarkModel) -> Result<(), Vec<Violation>> {
    // The root code runs without a closure: no captures are addressable.
    verify_instantiated(code, 0, model)
}

/// Like [`verify`], but for a code object instantiated as a closure with
/// `captures` addressable capture slots. Needed when verifying bytecode
/// recovered from a durable snapshot: a closure's code can outlive the
/// parent code whose `MakeClosure` site would otherwise supply the
/// capture bound.
///
/// # Errors
///
/// Returns every [`Violation`] found, exactly as [`verify`] does.
pub fn verify_instantiated(
    code: &Code,
    captures: u32,
    model: MarkModel,
) -> Result<(), Vec<Violation>> {
    let mut v = Verifier {
        model,
        violations: Vec::new(),
    };
    v.verify_code(code, captures, &mut vec![code.name.clone()]);
    if v.violations.is_empty() {
        Ok(())
    } else {
        Err(v.violations)
    }
}

struct Verifier {
    model: MarkModel,
    violations: Vec<Violation>,
}

impl Verifier {
    fn report(&mut self, path: &[String], offset: usize, kind: ViolationKind, detail: String) {
        self.violations.push(Violation {
            code_path: path.join("/"),
            offset,
            kind,
            detail,
        });
    }

    fn verify_code(&mut self, code: &Code, captures: u32, path: &mut Vec<String>) {
        self.verify_body(code, captures, path);
        // Child codes are checked against the *smallest* capture count any
        // MakeClosure site instantiates them with — a CaptureRef must be in
        // bounds for every instantiation. Unreferenced children get the
        // permissive bound (they are dead, but their other invariants still
        // hold or fail on their own).
        let mut child_caps: Vec<Option<u32>> = vec![None; code.codes.len()];
        for instr in &code.instrs {
            if let Instr::MakeClosure {
                code: ci,
                captures: n,
            } = instr
            {
                if let Some(slot) = child_caps.get_mut(*ci as usize) {
                    let n = u32::from(*n);
                    *slot = Some(slot.map_or(n, |prev: u32| prev.min(n)));
                }
            }
        }
        for (i, child) in code.codes.iter().enumerate() {
            let caps = child_caps[i].unwrap_or(u32::MAX);
            path.push(child.name.clone());
            self.verify_code(child, caps, path);
            path.pop();
        }
    }

    #[allow(clippy::too_many_lines)]
    fn verify_body(&mut self, code: &Code, captures: u32, path: &[String]) {
        let n = code.instrs.len();
        let entry = AbsState {
            depth: u32::from(code.arity_required) + u32::from(code.rest),
            owned: 0,
            eager_owned: 0,
            head: Presence::Dynamic,
        };
        if n == 0 {
            self.report(
                path,
                0,
                ViolationKind::FallsOffEnd,
                "empty instruction sequence".into(),
            );
            return;
        }
        let mut states: Vec<Option<AbsState>> = vec![None; n];
        states[0] = Some(entry);
        let mut work = vec![0usize];
        // Report each (offset, kind) at most once so loops don't spam.
        let mut seen: Vec<(usize, ViolationKind)> = Vec::new();
        let mut report_once = |me: &mut Self, off: usize, kind: ViolationKind, detail: String| {
            if !seen.contains(&(off, kind)) {
                seen.push((off, kind));
                me.report(path, off, kind, detail);
            }
        };

        while let Some(pc) = work.pop() {
            let mut st = states[pc].expect("worklist entry without state");
            let instr = &code.instrs[pc];
            let eager = self.model == MarkModel::EagerMarkStack;

            // Mark-model gating first; a wrong-model instruction is still
            // interpreted for its stack effect so later checks stay useful.
            // Attachment instructions are legal under both models (the
            // marks register coexists with the eager mark stack), so only
            // the eager instructions are gated.
            let is_eager_instr = matches!(
                instr,
                Instr::EagerPushFrame
                    | Instr::EagerPopFrame
                    | Instr::EagerMarkSet
                    | Instr::EagerCallShared(_)
            );
            if is_eager_instr && !eager {
                report_once(
                    self,
                    pc,
                    ViolationKind::WrongMarkModel,
                    format!("{instr:?} requires MarkModel::EagerMarkStack"),
                );
            }

            // `need` values popped before `push` values are pushed; branch /
            // terminal instructions are handled explicitly below.
            let mut succs: Vec<usize> = Vec::new();
            let mut terminal = false;
            macro_rules! need {
                ($k:expr, $what:expr) => {{
                    let k = $k as u32;
                    if st.depth < k {
                        report_once(
                            self,
                            pc,
                            ViolationKind::StackUnderflow,
                            format!(
                                "{} needs {} value(s), stack depth is {}",
                                $what, k, st.depth
                            ),
                        );
                        // Unsound to keep walking this path.
                        continue;
                    }
                    st.depth -= k;
                }};
            }

            match instr {
                Instr::Const(i) => {
                    if usize::from(*i) >= code.consts.len() {
                        report_once(
                            self,
                            pc,
                            ViolationKind::ConstOutOfBounds,
                            format!("Const({i}) but {} constant(s)", code.consts.len()),
                        );
                    }
                    st.depth += 1;
                }
                Instr::LocalRef(i) => {
                    if u32::from(*i) >= st.depth {
                        report_once(
                            self,
                            pc,
                            ViolationKind::LocalOutOfBounds,
                            format!("LocalRef({i}) with only {} slot(s) live", st.depth),
                        );
                    }
                    st.depth += 1;
                }
                Instr::LocalSet(i) => {
                    need!(1, "LocalSet");
                    if u32::from(*i) >= st.depth {
                        report_once(
                            self,
                            pc,
                            ViolationKind::LocalOutOfBounds,
                            format!("LocalSet({i}) with only {} slot(s) live", st.depth),
                        );
                    }
                }
                Instr::CaptureRef(i) => {
                    if u32::from(*i) >= captures {
                        report_once(
                            self,
                            pc,
                            ViolationKind::CaptureOutOfBounds,
                            format!("CaptureRef({i}) but closure has {captures} capture(s)"),
                        );
                    }
                    st.depth += 1;
                }
                Instr::GlobalRef(_) => st.depth += 1,
                Instr::GlobalSet(_) => need!(1, "GlobalSet"),
                Instr::MakeClosure { code: ci, captures } => {
                    if usize::from(*ci) >= code.codes.len() {
                        report_once(
                            self,
                            pc,
                            ViolationKind::CodeIndexOutOfBounds,
                            format!("MakeClosure code {ci} but {} child(ren)", code.codes.len()),
                        );
                    }
                    need!(*captures, "MakeClosure");
                    st.depth += 1;
                }
                Instr::Jump(t) => {
                    terminal = true;
                    if (*t as usize) < n {
                        succs.push(*t as usize);
                    } else {
                        report_once(
                            self,
                            pc,
                            ViolationKind::JumpOutOfBounds,
                            format!("Jump({t}) but {n} instruction(s)"),
                        );
                    }
                }
                Instr::JumpIfFalse(t) => {
                    need!(1, "JumpIfFalse");
                    if (*t as usize) < n {
                        succs.push(*t as usize);
                    } else {
                        report_once(
                            self,
                            pc,
                            ViolationKind::JumpOutOfBounds,
                            format!("JumpIfFalse({t}) but {n} instruction(s)"),
                        );
                    }
                }
                Instr::Leave(k) => {
                    need!(u32::from(*k) + 1, "Leave");
                    st.depth += 1;
                }
                Instr::Pop => need!(1, "Pop"),
                Instr::Call(argc) => {
                    need!(u32::from(*argc) + 1, "Call");
                    st.depth += 1;
                }
                Instr::TailCall(argc) => {
                    need!(u32::from(*argc) + 1, "TailCall");
                    terminal = true;
                    if st.owned > 0 || st.eager_owned > 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::UnbalancedAttachment,
                            format!(
                                "TailCall leaks {} attachment(s) / {} eager frame(s)",
                                st.owned, st.eager_owned
                            ),
                        );
                    }
                }
                Instr::CallWithAttachment(argc) => {
                    need!(u32::from(*argc) + 1, "CallWithAttachment");
                    if !st.proven_present() {
                        report_once(
                            self,
                            pc,
                            ViolationKind::AttachmentNotProven,
                            "CallWithAttachment without a pushed or proven attachment".into(),
                        );
                    } else {
                        st.consume_one();
                    }
                    st.depth += 1;
                }
                Instr::EagerCallShared(argc) => {
                    need!(u32::from(*argc) + 1, "EagerCallShared");
                    if st.eager_owned == 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::UnbalancedAttachment,
                            "EagerCallShared without a pushed eager mark frame".into(),
                        );
                    } else {
                        st.eager_owned -= 1;
                    }
                    st.depth += 1;
                }
                Instr::Return => {
                    need!(1, "Return");
                    terminal = true;
                    if st.owned > 0 || st.eager_owned > 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::UnbalancedAttachment,
                            format!(
                                "Return leaks {} attachment(s) / {} eager frame(s)",
                                st.owned, st.eager_owned
                            ),
                        );
                    }
                }
                Instr::PrimCall(op, argc) => {
                    need!(u32::from(*argc), op.name());
                    st.depth += 1;
                }
                Instr::PushAttach => {
                    need!(1, "PushAttach");
                    st.owned += 1;
                }
                Instr::PopAttach => {
                    if st.owned == 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::UnbalancedAttachment,
                            "PopAttach without a matching PushAttach".into(),
                        );
                    } else {
                        st.owned -= 1;
                    }
                }
                Instr::SetAttach => {
                    need!(1, "SetAttach");
                    if !st.proven_present() {
                        report_once(
                            self,
                            pc,
                            ViolationKind::AttachmentNotProven,
                            "SetAttach replaces an attachment that is not proven present".into(),
                        );
                    }
                    // Replacement keeps presence: still present afterwards.
                }
                Instr::ReifySetAttach { check_replace } => {
                    need!(1, "ReifySetAttach");
                    if st.owned > 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::OwnedAttachmentInterference,
                            format!(
                                "ReifySetAttach with {} owned attachment(s) outstanding",
                                st.owned
                            ),
                        );
                    } else if !check_replace && st.head != Presence::Absent {
                        report_once(
                            self,
                            pc,
                            ViolationKind::IllegalFusion,
                            "ReifySetAttach{check_replace: false} is only legal after a \
                             consume proves the attachment absent (§7.2)"
                                .into(),
                        );
                    }
                    st.head = Presence::Present;
                }
                Instr::GetAttachDyn | Instr::ConsumeAttachDyn => {
                    need!(1, instr_name(instr));
                    if st.owned > 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::OwnedAttachmentInterference,
                            format!(
                                "{} would observe this code's own pushed attachment",
                                instr_name(instr)
                            ),
                        );
                    }
                    if matches!(instr, Instr::ConsumeAttachDyn) {
                        st.head = Presence::Absent;
                    }
                    st.depth += 1;
                }
                Instr::GetAttachPresent | Instr::ConsumeAttachPresent => {
                    if !st.proven_present() {
                        report_once(
                            self,
                            pc,
                            ViolationKind::AttachmentNotProven,
                            format!("{} without a presence proof", instr_name(instr)),
                        );
                    } else if matches!(instr, Instr::ConsumeAttachPresent) {
                        st.consume_one();
                    }
                    st.depth += 1;
                }
                Instr::CurrentAttachments => st.depth += 1,
                Instr::EagerPushFrame => st.eager_owned += 1,
                Instr::EagerPopFrame => {
                    if st.eager_owned == 0 {
                        report_once(
                            self,
                            pc,
                            ViolationKind::UnbalancedAttachment,
                            "EagerPopFrame without a matching EagerPushFrame".into(),
                        );
                    } else {
                        st.eager_owned -= 1;
                    }
                }
                Instr::EagerMarkSet => need!(2, "EagerMarkSet"),
            }

            if !terminal {
                if pc + 1 < n {
                    succs.push(pc + 1);
                } else {
                    report_once(
                        self,
                        pc,
                        ViolationKind::FallsOffEnd,
                        format!("{} can run past the last instruction", instr_name(instr)),
                    );
                }
            }

            for succ in succs {
                match &mut states[succ] {
                    slot @ None => {
                        *slot = Some(st);
                        work.push(succ);
                    }
                    Some(prev) => {
                        if prev.depth != st.depth
                            || prev.owned != st.owned
                            || prev.eager_owned != st.eager_owned
                        {
                            report_once(
                                self,
                                succ,
                                ViolationKind::JoinMismatch,
                                format!(
                                    "edge from {} arrives with depth {} / owned {} / eager {}, \
                                     join has depth {} / owned {} / eager {}",
                                    pc,
                                    st.depth,
                                    st.owned,
                                    st.eager_owned,
                                    prev.depth,
                                    prev.owned,
                                    prev.eager_owned
                                ),
                            );
                        } else {
                            let joined = prev.head.join(st.head);
                            if joined != prev.head {
                                prev.head = joined;
                                work.push(succ);
                            }
                        }
                    }
                }
            }
        }
    }
}

fn instr_name(i: &Instr) -> &'static str {
    match i {
        Instr::Const(_) => "Const",
        Instr::LocalRef(_) => "LocalRef",
        Instr::LocalSet(_) => "LocalSet",
        Instr::CaptureRef(_) => "CaptureRef",
        Instr::GlobalRef(_) => "GlobalRef",
        Instr::GlobalSet(_) => "GlobalSet",
        Instr::MakeClosure { .. } => "MakeClosure",
        Instr::Jump(_) => "Jump",
        Instr::JumpIfFalse(_) => "JumpIfFalse",
        Instr::Leave(_) => "Leave",
        Instr::Pop => "Pop",
        Instr::Call(_) => "Call",
        Instr::TailCall(_) => "TailCall",
        Instr::CallWithAttachment(_) => "CallWithAttachment",
        Instr::Return => "Return",
        Instr::PrimCall(..) => "PrimCall",
        Instr::PushAttach => "PushAttach",
        Instr::PopAttach => "PopAttach",
        Instr::SetAttach => "SetAttach",
        Instr::ReifySetAttach { .. } => "ReifySetAttach",
        Instr::GetAttachDyn => "GetAttachDyn",
        Instr::ConsumeAttachDyn => "ConsumeAttachDyn",
        Instr::GetAttachPresent => "GetAttachPresent",
        Instr::ConsumeAttachPresent => "ConsumeAttachPresent",
        Instr::CurrentAttachments => "CurrentAttachments",
        Instr::EagerPushFrame => "EagerPushFrame",
        Instr::EagerPopFrame => "EagerPopFrame",
        Instr::EagerMarkSet => "EagerMarkSet",
        Instr::EagerCallShared(_) => "EagerCallShared",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_vm::{PrimOp, Value};
    use std::rc::Rc;

    fn code(instrs: Vec<Instr>) -> Rc<Code> {
        Code::build("t", 0, false, instrs, vec![Value::fixnum(1)], vec![])
    }

    fn expect_kind(c: &Code, model: MarkModel, kind: ViolationKind) {
        let err = verify(c, model).expect_err("expected a violation");
        assert!(
            err.iter().any(|v| v.kind == kind),
            "expected {kind:?}, got: {err:?}"
        );
    }

    #[test]
    fn accepts_minimal_code() {
        let c = code(vec![Instr::Const(0), Instr::Return]);
        verify(&c, MarkModel::Attachments).unwrap();
    }

    #[test]
    fn accepts_balanced_attachment_region() {
        let c = code(vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::CurrentAttachments,
            Instr::PopAttach,
            Instr::Return,
        ]);
        verify(&c, MarkModel::Attachments).unwrap();
    }

    #[test]
    fn rejects_const_out_of_bounds() {
        let c = code(vec![Instr::Const(7), Instr::Return]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::ConstOutOfBounds);
    }

    #[test]
    fn rejects_local_out_of_bounds() {
        let c = code(vec![Instr::LocalRef(3), Instr::Return]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::LocalOutOfBounds);
    }

    #[test]
    fn rejects_jump_out_of_bounds() {
        let c = code(vec![Instr::Const(0), Instr::Jump(99)]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::JumpOutOfBounds);
    }

    #[test]
    fn rejects_stack_underflow() {
        let c = code(vec![Instr::Pop, Instr::Const(0), Instr::Return]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::StackUnderflow);
    }

    #[test]
    fn rejects_return_without_value() {
        let c = code(vec![Instr::Return]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::StackUnderflow);
    }

    #[test]
    fn rejects_falling_off_the_end() {
        let c = code(vec![Instr::Const(0)]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::FallsOffEnd);
    }

    #[test]
    fn rejects_depth_mismatch_at_join() {
        // Branch pushes one extra value on one arm.
        let c = code(vec![
            Instr::Const(0),
            Instr::JumpIfFalse(4),
            Instr::Const(0),
            Instr::Const(0), // then-arm: depth 2 at join
            Instr::Const(0), // join; else-arm arrives with depth 0
            Instr::Return,
        ]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::JoinMismatch);
    }

    #[test]
    fn rejects_unbalanced_push_attach() {
        let c = code(vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::Const(0),
            Instr::Return,
        ]);
        expect_kind(
            &c,
            MarkModel::Attachments,
            ViolationKind::UnbalancedAttachment,
        );
    }

    #[test]
    fn rejects_pop_attach_without_push() {
        let c = code(vec![Instr::PopAttach, Instr::Const(0), Instr::Return]);
        expect_kind(
            &c,
            MarkModel::Attachments,
            ViolationKind::UnbalancedAttachment,
        );
    }

    #[test]
    fn rejects_get_attach_present_without_proof() {
        let c = code(vec![Instr::GetAttachPresent, Instr::Return]);
        expect_kind(
            &c,
            MarkModel::Attachments,
            ViolationKind::AttachmentNotProven,
        );
    }

    #[test]
    fn accepts_get_attach_present_under_push() {
        let c = code(vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::GetAttachPresent,
            Instr::Leave(0),
            Instr::PopAttach,
            Instr::Return,
        ]);
        verify(&c, MarkModel::Attachments).unwrap();
    }

    #[test]
    fn rejects_unproven_fused_reify_set() {
        let c = code(vec![
            Instr::Const(0),
            Instr::ReifySetAttach {
                check_replace: false,
            },
            Instr::Const(0),
            Instr::Return,
        ]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::IllegalFusion);
    }

    #[test]
    fn accepts_fused_reify_set_after_consume() {
        // §7.2: consume proves the attachment absent; the following set
        // may skip the replace check.
        let c = code(vec![
            Instr::Const(0),
            Instr::ConsumeAttachDyn,
            Instr::Pop,
            Instr::Const(0),
            Instr::ReifySetAttach {
                check_replace: false,
            },
            Instr::Const(0),
            Instr::Return,
        ]);
        verify(&c, MarkModel::Attachments).unwrap();
    }

    #[test]
    fn rejects_wrong_mark_model_instructions() {
        let c = code(vec![
            Instr::EagerPushFrame,
            Instr::EagerPopFrame,
            Instr::Const(0),
            Instr::Return,
        ]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::WrongMarkModel);
        // Under the eager model those same instructions are fine...
        verify(&c, MarkModel::EagerMarkStack).unwrap();
        // ...and so are attachment instructions: the marks register
        // coexists with the eager mark stack (§7.1 primitives work in the
        // old-Racket variant too).
        let c = code(vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::PopAttach,
            Instr::Const(0),
            Instr::Return,
        ]);
        verify(&c, MarkModel::EagerMarkStack).unwrap();
    }

    #[test]
    fn rejects_capture_out_of_bounds_in_child() {
        let child = Code::build(
            "child",
            0,
            false,
            vec![Instr::CaptureRef(2), Instr::Return],
            vec![],
            vec![],
        );
        let parent = Code::build(
            "parent",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::MakeClosure {
                    code: 0,
                    captures: 1,
                },
                Instr::Return,
            ],
            vec![Value::fixnum(1)],
            vec![child],
        );
        expect_kind(
            &parent,
            MarkModel::Attachments,
            ViolationKind::CaptureOutOfBounds,
        );
    }

    #[test]
    fn rejects_make_closure_code_index() {
        let c = code(vec![
            Instr::MakeClosure {
                code: 3,
                captures: 0,
            },
            Instr::Return,
        ]);
        expect_kind(
            &c,
            MarkModel::Attachments,
            ViolationKind::CodeIndexOutOfBounds,
        );
    }

    #[test]
    fn rejects_tail_call_leaking_attachment() {
        let c = code(vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::Const(0),
            Instr::Const(0),
            Instr::TailCall(0),
        ]);
        expect_kind(
            &c,
            MarkModel::Attachments,
            ViolationKind::UnbalancedAttachment,
        );
    }

    #[test]
    fn accepts_call_with_attachment_consuming_push() {
        let c = code(vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::Const(0), // rator (stand-in)
            Instr::CallWithAttachment(0),
            Instr::Return,
        ]);
        verify(&c, MarkModel::Attachments).unwrap();
    }

    #[test]
    fn rejects_call_with_attachment_without_proof() {
        let c = code(vec![
            Instr::Const(0),
            Instr::CallWithAttachment(0),
            Instr::Return,
        ]);
        expect_kind(
            &c,
            MarkModel::Attachments,
            ViolationKind::AttachmentNotProven,
        );
    }

    #[test]
    fn loop_with_consistent_state_verifies() {
        // while (#t) {} — an intentional infinite loop is well-formed.
        let c = code(vec![Instr::Const(0), Instr::Pop, Instr::Jump(0)]);
        verify(&c, MarkModel::Attachments).unwrap();
        // Same loop, but the body leaks one stack slot per iteration.
        let c = code(vec![Instr::Const(0), Instr::Jump(0)]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::JoinMismatch);
    }

    #[test]
    fn prim_call_pops_its_arguments() {
        let c = code(vec![
            Instr::Const(0),
            Instr::Const(0),
            Instr::PrimCall(PrimOp::Add, 2),
            Instr::Return,
        ]);
        verify(&c, MarkModel::Attachments).unwrap();
        let c = code(vec![
            Instr::Const(0),
            Instr::PrimCall(PrimOp::Add, 2),
            Instr::Return,
        ]);
        expect_kind(&c, MarkModel::Attachments, ViolationKind::StackUnderflow);
    }
}
