//! Compiled code objects and the instruction set.
//!
//! The machine is a stack machine: each frame owns a region of the value
//! stack starting at its `base`; every expression leaves exactly one value
//! on top. The attachment instructions (`PushAttach` .. `CurrentAttachments`)
//! are the compiled forms of the paper's §7.1 primitives; which one the
//! compiler emits for a given source expression is decided by the §7.2
//! categorization implemented in `cm-compiler`.

use std::fmt;
use std::rc::Rc;

use crate::prims::NativeId;
use crate::values::Value;

/// A machine instruction.
///
/// Jump targets are absolute instruction indices within the enclosing
/// [`Code`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push `consts[i]`.
    Const(u16),
    /// Push the local at `base + i`.
    LocalRef(u16),
    /// Pop into the local at `base + i`.
    LocalSet(u16),
    /// Push the enclosing closure's capture `i`.
    CaptureRef(u16),
    /// Push the global with the given slot id.
    GlobalRef(u32),
    /// Pop into the global slot (defining it if unbound).
    GlobalSet(u32),
    /// Pop `captures` values (first-pushed = capture 0) and push a closure
    /// over `codes[code]`.
    MakeClosure {
        /// Index into [`Code::codes`].
        code: u16,
        /// Number of captured values to pop.
        captures: u16,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump if the popped value is `#f`.
    JumpIfFalse(u32),
    /// Pop the result, drop `n` more values, push the result back
    /// (used to exit `let` scopes).
    Leave(u16),
    /// Drop the top of stack.
    Pop,
    /// Call with `argc` arguments; stack holds `rator arg0 .. argn`.
    Call(u16),
    /// Tail call: replaces the current frame.
    TailCall(u16),
    /// The §7.2 case-(b) call: a call in tail position of a
    /// `with-continuation-mark` body that is itself in non-tail position.
    /// Reifies the continuation with `(cdr marks)` installed in the
    /// underflow record, so the attachment pops when the callee returns.
    CallWithAttachment(u16),
    /// Return the top of stack to the caller (possibly via underflow).
    Return,
    /// Inlined primitive: applies the Pure function of an inline row of
    /// the primitive table to the top `argc` values and replaces them
    /// with the result. The verifier admits only inline rows, with `argc`
    /// inside the row's arity.
    PrimCall(NativeId, u8),
    /// Pop `v`; `marks := (cons v marks)`. Case (c) entry: a conceptual
    /// frame with no function call, handled by direct push/pop.
    PushAttach,
    /// `marks := (cdr marks)`. Case (c) exit.
    PopAttach,
    /// Pop `v`; `marks := (cons v (cdr marks))` — replace the current
    /// frame's statically-known-present attachment.
    SetAttach,
    /// Pop `v`; the §7.2 case-(a) *tail* set: reify the continuation if
    /// needed, then push or replace the current frame's attachment.
    /// `check_replace: false` skips the has-attachment check — the
    /// compiler proves it after a preceding consume (the "consume"+"set"
    /// fusion of §7.2).
    ReifySetAttach {
        /// Whether an existing attachment may need replacing.
        check_replace: bool,
    },
    /// Pop default; push the current frame's attachment if present, else
    /// the default (dynamic tail-position get).
    GetAttachDyn,
    /// Like [`Instr::GetAttachDyn`] but also removes the attachment.
    ConsumeAttachDyn,
    /// Push the head of the marks list (compiler proved an attachment is
    /// present on the current conceptual frame).
    GetAttachPresent,
    /// Push and pop the head of the marks list (proved present).
    ConsumeAttachPresent,
    /// Push the marks register (a Scheme list) as a value.
    CurrentAttachments,
    /// Old-Racket mode: push a fresh mark-stack entry (conceptual frame).
    EagerPushFrame,
    /// Old-Racket mode: pop a mark-stack entry.
    EagerPopFrame,
    /// Old-Racket mode: pop key and value, set in the current mark-stack
    /// entry (replacing the key if present).
    EagerMarkSet,
    /// Old-Racket mode: a call in tail position of a non-tail
    /// `with-continuation-mark` body — the callee *shares* the mark-stack
    /// entry pushed for the mark's conceptual frame (no new entry is
    /// pushed; the callee's return pops the shared entry).
    EagerCallShared(u16),
}

/// A compiled procedure body.
///
/// Build codes with [`Code::build`]: it registers a code whose constant
/// pool holds heap values with the collector, which keeps those constants
/// alive exactly as long as the code.
#[derive(Debug)]
pub struct Code {
    /// Diagnostic name (e.g. the defined name or `lambda`).
    pub name: String,
    /// Number of required arguments.
    pub arity_required: u16,
    /// Whether extra arguments are collected into a rest list.
    pub rest: bool,
    /// The instruction sequence.
    pub instrs: Vec<Instr>,
    /// The constant pool.
    pub consts: Vec<Value>,
    /// Child code objects referenced by [`Instr::MakeClosure`].
    pub codes: Vec<Rc<Code>>,
}

impl Code {
    /// Builds a shared code object (the compiler, the snapshot decoder
    /// and tests all build codes here). A code with heap constants joins
    /// the collector's weak code registry, so its constants stay live
    /// while any `Rc` holds the code and become garbage once none does.
    pub fn build(
        name: impl Into<String>,
        arity_required: u16,
        rest: bool,
        instrs: Vec<Instr>,
        consts: Vec<Value>,
        codes: Vec<Rc<Code>>,
    ) -> Rc<Code> {
        let code = Rc::new(Code {
            name: name.into(),
            arity_required,
            rest,
            instrs,
            consts,
            codes,
        });
        if code.consts.iter().any(Value::is_heap) {
            crate::heap::register_code(&code);
        }
        code
    }

    /// Renders a human-readable disassembly (one instruction per line
    /// with its offset, mnemonic, and named operands), recursing into
    /// child code objects.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        self.disassemble_into(&mut out, 0);
        out
    }

    /// Renders one instruction with named operands, resolving constant
    /// and child-code references against this code object.
    pub fn render_instr(&self, instr: &Instr) -> String {
        use Instr::*;
        match instr {
            Const(i) => match self.consts.get(*i as usize) {
                Some(v) => format!("const        {i}  ; {}", v.write_string()),
                None => format!("const        {i}  ; <out of bounds>"),
            },
            LocalRef(i) => format!("local-ref    {i}"),
            LocalSet(i) => format!("local-set!   {i}"),
            CaptureRef(i) => format!("capture-ref  {i}"),
            GlobalRef(id) => format!("global-ref   {id}"),
            GlobalSet(id) => format!("global-set!  {id}"),
            MakeClosure { code, captures } => {
                let name = self
                    .codes
                    .get(*code as usize)
                    .map_or("<out of bounds>", |c| c.name.as_str());
                format!("make-closure code={code} captures={captures}  ; {name}")
            }
            Jump(t) => format!("jump         -> {t}"),
            JumpIfFalse(t) => format!("jump-if-#f   -> {t}"),
            Leave(n) => format!("leave        {n}"),
            Pop => "pop".to_owned(),
            Call(n) => format!("call         argc={n}"),
            TailCall(n) => format!("tail-call    argc={n}"),
            CallWithAttachment(n) => format!("call/attach  argc={n}"),
            Return => "return".to_owned(),
            PrimCall(op, n) => format!("prim         {} argc={n}", op.name()),
            PushAttach => "push-attach".to_owned(),
            PopAttach => "pop-attach".to_owned(),
            SetAttach => "set-attach".to_owned(),
            ReifySetAttach { check_replace } => {
                format!("reify-set-attach check-replace={check_replace}")
            }
            GetAttachDyn => "get-attach-dyn".to_owned(),
            ConsumeAttachDyn => "consume-attach-dyn".to_owned(),
            GetAttachPresent => "get-attach-present".to_owned(),
            ConsumeAttachPresent => "consume-attach-present".to_owned(),
            CurrentAttachments => "current-attachments".to_owned(),
            EagerPushFrame => "eager-push-frame".to_owned(),
            EagerPopFrame => "eager-pop-frame".to_owned(),
            EagerMarkSet => "eager-mark-set".to_owned(),
            EagerCallShared(n) => format!("eager-call-shared argc={n}"),
        }
    }

    fn disassemble_into(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let _ = writeln!(
            out,
            "{pad}code {} (args {}{}):",
            self.name,
            self.arity_required,
            if self.rest { "+" } else { "" }
        );
        for (i, instr) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "{pad}  {i:4}: {}", self.render_instr(instr));
        }
        for child in &self.codes {
            child.disassemble_into(out, indent + 1);
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_names_cover_all_ops() {
        let code = Code::build(
            "t",
            0,
            false,
            vec![Instr::PrimCall(NativeId::named("vector-set!"), 3)],
            vec![],
            vec![],
        );
        assert!(code
            .disassemble()
            .contains("prim         vector-set! argc=3"));
    }

    #[test]
    fn disassembly_mentions_instructions() {
        let code = Code::build(
            "t",
            1,
            false,
            vec![Instr::LocalRef(0), Instr::Return],
            vec![],
            vec![],
        );
        let d = code.disassemble();
        assert!(d.contains("local-ref    0"));
        assert!(d.contains("return"));
        assert!(d.contains("code t"));
    }
}
