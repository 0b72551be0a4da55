//! Bytecode generation, including the §7.2 categorization of attachment
//! operations by position:
//!
//! * **tail position** → `ReifySetAttach` / dynamic get/consume (the
//!   machine checks for a reified continuation),
//! * **non-tail, tail call in the body** → `PushAttach` + the call becomes
//!   [`Instr::CallWithAttachment`] so the attachment pops via underflow,
//! * **non-tail, no tail call** → direct `PushAttach`/`PopAttach` with the
//!   presence of attachments resolved statically.
//!
//! The "consume"-then-"set" sequence produced by `with-continuation-mark`
//! compiles the set with `check_replace: false` (the paper's fused fast
//! path), and recognized primitives in attachment bodies avoid reification
//! entirely unless the "no prim" ablation is active.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use cm_vm::{Code, Globals, Instr, Value};

use crate::ast::{Expr, LambdaExpr, TopForm, VarId};
use crate::CompilerConfig;

/// Static knowledge about the current conceptual frame's attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Att {
    /// Unknown — must be checked dynamically (function entry).
    Dynamic,
    /// Proven absent.
    Absent,
    /// Proven present (head of the marks register).
    Present,
}

/// Where an expression's value goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// Tail position of the enclosing function.
    Tail(Att),
    /// Ordinary value position: leave the value on the stack.
    NonTail,
    /// Tail position of a non-tail `with-continuation-mark` body: leave
    /// the value, ensuring the outstanding attachment (if `Present`) is
    /// popped on every exit path.
    WcmBody(Att),
    /// Eager model: tail position of a non-tail mark body whose
    /// conceptual frame's mark-stack entry is outstanding — tail calls
    /// share the entry ([`Instr::EagerCallShared`]); other exits pop it.
    EagerWcmBody,
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Slot(u16),
    Capture(u16),
}

/// Generates the top-level code object for a program.
pub fn gen_program(
    forms: &[TopForm],
    globals: &Rc<RefCell<Globals>>,
    cfg: &CompilerConfig,
) -> Rc<Code> {
    let mut g = FnGen::new(cfg, globals, "main");
    let n = forms.len();
    for (i, form) in forms.iter().enumerate() {
        let last = i + 1 == n;
        match form {
            TopForm::Define(name, e) => {
                g.compile(e, Ctx::NonTail);
                let id = globals.borrow_mut().intern(*name);
                g.emit(Instr::GlobalSet(id), -1);
                if last {
                    g.konst(Value::Void);
                    g.emit(Instr::Return, -1);
                }
            }
            TopForm::Expr(e) => {
                if last {
                    g.compile(e, Ctx::Tail(Att::Dynamic));
                } else {
                    g.compile(e, Ctx::NonTail);
                    g.emit(Instr::Pop, -1);
                }
            }
        }
    }
    if forms.is_empty() {
        g.konst(Value::Void);
        g.emit(Instr::Return, -1);
    }
    g.finish(0, false)
}

struct FnGen<'a> {
    cfg: &'a CompilerConfig,
    globals: &'a Rc<RefCell<Globals>>,
    name: String,
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    codes: Vec<Rc<Code>>,
    env: HashMap<VarId, Binding>,
    depth: i32,
}

impl<'a> FnGen<'a> {
    fn new(cfg: &'a CompilerConfig, globals: &'a Rc<RefCell<Globals>>, name: &str) -> FnGen<'a> {
        FnGen {
            cfg,
            globals,
            name: name.to_owned(),
            instrs: Vec::new(),
            consts: Vec::new(),
            codes: Vec::new(),
            env: HashMap::new(),
            depth: 0,
        }
    }

    fn finish(self, arity: u16, rest: bool) -> Rc<Code> {
        Code::build(self.name, arity, rest, self.instrs, self.consts, self.codes)
    }

    fn emit(&mut self, i: Instr, depth_delta: i32) {
        self.instrs.push(i);
        self.depth += depth_delta;
        debug_assert!(self.depth >= 0, "stack depth underflow in codegen");
    }

    fn konst(&mut self, v: Value) {
        let idx = u16::try_from(self.consts.len()).expect("constant pool overflow");
        self.consts.push(v);
        self.emit(Instr::Const(idx), 1);
    }

    fn global_id(&mut self, s: cm_sexpr::Sym) -> u32 {
        self.globals.borrow_mut().intern(s)
    }

    fn here(&self) -> usize {
        self.instrs.len()
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.instrs.len() as u32;
        match &mut self.instrs[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emits the context epilogue after a value-producing terminal.
    fn finish_value(&mut self, ctx: Ctx) {
        match ctx {
            Ctx::Tail(_) => self.emit(Instr::Return, -1),
            Ctx::WcmBody(Att::Present) => self.emit(Instr::PopAttach, 0),
            Ctx::EagerWcmBody => self.emit(Instr::EagerPopFrame, 0),
            _ => {}
        }
    }

    fn compile(&mut self, e: &Expr, ctx: Ctx) {
        match e {
            Expr::Quote(v) => {
                self.konst(*v);
                self.finish_value(ctx);
            }
            Expr::LocalRef(v) => {
                match self.env[v] {
                    Binding::Slot(i) => self.emit(Instr::LocalRef(i), 1),
                    Binding::Capture(i) => self.emit(Instr::CaptureRef(i), 1),
                }
                self.finish_value(ctx);
            }
            Expr::GlobalRef(s) => {
                let id = self.global_id(*s);
                self.emit(Instr::GlobalRef(id), 1);
                self.finish_value(ctx);
            }
            Expr::CurrentAttachments => {
                self.emit(Instr::CurrentAttachments, 1);
                self.finish_value(ctx);
            }
            Expr::If(t, c, a) => {
                self.compile(t, Ctx::NonTail);
                let j_else = self.here();
                self.emit(Instr::JumpIfFalse(0), -1);
                let depth0 = self.depth;
                self.compile(c, ctx);
                let j_end = if matches!(ctx, Ctx::Tail(_)) {
                    None
                } else {
                    let j = self.here();
                    self.emit(Instr::Jump(0), 0);
                    Some(j)
                };
                self.patch_jump(j_else);
                self.depth = depth0;
                self.compile(a, ctx);
                if let Some(j) = j_end {
                    // Both arms leave one value; keep the post-then depth.
                    self.patch_jump(j);
                }
            }
            Expr::Seq(es) => {
                let (last, init) = es.split_last().expect("Seq is nonempty");
                for x in init {
                    self.compile(x, Ctx::NonTail);
                    self.emit(Instr::Pop, -1);
                }
                self.compile(last, ctx);
            }
            Expr::Let { bindings, body } => {
                let n = bindings.len();
                for (v, init) in bindings {
                    let slot = u16::try_from(self.depth).expect("too many locals");
                    self.compile(init, Ctx::NonTail);
                    self.env.insert(*v, Binding::Slot(slot));
                }
                self.compile(body, ctx);
                if !matches!(ctx, Ctx::Tail(_)) && n > 0 {
                    self.emit(Instr::Leave(n as u16), -(n as i32));
                }
            }
            Expr::Lambda(l) => {
                self.compile_lambda(l);
                self.finish_value(ctx);
            }
            Expr::SetLocal(v, rhs) => {
                self.compile(rhs, Ctx::NonTail);
                match self.env[v] {
                    Binding::Slot(i) => self.emit(Instr::LocalSet(i), -1),
                    Binding::Capture(_) => {
                        unreachable!("assignment conversion leaves no captured set!")
                    }
                }
                self.konst(Value::Void);
                self.finish_value(ctx);
            }
            Expr::SetGlobal(s, rhs) => {
                self.compile(rhs, Ctx::NonTail);
                let id = self.global_id(*s);
                self.emit(Instr::GlobalSet(id), -1);
                self.konst(Value::Void);
                self.finish_value(ctx);
            }
            Expr::Call { rator, rands } => {
                self.compile(rator, Ctx::NonTail);
                for r in rands {
                    self.compile(r, Ctx::NonTail);
                }
                let n = rands.len() as u16;
                match ctx {
                    Ctx::Tail(_) => self.emit(Instr::TailCall(n), -(n as i32) - 1 + 1),
                    Ctx::NonTail | Ctx::WcmBody(Att::Absent) => {
                        self.emit(Instr::Call(n), -(n as i32) - 1 + 1)
                    }
                    Ctx::WcmBody(_) => {
                        // §7.2 case (b): the attachment pops via underflow
                        // when this call returns.
                        self.emit(Instr::CallWithAttachment(n), -(n as i32) - 1 + 1)
                    }
                    Ctx::EagerWcmBody => {
                        // Old-Racket model: callee shares the mark frame.
                        self.emit(Instr::EagerCallShared(n), -(n as i32) - 1 + 1)
                    }
                }
            }
            Expr::PrimApp { op, rands } => {
                let needs_generic_call =
                    matches!(ctx, Ctx::WcmBody(Att::Present)) && !self.cfg.prim_attachment_opt;
                if needs_generic_call {
                    // "no prim" ablation: the compiler may not assume the
                    // primitive leaves attachments alone, so it compiles a
                    // generic (reifying) call to the primitive's global.
                    let id = self.global_id(cm_sexpr::sym(op.name()));
                    self.emit(Instr::GlobalRef(id), 1);
                    for r in rands {
                        self.compile(r, Ctx::NonTail);
                    }
                    let n = rands.len() as u16;
                    self.emit(Instr::CallWithAttachment(n), -(n as i32) - 1 + 1);
                } else {
                    for r in rands {
                        self.compile(r, Ctx::NonTail);
                    }
                    let n = rands.len() as i32;
                    self.emit(Instr::PrimCall(*op, rands.len() as u8), -n + 1);
                    self.finish_value(ctx);
                }
            }
            Expr::Wcm { key, val, body } => self.compile_eager_wcm(key, val, body, ctx),
            Expr::SetAttachment { .. } | Expr::GetAttachment { .. } if ctx == Ctx::EagerWcmBody => {
                // Mixing raw attachment operations into an eager-model
                // mark body: evaluate as a plain value, then pop the
                // conceptual frame's entry.
                self.compile(e, Ctx::NonTail);
                self.emit(Instr::EagerPopFrame, 0);
            }
            Expr::SetAttachment { val, body } => {
                self.compile(val, Ctx::NonTail);
                match ctx {
                    Ctx::Tail(att) => {
                        // §7.2 case (a).
                        self.emit(
                            Instr::ReifySetAttach {
                                check_replace: att != Att::Absent,
                            },
                            -1,
                        );
                        self.compile(body, Ctx::Tail(Att::Present));
                    }
                    Ctx::NonTail => {
                        self.emit(Instr::PushAttach, -1);
                        self.compile(body, Ctx::WcmBody(Att::Present));
                    }
                    Ctx::WcmBody(att) => {
                        match att {
                            Att::Present => self.emit(Instr::SetAttach, -1),
                            _ => self.emit(Instr::PushAttach, -1),
                        }
                        self.compile(body, Ctx::WcmBody(Att::Present));
                    }
                    Ctx::EagerWcmBody => unreachable!("handled by the guard arm above"),
                }
            }
            Expr::GetAttachment {
                dflt,
                var,
                body,
                consume,
            } => self.compile_get_attachment(dflt, *var, body, *consume, ctx),
        }
    }

    fn compile_get_attachment(
        &mut self,
        dflt: &Expr,
        var: VarId,
        body: &Expr,
        consume: bool,
        ctx: Ctx,
    ) {
        // Decide how the attachment value is obtained.
        let att = match ctx {
            Ctx::Tail(a) => a,
            Ctx::NonTail | Ctx::EagerWcmBody => Att::Absent,
            Ctx::WcmBody(a) => a,
        };
        let slot = u16::try_from(self.depth).expect("too many locals");
        match att {
            Att::Dynamic => {
                self.compile(dflt, Ctx::NonTail);
                self.emit(
                    if consume {
                        Instr::ConsumeAttachDyn
                    } else {
                        Instr::GetAttachDyn
                    },
                    0,
                );
            }
            Att::Present => {
                // The default is dead; evaluate it only for effect.
                if !dflt.is_pure() {
                    self.compile(dflt, Ctx::NonTail);
                    self.emit(Instr::Pop, -1);
                }
                self.emit(
                    if consume {
                        Instr::ConsumeAttachPresent
                    } else {
                        Instr::GetAttachPresent
                    },
                    1,
                );
            }
            Att::Absent => {
                self.compile(dflt, Ctx::NonTail);
            }
        }
        self.env.insert(var, Binding::Slot(slot));
        // Attachment knowledge for the body.
        let body_att = match att {
            Att::Dynamic => {
                if consume {
                    Att::Absent
                } else {
                    Att::Dynamic
                }
            }
            Att::Present => {
                if consume {
                    Att::Absent
                } else {
                    Att::Present
                }
            }
            Att::Absent => Att::Absent,
        };
        let body_ctx = match ctx {
            Ctx::Tail(_) => Ctx::Tail(body_att),
            Ctx::NonTail | Ctx::EagerWcmBody => Ctx::NonTail,
            Ctx::WcmBody(_) => Ctx::WcmBody(body_att),
        };
        self.compile(body, body_ctx);
        if !matches!(ctx, Ctx::Tail(_)) {
            self.emit(Instr::Leave(1), -1);
        }
    }

    /// `with-continuation-mark` in the eager (old Racket) model: write
    /// into the current mark-stack entry; non-tail uses get a conceptual
    /// frame entry of their own.
    fn compile_eager_wcm(&mut self, key: &Expr, val: &Expr, body: &Expr, ctx: Ctx) {
        debug_assert!(
            self.cfg.eager_marks(),
            "Wcm nodes reach codegen only in the eager model"
        );
        match ctx {
            Ctx::Tail(att) => {
                self.compile(key, Ctx::NonTail);
                self.compile(val, Ctx::NonTail);
                self.emit(Instr::EagerMarkSet, -2);
                self.compile(body, Ctx::Tail(att));
            }
            Ctx::EagerWcmBody => {
                // Nested mark in tail position of an eager mark body:
                // same conceptual frame, so write into the existing entry.
                self.compile(key, Ctx::NonTail);
                self.compile(val, Ctx::NonTail);
                self.emit(Instr::EagerMarkSet, -2);
                self.compile(body, Ctx::EagerWcmBody);
            }
            Ctx::NonTail | Ctx::WcmBody(_) => {
                self.emit(Instr::EagerPushFrame, 0);
                self.compile(key, Ctx::NonTail);
                self.compile(val, Ctx::NonTail);
                self.emit(Instr::EagerMarkSet, -2);
                self.compile(body, Ctx::EagerWcmBody);
                // The body's exits popped the entry; apply any outer
                // attachment epilogue.
                self.finish_value(ctx);
            }
        }
    }

    fn compile_lambda(&mut self, l: &Rc<LambdaExpr>) {
        let frees = free_vars(l);
        for v in &frees {
            match self.env[v] {
                Binding::Slot(i) => self.emit(Instr::LocalRef(i), 1),
                Binding::Capture(i) => self.emit(Instr::CaptureRef(i), 1),
            }
        }
        let mut child = FnGen::new(self.cfg, self.globals, &l.name);
        for (i, p) in l.params.iter().enumerate() {
            child.env.insert(*p, Binding::Slot(i as u16));
        }
        let mut arity = l.params.len();
        if let Some(r) = l.rest {
            child.env.insert(r, Binding::Slot(arity as u16));
            arity += 1;
        }
        child.depth = arity as i32;
        for (i, v) in frees.iter().enumerate() {
            child.env.insert(*v, Binding::Capture(i as u16));
        }
        child.compile(&l.body, Ctx::Tail(Att::Dynamic));
        let code = child.finish(l.params.len() as u16, l.rest.is_some());
        let code_idx = u16::try_from(self.codes.len()).expect("too many child codes");
        self.codes.push(code);
        let n = frees.len() as i32;
        self.emit(
            Instr::MakeClosure {
                code: code_idx,
                captures: frees.len() as u16,
            },
            -n + 1,
        );
    }
}

/// The free variables of a lambda, in first-use order.
fn free_vars(l: &LambdaExpr) -> Vec<VarId> {
    let mut bound: HashSet<VarId> = l.params.iter().copied().collect();
    bound.extend(l.rest);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    collect_free(&l.body, &mut bound, &mut seen, &mut out);
    out
}

fn collect_free(
    e: &Expr,
    bound: &mut HashSet<VarId>,
    seen: &mut HashSet<VarId>,
    out: &mut Vec<VarId>,
) {
    match e {
        Expr::LocalRef(v) => {
            if !bound.contains(v) && seen.insert(*v) {
                out.push(*v);
            }
        }
        Expr::SetLocal(v, rhs) => {
            if !bound.contains(v) && seen.insert(*v) {
                out.push(*v);
            }
            collect_free(rhs, bound, seen, out);
        }
        Expr::Quote(_) | Expr::GlobalRef(_) | Expr::CurrentAttachments => {}
        Expr::If(a, b, c) => {
            collect_free(a, bound, seen, out);
            collect_free(b, bound, seen, out);
            collect_free(c, bound, seen, out);
        }
        Expr::Seq(es) => es.iter().for_each(|x| collect_free(x, bound, seen, out)),
        Expr::Let { bindings, body } => {
            for (_, init) in bindings {
                collect_free(init, bound, seen, out);
            }
            let added: Vec<VarId> = bindings
                .iter()
                .map(|(v, _)| *v)
                .filter(|v| bound.insert(*v))
                .collect();
            collect_free(body, bound, seen, out);
            for v in added {
                bound.remove(&v);
            }
        }
        Expr::Lambda(l) => {
            let added: Vec<VarId> = l
                .params
                .iter()
                .copied()
                .chain(l.rest)
                .filter(|v| bound.insert(*v))
                .collect();
            collect_free(&l.body, bound, seen, out);
            for v in added {
                bound.remove(&v);
            }
        }
        Expr::SetGlobal(_, rhs) => collect_free(rhs, bound, seen, out),
        Expr::Call { rator, rands } => {
            collect_free(rator, bound, seen, out);
            rands.iter().for_each(|x| collect_free(x, bound, seen, out));
        }
        Expr::PrimApp { rands, .. } => rands.iter().for_each(|x| collect_free(x, bound, seen, out)),
        Expr::Wcm { key, val, body } => {
            collect_free(key, bound, seen, out);
            collect_free(val, bound, seen, out);
            collect_free(body, bound, seen, out);
        }
        Expr::SetAttachment { val, body } => {
            collect_free(val, bound, seen, out);
            collect_free(body, bound, seen, out);
        }
        Expr::GetAttachment {
            dflt, var, body, ..
        } => {
            collect_free(dflt, bound, seen, out);
            let added = bound.insert(*var);
            collect_free(body, bound, seen, out);
            if added {
                bound.remove(var);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TopForm;
    use cm_sexpr::parse_str;

    fn gen(src: &str, cfg: &CompilerConfig) -> Rc<Code> {
        let data = parse_str(src).unwrap();
        let mut ex = crate::expand::Expander::new();
        let forms = ex.expand_program(&data).unwrap();
        let user = crate::cp0::user_defined_names(&forms);
        let mut vars = crate::lower::VarSupply::starting_at(100_000);
        let forms: Vec<TopForm> = forms
            .into_iter()
            .map(|f| match f {
                TopForm::Define(n, e) => TopForm::Define(
                    n,
                    crate::lower::lower(
                        crate::cp0::optimize(
                            crate::cp0::recognize_prims(e, &user),
                            &crate::cp0::Cp0Options::default(),
                        ),
                        cfg,
                        &mut vars,
                    ),
                ),
                TopForm::Expr(e) => TopForm::Expr(crate::lower::lower(
                    crate::cp0::optimize(
                        crate::cp0::recognize_prims(e, &user),
                        &crate::cp0::Cp0Options::default(),
                    ),
                    cfg,
                    &mut vars,
                )),
            })
            .collect();
        let globals = Rc::new(RefCell::new(Globals::new()));
        gen_program(&forms, &globals, cfg)
    }

    fn instrs_of(code: &Code) -> String {
        code.disassemble()
    }

    #[test]
    fn tail_wcm_uses_reify_set() {
        let code = gen(
            "(define (f) (with-continuation-mark 'k 1 (g)))",
            &CompilerConfig::default(),
        );
        let d = instrs_of(&code);
        assert!(d.contains("reify-set-attach"), "{d}");
        // The consume/set fusion: the set skips the replace check.
        assert!(d.contains("check-replace=false"), "{d}");
        assert!(d.contains("tail-call"), "{d}");
    }

    #[test]
    fn nontail_wcm_with_tail_call_uses_call_with_attachment() {
        let code = gen(
            "(define (f) (+ 1 (with-continuation-mark 'k 1 (g))))",
            &CompilerConfig::default(),
        );
        let d = instrs_of(&code);
        assert!(d.contains("call/attach"), "{d}");
        assert!(d.contains("push-attach"), "{d}");
    }

    #[test]
    fn nontail_wcm_over_prim_body_uses_direct_push_pop() {
        // §7.2's third category: no reification at all.
        let code = gen(
            "(define (f x) (+ 1 (with-continuation-mark 'k 1 (+ x 2))))",
            &CompilerConfig::default(),
        );
        let d = instrs_of(&code);
        assert!(d.contains("push-attach"), "{d}");
        assert!(d.contains("pop-attach"), "{d}");
        assert!(!d.contains("call/attach"), "{d}");
        assert!(!d.contains("reify-set-attach"), "{d}");
    }

    #[test]
    fn no_prim_ablation_reifies_around_prims() {
        let cfg = CompilerConfig {
            prim_attachment_opt: false,
            ..CompilerConfig::default()
        };
        let code = gen(
            "(define (f x) (+ 1 (with-continuation-mark 'k 1 (+ x 2))))",
            &cfg,
        );
        let d = instrs_of(&code);
        assert!(d.contains("call/attach"), "{d}");
    }

    #[test]
    fn no_opt_ablation_compiles_plain_calls() {
        let cfg = CompilerConfig {
            attachment_opt: false,
            ..CompilerConfig::default()
        };
        let code = gen("(define (f) (with-continuation-mark 'k 1 (g)))", &cfg);
        let d = instrs_of(&code);
        assert!(!d.contains("reify-set-attach"), "{d}");
        assert!(!d.contains("push-attach"), "{d}");
        assert!(d.contains("make-closure"), "{d}");
    }

    #[test]
    fn eager_model_emits_mark_stack_instrs() {
        let cfg = CompilerConfig {
            mark_model: cm_vm::MarkModel::EagerMarkStack,
            ..CompilerConfig::default()
        };
        let code = gen("(define (f) (with-continuation-mark 'k 1 (g)))", &cfg);
        let d = instrs_of(&code);
        assert!(d.contains("eager-mark-set"), "{d}");
        assert!(!d.contains("reify-set-attach"), "{d}");
        let code = gen("(define (f) (+ 1 (with-continuation-mark 'k 1 (g))))", &cfg);
        let d = instrs_of(&code);
        assert!(d.contains("eager-push-frame"), "{d}");
        // The tail call in the body shares the conceptual frame's entry.
        assert!(d.contains("eager-call-shared"), "{d}");
        // A non-call body pops the entry explicitly.
        let code = gen(
            "(define (f x) (+ 1 (with-continuation-mark 'k 1 (+ x 1))))",
            &cfg,
        );
        let d = instrs_of(&code);
        assert!(d.contains("eager-pop-frame"), "{d}");
    }

    #[test]
    fn closures_capture_free_variables() {
        let code = gen(
            "(define (f x) (lambda (y) (+ x y)))",
            &CompilerConfig::default(),
        );
        let d = instrs_of(&code);
        assert!(d.contains("make-closure code=0 captures=1"), "{d}");
        assert!(d.contains("capture-ref"), "{d}");
    }

    #[test]
    fn tail_calls_are_tail_calls() {
        let code = gen(
            "(define (loop i) (loop (+ i 1)))",
            &CompilerConfig::default(),
        );
        let d = instrs_of(&code);
        assert!(d.contains("tail-call"), "{d}");
    }

    #[test]
    fn let_compiles_with_leave() {
        let code = gen(
            "(define (f) (car (let ([x (g)]) (cons x x))))",
            &CompilerConfig::default(),
        );
        let d = instrs_of(&code);
        assert!(d.contains("leave"), "{d}");
    }
}
