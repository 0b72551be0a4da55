//! The core intermediate representation.
//!
//! The expander lowers surface syntax into this small language; every later
//! pass (cp0, attachment recognition, codegen) is `Expr` → `Expr` or
//! `Expr` → bytecode. Variables are alpha-renamed to unique [`VarId`]s by
//! the expander, so passes never worry about shadowing.

use std::fmt;
use std::rc::Rc;

use cm_sexpr::Sym;
use cm_vm::{Cp0Rule, NativeId, PrimClass, Value};

/// A unique local-variable id assigned by the expander.
pub type VarId = u32;

/// A core-language expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A literal value.
    Quote(Value),
    /// Reference to a local (lexical) variable.
    LocalRef(VarId),
    /// Reference to a global variable.
    GlobalRef(Sym),
    /// Two- or three-armed conditional (the else arm defaults to void).
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Sequencing; value of the last expression.
    Seq(Vec<Expr>),
    /// Parallel `let`.
    Let {
        /// The bindings, evaluated left to right.
        bindings: Vec<(VarId, Expr)>,
        /// Body, in tail position.
        body: Box<Expr>,
    },
    /// A procedure.
    Lambda(Rc<LambdaExpr>),
    /// Local assignment (eliminated by assignment conversion).
    SetLocal(VarId, Box<Expr>),
    /// Global assignment / definition.
    SetGlobal(Sym, Box<Expr>),
    /// Procedure call.
    Call {
        /// Operator.
        rator: Box<Expr>,
        /// Operands.
        rands: Vec<Expr>,
    },
    /// A recognized primitive application (inlined by codegen).
    PrimApp {
        /// The primitive: an inline row of the primitive table.
        op: NativeId,
        /// Operands.
        rands: Vec<Expr>,
    },
    /// `with-continuation-mark` before lowering (a special form so the
    /// compiler can apply §7.2/§7.3 before committing to a representation).
    Wcm {
        /// Mark key.
        key: Box<Expr>,
        /// Mark value.
        val: Box<Expr>,
        /// Body, in tail position.
        body: Box<Expr>,
    },
    /// Recognized `call-setting-continuation-attachment` with an immediate
    /// thunk: evaluate `val`, attach it, run `body` in tail position.
    SetAttachment {
        /// The attachment value.
        val: Box<Expr>,
        /// The (inlined) thunk body.
        body: Box<Expr>,
    },
    /// Recognized `call-getting/-consuming-continuation-attachment` with an
    /// immediate one-argument lambda.
    GetAttachment {
        /// Default when no attachment is present.
        dflt: Box<Expr>,
        /// The lambda's parameter, bound to the attachment (or default).
        var: VarId,
        /// The (inlined) lambda body.
        body: Box<Expr>,
        /// Whether to also remove the attachment.
        consume: bool,
    },
    /// Recognized `current-continuation-attachments` — reads the marks
    /// register.
    CurrentAttachments,
}

/// A lambda's pieces.
#[derive(Debug, Clone)]
pub struct LambdaExpr {
    /// Diagnostic name.
    pub name: String,
    /// Required parameters.
    pub params: Vec<VarId>,
    /// Rest parameter, if variadic.
    pub rest: Option<VarId>,
    /// Body, in tail position.
    pub body: Expr,
}

/// A top-level program form.
#[derive(Debug, Clone)]
pub enum TopForm {
    /// `(define name expr)`.
    Define(Sym, Expr),
    /// A top-level expression.
    Expr(Expr),
}

impl Expr {
    /// Shorthand for a void constant.
    pub fn void() -> Expr {
        Expr::Quote(Value::Void)
    }

    /// Whether evaluating this expression can have side effects, capture
    /// control, or diverge. Conservative: `false` means provably pure.
    pub fn is_pure(&self) -> bool {
        match self {
            Expr::Quote(_) | Expr::LocalRef(_) | Expr::Lambda(_) | Expr::CurrentAttachments => true,
            // A global read can fault on unbound variables; still treat it
            // as pure for dead-code purposes (matching cp0's behavior of
            // assuming bound globals).
            Expr::GlobalRef(_) => true,
            Expr::If(t, c, a) => t.is_pure() && c.is_pure() && a.is_pure(),
            Expr::Seq(es) => es.iter().all(Expr::is_pure),
            Expr::Let { bindings, body } => {
                bindings.iter().all(|(_, e)| e.is_pure()) && body.is_pure()
            }
            Expr::PrimApp { op, rands } => {
                matches!(
                    op.def().class,
                    PrimClass::Inline(Cp0Rule::Fold | Cp0Rule::Drop)
                ) && rands.iter().all(Expr::is_pure)
            }
            _ => false,
        }
    }

    /// §7.4: whether this expression is *attachment-transparent* — no
    /// observer could distinguish an extra continuation frame around it.
    /// Conservative. Calls are opaque (the callee might inspect its
    /// immediate attachment); attachment operations are opaque by
    /// definition; recognized primitives defer to their row's class in
    /// the primitive table, which the mark-flow analysis also reads.
    pub fn attachment_transparent(&self) -> bool {
        match self {
            Expr::Quote(_) | Expr::LocalRef(_) | Expr::GlobalRef(_) | Expr::Lambda(_) => true,
            Expr::If(t, c, a) => {
                t.attachment_transparent()
                    && c.attachment_transparent()
                    && a.attachment_transparent()
            }
            Expr::Seq(es) => es.iter().all(Expr::attachment_transparent),
            Expr::Let { bindings, body } => {
                bindings.iter().all(|(_, e)| e.attachment_transparent())
                    && body.attachment_transparent()
            }
            Expr::SetLocal(_, e) | Expr::SetGlobal(_, e) => e.attachment_transparent(),
            Expr::PrimApp { op, rands } => {
                !op.def().observes_marks() && rands.iter().all(Expr::attachment_transparent)
            }
            Expr::Call { .. }
            | Expr::Wcm { .. }
            | Expr::SetAttachment { .. }
            | Expr::GetAttachment { .. }
            | Expr::CurrentAttachments => false,
        }
    }

    /// Counts the references to local `v` (for inlining decisions).
    pub fn count_refs(&self, v: VarId) -> usize {
        let mut n = 0;
        self.walk(&mut |e| {
            if let Expr::LocalRef(x) = e {
                if *x == v {
                    n += 1;
                }
            }
        });
        n
    }

    /// Whether local `v` is ever assigned.
    pub fn mutates(&self, v: VarId) -> bool {
        let mut hit = false;
        self.walk(&mut |e| {
            if let Expr::SetLocal(x, _) = e {
                if *x == v {
                    hit = true;
                }
            }
        });
        hit
    }

    /// Pre-order traversal over this expression and all subexpressions,
    /// including lambda bodies.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Quote(_) | Expr::LocalRef(_) | Expr::GlobalRef(_) | Expr::CurrentAttachments => {}
            Expr::If(a, b, c) => {
                a.walk(f);
                b.walk(f);
                c.walk(f);
            }
            Expr::Seq(es) => es.iter().for_each(|e| e.walk(f)),
            Expr::Let { bindings, body } => {
                bindings.iter().for_each(|(_, e)| e.walk(f));
                body.walk(f);
            }
            Expr::Lambda(l) => l.body.walk(f),
            Expr::SetLocal(_, e) | Expr::SetGlobal(_, e) => e.walk(f),
            Expr::Call { rator, rands } => {
                rator.walk(f);
                rands.iter().for_each(|e| e.walk(f));
            }
            Expr::PrimApp { rands, .. } => rands.iter().for_each(|e| e.walk(f)),
            Expr::Wcm { key, val, body } => {
                key.walk(f);
                val.walk(f);
                body.walk(f);
            }
            Expr::SetAttachment { val, body } => {
                val.walk(f);
                body.walk(f);
            }
            Expr::GetAttachment { dflt, body, .. } => {
                dflt.walk(f);
                body.walk(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purity_of_leaves() {
        assert!(Expr::Quote(Value::fixnum(1)).is_pure());
        assert!(Expr::LocalRef(0).is_pure());
        assert!(!Expr::Call {
            rator: Box::new(Expr::GlobalRef(cm_sexpr::sym("f"))),
            rands: vec![]
        }
        .is_pure());
    }

    #[test]
    fn prim_purity() {
        let app = |name| Expr::PrimApp {
            op: NativeId::named(name),
            rands: vec![Expr::Quote(Value::fixnum(1))],
        };
        assert!(app("car").is_pure());
        assert!(app("box").is_pure());
        assert!(!app("set-box!").is_pure());
    }

    #[test]
    fn transparency_blocks_on_calls_and_attachments() {
        let call = Expr::Call {
            rator: Box::new(Expr::GlobalRef(cm_sexpr::sym("f"))),
            rands: vec![],
        };
        assert!(!call.attachment_transparent());
        let prim = Expr::PrimApp {
            op: NativeId::named("+"),
            rands: vec![Expr::Quote(Value::fixnum(1))],
        };
        assert!(prim.attachment_transparent());
        assert!(!Expr::CurrentAttachments.attachment_transparent());
    }

    #[test]
    fn ref_counting_and_mutation() {
        let e = Expr::Seq(vec![
            Expr::LocalRef(3),
            Expr::SetLocal(3, Box::new(Expr::LocalRef(3))),
        ]);
        assert_eq!(e.count_refs(3), 2);
        assert!(e.mutates(3));
        assert!(!e.mutates(4));
    }
}
