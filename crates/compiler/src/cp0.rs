//! The source-level optimizer, modeled on Chez Scheme's cp0: constant
//! folding, beta reduction, copy propagation, dead-code elimination —
//! plus the §7.4 *attachment restriction*: a simplification that would
//! move an expression from non-tail to tail position (collapsing a
//! conceptual continuation frame) is allowed only when the expression is
//! attachment-transparent. Disabling the restriction reproduces the
//! paper's "unmodified" Chez variant (§8.2).
//!
//! Also implements the §7.3 high-level mark elision: a
//! `with-continuation-mark` whose body cannot observe marks compiles to
//! just its body.

use std::collections::{HashMap, HashSet};

use cm_sexpr::Sym;
use cm_vm::{Cp0Rule, PrimClass, Value};

use crate::ast::{Expr, LambdaExpr, TopForm, VarId};

/// Options for the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct Cp0Options {
    /// Honor the §7.4 restriction (the "attach"/"all mods" variants). When
    /// `false`, simplifications may collapse observable continuation
    /// frames (the "unmod" variant).
    pub attachment_restriction: bool,
    /// Apply the §7.3 high-level elision of irrelevant marks.
    pub elide_irrelevant_marks: bool,
}

impl Default for Cp0Options {
    fn default() -> Cp0Options {
        Cp0Options {
            attachment_restriction: true,
            elide_irrelevant_marks: true,
        }
    }
}

/// Names (re)defined by the user program; their global references must not
/// be treated as known primitives.
pub fn user_defined_names(forms: &[TopForm]) -> HashSet<Sym> {
    let mut out = HashSet::new();
    for f in forms {
        match f {
            TopForm::Define(name, e) => {
                out.insert(*name);
                e.walk(&mut |e| {
                    if let Expr::SetGlobal(s, _) = e {
                        out.insert(*s);
                    }
                });
            }
            TopForm::Expr(e) => e.walk(&mut |e| {
                if let Expr::SetGlobal(s, _) = e {
                    out.insert(*s);
                }
            }),
        }
    }
    out
}

/// Rewrites calls to the inline rows of the primitive table, with an
/// argument count the row accepts, into [`Expr::PrimApp`].
pub fn recognize_prims(e: Expr, user_defined: &HashSet<Sym>) -> Expr {
    map_expr(e, &mut |e| {
        if let Expr::Call { rator, rands } = &e {
            if let Expr::GlobalRef(s) = **rator {
                let inline = cm_vm::lookup_native(s).filter(|op| {
                    let def = op.def();
                    def.inlinable() && def.accepts(rands.len()) && rands.len() <= u8::MAX as usize
                });
                if let Some(op) = inline.filter(|_| !user_defined.contains(&s)) {
                    let Expr::Call { rands, .. } = e else {
                        unreachable!()
                    };
                    return Expr::PrimApp { op, rands };
                }
            }
        }
        e
    })
}

/// Runs cp0 to a (bounded) fixpoint.
pub fn optimize(mut e: Expr, opts: &Cp0Options) -> Expr {
    for _ in 0..4 {
        e = pass(e, opts);
    }
    e
}

/// Bottom-up transformation helper.
fn map_expr(e: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let e = match e {
        Expr::If(t, c, a) => Expr::If(
            Box::new(map_expr(*t, f)),
            Box::new(map_expr(*c, f)),
            Box::new(map_expr(*a, f)),
        ),
        Expr::Seq(es) => Expr::Seq(es.into_iter().map(|x| map_expr(x, f)).collect()),
        Expr::Let { bindings, body } => Expr::Let {
            bindings: bindings
                .into_iter()
                .map(|(v, x)| (v, map_expr(x, f)))
                .collect(),
            body: Box::new(map_expr(*body, f)),
        },
        Expr::Lambda(l) => {
            let l = (*l).clone();
            Expr::Lambda(std::rc::Rc::new(LambdaExpr {
                body: map_expr(l.body, f),
                ..l
            }))
        }
        Expr::SetLocal(v, x) => Expr::SetLocal(v, Box::new(map_expr(*x, f))),
        Expr::SetGlobal(s, x) => Expr::SetGlobal(s, Box::new(map_expr(*x, f))),
        Expr::Call { rator, rands } => Expr::Call {
            rator: Box::new(map_expr(*rator, f)),
            rands: rands.into_iter().map(|x| map_expr(x, f)).collect(),
        },
        Expr::PrimApp { op, rands } => Expr::PrimApp {
            op,
            rands: rands.into_iter().map(|x| map_expr(x, f)).collect(),
        },
        Expr::Wcm { key, val, body } => Expr::Wcm {
            key: Box::new(map_expr(*key, f)),
            val: Box::new(map_expr(*val, f)),
            body: Box::new(map_expr(*body, f)),
        },
        Expr::SetAttachment { val, body } => Expr::SetAttachment {
            val: Box::new(map_expr(*val, f)),
            body: Box::new(map_expr(*body, f)),
        },
        Expr::GetAttachment {
            dflt,
            var,
            body,
            consume,
        } => Expr::GetAttachment {
            dflt: Box::new(map_expr(*dflt, f)),
            var,
            body: Box::new(map_expr(*body, f)),
            consume,
        },
        leaf => leaf,
    };
    f(e)
}

fn pass(e: Expr, opts: &Cp0Options) -> Expr {
    map_expr(e, &mut |e| simplify(e, opts))
}

fn simplify(e: Expr, opts: &Cp0Options) -> Expr {
    match e {
        Expr::If(t, c, a) => match *t {
            Expr::Quote(v) => {
                if v.is_true() {
                    *c
                } else {
                    *a
                }
            }
            t => Expr::If(Box::new(t), c, a),
        },
        Expr::Seq(es) => {
            // Flatten nested seqs, drop pure non-final expressions.
            let mut flat = Vec::new();
            let n = es.len();
            for (i, x) in es.into_iter().enumerate() {
                let last = i + 1 == n;
                match x {
                    Expr::Seq(inner) => flat.extend(inner),
                    x if !last && x.is_pure() => {}
                    x => flat.push(x),
                }
            }
            // Dropping may have removed the last element's predecessors
            // only; re-drop pure non-finals after flattening.
            let n = flat.len();
            let mut out: Vec<Expr> = Vec::new();
            for (i, x) in flat.into_iter().enumerate() {
                let last = i + 1 == n;
                if last || !x.is_pure() {
                    out.push(x);
                }
            }
            match out.len() {
                0 => Expr::void(),
                1 => out.pop().unwrap(),
                _ => Expr::Seq(out),
            }
        }
        Expr::PrimApp { op, rands } => {
            let foldable = op.def().class == PrimClass::Inline(Cp0Rule::Fold);
            if foldable && rands.iter().all(|r| matches!(r, Expr::Quote(_))) {
                let args: Vec<Value> = rands
                    .iter()
                    .map(|r| match r {
                        Expr::Quote(v) => *v,
                        _ => unreachable!(),
                    })
                    .collect();
                if let Ok(v) = op.def().apply(&args) {
                    return Expr::Quote(v);
                }
            }
            Expr::PrimApp { op, rands }
        }
        Expr::Call { rator, rands } => {
            // Beta: ((lambda (x ...) body) a ...) => (let ([x a] ...) body)
            if let Expr::Lambda(l) = &*rator {
                if l.rest.is_none() && l.params.len() == rands.len() {
                    let l = l.clone();
                    return simplify(
                        Expr::Let {
                            bindings: l.params.iter().copied().zip(rands).collect(),
                            body: Box::new(l.body.clone()),
                        },
                        opts,
                    );
                }
            }
            Expr::Call { rator, rands }
        }
        Expr::Let { bindings, body } => simplify_let(bindings, *body, opts),
        Expr::Wcm { key, val, body } => {
            // §7.3: if the body is a simple value expression that cannot
            // observe marks, drop the mark entirely (keeping key/val for
            // effect). Deliberately narrower than full transparency —
            // matching Racket's schemify, which compiles
            // (let ([x 5]) (wcm 'k 'v x)) to 5 but still emits mark
            // operations around primitive work.
            let simple_body = matches!(
                *body,
                Expr::Quote(_) | Expr::LocalRef(_) | Expr::GlobalRef(_) | Expr::Lambda(_)
            );
            if opts.elide_irrelevant_marks && simple_body {
                let mut parts = Vec::new();
                if !key.is_pure() {
                    parts.push(*key);
                }
                if !val.is_pure() {
                    parts.push(*val);
                }
                parts.push(*body);
                return simplify(Expr::Seq(parts), opts);
            }
            Expr::Wcm { key, val, body }
        }
        other => other,
    }
}

fn simplify_let(bindings: Vec<(VarId, Expr)>, body: Expr, opts: &Cp0Options) -> Expr {
    // Substitute trivial bindings; drop dead pure bindings.
    let mut subst: HashMap<VarId, Expr> = HashMap::new();
    let mut kept: Vec<(VarId, Expr)> = Vec::new();
    for (v, init) in bindings {
        let mutated = body.mutates(v) || kept.iter().any(|(_, e)| e.mutates(v));
        let trivial = matches!(init, Expr::Quote(_) | Expr::Lambda(_) | Expr::LocalRef(_))
            && !mutated
            && match &init {
                // Don't substitute a reference to a variable that is
                // itself mutated or rebound later.
                Expr::LocalRef(w) => !body.mutates(*w),
                // Lambdas are duplicated only when referenced at most once.
                Expr::Lambda(_) => body.count_refs(v) <= 1,
                _ => true,
            };
        if trivial {
            subst.insert(v, init);
        } else if body.count_refs(v) == 0 && !mutated && init.is_pure() {
            // Dead pure binding.
        } else if body.count_refs(v) == 0 && !mutated {
            // Dead but effectful: keep for effect as a sequence entry.
            kept.push((v, init));
        } else {
            kept.push((v, init));
        }
    }
    let body = if subst.is_empty() {
        body
    } else {
        substitute(body, &subst)
    };
    if kept.is_empty() {
        return body;
    }
    // (let ([x E]) x) => E, guarded by §7.4.
    if kept.len() == 1 {
        if let Expr::LocalRef(v) = body {
            let (w, init) = &kept[0];
            if v == *w && (!opts.attachment_restriction || init.attachment_transparent()) {
                let mut kept = kept;
                return kept.remove(0).1;
            }
        }
    }
    Expr::Let {
        bindings: kept,
        body: Box::new(body),
    }
}

/// Substitutes expressions for local references (used for trivial
/// bindings; the replacements are duplication-safe).
fn substitute(e: Expr, subst: &HashMap<VarId, Expr>) -> Expr {
    map_expr(e, &mut |e| match e {
        Expr::LocalRef(v) => subst.get(&v).cloned().unwrap_or(Expr::LocalRef(v)),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_sexpr::parse_str;

    fn optimize_src(src: &str, opts: &Cp0Options) -> Expr {
        let data = parse_str(src).unwrap();
        let mut ex = crate::expand::Expander::new();
        let forms = ex.expand_program(&data).unwrap();
        let user = user_defined_names(&forms);
        let TopForm::Expr(e) = forms.into_iter().last().unwrap() else {
            panic!("expected expression")
        };
        optimize(recognize_prims(e, &user), opts)
    }

    #[test]
    fn folds_arithmetic() {
        let e = optimize_src("(+ 1 (* 2 3))", &Cp0Options::default());
        assert!(matches!(e, Expr::Quote(Value::Fixnum(7))), "{e:?}");
    }

    #[test]
    fn folds_conditionals() {
        let e = optimize_src("(if (< 1 2) 'yes 'no)", &Cp0Options::default());
        assert!(matches!(e, Expr::Quote(Value::Sym(s)) if s.name() == "yes"));
    }

    #[test]
    fn beta_reduces() {
        let e = optimize_src("((lambda (x) (+ x 1)) 41)", &Cp0Options::default());
        assert!(matches!(e, Expr::Quote(Value::Fixnum(42))), "{e:?}");
    }

    #[test]
    fn paper_example_elides_irrelevant_mark() {
        // §7.3: (let ([x 5]) (with-continuation-mark 'key 'val x)) => 5
        let e = optimize_src(
            "(let ([x 5]) (with-continuation-mark 'key 'val x))",
            &Cp0Options::default(),
        );
        assert!(matches!(e, Expr::Quote(Value::Fixnum(5))), "{e:?}");
    }

    #[test]
    fn paper_example_preserves_nontail_wcm_binding() {
        // §7.4: (let ([v (wcm 'key 'val (work))]) v) must NOT become (work)
        // when the restriction is on.
        let src = "(let ([v (with-continuation-mark 'key 'val (work))]) v)";
        let e = optimize_src(src, &Cp0Options::default());
        assert!(matches!(e, Expr::Let { .. }), "restricted: {e:?}");
        let e = optimize_src(
            src,
            &Cp0Options {
                attachment_restriction: false,
                elide_irrelevant_marks: true,
            },
        );
        assert!(matches!(e, Expr::Wcm { .. }), "unrestricted: {e:?}");
    }

    #[test]
    fn let_of_transparent_expr_simplifies_even_restricted() {
        // §7.4's second example: collapsing a frame around (+ 1 2)-style
        // work is fine because attachments can't observe it.
        let e = optimize_src("(let ([x (+ y 1)]) x)", &Cp0Options::default());
        assert!(matches!(e, Expr::PrimApp { .. }), "{e:?}");
    }

    #[test]
    fn call_of_unknown_fn_is_not_collapsed() {
        let e = optimize_src("(let ([x (work)]) x)", &Cp0Options::default());
        assert!(matches!(e, Expr::Let { .. }), "{e:?}");
    }

    #[test]
    fn dead_bindings_are_dropped() {
        let e = optimize_src("(let ([x 1] [y (f)]) y)", &Cp0Options::default());
        // x is dead and pure; y stays.
        let Expr::Let { bindings, .. } = &e else {
            panic!("{e:?}")
        };
        assert_eq!(bindings.len(), 1);
    }

    #[test]
    fn seq_drops_pure_prefix() {
        // Wrapped in a lambda because top-level begin splices.
        let e = optimize_src("(lambda () (begin 1 2 (f) 3))", &Cp0Options::default());
        let Expr::Lambda(l) = &e else { panic!("{e:?}") };
        let Expr::Seq(es) = &l.body else {
            panic!("{:?}", l.body)
        };
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn does_not_fold_effectful_prims() {
        let e = optimize_src("(cons 1 2)", &Cp0Options::default());
        assert!(matches!(e, Expr::PrimApp { .. }));
    }

    #[test]
    fn user_redefined_prims_not_recognized() {
        let data = parse_str("(define (car x) 'mine) (car 5)").unwrap();
        let mut ex = crate::expand::Expander::new();
        let forms = ex.expand_program(&data).unwrap();
        let user = user_defined_names(&forms);
        assert!(user.contains(&cm_sexpr::sym("car")));
        let TopForm::Expr(e) = &forms[1] else {
            panic!()
        };
        let e = recognize_prims(e.clone(), &user);
        assert!(matches!(e, Expr::Call { .. }));
    }
}
