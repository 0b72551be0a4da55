//! The paper's §3–§4 *model* of continuations and marks, implemented
//! directly: a CEK-style machine whose continuation is a chain of
//! heap-allocated frames, each carrying a key→value badge (mark
//! dictionary). Continuation capture is an O(1) pointer copy; updating a
//! frame's marks allocates a fresh frame sharing the rest of the chain,
//! exactly as §4's "pair any reference to a frame with a reference to the
//! frame's marks" prescribes.
//!
//! This crate is the *oracle*: it favors obvious correctness over speed
//! and is differentially tested against the production engine
//! (`cm-core`), which implements the same observable semantics with
//! segmented stacks and compiler support. It also stands in for the
//! "heap-allocated frames" implementation strategy (à la Pycket) in the
//! §8.1 comparison.
//!
//! Supported language: the expander's full surface syntax, first-class
//! continuations (`call/cc`), `with-continuation-mark`, and the model
//! observers `(mark-list key)` / `(mark-first key dflt)`.
//!
//! # Examples
//!
//! ```
//! use cm_refmodel::RefInterp;
//!
//! let mut interp = RefInterp::new();
//! let v = interp
//!     .eval("(with-continuation-mark 'k 1 (mark-list 'k))")
//!     .unwrap();
//! assert_eq!(v, "(1)");
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use cm_compiler::ast::{Expr, LambdaExpr, TopForm, VarId};
use cm_compiler::expand::Expander;
use cm_sexpr::Sym;
use cm_vm::{prim_op_value, PrimOp, Value};

/// An error from the reference interpreter.
#[derive(Debug, Clone)]
pub struct RefError(pub String);

/// The exact message produced when the step limit is exhausted; kept as a
/// constant so [`RefError::is_step_limit`] stays in sync with the check
/// in the interpreter loop.
const STEP_LIMIT_MSG: &str = "step limit exhausted";

impl RefError {
    /// Whether this error is step-limit exhaustion (a resource limit, not
    /// a disagreement about the program). Differential testers that run
    /// the model against a fault-injected engine use this to tell "the
    /// model also ran out of budget" apart from a real divergence.
    pub fn is_step_limit(&self) -> bool {
        self.0 == STEP_LIMIT_MSG
    }
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "refmodel error: {}", self.0)
    }
}

impl std::error::Error for RefError {}

type R<T> = Result<T, RefError>;

fn fail<T>(msg: impl Into<String>) -> R<T> {
    Err(RefError(msg.into()))
}

/// Built-in procedures the model understands directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    Prim(PrimOp),
    CallCc,
    DynamicWind,
    MarkList,
    MarkFirst,
    List,
    Error,
}

/// Runtime values of the model.
#[derive(Clone)]
enum RV {
    /// VM data values (fixnums, pairs, symbols, strings, ...).
    Data(Value),
    /// A closure over the model environment.
    Closure(Rc<RClosure>),
    /// A built-in procedure.
    Builtin(Builtin),
    /// A captured continuation: a frame-chain pointer plus the winder
    /// stack in effect at capture (§ dynamic-wind semantics).
    Cont(Kont, Winders),
}

struct RClosure {
    lambda: Rc<LambdaExpr>,
    env: Env,
}

impl RV {
    fn is_true(&self) -> bool {
        !matches!(self, RV::Data(Value::Bool(false)))
    }

    fn as_data(&self, who: &str) -> R<Value> {
        match self {
            RV::Data(v) => Ok(*v),
            _ => fail(format!("{who}: expected a data value, got a procedure")),
        }
    }

    fn show(&self) -> String {
        match self {
            RV::Data(v) => v.write_string(),
            RV::Closure(_) | RV::Builtin(_) => "#<procedure>".into(),
            RV::Cont(..) => "#<continuation>".into(),
        }
    }
}

/// Persistent environment chain; assignment goes through `RefCell` cells
/// so closures share mutations.
#[derive(Clone)]
struct Env(Option<Rc<EnvNode>>);

struct EnvNode {
    var: VarId,
    val: RefCell<RV>,
    next: Env,
}

impl Env {
    fn empty() -> Env {
        Env(None)
    }

    fn bind(&self, var: VarId, val: RV) -> Env {
        Env(Some(Rc::new(EnvNode {
            var,
            val: RefCell::new(val),
            next: self.clone(),
        })))
    }

    fn lookup(&self, var: VarId) -> Option<Rc<EnvNode>> {
        let mut cur = self.0.clone();
        while let Some(n) = cur {
            if n.var == var {
                return Some(n);
            }
            cur = n.next.0.clone();
        }
        None
    }
}

/// A frame's mark badge: a persistent key→value dictionary.
#[derive(Clone, Default)]
struct Badge(Option<Rc<BadgeNode>>);

struct BadgeNode {
    key: Value,
    val: RV,
    next: Badge,
}

impl Badge {
    /// Functional update with replace semantics for an existing key.
    fn set(&self, key: Value, val: RV) -> Badge {
        let mut kept: Vec<(Value, RV)> = Vec::new();
        let mut cur = self.0.clone();
        while let Some(n) = cur {
            if !n.key.eq_value(&key) {
                kept.push((n.key, n.val.clone()));
            }
            cur = n.next.0.clone();
        }
        let mut out = Badge(None);
        for (k, v) in kept.into_iter().rev() {
            out = Badge(Some(Rc::new(BadgeNode {
                key: k,
                val: v,
                next: out,
            })));
        }
        Badge(Some(Rc::new(BadgeNode {
            key,
            val,
            next: out,
        })))
    }

    fn get(&self, key: &Value) -> Option<RV> {
        let mut cur = self.0.clone();
        while let Some(n) = cur {
            if n.key.eq_value(key) {
                return Some(n.val.clone());
            }
            cur = n.next.0.clone();
        }
        None
    }
}

/// One active `dynamic-wind`: its thunks plus an identity used to
/// compute shared prefixes between winder stacks.
struct RWinder {
    /// Before-thunk, re-run when a continuation jumps back inside.
    pre: RV,
    /// After-thunk, run when control leaves (normally or by a jump).
    post: RV,
}

/// Active winders, outermost first.
type Winders = Vec<Rc<RWinder>>;

/// Longest shared prefix of two winder stacks (by winder identity).
fn shared_winders(a: &Winders, b: &Winders) -> usize {
    a.iter()
        .zip(b.iter())
        .take_while(|(x, y)| Rc::ptr_eq(x, y))
        .count()
}

/// What a frame is waiting for (defunctionalized continuations).
enum KKind {
    /// The bottom of the continuation.
    Root,
    /// Waiting for an `if` test.
    If {
        conseq: Rc<Expr>,
        altern: Rc<Expr>,
        env: Env,
    },
    /// Waiting for a non-final sequence element.
    Seq { rest: Vec<Rc<Expr>>, env: Env },
    /// Waiting for a `let` binding's value.
    Let {
        var: VarId,
        pending: Vec<(VarId, Rc<Expr>)>,
        done: Vec<(VarId, RV)>,
        body: Rc<Expr>,
        env: Env,
    },
    /// Waiting for the next operator/operand of an application.
    App {
        done: Vec<RV>,
        pending: Vec<Rc<Expr>>,
        env: Env,
        prim: Option<PrimOp>,
    },
    /// Waiting for a `set!` value.
    Set { cell: Rc<EnvNode> },
    /// Waiting for a top-level definition's value.
    Define { name: Sym },
    /// Waiting for a wcm key.
    WcmKey {
        val: Rc<Expr>,
        body: Rc<Expr>,
        env: Env,
    },
    /// Waiting for a wcm value.
    WcmVal { key: RV, body: Rc<Expr>, env: Env },
    /// Waiting for a `dynamic-wind` before-thunk (normal entry).
    DwAfterPre { winder: Rc<RWinder>, thunk: RV },
    /// Waiting for a `dynamic-wind` body.
    DwAfterBody { winder: Rc<RWinder> },
    /// Waiting for a `dynamic-wind` after-thunk; holds the body's value.
    DwAfterPost { result: RV },
    /// A continuation jump in progress: run `exits` posts
    /// (innermost-first), then `enters` pres (outermost-first), then
    /// deliver `value` to the frame below (the jump target).
    Unwind {
        exits: Vec<Rc<RWinder>>,
        enters: Vec<Rc<RWinder>>,
        /// Winder whose pre just ran and must now become active.
        activating: Option<Rc<RWinder>>,
        target_winders: Winders,
        value: RV,
    },
}

/// A heap-allocated continuation frame paired with its marks (§4).
struct KFrame {
    kind: Rc<KKind>,
    marks: Badge,
    next: Kont,
}

/// A continuation: a pointer into the frame chain. `None` = empty.
#[derive(Clone)]
struct Kont(Option<Rc<KFrame>>);

impl Kont {
    fn root() -> Kont {
        Kont(Some(Rc::new(KFrame {
            kind: Rc::new(KKind::Root),
            marks: Badge::default(),
            next: Kont(None),
        })))
    }

    fn push(&self, kind: KKind) -> Kont {
        Kont(Some(Rc::new(KFrame {
            kind: Rc::new(kind),
            marks: Badge::default(),
            next: self.clone(),
        })))
    }

    /// A copy of the chain whose top frame's badge maps `key` to `val`
    /// (the §4 move: new frame reference + new marks, shared tail).
    fn with_mark(&self, key: Value, val: RV) -> Kont {
        let top = self.0.as_ref().expect("with_mark on empty continuation");
        Kont(Some(Rc::new(KFrame {
            kind: top.kind.clone(),
            marks: top.marks.set(key, val),
            next: top.next.clone(),
        })))
    }
}

enum Ctl {
    Eval(Rc<Expr>, Env),
    Value(RV),
}

/// The reference interpreter.
///
/// Holds the expander (so macros persist across [`RefInterp::eval`]
/// calls) and top-level definitions.
///
/// Model data lives in the thread's VM heap, which roots nothing the
/// model holds: a VM collection on the same thread between two `eval`s
/// may free heap data (quoted lists, strings, built structures) that the
/// model's definitions keep. A session that interleaves VM runs with
/// model `eval`s should define only procedures over immediates, as the
/// differential suites do, or evaluate each program in one `eval`.
pub struct RefInterp {
    expander: Expander,
    globals: HashMap<Sym, RV>,
    /// Active `dynamic-wind` winders, outermost first (a machine
    /// register, like the marks register in the production engine).
    winders: Winders,
    /// Safety net against runaway generated programs.
    step_limit: u64,
}

impl Default for RefInterp {
    fn default() -> RefInterp {
        RefInterp::new()
    }
}

impl RefInterp {
    /// Creates an interpreter with the built-ins installed.
    pub fn new() -> RefInterp {
        let mut globals = HashMap::new();
        for (name, op, _, _) in cm_compiler::cp0::prim_table() {
            globals.insert(cm_sexpr::sym(name), RV::Builtin(Builtin::Prim(*op)));
        }
        for (name, b) in [
            ("call/cc", Builtin::CallCc),
            ("call-with-current-continuation", Builtin::CallCc),
            ("dynamic-wind", Builtin::DynamicWind),
            ("mark-list", Builtin::MarkList),
            ("mark-first", Builtin::MarkFirst),
            ("list", Builtin::List),
            ("error", Builtin::Error),
        ] {
            globals.insert(cm_sexpr::sym(name), RV::Builtin(b));
        }
        RefInterp {
            expander: Expander::new(),
            globals,
            winders: Vec::new(),
            step_limit: 20_000_000,
        }
    }

    /// Sets the step budget for each subsequent [`RefInterp::eval`] call.
    ///
    /// The default (20 million) is a safety net against runaway generated
    /// programs; torture/differential harnesses lower it to bound model
    /// runs, then detect exhaustion via [`RefError::is_step_limit`].
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The current per-`eval` step budget.
    pub fn step_limit(&self) -> u64 {
        self.step_limit
    }

    /// Evaluates a program, returning the written form of the last value.
    ///
    /// # Errors
    ///
    /// Returns a [`RefError`] for syntax errors, runtime type errors, or
    /// step-limit exhaustion.
    pub fn eval(&mut self, src: &str) -> R<String> {
        let data = cm_sexpr::parse_str(src).map_err(|e| RefError(e.to_string()))?;
        let forms = self
            .expander
            .expand_program(&data)
            .map_err(|e| RefError(e.to_string()))?;
        if forms.is_empty() {
            return Ok(Value::Void.write_string());
        }
        // Run the whole program under one continuation so that a
        // continuation captured in one top-level form spans the rest of
        // the program (matching the production engine).
        let program = Expr::Seq(
            forms
                .into_iter()
                .map(|f| match f {
                    TopForm::Define(name, e) => Expr::SetGlobal(name, Box::new(e)),
                    TopForm::Expr(e) => e,
                })
                .collect(),
        );
        Ok(self.run(&program)?.show())
    }

    fn run(&mut self, e: &Expr) -> R<RV> {
        let mut ctl = Ctl::Eval(Rc::new(e.clone()), Env::empty());
        let mut kont = Kont::root();
        self.winders.clear();
        let mut steps = self.step_limit;
        loop {
            if steps == 0 {
                return fail(STEP_LIMIT_MSG);
            }
            steps -= 1;
            match ctl {
                Ctl::Eval(e, env) => match &*e {
                    Expr::Quote(v) => ctl = Ctl::Value(RV::Data(*v)),
                    Expr::LocalRef(v) => match env.lookup(*v) {
                        Some(cell) => ctl = Ctl::Value(cell.val.borrow().clone()),
                        None => return fail(format!("unbound local #{v}")),
                    },
                    Expr::GlobalRef(s) => match self.globals.get(s) {
                        Some(v) => ctl = Ctl::Value(v.clone()),
                        None => return fail(format!("unbound global {s}")),
                    },
                    Expr::If(t, c, a) => {
                        kont = kont.push(KKind::If {
                            conseq: Rc::new((**c).clone()),
                            altern: Rc::new((**a).clone()),
                            env: env.clone(),
                        });
                        ctl = Ctl::Eval(Rc::new((**t).clone()), env);
                    }
                    Expr::Seq(es) => {
                        let mut rest: Vec<Rc<Expr>> =
                            es.iter().map(|x| Rc::new(x.clone())).collect();
                        let first = rest.remove(0);
                        if rest.is_empty() {
                            ctl = Ctl::Eval(first, env);
                        } else {
                            kont = kont.push(KKind::Seq {
                                rest,
                                env: env.clone(),
                            });
                            ctl = Ctl::Eval(first, env);
                        }
                    }
                    Expr::Let { bindings, body } => {
                        if bindings.is_empty() {
                            ctl = Ctl::Eval(Rc::new((**body).clone()), env);
                        } else {
                            let mut pending: Vec<(VarId, Rc<Expr>)> = bindings
                                .iter()
                                .map(|(v, e)| (*v, Rc::new(e.clone())))
                                .collect();
                            let (var, first) = pending.remove(0);
                            kont = kont.push(KKind::Let {
                                var,
                                pending,
                                done: Vec::new(),
                                body: Rc::new((**body).clone()),
                                env: env.clone(),
                            });
                            ctl = Ctl::Eval(first, env);
                        }
                    }
                    Expr::Lambda(l) => {
                        ctl = Ctl::Value(RV::Closure(Rc::new(RClosure {
                            lambda: l.clone(),
                            env,
                        })));
                    }
                    Expr::SetLocal(v, rhs) => match env.lookup(*v) {
                        Some(cell) => {
                            kont = kont.push(KKind::Set { cell });
                            ctl = Ctl::Eval(Rc::new((**rhs).clone()), env);
                        }
                        None => return fail(format!("set!: unbound local #{v}")),
                    },
                    Expr::SetGlobal(s, rhs) => {
                        kont = kont.push(KKind::Define { name: *s });
                        ctl = Ctl::Eval(Rc::new((**rhs).clone()), env);
                    }
                    Expr::Call { rator, rands } => {
                        let pending: Vec<Rc<Expr>> =
                            rands.iter().map(|x| Rc::new(x.clone())).collect();
                        kont = kont.push(KKind::App {
                            done: Vec::new(),
                            pending,
                            env: env.clone(),
                            prim: None,
                        });
                        ctl = Ctl::Eval(Rc::new((**rator).clone()), env);
                    }
                    Expr::PrimApp { op, rands } => {
                        if rands.is_empty() {
                            ctl = Ctl::Value(apply_prim(*op, &[])?);
                        } else {
                            let mut pending: Vec<Rc<Expr>> =
                                rands.iter().map(|x| Rc::new(x.clone())).collect();
                            let first = pending.remove(0);
                            kont = kont.push(KKind::App {
                                done: Vec::new(),
                                pending,
                                env: env.clone(),
                                prim: Some(*op),
                            });
                            ctl = Ctl::Eval(first, env);
                        }
                    }
                    Expr::Wcm { key, val, body } => {
                        kont = kont.push(KKind::WcmKey {
                            val: Rc::new((**val).clone()),
                            body: Rc::new((**body).clone()),
                            env: env.clone(),
                        });
                        ctl = Ctl::Eval(Rc::new((**key).clone()), env);
                    }
                    Expr::SetAttachment { .. }
                    | Expr::GetAttachment { .. }
                    | Expr::CurrentAttachments => {
                        return fail(
                            "raw attachment primitives are not part of the reference model",
                        )
                    }
                },
                Ctl::Value(v) => {
                    let Some(frame) = kont.0.clone() else {
                        return Ok(v);
                    };
                    let next = frame.next.clone();
                    match &*frame.kind {
                        KKind::Root => return Ok(v),
                        KKind::If {
                            conseq,
                            altern,
                            env,
                        } => {
                            // The branch is in tail position: this frame
                            // pops before the branch runs.
                            kont = next;
                            ctl = if v.is_true() {
                                Ctl::Eval(conseq.clone(), env.clone())
                            } else {
                                Ctl::Eval(altern.clone(), env.clone())
                            };
                        }
                        KKind::Seq { rest, env } => {
                            let mut rest = rest.clone();
                            let first = rest.remove(0);
                            kont = next;
                            if !rest.is_empty() {
                                kont = kont.push(KKind::Seq {
                                    rest,
                                    env: env.clone(),
                                });
                            }
                            ctl = Ctl::Eval(first, env.clone());
                        }
                        KKind::Let {
                            var,
                            pending,
                            done,
                            body,
                            env,
                        } => {
                            let mut done = done.clone();
                            done.push((*var, v));
                            let mut pending = pending.clone();
                            kont = next;
                            if pending.is_empty() {
                                let mut env2 = env.clone();
                                for (var, val) in done {
                                    env2 = env2.bind(var, val);
                                }
                                ctl = Ctl::Eval(body.clone(), env2);
                            } else {
                                let (nvar, first) = pending.remove(0);
                                kont = kont.push(KKind::Let {
                                    var: nvar,
                                    pending,
                                    done,
                                    body: body.clone(),
                                    env: env.clone(),
                                });
                                ctl = Ctl::Eval(first, env.clone());
                            }
                        }
                        KKind::App {
                            done,
                            pending,
                            env,
                            prim,
                        } => {
                            let mut done = done.clone();
                            done.push(v);
                            let mut pending = pending.clone();
                            kont = next;
                            if pending.is_empty() {
                                match self.apply(done, *prim, &mut kont)? {
                                    Applied::Value(v) => ctl = Ctl::Value(v),
                                    Applied::Enter(e, env) => ctl = Ctl::Eval(e, env),
                                }
                            } else {
                                let first = pending.remove(0);
                                kont = kont.push(KKind::App {
                                    done,
                                    pending,
                                    env: env.clone(),
                                    prim: *prim,
                                });
                                ctl = Ctl::Eval(first, env.clone());
                            }
                        }
                        KKind::Set { cell } => {
                            *cell.val.borrow_mut() = v;
                            kont = next;
                            ctl = Ctl::Value(RV::Data(Value::Void));
                        }
                        KKind::Define { name } => {
                            self.globals.insert(*name, v);
                            kont = next;
                            ctl = Ctl::Value(RV::Data(Value::Void));
                        }
                        KKind::WcmKey { val, body, env } => {
                            kont = next.push(KKind::WcmVal {
                                key: v,
                                body: body.clone(),
                                env: env.clone(),
                            });
                            ctl = Ctl::Eval(val.clone(), env.clone());
                        }
                        KKind::WcmVal { key, body, env } => {
                            // Body is in tail position: attach the badge
                            // to the *enclosing* frame.
                            let key = key.as_data("with-continuation-mark key")?;
                            kont = next.with_mark(key, v);
                            ctl = Ctl::Eval(body.clone(), env.clone());
                        }
                        KKind::DwAfterPre { winder, thunk } => {
                            // Before-thunk finished: the winder becomes
                            // active for the body's dynamic extent.
                            self.winders.push(winder.clone());
                            kont = next.push(KKind::DwAfterBody {
                                winder: winder.clone(),
                            });
                            match self.apply(vec![thunk.clone()], None, &mut kont)? {
                                Applied::Value(v) => ctl = Ctl::Value(v),
                                Applied::Enter(e, env) => ctl = Ctl::Eval(e, env),
                            }
                        }
                        KKind::DwAfterBody { winder } => {
                            match self.winders.pop() {
                                Some(w) if Rc::ptr_eq(&w, winder) => {}
                                _ => return fail("dynamic-wind: winder stack corrupted"),
                            }
                            kont = next.push(KKind::DwAfterPost { result: v });
                            let post = winder.post.clone();
                            match self.apply(vec![post], None, &mut kont)? {
                                Applied::Value(v) => ctl = Ctl::Value(v),
                                Applied::Enter(e, env) => ctl = Ctl::Eval(e, env),
                            }
                        }
                        KKind::DwAfterPost { result } => {
                            // The after-thunk's value is discarded.
                            kont = next;
                            ctl = Ctl::Value(result.clone());
                        }
                        KKind::Unwind {
                            exits,
                            enters,
                            activating,
                            target_winders,
                            value,
                        } => {
                            if let Some(w) = activating {
                                self.winders.push(w.clone());
                            }
                            let mut exits = exits.clone();
                            let mut enters = enters.clone();
                            if let Some(w) = if exits.is_empty() {
                                None
                            } else {
                                Some(exits.remove(0))
                            } {
                                // Leaving w's extent: deactivate, then
                                // run its after-thunk.
                                match self.winders.pop() {
                                    Some(top) if Rc::ptr_eq(&top, &w) => {}
                                    _ => return fail("dynamic-wind: winder stack corrupted"),
                                }
                                kont = next.push(KKind::Unwind {
                                    exits,
                                    enters,
                                    activating: None,
                                    target_winders: target_winders.clone(),
                                    value: value.clone(),
                                });
                                match self.apply(vec![w.post.clone()], None, &mut kont)? {
                                    Applied::Value(v) => ctl = Ctl::Value(v),
                                    Applied::Enter(e, env) => ctl = Ctl::Eval(e, env),
                                }
                            } else if let Some(w) = if enters.is_empty() {
                                None
                            } else {
                                Some(enters.remove(0))
                            } {
                                // Entering w's extent: run its
                                // before-thunk, then activate it.
                                kont = next.push(KKind::Unwind {
                                    exits,
                                    enters,
                                    activating: Some(w.clone()),
                                    target_winders: target_winders.clone(),
                                    value: value.clone(),
                                });
                                match self.apply(vec![w.pre.clone()], None, &mut kont)? {
                                    Applied::Value(v) => ctl = Ctl::Value(v),
                                    Applied::Enter(e, env) => ctl = Ctl::Eval(e, env),
                                }
                            } else {
                                debug_assert_eq!(self.winders.len(), target_winders.len());
                                kont = next;
                                ctl = Ctl::Value(value.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    fn apply(&mut self, mut vals: Vec<RV>, prim: Option<PrimOp>, kont: &mut Kont) -> R<Applied> {
        if let Some(op) = prim {
            return Ok(Applied::Value(apply_prim(op, &vals)?));
        }
        let f = vals.remove(0);
        let args = vals;
        match f {
            RV::Closure(cl) => {
                let l = &cl.lambda;
                let required = l.params.len();
                if args.len() < required || (l.rest.is_none() && args.len() > required) {
                    return fail(format!("{}: arity mismatch, got {}", l.name, args.len()));
                }
                let mut env = cl.env.clone();
                let mut args = args;
                let restv = args.split_off(required);
                for (p, a) in l.params.iter().zip(args) {
                    env = env.bind(*p, a);
                }
                if let Some(r) = l.rest {
                    let mut lst = Value::Nil;
                    for v in restv.into_iter().rev() {
                        lst = Value::cons(v.as_data("rest argument")?, lst);
                    }
                    env = env.bind(r, RV::Data(lst));
                }
                Ok(Applied::Enter(Rc::new(l.body.clone()), env))
            }
            RV::Cont(k, target_winders) => {
                if args.len() != 1 {
                    return fail("continuation: expected 1 argument");
                }
                let value = args.into_iter().next().unwrap();
                let shared = shared_winders(&self.winders, &target_winders);
                if shared == self.winders.len() && shared == target_winders.len() {
                    // No winders to cross: a plain jump.
                    *kont = k;
                    return Ok(Applied::Value(value));
                }
                // Winders to cross: interpose an Unwind frame atop the
                // target that runs departed winders' after-thunks
                // (innermost first) and re-entered winders'
                // before-thunks (outermost first), then delivers the
                // value. Winder thunks here run with the target's
                // marks in view — fine for effect-only thunks, which
                // is all the differential generator produces.
                let exits: Vec<Rc<RWinder>> =
                    self.winders[shared..].iter().rev().cloned().collect();
                let enters: Vec<Rc<RWinder>> = target_winders[shared..].to_vec();
                *kont = k.push(KKind::Unwind {
                    exits,
                    enters,
                    activating: None,
                    target_winders,
                    value,
                });
                Ok(Applied::Value(RV::Data(Value::Void)))
            }
            RV::Builtin(b) => match b {
                Builtin::Prim(op) => Ok(Applied::Value(apply_prim(op, &args)?)),
                Builtin::List => {
                    let mut lst = Value::Nil;
                    for v in args.into_iter().rev() {
                        lst = Value::cons(v.as_data("list")?, lst);
                    }
                    Ok(Applied::Value(RV::Data(lst)))
                }
                Builtin::CallCc => {
                    if args.len() != 1 {
                        return fail("call/cc: expected 1 argument");
                    }
                    let f = args.into_iter().next().unwrap();
                    let k = RV::Cont(kont.clone(), self.winders.clone());
                    // Apply f to k in tail position.
                    self.apply(vec![f, k], None, kont)
                }
                Builtin::DynamicWind => {
                    if args.len() != 3 {
                        return fail("dynamic-wind: expected 3 arguments");
                    }
                    let mut it = args.into_iter();
                    let pre = it.next().unwrap();
                    let thunk = it.next().unwrap();
                    let post = it.next().unwrap();
                    let winder = Rc::new(RWinder {
                        pre: pre.clone(),
                        post,
                    });
                    *kont = kont.push(KKind::DwAfterPre { winder, thunk });
                    self.apply(vec![pre], None, kont)
                }
                Builtin::MarkList => {
                    if args.len() != 1 {
                        return fail("mark-list: expected 1 argument");
                    }
                    let key = args[0].as_data("mark-list")?;
                    let mut out: Vec<Value> = Vec::new();
                    let mut cur = kont.0.clone();
                    while let Some(f) = cur {
                        if let Some(v) = f.marks.get(&key) {
                            out.push(v.as_data("mark value")?);
                        }
                        cur = f.next.0.clone();
                    }
                    Ok(Applied::Value(RV::Data(Value::list(out))))
                }
                Builtin::MarkFirst => {
                    if args.len() != 2 {
                        return fail("mark-first: expected 2 arguments");
                    }
                    let key = args[0].as_data("mark-first")?;
                    let mut cur = kont.0.clone();
                    while let Some(f) = cur {
                        if let Some(v) = f.marks.get(&key) {
                            return Ok(Applied::Value(v));
                        }
                        cur = f.next.0.clone();
                    }
                    Ok(Applied::Value(args[1].clone()))
                }
                Builtin::Error => {
                    let msg: Vec<String> = args.iter().map(RV::show).collect();
                    fail(format!("error: {}", msg.join(" ")))
                }
            },
            other => fail(format!("not a procedure: {}", other.show())),
        }
    }
}

enum Applied {
    Value(RV),
    Enter(Rc<Expr>, Env),
}

fn apply_prim(op: PrimOp, args: &[RV]) -> R<RV> {
    let data: Vec<Value> = args
        .iter()
        .map(|a| a.as_data(op.name()))
        .collect::<R<Vec<_>>>()?;
    prim_op_value(op, &data)
        .map(RV::Data)
        .map_err(|e| RefError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> String {
        RefInterp::new().eval(src).unwrap()
    }

    #[test]
    fn arithmetic_and_calls() {
        assert_eq!(eval("(+ 1 (* 2 3))"), "7");
        assert_eq!(
            eval("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 6)"),
            "720"
        );
    }

    #[test]
    fn closures_and_state() {
        assert_eq!(
            eval(
                "(define (counter) (let ([n 0]) (lambda () (set! n (+ n 1)) n)))
                 (define c (counter)) (c) (c) (c)"
            ),
            "3"
        );
    }

    #[test]
    fn wcm_basic() {
        assert_eq!(eval("(with-continuation-mark 'k 1 (mark-list 'k))"), "(1)");
        assert_eq!(eval("(mark-first 'k 'none)"), "none");
    }

    #[test]
    fn tail_wcm_replaces() {
        assert_eq!(
            eval(
                "(define (go)
                   (with-continuation-mark 'k 1
                     (with-continuation-mark 'k 2 (mark-list 'k))))
                 (go)"
            ),
            "(2)"
        );
    }

    #[test]
    fn nontail_wcm_nests() {
        assert_eq!(
            eval(
                "(with-continuation-mark 'k 1
                   (car (cons (with-continuation-mark 'k 2 (mark-list 'k)) 0)))"
            ),
            "(2 1)"
        );
    }

    #[test]
    fn callcc_escape_and_marks() {
        assert_eq!(eval("(+ 1 (call/cc (lambda (k) (k 41))))"), "42");
        assert_eq!(
            eval(
                "(define saved #f)
                 (define r
                   (with-continuation-mark 'k 'live
                     (car (cons (call/cc (lambda (k) (set! saved k) (mark-list 'k))) 1))))
                 (define _ (let ([k saved]) (if k (begin (set! saved #f) (k '(again))) 0)))
                 r"
            ),
            "(again)"
        );
    }

    #[test]
    fn continuation_is_multi_shot() {
        assert_eq!(
            eval(
                "(define saved #f)
                 (define n 0)
                 (define v (call/cc (lambda (k) (set! saved k) 0)))
                 (set! n (+ n 1))
                 (if (< v 3) (saved (+ v 1)) (list v n))"
            ),
            "(3 4)"
        );
    }

    #[test]
    fn step_limit_fires() {
        let mut i = RefInterp::new();
        i.set_step_limit(1000);
        let err = i.eval("(define (loop) (loop)) (loop)").unwrap_err();
        assert!(err.is_step_limit(), "unexpected error: {err}");
        // A type error is not a step-limit error.
        let err = i.eval("(car 5)").unwrap_err();
        assert!(!err.is_step_limit());
    }

    #[test]
    fn dynamic_wind_normal_flow() {
        assert_eq!(
            eval(
                "(define log '())
                 (define (note t) (set! log (cons t log)))
                 (define r (dynamic-wind (lambda () (note 'pre))
                                         (lambda () (note 'body) 42)
                                         (lambda () (note 'post))))
                 (list r log)"
            ),
            "(42 (post body pre))"
        );
    }

    #[test]
    fn dynamic_wind_escape_runs_after_thunk() {
        assert_eq!(
            eval(
                "(define log '())
                 (define (note t) (set! log (cons t log)))
                 (define r (call/cc (lambda (k)
                   (dynamic-wind (lambda () (note 'pre))
                                 (lambda () (k 'out))
                                 (lambda () (note 'post))))))
                 (list r log)"
            ),
            "(out (post pre))"
        );
    }

    #[test]
    fn dynamic_wind_nested_escape_unwinds_innermost_first() {
        assert_eq!(
            eval(
                "(define log '())
                 (define (note t) (set! log (cons t log)))
                 (define r (call/cc (lambda (k)
                   (dynamic-wind (lambda () (note 'pre1))
                                 (lambda ()
                                   (dynamic-wind (lambda () (note 'pre2))
                                                 (lambda () (k 'out))
                                                 (lambda () (note 'post2))))
                                 (lambda () (note 'post1))))))
                 (list r log)"
            ),
            "(out (post1 post2 pre2 pre1))"
        );
    }

    #[test]
    fn dynamic_wind_reentry_reruns_before_thunk() {
        assert_eq!(
            eval(
                "(define saved #f)
                 (define log '())
                 (define (note t) (set! log (cons t log)))
                 (define n 0)
                 (define r (dynamic-wind
                             (lambda () (note 'pre))
                             (lambda ()
                               (call/cc (lambda (k) (set! saved k)))
                               (set! n (+ n 1))
                               n)
                             (lambda () (note 'post))))
                 (define _ (if (< r 3) ((let ([k saved]) k) 0) 0))
                 (list r log)"
            ),
            "(3 (post pre post pre post pre))"
        );
    }

    #[test]
    fn dynamic_wind_preserves_marks_across_jumps() {
        assert_eq!(
            eval(
                "(define log '())
                 (define (note t) (set! log (cons t log)))
                 (define r
                   (with-continuation-mark 'k 'outside
                     (car (cons
                       (call/cc (lambda (k)
                         (dynamic-wind (lambda () (note 'pre))
                                       (lambda ()
                                         (with-continuation-mark 'k 'inside
                                           (car (cons (k (mark-list 'k)) 0))))
                                       (lambda () (note 'post)))))
                       0))))
                 (list r log)"
            ),
            "((inside outside) (post pre))"
        );
    }

    #[test]
    fn model_rejects_raw_attachments() {
        let mut i = RefInterp::new();
        // Raw attachment ops only exist after lowering; in the model the
        // surface form names are unbound globals.
        assert!(i
            .eval("(call-setting-continuation-attachment 1 (lambda () 2))")
            .is_err());
    }
}
