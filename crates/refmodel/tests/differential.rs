//! Differential testing: random continuation-mark programs must produce
//! identical results in the heap-based reference model (§3–§4 semantics)
//! and in every configuration of the production engine (segmented stacks
//! + compiler support, §5–§7).
//!
//! The generated language covers marks (`with-continuation-mark`,
//! `mark-list` / `mark-first`), first-class control (`call/cc` with
//! upward continuation invocations), and `dynamic-wind` whose winder
//! thunks log into a global `dw-log` — so the *order* in which
//! before/after thunks fire across jumps is part of every program's
//! observable result, not just the final value. An after-thunk may end
//! in an escape of its own, which then fires while a jump is running it.
//!
//! Failures are shrunk with the vendored greedy minimizer
//! ([`proptest::shrink::minimize`]) before reporting, and the distilled
//! regressions live on as the checked-in seed corpus under
//! `tests/corpus/` (run unconditionally, before any random cases).
//!
//! This is the repo's strongest evidence that the §7.2 position
//! categorization (tail reify / case-b call / case-c push-pop), the §7.3
//! elision, and the §7.4 cp0 restriction preserve the model's semantics.

use cm_core::{Engine, EngineConfig};
use cm_refmodel::RefInterp;
use proptest::prelude::*;
use proptest::shrink::minimize;

/// A generable expression; rendered to Scheme source with a scope.
#[derive(Debug, Clone)]
enum GExpr {
    Num(i8),
    Key(u8),
    VarRef(u8),
    Add(Box<GExpr>, Box<GExpr>),
    If(Box<GExpr>, Box<GExpr>, Box<GExpr>),
    Begin(Vec<GExpr>),
    Let(Box<GExpr>, Box<GExpr>),
    /// ((lambda () body)) — a real call frame in the engine.
    ThunkCall(Box<GExpr>),
    /// ((lambda (x) body) arg)
    AppLambda(Box<GExpr>, Box<GExpr>),
    Wcm(u8, Box<GExpr>, Box<GExpr>),
    MarkList(u8),
    MarkFirst(u8),
    ZeroP(Box<GExpr>),
    /// (call/cc (lambda (kN) body))
    CallCc(Box<GExpr>),
    /// (kI arg) — invoke an enclosing continuation. Rendered inside a
    /// `call/cc` body only (upward escape, always within the extent);
    /// renders as plain `arg` when no continuation is in scope.
    InvokeK(u8, Box<GExpr>),
    /// (dynamic-wind (lambda () (note 'preT)) (lambda () body)
    ///               (lambda () (note 'postT) [(kI n)])) — winders that
    /// read no marks (the model runs jump-run thunks under the target's
    /// marks), so jump paths leave an observable trail in `dw-log`. The
    /// optional `(kI n)` escapes from the after-thunk to an enclosing
    /// continuation with a literal; it renders only when one is in scope.
    Dw(u8, Box<GExpr>, Option<(u8, i8)>),
}

fn key_name(k: u8) -> &'static str {
    match k % 3 {
        0 => "ka",
        1 => "kb",
        _ => "kc",
    }
}

fn arb_gexpr() -> impl Strategy<Value = GExpr> {
    let leaf = prop_oneof![
        any::<i8>().prop_map(GExpr::Num),
        (0u8..3).prop_map(GExpr::Key),
        (0u8..4).prop_map(GExpr::VarRef),
        (0u8..3).prop_map(GExpr::MarkList),
        (0u8..3).prop_map(GExpr::MarkFirst),
    ];
    leaf.prop_recursive(5, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| GExpr::If(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
            prop::collection::vec(inner.clone(), 1..4).prop_map(GExpr::Begin),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GExpr::Let(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| GExpr::ThunkCall(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GExpr::AppLambda(Box::new(a), Box::new(b))),
            (0u8..3, inner.clone(), inner.clone()).prop_map(|(k, v, b)| GExpr::Wcm(
                k,
                Box::new(v),
                Box::new(b)
            )),
            inner.clone().prop_map(|a| GExpr::ZeroP(Box::new(a))),
            inner.clone().prop_map(|a| GExpr::CallCc(Box::new(a))),
            (0u8..2, inner.clone()).prop_map(|(i, a)| GExpr::InvokeK(i, Box::new(a))),
            (0u8..3, inner.clone(), (0u8..4, any::<i8>())).prop_map(|(t, a, (i, n))| {
                GExpr::Dw(t, Box::new(a), (i < 2).then_some((i, n)))
            }),
        ]
    })
}

/// Renders to source; `scope` = bound variables, `kdepth` = enclosing
/// `call/cc` continuations in scope.
fn render(e: &GExpr, scope: u32, kdepth: u32, out: &mut String) {
    use std::fmt::Write as _;
    match e {
        GExpr::Num(n) => {
            let _ = write!(out, "{n}");
        }
        GExpr::Key(k) => {
            let _ = write!(out, "'{}", key_name(*k));
        }
        GExpr::VarRef(i) => {
            if scope == 0 {
                out.push('0');
            } else {
                let _ = write!(out, "v{}", (*i as u32) % scope);
            }
        }
        GExpr::Add(a, b) => {
            out.push_str("(+ ");
            render(a, scope, kdepth, out);
            out.push(' ');
            render(b, scope, kdepth, out);
            out.push(')');
        }
        GExpr::If(t, c, a) => {
            out.push_str("(if ");
            render(t, scope, kdepth, out);
            out.push(' ');
            render(c, scope, kdepth, out);
            out.push(' ');
            render(a, scope, kdepth, out);
            out.push(')');
        }
        GExpr::Begin(es) => {
            out.push_str("(begin");
            for x in es {
                out.push(' ');
                render(x, scope, kdepth, out);
            }
            out.push(')');
        }
        GExpr::Let(init, body) => {
            let _ = write!(out, "(let ([v{scope} ");
            render(init, scope, kdepth, out);
            out.push_str("]) ");
            render(body, scope + 1, kdepth, out);
            out.push(')');
        }
        GExpr::ThunkCall(body) => {
            out.push_str("((lambda () ");
            render(body, scope, kdepth, out);
            out.push_str("))");
        }
        GExpr::AppLambda(arg, body) => {
            let _ = write!(out, "((lambda (v{scope}) ");
            render(body, scope + 1, kdepth, out);
            out.push_str(") ");
            render(arg, scope, kdepth, out);
            out.push(')');
        }
        GExpr::Wcm(k, v, body) => {
            let _ = write!(out, "(with-continuation-mark '{} ", key_name(*k));
            render(v, scope, kdepth, out);
            out.push(' ');
            render(body, scope, kdepth, out);
            out.push(')');
        }
        GExpr::MarkList(k) => {
            let _ = write!(out, "(mark-list '{})", key_name(*k));
        }
        GExpr::MarkFirst(k) => {
            let _ = write!(out, "(mark-first '{} 'absent)", key_name(*k));
        }
        GExpr::ZeroP(a) => {
            out.push_str("(zero? ");
            render(a, scope, kdepth, out);
            out.push(')');
        }
        GExpr::CallCc(body) => {
            let _ = write!(out, "(call/cc (lambda (k{kdepth}) ");
            render(body, scope, kdepth + 1, out);
            out.push_str("))");
        }
        GExpr::InvokeK(i, arg) => {
            if kdepth == 0 {
                render(arg, scope, kdepth, out);
            } else {
                let _ = write!(out, "(k{} ", (*i as u32) % kdepth);
                render(arg, scope, kdepth, out);
                out.push(')');
            }
        }
        GExpr::Dw(tag, body, escape) => {
            let t = tag % 3;
            let _ = write!(out, "(dynamic-wind (lambda () (note 'pre{t})) (lambda () ");
            render(body, scope, kdepth, out);
            let _ = write!(out, ") (lambda () (note 'post{t})");
            if let (Some((i, n)), true) = (escape, kdepth > 0) {
                let _ = write!(out, " (k{} {n})", (*i as u32) % kdepth);
            }
            out.push_str("))");
        }
    }
}

/// Shared by the model and every engine variant: the winder log. The
/// program's observable result is `(result . dw-log)`, so winder
/// firing order is differentially checked, not just the final value.
const COMMON_HELPERS: &str = "(define dw-log '())
(define (note t) (set! dw-log (cons t dw-log)))
";

/// Engine-only shims for the model's mark observers.
const ENGINE_HELPERS: &str = r#"
(define (mark-list k) (continuation-mark-set->list #f k))
(define (mark-first k d) (continuation-mark-set-first #f k d))
"#;

/// Renders the full program: helpers, the expression, and the
/// result+log pair.
fn program_source(e: &GExpr) -> String {
    let mut body = String::new();
    render(e, 0, 0, &mut body);
    format!("{COMMON_HELPERS}(define result {body})\n(cons result dw-log)")
}

/// All measured engine configurations — the eight-config matrix from
/// [`cm_core::all_configs`] (the mark-flow optimizer included, so the
/// fuzzer exercises its rewrites against the oracle).
fn engine_variants() -> Vec<(&'static str, EngineConfig)> {
    cm_core::all_configs()
}

/// Runs one source program through the model and every engine variant.
/// `Ok(None)`: the model errored (overflow, type error), nothing to
/// compare. `Err`: some engine errored or disagreed with the model.
fn differential_check_source(src: &str) -> Result<Option<String>, String> {
    let oracle = RefInterp::new().eval(src);
    let Ok(expected) = oracle else {
        return Ok(None);
    };
    for (name, config) in engine_variants() {
        let mut engine = Engine::new(config);
        engine.eval(ENGINE_HELPERS).unwrap();
        match engine.eval_to_string(src) {
            Ok(got) if got == expected => {}
            Ok(got) => {
                return Err(format!(
                    "[{name}] diverged from reference model: engine {got}, model {expected}"
                ))
            }
            Err(err) => {
                return Err(format!(
                    "[{name}] error where model produced {expected}: {err}"
                ))
            }
        }
    }
    Ok(Some(expected))
}

fn differential_check(e: &GExpr) -> Result<(), String> {
    differential_check_source(&program_source(e)).map(drop)
}

/// One-step-smaller variants for the greedy minimizer: hoisted
/// subterms, a constant, and each subterm shrunk in place.
fn shrink_candidates(e: &GExpr) -> Vec<GExpr> {
    use GExpr::*;
    let children: Vec<GExpr> = match e {
        Num(_) | Key(_) | VarRef(_) | MarkList(_) | MarkFirst(_) => Vec::new(),
        Add(a, b) | AppLambda(a, b) | Let(a, b) => vec![(**a).clone(), (**b).clone()],
        If(a, b, c) => vec![(**a).clone(), (**b).clone(), (**c).clone()],
        Begin(es) => es.clone(),
        ThunkCall(a) | ZeroP(a) | CallCc(a) | InvokeK(_, a) | Dw(_, a, _) => vec![(**a).clone()],
        Wcm(_, v, b) => vec![(**v).clone(), (**b).clone()],
    };
    let rebuild = |i: usize, c: GExpr| -> GExpr {
        let boxed = Box::new(c);
        match (e, i) {
            (Add(_, b), 0) => Add(boxed, b.clone()),
            (Add(a, _), 1) => Add(a.clone(), boxed),
            (AppLambda(_, b), 0) => AppLambda(boxed, b.clone()),
            (AppLambda(a, _), 1) => AppLambda(a.clone(), boxed),
            (Let(_, b), 0) => Let(boxed, b.clone()),
            (Let(a, _), 1) => Let(a.clone(), boxed),
            (If(_, b, c), 0) => If(boxed, b.clone(), c.clone()),
            (If(a, _, c), 1) => If(a.clone(), boxed, c.clone()),
            (If(a, b, _), 2) => If(a.clone(), b.clone(), boxed),
            (Begin(es), i) => {
                let mut es = es.clone();
                es[i] = *boxed;
                Begin(es)
            }
            (ThunkCall(_), _) => ThunkCall(boxed),
            (ZeroP(_), _) => ZeroP(boxed),
            (CallCc(_), _) => CallCc(boxed),
            (InvokeK(k, _), _) => InvokeK(*k, boxed),
            (Dw(t, _, esc), _) => Dw(*t, boxed, *esc),
            (Wcm(k, _, b), 0) => Wcm(*k, boxed, b.clone()),
            (Wcm(k, v, _), 1) => Wcm(*k, v.clone(), boxed),
            _ => unreachable!("rebuild index out of range"),
        }
    };
    let mut out = Vec::new();
    // Most aggressive first: replace the whole node by a subterm.
    out.extend(children.iter().cloned());
    if !matches!(e, Num(0)) {
        out.push(Num(0));
    }
    if let Dw(t, a, Some(_)) = e {
        out.push(Dw(*t, a.clone(), None));
    }
    // Then shrink one child in place (one level; the minimizer's outer
    // loop supplies the recursion).
    for (i, c) in children.iter().enumerate() {
        for cand in shrink_candidates(c) {
            out.push(rebuild(i, cand));
        }
    }
    out
}

/// The checked-in regression corpus: distilled failures and
/// hand-written interaction cases, run before any random generation.
#[test]
fn seed_corpus_agrees_across_all_configs() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing seed corpus at {}: {e}", dir.display()))
        .map(|r| r.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "scm"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 8,
        "seed corpus shrank to {}",
        entries.len()
    );
    for path in entries {
        let src = std::fs::read_to_string(&path).unwrap();
        match differential_check_source(&src) {
            Ok(Some(_)) => {}
            Ok(None) => panic!("{}: model failed to evaluate seed", path.display()),
            Err(msg) => panic!("{}: {msg}", path.display()),
        }
    }
}

/// Guards against the generator silently losing coverage: across a
/// sample of cases, the rendered programs must include each of the
/// control constructs this harness exists to test.
#[test]
fn generator_exercises_marks_control_and_winders() {
    let strategy = arb_gexpr();
    let mut rng = proptest::test_runner::TestRng::deterministic(proptest::test_runner::fnv1a(
        "generator_coverage",
    ));
    let mut sources = String::new();
    for _ in 0..300 {
        let e = strategy.gen_value(&mut rng);
        sources.push_str(&program_source(&e));
        sources.push('\n');
    }
    for needle in [
        "(with-continuation-mark ",
        "(mark-list ",
        "(mark-first ",
        "(call/cc ",
        "(k0 ",
        "(dynamic-wind ",
    ] {
        assert!(
            sources.contains(needle),
            "generator never produced {needle}"
        );
    }
    assert!(
        (0..3).any(|t| sources.contains(&format!("(note 'post{t}) (k"))),
        "generator never produced an escaping after-thunk"
    );
}

/// Exercises the shrink machinery without needing a real engine bug:
/// minimizing against "renders an invoked continuation" must reach the
/// smallest such program, not stall on the random original.
#[test]
fn shrinker_reduces_to_minimal_interesting_program() {
    let big = GExpr::Dw(
        1,
        Box::new(GExpr::Add(
            Box::new(GExpr::Let(
                Box::new(GExpr::Num(7)),
                Box::new(GExpr::CallCc(Box::new(GExpr::Begin(vec![
                    GExpr::Wcm(0, Box::new(GExpr::Num(3)), Box::new(GExpr::MarkList(0))),
                    GExpr::InvokeK(0, Box::new(GExpr::Num(9))),
                ])))),
            )),
            Box::new(GExpr::ThunkCall(Box::new(GExpr::Num(5)))),
        )),
        None,
    );
    let interesting = |e: &GExpr| {
        let mut s = String::new();
        render(e, 0, 0, &mut s);
        s.contains("(k0 ")
    };
    assert!(interesting(&big));
    let min = minimize(big, shrink_candidates, interesting, 100);
    let mut s = String::new();
    render(&min, 0, 0, &mut s);
    assert_eq!(
        s, "(call/cc (lambda (k0) (k0 0)))",
        "shrinker left a non-minimal program"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn engines_agree_with_reference_model(e in arb_gexpr()) {
        if let Err(first_msg) = differential_check(&e) {
            let min = minimize(
                e,
                shrink_candidates,
                |c| differential_check(c).is_err(),
                400,
            );
            let msg = differential_check(&min).err().unwrap_or(first_msg);
            let src = program_source(&min);
            prop_assert!(false, "{msg}\nshrunk program:\n{src}");
        }
    }
}
