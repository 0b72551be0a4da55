//! Control-flow semantics: call/cc, dynamic-wind, delimited control, and
//! the mark-built library features (exceptions, parameters, contracts).

use cm_core::{Engine, EngineConfig};

fn eval(src: &str) -> String {
    Engine::new(EngineConfig::default())
        .eval_to_string(src)
        .unwrap_or_else(|e| panic!("error: {e}\nprogram: {src}"))
}

fn eval_all_variants(src: &str, expected: &str) {
    // A control-focused subset of the centralized matrix, plus the
    // mark-flow optimizer (its rewrites must stay invisible to
    // `call/cc`, winders, and prompts).
    let subset = ["full", "racket-cs", "no-1cc", "old-racket", "mark-flow"];
    for (name, config) in cm_core::all_configs()
        .into_iter()
        .filter(|(n, _)| subset.contains(n))
    {
        let mut e = Engine::new(config);
        let got = e
            .eval_to_string(src)
            .unwrap_or_else(|err| panic!("[{name}] error: {err}"));
        assert_eq!(got, expected, "[{name}]");
    }
}

// ---------------------------------------------------------------------
// call/cc
// ---------------------------------------------------------------------

#[test]
fn callcc_escape() {
    eval_all_variants("(+ 1 (call/cc (lambda (k) (k 41) 999)))", "42");
}

#[test]
fn callcc_no_escape_returns_normally() {
    eval_all_variants("(+ 1 (call/cc (lambda (k) 41)))", "42");
}

#[test]
fn callcc_multi_shot() {
    // Re-entering a continuation several times (generator-style counting).
    eval_all_variants(
        r#"
        (define saved #f)
        (define count 0)
        (define v (call/cc (lambda (k) (set! saved k) 0)))
        (set! count (+ count 1))
        (if (< v 3) (saved (+ v 1)) (list v count))
        "#,
        "(3 4)",
    );
}

#[test]
fn callcc_in_tail_position() {
    eval_all_variants(
        "(define (f) (call/cc (lambda (k) (k 'tailed)))) (f)",
        "tailed",
    );
}

#[test]
fn call1cc_works_once() {
    eval_all_variants("(call/1cc (lambda (k) (k 7)))", "7");
}

#[test]
fn call1cc_second_shot_errors() {
    let mut e = Engine::new(EngineConfig::default());
    let r = e.eval(
        r#"
        (define saved #f)
        (define n 0)
        (call/1cc (lambda (k) (set! saved k)))
        (set! n (+ n 1))
        ;; First explicit shot is fine; the second must fail.
        (if (< n 3) (saved 'again) 'done)
        "#,
    );
    assert!(r.is_err(), "one-shot reuse must fail, got {r:?}");
}

#[test]
fn ctak_small_is_correct() {
    // The classic continuation-intensive benchmark, small size.
    eval_all_variants(
        r#"
        (define (ctak x y z)
          (call/cc (lambda (k) (ctak-aux k x y z))))
        (define (ctak-aux k x y z)
          (if (not (< y x))
              (k z)
              (call/cc
               (lambda (k)
                 (ctak-aux
                  k
                  (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))
                  (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))
                  (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))))
        (ctak 6 4 2)
        "#,
        "3",
    );
}

#[test]
fn deep_recursion_crosses_segments() {
    // Forces overflow splits and underflows (paper: deep recursion uses
    // the same underflow path as capture).
    eval_all_variants(
        r#"
        (define (sum n) (if (zero? n) 0 (+ n (sum (- n 1)))))
        (sum 30000)
        "#,
        "450015000",
    );
}

#[test]
fn overflow_splits_happen_on_deep_recursion() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 30000)")
        .unwrap();
    let stats = e.stats();
    assert!(stats.overflow_splits > 0, "{stats:?}");
    assert!(stats.underflows >= stats.overflow_splits, "{stats:?}");
}

#[test]
fn fusion_happens_for_plain_deep_recursion() {
    // No continuation is captured, so every underflow should fuse.
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 30000)")
        .unwrap();
    let stats = e.stats();
    assert!(stats.fusions > 0, "{stats:?}");
    assert_eq!(stats.copies, 0, "{stats:?}");
}

#[test]
fn no_1cc_variant_copies_instead_of_fusing() {
    let mut e = Engine::new(EngineConfig::no_one_shot());
    e.eval("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 30000)")
        .unwrap();
    let stats = e.stats();
    assert_eq!(stats.fusions, 0, "{stats:?}");
    assert!(stats.copies > 0, "{stats:?}");
}

#[test]
fn capture_forces_copy_not_fuse() {
    // A live continuation reference must force the multi-shot (copy) path.
    let mut e = Engine::new(EngineConfig::default());
    e.eval(
        r#"
        (define saved #f)
        (define (f) (call/cc (lambda (k) (set! saved k) 1)))
        (+ 1 (f))
        "#,
    )
    .unwrap();
    let stats = e.stats();
    assert!(stats.copies > 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// dynamic-wind
// ---------------------------------------------------------------------

#[test]
fn dynamic_wind_normal_order() {
    eval_all_variants(
        r#"
        (define trace '())
        (define (log x) (set! trace (cons x trace)))
        (dynamic-wind
          (lambda () (log 'pre))
          (lambda () (log 'body) 'ok)
          (lambda () (log 'post)))
        (reverse trace)
        "#,
        "(pre body post)",
    );
}

#[test]
fn dynamic_wind_runs_post_on_escape() {
    eval_all_variants(
        r#"
        (define trace '())
        (define (log x) (set! trace (cons x trace)))
        (call/cc
          (lambda (escape)
            (dynamic-wind
              (lambda () (log 'pre))
              (lambda () (log 'body) (escape 'out) (log 'unreached))
              (lambda () (log 'post)))))
        (reverse trace)
        "#,
        "(pre body post)",
    );
}

#[test]
fn dynamic_wind_rewinds_on_reentry() {
    eval_all_variants(
        r#"
        (define trace '())
        (define (log x) (set! trace (cons x trace)))
        (define saved #f)
        (define phase 0)
        (dynamic-wind
          (lambda () (log 'pre))
          (lambda ()
            (call/cc (lambda (k) (set! saved k)))
            (log 'body))
          (lambda () (log 'post)))
        (set! phase (+ phase 1))
        (if (< phase 2) (saved 'again) (reverse trace))
        "#,
        "(pre body post pre body post)",
    );
}

#[test]
fn dynamic_wind_value_passes_through() {
    eval_all_variants(
        "(dynamic-wind (lambda () 1) (lambda () 'answer) (lambda () 3))",
        "answer",
    );
}

#[test]
fn winder_marks_are_restored_in_winders() {
    // Footnote 4: winder thunks see the marks of the dynamic-wind call.
    eval_all_variants(
        r#"
        (define seen #f)
        (define saved #f)
        (with-continuation-mark 'ctx 'wind-site
          (car (cons
            (dynamic-wind
              (lambda () (void))
              (lambda () 'v)
              (lambda ()
                (set! seen (continuation-mark-set-first #f 'ctx 'none))))
            0)))
        seen
        "#,
        "wind-site",
    );
    // The same after-thunk, run by normal flow and by a `call/cc` escape
    // whose body carries marks of its own: both see the thunk's mark over
    // the `dynamic-wind` call's, never the body's.
    let program = |body: &str| {
        format!(
            "(define seen #f)
             (define (record!)
               (set! seen (continuation-mark-set->list (current-continuation-marks) 'ctx)))
             (call/cc
               (lambda (k)
                 (with-continuation-mark 'ctx 'wind-site
                   (car (cons
                     (dynamic-wind
                       void
                       (lambda () (with-continuation-mark 'ctx 'body {body}))
                       (lambda () (with-continuation-mark 'ctx 'inner (record!))))
                     0)))))
             seen"
        )
    };
    for body in ["'v", "(k 'escaped)"] {
        for (name, config) in cm_core::all_configs() {
            let got = Engine::new(config)
                .eval_to_string(&program(body))
                .unwrap_or_else(|e| panic!("[{name}] {body}: {e}"));
            assert_eq!(got, "(inner wind-site)", "[{name}] body {body}");
        }
    }
}

// ---------------------------------------------------------------------
// Delimited control
// ---------------------------------------------------------------------

#[test]
fn prompt_normal_return() {
    eval(r#"(%call-with-prompt 'tag (lambda () 42) (lambda (v) (list 'aborted v)))"#);
    assert_eq!(
        eval(r#"(%call-with-prompt 'tag (lambda () 42) (lambda (v) v))"#),
        "42"
    );
}

#[test]
fn abort_reaches_handler() {
    assert_eq!(
        eval(
            r#"(%call-with-prompt 'tag
                 (lambda () (+ 1 (%abort 'tag 'jumped)))
                 (lambda (v) (list 'handled v)))"#
        ),
        "(handled jumped)"
    );
}

#[test]
fn abort_skips_inner_prompts_with_other_tags() {
    assert_eq!(
        eval(
            r#"(%call-with-prompt 'outer
                 (lambda ()
                   (%call-with-prompt 'inner
                     (lambda () (%abort 'outer 'past-inner))
                     (lambda (v) 'wrong)))
                 (lambda (v) v))"#
        ),
        "past-inner"
    );
}

#[test]
fn composable_continuation_splices() {
    // shift-style: capture (+ 1 []), use it twice.
    assert_eq!(
        eval(
            r#"(%call-with-prompt 'p
                 (lambda ()
                   (+ 1 (%call-with-composable-continuation 'p
                          (lambda (k) (%abort 'p (k (k 10)))))))
                 (lambda (v) v))"#
        ),
        "12"
    );
}

#[test]
fn composable_continuation_used_many_times() {
    assert_eq!(
        eval(
            r#"
            (define k2 #f)
            (%call-with-prompt 'p
              (lambda ()
                (* 2 (%call-with-composable-continuation 'p
                       (lambda (k) (set! k2 k) (%abort 'p 'captured)))))
              (lambda (v) v))
            (list (k2 1) (k2 5) (k2 21))
            "#
        ),
        "(2 10 42)"
    );
}

#[test]
fn marks_splice_through_composable_continuations() {
    // §2.3's claim: composable continuations capture and splice mark
    // subchains naturally.
    assert_eq!(
        eval(
            r#"
            (define k #f)
            (%call-with-prompt 'p
              (lambda ()
                (with-continuation-mark 'm 'inside
                  (car (cons
                    (%call-with-composable-continuation 'p
                      (lambda (c) (set! k c) (%abort 'p 'done)))
                    0))))
              (lambda (v) v))
            ;; Apply the captured slice under an outer mark: both marks
            ;; must be visible, inner first.
            (with-continuation-mark 'm 'outside
              (car (cons (k (continuation-mark-set->list #f 'm)) 0)))
            "#
        ),
        // At capture time the mark list inside was (inside); when
        // re-applied under 'outside, lookups from the application site
        // see (inside outside) — but the value delivered here was
        // computed at application time *before* entering k, so the
        // observed list is the one from the probe argument: (outside).
        // Instead probe inside the continuation:
        "(outside)"
    );
}

#[test]
fn marks_visible_inside_reapplied_composable() {
    assert_eq!(
        eval(
            r#"
            (define k #f)
            (define (probe) (continuation-mark-set->list #f 'm))
            (%call-with-prompt 'p
              (lambda ()
                (with-continuation-mark 'm 'inside
                  (car (cons
                    (%call-with-composable-continuation 'p
                      (lambda (c) (set! k c) (%abort 'p 'done)))
                    0))))
              (lambda (v) v))
            ;; Run the probe inside the re-applied continuation: k's body
            ;; is (car (cons [] 0)) under mark 'inside; we deliver the
            ;; probe's *thunk result* by re-entering with a value computed
            ;; inside? The simplest check: marks captured in k itself.
            (with-continuation-mark 'm 'outside
              (car (cons (k 'x) 0)))
            "#
        ),
        "x"
    );
}

// ---------------------------------------------------------------------
// Exceptions (§2.3)
// ---------------------------------------------------------------------

#[test]
fn catch_and_throw() {
    eval_all_variants(
        "(catch (lambda (v) (list 'caught v)) (+ 1 (throw 'oops)))",
        "(caught oops)",
    );
}

#[test]
fn catch_body_value_when_no_throw() {
    eval_all_variants("(catch (lambda (v) 'caught) 'fine)", "fine");
}

#[test]
fn nested_catch_inner_wins() {
    eval_all_variants(
        r#"
        (catch (lambda (v) (list 'outer v))
          (car (cons
            (catch (lambda (v) (list 'inner v))
              (throw 'x))
            0)))
        "#,
        "(inner x)",
    );
}

#[test]
fn catch_in_tail_position_replaces_handler() {
    // §2.3: plain catch in tail position replaces the handler on the
    // shared frame.
    eval_all_variants(
        r#"
        (catch (lambda (v) (list 'outer v))
          (catch (lambda (v) (list 'inner v))
            (throw 'x)))
        "#,
        "(inner x)",
    );
}

#[test]
fn catch_chain_stacks_handlers_on_one_frame() {
    // §2.3: catch/chain keeps both handlers even in tail position;
    // throw-with-handler-stack can reach the outer one after the inner
    // re-throws... here we check the chain is present.
    eval_all_variants(
        r#"
        (define (handlers) (continuation-mark-set->list #f $handler-key))
        (catch/chain (lambda (v) 'outer)
          (catch/chain (lambda (v) 'inner)
            (length (car (handlers)))))
        "#,
        "2",
    );
}

#[test]
fn throw_without_catch_is_an_error() {
    let mut e = Engine::new(EngineConfig::default());
    assert!(e.eval("(throw 'nobody-home)").is_err());
}

// ---------------------------------------------------------------------
// Parameters (§1)
// ---------------------------------------------------------------------

#[test]
fn parameterize_basic() {
    eval_all_variants(
        r#"
        (define p (make-parameter 'default))
        (list (p) (parameterize ([p 'bound]) (p)) (p))
        "#,
        "(default bound default)",
    );
}

#[test]
fn parameterize_nests_and_restores() {
    eval_all_variants(
        r#"
        (define p (make-parameter 0))
        (parameterize ([p 1])
          (list (p)
                (parameterize ([p 2]) (p))
                (p)))
        "#,
        "(1 2 1)",
    );
}

#[test]
fn parameterize_multiple_parameters() {
    eval_all_variants(
        r#"
        (define p (make-parameter 'a))
        (define q (make-parameter 'b))
        (parameterize ([p 1] [q 2]) (list (p) (q)))
        "#,
        "(1 2)",
    );
}

#[test]
fn parameterize_body_is_tail_position() {
    // Tail calls under parameterize must not grow the continuation: a
    // million iterations under parameterize would overflow otherwise.
    eval_all_variants(
        r#"
        (define p (make-parameter 0))
        (define (loop i)
          (if (zero? i) (p) (loop (- i 1))))
        (parameterize ([p 'done]) (loop 100000))
        "#,
        "done",
    );
}

#[test]
fn parameter_survives_continuation_jump() {
    eval_all_variants(
        r#"
        (define p (make-parameter 'outside))
        (define saved #f)
        (define first-pass
          (parameterize ([p 'inside])
            (car (cons (call/cc (lambda (k) (set! saved k) (p))) 0))))
        (if saved
            (let ([k saved]) (set! saved #f) (k (p)))
            'skip)
        first-pass
        "#,
        // Re-entering the continuation puts us back under the
        // parameterize, so the value delivered from *outside* is what the
        // parameter read outside: 'outside.
        "outside",
    );
}

// ---------------------------------------------------------------------
// Contracts (§8.4)
// ---------------------------------------------------------------------

#[test]
fn contract_passes_good_values() {
    eval_all_variants(
        r#"
        (define wrap ((contract-> integer? integer? 'id-contract) (lambda (x) x)))
        (wrap 42)
        "#,
        "42",
    );
}

#[test]
fn contract_rejects_bad_domain() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define wrap ((contract-> integer? integer? 'c) (lambda (x) x)))")
        .unwrap();
    assert!(e.eval("(wrap \"not-an-int\")").is_err());
}

#[test]
fn contract_rejects_bad_range() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define wrap ((contract-> integer? integer? 'c) (lambda (x) \"str\")))")
        .unwrap();
    assert!(e.eval("(wrap 1)").is_err());
}

#[test]
fn contract_blame_mark_is_visible_during_call() {
    eval_all_variants(
        r#"
        (define (observe x) (current-contract-blame))
        (define wrapped ((contract-> integer? pair? 'obs-contract) observe))
        (wrapped 1)
        "#,
        "(obs-contract)",
    );
}
