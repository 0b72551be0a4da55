//! Continuation jumps across `dynamic-wind` extents, on all eight engine
//! configurations. A jump runs its winder thunks as ordinary frames of
//! the jump's own continuation (`$wind-to` in the prelude), so a thunk
//! may itself jump, throw, or be re-entered, and a jump out of a prompt
//! leaves the extents saved below that prompt too.

use continuation_marks::{all_configs, refmodel::RefInterp, Engine};

/// Shared by every program: a log of winder events, in order.
const LOG: &str = "
(define log '())
(define (note x) (set! log (cons x log)))
(define (pre) (note 'pre))
(define (post) (note 'post))
";

/// Runs `LOG` then `src` on every config and checks the result.
fn expect_on_all_configs(src: &str, expected: &str) {
    for (name, config) in all_configs() {
        let mut e = Engine::new(config);
        e.eval(LOG).unwrap();
        let got = e
            .eval_to_string(src)
            .unwrap_or_else(|err| panic!("[{name}] error: {err}\nprogram: {src}"));
        assert_eq!(got, expected, "[{name}] program: {src}");
    }
}

#[test]
fn throw_out_of_a_prompt_runs_the_after_thunk() {
    // `with-state` enters a prompt inside the extent; the throw's jump
    // drops that prompt, whose frame holds the extent's winder.
    expect_on_all_configs(
        "(catch (lambda (e) (list 'caught e))
           (dynamic-wind pre
                         (lambda () (with-state 0 (lambda () (throw 'boom))))
                         post))
         (reverse log)",
        "(pre post)",
    );
}

#[test]
fn escape_from_a_prompt_to_outside_the_extent_runs_the_after_thunk() {
    expect_on_all_configs(
        "(call/cc
           (lambda (k)
             (dynamic-wind pre
                           (lambda ()
                             (%call-with-prompt 'p (lambda () (k 'out)) (lambda (v) v)))
                           post)))
         (reverse log)",
        "(pre post)",
    );
}

#[test]
fn escape_from_a_prompt_inside_the_extent_crosses_nothing() {
    // `k` is captured inside the extent but outside the prompt, so the
    // jump leaves the prompt without leaving or re-entering the extent.
    expect_on_all_configs(
        "(dynamic-wind pre
                       (lambda ()
                         (call/cc
                           (lambda (k)
                             (%call-with-prompt 'p (lambda () (k 'out)) (lambda (v) v)))))
                       post)
         (reverse log)",
        "(pre post)",
    );
}

#[test]
fn throw_inside_an_after_thunk_reaches_the_enclosing_catch() {
    // The after-thunk runs under the marks of the `dynamic-wind` call,
    // which include the catch's handler.
    expect_on_all_configs(
        "(catch (lambda (e) (list 'caught e))
           (list
             (call/cc
               (lambda (k)
                 (dynamic-wind void
                               (lambda () (k 'escaped))
                               (lambda () (throw 'in-post)))))))",
        "(caught in-post)",
    );
}

#[test]
fn after_thunk_may_escape_the_jump_that_runs_it() {
    expect_on_all_configs(
        "(call/cc
           (lambda (top)
             (call/cc
               (lambda (k)
                 (dynamic-wind void
                               (lambda () (k 1))
                               (lambda () (top 'escaped-from-post)))))))",
        "escaped-from-post",
    );
}

/// A continuation captured inside a before-thunk while a jump re-enters
/// the extent, applied later: the before-thunk finishes, the extent is
/// entered, and the original jump lands.
const REENTER_FROM_PRE: &str = "
(define saved #f)
(define in-pre #f)
(define pre-runs 0)
(define phase 0)
(dynamic-wind
  (lambda ()
    (note 'pre)
    (set! pre-runs (+ pre-runs 1))
    (if (= pre-runs 2) (call/cc (lambda (k) (set! in-pre k))) #f))
  (lambda ()
    (call/cc (lambda (k) (set! saved k)))
    (note 'body))
  (lambda () (note 'post)))
(set! phase (+ phase 1))
(cond [(= phase 1) (saved 'again)]
      [(= phase 2) (in-pre 'resume)]
      [else (reverse log)])
";

#[test]
fn continuation_captured_in_a_before_thunk_resumes_the_jump() {
    let expected = "(pre body post pre body post body post)";
    expect_on_all_configs(REENTER_FROM_PRE, expected);
    let oracle = RefInterp::new()
        .eval(&format!(
            "(define (reverse l)
               (let loop ([l l] [acc '()])
                 (if (null? l) acc (loop (cdr l) (cons (car l) acc)))))
             (define log '())
             (define (note x) (set! log (cons x log)))
             {REENTER_FROM_PRE}"
        ))
        .unwrap();
    assert_eq!(oracle, expected);
}

/// Runs `LOG` then `src` on every config and checks that the run is
/// refused with an error mentioning `expected`.
fn expect_error_on_all_configs(src: &str, expected: &str) {
    for (name, config) in all_configs() {
        let mut e = Engine::new(config);
        e.eval(LOG).unwrap();
        match e.eval_to_string(src) {
            Ok(v) => panic!("[{name}] expected an error, got {v}\nprogram: {src}"),
            Err(err) => assert!(
                err.to_string().contains(expected),
                "[{name}] error `{err}` lacks `{expected}`\nprogram: {src}"
            ),
        }
    }
}

/// A jump from inside prompt `p` to `k`, captured outside it, leaves the
/// inner extent, whose after-thunk then sends control back at `p`
/// (`RETURN_TO_P` says how). The jump drops `p` before that thunk runs,
/// so the thunk is refused instead of resuming in an extent whose winder
/// is gone.
const LEAVE_P: &str = "
(define first #t)
(define kp #f)
(call/cc
  (lambda (esc)
    (dynamic-wind
      (lambda () (note 'pre-o))
      (lambda ()
        (call/cc
          (lambda (k)
            (dynamic-wind
              void
              (lambda ()
                (%call-with-prompt 'p
                  (lambda () (call/cc (lambda (c) (set! kp c))) (k 0))
                  (lambda (v) v)))
              (lambda ()
                (note 'post-i)
                (if first (begin (set! first #f) RETURN_TO_P) #f)))))
        (esc 'x))
      (lambda () (note 'post-o)))))
";

#[test]
fn after_thunk_cannot_abort_to_a_prompt_the_jump_left() {
    let src = LEAVE_P.replace("RETURN_TO_P", "(%abort 'p 1)");
    expect_error_on_all_configs(&src, "no matching prompt for tag p");
}

#[test]
fn after_thunk_cannot_re_enter_a_prompt_the_jump_left() {
    let src = LEAVE_P.replace("RETURN_TO_P", "(kp 1)");
    expect_error_on_all_configs(&src, "continuation's prompt is no longer active");
}

#[test]
fn programs_cannot_forge_the_winder_marks_barrier() {
    // Jump-run thunks on eager configs see their winder's marks through
    // a barrier entry; no mark a program sets may act as one.
    for native in ["$call-winder-thunk", "$wind-step!"] {
        for val in ["1", "(vector)", "(vector '((k . 9)))"] {
            expect_on_all_configs(
                &format!(
                    "(with-continuation-mark 'k 0
                       (list (with-continuation-mark {native} {val}
                               (continuation-mark-set->list
                                 (current-continuation-marks) 'k))))"
                ),
                "((0))",
            );
        }
    }
}

#[test]
fn programs_cannot_rebind_the_winder_loop() {
    for (name, config) in all_configs() {
        let mut e = Engine::new(config);
        e.eval(LOG).unwrap();
        for src in [
            "(define ($wind-to k v done) (k 'hijacked))",
            "(set! $wind-to (lambda (k v done) (k 'hijacked)))",
        ] {
            let err = e.eval(src).expect_err(src);
            assert!(
                err.to_string().contains("cannot redefine $wind-to"),
                "[{name}] {err}"
            );
        }
        let got = e
            .eval_to_string(
                "(list (call/cc (lambda (k) (dynamic-wind pre (lambda () (k 'out)) post)))
                       (reverse log))",
            )
            .unwrap();
        assert_eq!(got, "(out (pre post))", "[{name}]");
    }
}

#[test]
fn nesting_dynamic_wind_deeply_keeps_memory_linear() {
    // Each winder remembers the marks of its `dynamic-wind` call. In the
    // eager model those live in mark-stack entries; saving a copy of
    // them per winder would make this recursion quadratic in memory and
    // overrun the heap limit, so the winder saves only their count.
    let src = "
      (define (nest n out)
        (if (= n 0)
            (if out (out 'escaped) 0)
            (dynamic-wind void (lambda () (+ 1 (nest (- n 1) out))) void)))
      (list (nest 3000 #f) (call/cc (lambda (out) (nest 3000 out))))";
    for (name, mut config) in all_configs() {
        config.machine = config.machine.with_max_heap_bytes(8 << 20);
        let mut e = Engine::new(config);
        let got = e
            .eval_to_string(src)
            .unwrap_or_else(|err| panic!("[{name}] {err}"));
        assert_eq!(got, "(3000 escaped)", "[{name}]");
    }
}

/// `(ctx)` reads the `'ctx` marks; `seen` collects what thunks read.
const CTX: &str = "
(define seen '())
(define (ctx) (continuation-mark-set->list (current-continuation-marks) 'ctx))
(define (see!) (set! seen (cons (ctx) seen)))
";

#[test]
fn before_thunk_run_by_a_re_entry_sees_its_dynamic_wind_call_marks() {
    // The re-entering jump runs under `'jumper`; the before-thunk must
    // read the marks of the `dynamic-wind` call, found in the target
    // continuation, both times.
    let src = format!(
        "{CTX}
         (define saved #f)
         (with-continuation-mark 'ctx 'outer
           (list
             (with-continuation-mark 'ctx 'wind-site
               (list
                 (dynamic-wind see!
                               (lambda () (call/cc (lambda (k) (set! saved k))) 'body)
                               void)))))
         (if saved
             (let ([k saved])
               (set! saved #f)
               (with-continuation-mark 'ctx 'jumper (list (k 'again))))
             (reverse seen))"
    );
    expect_on_all_configs(&src, "((wind-site outer) (wind-site outer))");
}

#[test]
fn jump_inside_a_jump_run_after_thunk_keeps_both_winders_marks() {
    // The outer after-thunk runs under `(a)`; inside it a second
    // extent is left by a second jump, whose after-thunk must see its
    // own call's marks: frames of the outer thunk, then the outer
    // winder's marks, and nothing of either jump's source.
    let src = format!(
        "{CTX}
         (call/cc
           (lambda (out)
             (with-continuation-mark 'ctx 'a
               (list
                 (dynamic-wind
                   void
                   (lambda () (with-continuation-mark 'ctx 'body (list (out 1))))
                   (lambda ()
                     (with-continuation-mark 'ctx 'post
                       (list
                         (call/cc
                           (lambda (esc)
                             (with-continuation-mark 'ctx 'inner
                               (list
                                 (dynamic-wind void
                                               (lambda () (esc 2))
                                               see!)))))))))))))
         (reverse seen)"
    );
    expect_on_all_configs(&src, "((inner post a))");
}
