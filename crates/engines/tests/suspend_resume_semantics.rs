//! Suspend/resume preserves the paper's semantics: a sliced run — with
//! the machine frozen into a [`cm_vm::SuspendedRun`] at arbitrary
//! instruction boundaries and resumed — must be bit-identical to an
//! uninterrupted run on every engine configuration. That includes the
//! delicate cases: continuation marks live across the suspension,
//! `dynamic-wind` winders in flight (a continuation jump runs its winder
//! thunks as ordinary frames, so a slice may expire, and `%engine-block`
//! suspend, *inside* one, under the thunk's winder marks), and
//! suspensions landing across segment-underflow boundaries.
//! Mark/`call/cc` programs are additionally checked against the §3–§4
//! reference model.

use cm_engines::{Engine, RunResult, WorkerHost};
use cm_refmodel::RefInterp;
use cm_torture::engine_configs;

/// Spells the reference model's `mark-list`/`mark-first` builtins with
/// the real continuation-marks API, plus shared helpers. The `deep` /
/// `burn` recursions give slices non-trivial frames to cut through.
const HELPERS: &str = r#"
(define (mark-list k) (continuation-mark-set->list #f k))
(define (mark-first k d) (continuation-mark-set-first #f k d))
(define (burn n) (if (zero? n) 'ok (burn (- n 1))))
(define (deep n)
  (if (zero? n)
      (mark-first 'd -1)
      (with-continuation-mark 'd n (+ 1 (deep (- n 1))))))
(define events '())
(define (note x) (set! events (cons x events)))
"#;

/// Programs the reference model can also run (no `dynamic-wind`,
/// no mutation of shared state).
const MODEL_PROGRAMS: &[(&str, &str)] = &[
    (
        "nested-marks",
        "(with-continuation-mark 'a 1
           (cons (mark-list 'a)
                 (with-continuation-mark 'a 2 (mark-list 'a))))",
    ),
    (
        "tail-replaces",
        "(with-continuation-mark 'a 1
           (with-continuation-mark 'a 2 (mark-list 'a)))",
    ),
    ("deep-marks", "(deep 45)"),
    (
        "callcc-first",
        "(call/cc (lambda (k)
           (with-continuation-mark 'a 1 (+ 1 (mark-first 'a 0)))))",
    ),
    (
        "callcc-escape",
        "(+ 1 (call/cc (lambda (k)
           (with-continuation-mark 'e 9 (k (mark-first 'e 0))))))",
    ),
];

/// Engine-only programs: winder ordering under preemption. Each resets
/// `events` first, so baseline and sliced runs see identical state.
const WIND_PROGRAMS: &[(&str, &str)] = &[
    (
        "wind-order",
        "(begin
           (set! events '())
           (note (dynamic-wind
                   (lambda () (note 'pre) (burn 25))
                   (lambda ()
                     (note 'mid)
                     (burn 40)
                     (with-continuation-mark 'w 7 (mark-first 'w 0)))
                   (lambda () (note 'post) (burn 25))))
           events)",
    ),
    (
        "wind-escape",
        "(begin
           (set! events '())
           (note (call/cc (lambda (k)
                   (dynamic-wind
                     (lambda () (note 'in) (burn 15))
                     (lambda () (burn 30) (k 'jumped) (note 'unreachable))
                     (lambda () (note 'out) (burn 15))))))
           events)",
    ),
    (
        "wind-reentry",
        "(begin
           (set! events '())
           (let ([k #f] [n 0])
             (with-continuation-mark 'w 'site
               (car (cons
                 (dynamic-wind
                   (lambda () (burn 15) (note (list 'in (mark-first 'w 0))))
                   (lambda () (call/cc (lambda (c) (set! k c))) (note 'body) (burn 20))
                   (lambda () (burn 15) (note (list 'out (mark-first 'w 0)))))
                 0)))
             (set! n (+ n 1))
             (if (< n 3) (k 'again)))
           events)",
    ),
    (
        "wind-nested",
        "(begin
           (set! events '())
           (dynamic-wind
             (lambda () (note 'o-pre))
             (lambda ()
               (dynamic-wind
                 (lambda () (note 'i-pre) (burn 20))
                 (lambda () (note 'body) (deep 12))
                 (lambda () (note 'i-post) (burn 20))))
             (lambda () (note 'o-post)))
           events)",
    ),
];

/// Runs a spawned engine to completion in `slice`-step increments,
/// checking machine invariants at every suspension point.
fn run_sliced(mut engine: Engine, slice: u64, what: &str) -> (String, u64) {
    let base = engine.stats();
    let already_suspended = engine.is_suspended() as u64;
    let mut suspensions = 0;
    loop {
        match engine.run(slice) {
            RunResult::Done(v, stats) => {
                assert_eq!(stats.suspensions - base.suspensions, suspensions, "{what}");
                assert_eq!(
                    stats.resumes - base.resumes,
                    suspensions + already_suspended,
                    "{what}"
                );
                return (v.write_string(), suspensions);
            }
            RunResult::Suspended(e, _) => {
                suspensions += 1;
                e.check_invariants()
                    .unwrap_or_else(|msg| panic!("{what}: invariants at suspension: {msg}"));
                engine = e;
            }
            RunResult::Failed(e, _) => panic!("{what}: engine failed: {e}"),
        }
    }
}

#[test]
fn sliced_runs_match_uninterrupted_on_all_configs() {
    for (config_name, config) in engine_configs() {
        let mut host = WorkerHost::new(config);
        host.load(HELPERS).unwrap();
        for (name, src) in MODEL_PROGRAMS.iter().chain(WIND_PROGRAMS) {
            let baseline = host
                .eval(src)
                .unwrap_or_else(|e| panic!("{config_name}/{name}: baseline: {e}"))
                .write_string();
            for slice in [1, 17, 400] {
                let engine = host.spawn(src).unwrap();
                let what = format!("{config_name}/{name} slice={slice}");
                let (got, suspensions) = run_sliced(engine, slice, &what);
                assert_eq!(got, baseline, "{what}");
                if slice == 1 {
                    assert!(suspensions > 5, "{what}: only {suspensions} suspensions");
                }
            }
        }
    }
}

#[test]
fn sliced_marks_and_callcc_agree_with_reference_model() {
    let mut oracle = RefInterp::new();
    oracle
        .eval(
            "(define (burn n) (if (zero? n) 'ok (burn (- n 1))))
             (define (deep n)
               (if (zero? n)
                   (mark-first 'd -1)
                   (with-continuation-mark 'd n (+ 1 (deep (- n 1))))))",
        )
        .unwrap();
    let mut host = WorkerHost::new(Default::default());
    host.load(HELPERS).unwrap();
    for (name, src) in MODEL_PROGRAMS {
        let expected = oracle
            .eval(src)
            .unwrap_or_else(|e| panic!("{name}: oracle: {e}"));
        let engine = host.spawn(src).unwrap();
        let (got, _) = run_sliced(engine, 13, name);
        assert_eq!(got, expected, "{name}: sliced engine vs reference model");
    }
}

#[test]
fn suspension_crosses_segment_underflow_boundaries() {
    // Tiny segment limits force a stack split (hence an underflow record)
    // every few frames, so suspensions land with a chain of frozen
    // segments below the live one; resume must thread marks through all
    // of them.
    for (config_name, mut config) in engine_configs() {
        for limit in [1, 2, 3] {
            config.machine.segment_frame_limit = limit;
            let mut host = WorkerHost::new(config.clone());
            host.load(HELPERS).unwrap();
            let baseline = host.eval("(deep 35)").unwrap().write_string();
            for slice in [1, 7] {
                let engine = host.spawn("(deep 35)").unwrap();
                let what = format!("{config_name}/seg-limit={limit}/slice={slice}");
                let (got, suspensions) = run_sliced(engine, slice, &what);
                assert_eq!(got, baseline, "{what}");
                assert!(suspensions > 0, "{what}");
            }
        }
    }
}

#[test]
fn undisturbed_resume_fuses_and_never_copies() {
    // The acceptance criterion for the one-shot machinery: suspending and
    // resuming without capturing or sharing the continuation must take
    // the fusion path on the default configuration.
    let mut host = WorkerHost::new(Default::default());
    host.load(HELPERS).unwrap();
    let mut engine = host.spawn("(deep 200)").unwrap();
    loop {
        match engine.run(97) {
            RunResult::Done(_, stats) => {
                assert!(stats.suspensions > 10);
                assert_eq!(stats.copies, 0, "resume copied frames: {stats:?}");
                assert!(stats.fusions >= stats.resumes);
                break;
            }
            RunResult::Suspended(e, _) => engine = e,
            RunResult::Failed(e, _) => panic!("{e}"),
        }
    }
}

#[test]
fn explicit_engine_block_suspends_cooperatively() {
    // `%engine-block` yields at a program-chosen point; the marks in
    // scope at the block must be intact after resume.
    let mut host = WorkerHost::new(Default::default());
    host.load(HELPERS).unwrap();
    let src = "(with-continuation-mark 'b 5
                 (begin (%engine-block) (mark-first 'b 0)))";
    let baseline = host.eval(src).unwrap().write_string();
    assert_eq!(baseline, "5");
    let engine = host.spawn(src).unwrap();
    match engine.run(1_000_000) {
        RunResult::Suspended(e, stats) => {
            assert_eq!(stats.suspensions, 1);
            let (got, _) = run_sliced(e, 1_000_000, "engine-block");
            assert_eq!(got, baseline);
        }
        other => panic!("expected cooperative suspension, got {other:?}"),
    }
}

#[test]
fn engine_block_suspends_inside_a_jump_run_after_thunk() {
    // The escape runs the after-thunk as an ordinary frame, so the block
    // suspends the engine between the thunk's two notes, under the
    // marks of the `dynamic-wind` call.
    let mut host = WorkerHost::new(Default::default());
    host.load(HELPERS).unwrap();
    let src = "(begin
                 (set! events '())
                 (with-continuation-mark 'w 'site
                   (car (cons
                     (call/cc (lambda (k)
                       (dynamic-wind
                         void
                         (lambda () (k 'out))
                         (lambda ()
                           (note 'post-start)
                           (%engine-block)
                           (note 'post-end)))))
                     0)))
                 events)";
    let engine = host.spawn(src).unwrap();
    match engine.run(1_000_000) {
        RunResult::Suspended(e, stats) => {
            assert_eq!(stats.suspensions, 1);
            assert_eq!(host.eval("events").unwrap().write_string(), "(post-start)");
            let marks = e.suspended_marks().expect("suspended engine has marks");
            let lookup = host.eval("(lambda (atts) ($marks->list atts 'w))").unwrap();
            let seen = host
                .core_mut()
                .machine_mut()
                .call_value(*lookup, vec![marks])
                .unwrap();
            assert_eq!(seen.write_string(), "(site)");
            let (got, _) = run_sliced(e, 1_000_000, "engine-block in post");
            assert_eq!(got, "(post-end post-start)");
        }
        other => panic!("expected a suspension inside the after-thunk, got {other:?}"),
    }
}
