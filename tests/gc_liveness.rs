//! Heap-liveness tests for the handle heap's rooting rule: values
//! reachable only through captured continuations, winder thunks, globals,
//! or a suspended engine's frozen state must survive forced collections
//! and come back bit-identical (`write`-equal) to an unstressed run; and
//! values nothing reaches any more — dropped results, the constants of
//! dropped code, the decoded state of a migrated engine — must not stay
//! behind, so memory stays bounded under sustained use.
//!
//! Each rooting scenario runs under every engine configuration in the
//! evaluation matrix (`cm_core::all_configs`): the rooting paths differ
//! between the eager-mark-stack and attachment models, and between the
//! segment/underflow variants, so one config passing proves little about
//! the others.

use cm_core::{all_configs, Engine, EngineConfig};
use cm_engines::{RunResult, WorkerHost};
use cm_vm::heap_stats;

/// An allocation churn loop: builds and drops `n` vectors so that, with
/// `gc_stress` on, every iteration forces collections while the scenario's
/// interesting values are live only through the rooting path under test.
const CHURN: &str = "
(define (churn n acc)
  (if (zero? n) acc (churn (- n 1) (cons (vector n) acc))))";

/// Runs `setup` + `run` twice — once plainly, once with collection forced
/// at every safe point — and requires `write`-identical results.
fn assert_stress_identical(name: &str, setup: &str, run: &str) {
    let configs = all_configs();
    assert_eq!(configs.len(), 8);
    for (config_name, config) in configs {
        let ctx = format!("{config_name}/{name}");
        let mut plain = Engine::new(config.clone());
        plain.eval(setup).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let expected = plain
            .eval(run)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"))
            .write_string();

        let mut stressed_config = config.clone();
        stressed_config.machine.gc_stress = true;
        let mut stressed = Engine::new(stressed_config);
        stressed
            .eval(setup)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let got = stressed
            .eval(run)
            .unwrap_or_else(|e| panic!("{ctx} (gc-stress): {e}"))
            .write_string();
        assert_eq!(got, expected, "{ctx}: gc-stress changed the answer");
        assert!(
            stressed.stats().collections > 0,
            "{ctx}: stress run never collected"
        );
    }
}

#[test]
fn callcc_captured_values_survive_forced_collections() {
    // `data` stays reachable only through the frames the continuation
    // froze; the continuation is re-entered three times, churning garbage
    // (and, under stress, forcing collections) between each re-entry.
    let setup = format!(
        "{CHURN}
         (define (go)
           (let ([data (list \"alpha\" (vector 1 2 3) (cons 'x \"beta\"))]
                 [hits (box 0)])
             (let ([k (call/cc (lambda (k) k))])
               (set-box! hits (+ 1 (unbox hits)))
               (churn 25 '())
               (if (< (unbox hits) 3) (k k) #f))
             (cons (unbox hits) data)))"
    );
    assert_stress_identical("callcc", &setup, "(go)");
}

#[test]
fn winder_thunk_values_survive_forced_collections() {
    // The pre/post tags are reachable only as captures of the winder
    // thunks sitting on the winder stack while the body churns; the post
    // thunk then runs after an escaping jump.
    let setup = format!(
        "{CHURN}
         (define out '())
         (define (note v) (set! out (cons v out)))
         (define (go)
           (let ([pre-tag (list \"pre\" (vector 1 2))]
                 [post-tag (list \"post\" (vector 3 4))])
             (call/cc
               (lambda (escape)
                 (dynamic-wind
                   (lambda () (note pre-tag))
                   (lambda () (churn 25 '()) (escape 'out))
                   (lambda () (note post-tag)))))
             out))"
    );
    assert_stress_identical("winders", &setup, "(go)");
}

#[test]
fn marks_and_attachments_survive_forced_collections() {
    // Freshly allocated mark values live only in the marks/attachment
    // registers (and, eager-mode, the mark stack) while `deep` recurses.
    let setup = format!(
        "{CHURN}
         (define (deep n)
           (if (zero? n)
               (continuation-mark-set->list (current-continuation-marks) 'd)
               (with-continuation-mark 'd (list n (vector n))
                 (car (cons (deep (- n 1)) (churn 3 '()))))))"
    );
    assert_stress_identical("marks", &setup, "(deep 12)");
}

#[test]
fn globals_survive_explicit_collection() {
    // Globals are standing heap roots: data stored by one toplevel eval
    // must survive an embedder-forced collection between evals.
    for (config_name, config) in all_configs() {
        let mut engine = Engine::new(config);
        engine
            .eval("(define data (list \"alpha\" (vector 1 2 3) (cons 'x \"beta\")))")
            .unwrap();
        let before = engine.eval("data").unwrap().write_string();
        let collections_before = engine.stats().collections;
        engine.machine_mut().collect_now();
        let after = engine.eval("data").unwrap().write_string();
        assert_eq!(
            after, before,
            "{config_name}: collection corrupted a global"
        );
        assert!(
            engine.stats().collections > collections_before,
            "{config_name}: collect_now did not count a collection"
        );
    }
}

#[test]
fn suspended_engine_state_survives_collect_now_and_resumes_identically() {
    // A suspended engine's frozen stack (holding a partially built list
    // of fresh vectors) is pinned by its `SuspendedRun` root guard; an
    // embedder forcing collections between slices must not disturb it.
    for (config_name, config) in all_configs() {
        let mut host = WorkerHost::new(config);
        host.load(
            "(define (build n)
               (if (zero? n)
                   '()
                   (cons (vector n (list n \"item\")) (build (- n 1)))))",
        )
        .unwrap();
        let expected = host.eval("(build 120)").unwrap().write_string();
        let mut engine = host.spawn("(build 120)").unwrap();
        let mut collections = 0u64;
        let got = loop {
            match engine.run(40) {
                RunResult::Suspended(next, _) => {
                    // Collect while the run is parked: its live state is
                    // reachable only through the heap's standing roots.
                    host.core_mut().machine_mut().collect_now();
                    collections += 1;
                    engine = next;
                }
                RunResult::Done(v, _) => break v,
                RunResult::Failed(e, _) => panic!("{config_name}: {e}"),
            }
        };
        assert!(
            collections >= 3,
            "{config_name}: only {collections} forced collections — slices too big to test anything"
        );
        assert_eq!(
            got.write_string(),
            expected,
            "{config_name}: suspended state corrupted by collection"
        );
    }
}

#[test]
fn gc_stress_engine_suspends_collects_and_resumes_identically() {
    // The same scenario with the machine itself collecting at every safe
    // point *and* the embedder collecting at every suspension: the two
    // collection sources must compose.
    for (config_name, config) in all_configs() {
        let mut stressed = config.clone();
        stressed.machine.gc_stress = true;
        let mut host = WorkerHost::new(stressed);
        host.load(
            "(define (deep n)
               (if (zero? n)
                   (vector-ref (continuation-mark-set-first #f 'd (vector -1)) 0)
                   (with-continuation-mark 'd (vector n)
                     (add1 (deep (- n 1))))))",
        )
        .unwrap();
        let mut plain_host = WorkerHost::new(config);
        plain_host
            .load(
                "(define (deep n)
                   (if (zero? n)
                       (vector-ref (continuation-mark-set-first #f 'd (vector -1)) 0)
                       (with-continuation-mark 'd (vector n)
                         (add1 (deep (- n 1))))))",
            )
            .unwrap();
        let expected = plain_host.eval("(deep 60)").unwrap().write_string();
        let mut engine = host.spawn("(deep 60)").unwrap();
        let mut suspensions = 0u64;
        let got = loop {
            match engine.run(64) {
                RunResult::Suspended(next, _) => {
                    host.core_mut().machine_mut().collect_now();
                    suspensions += 1;
                    engine = next;
                }
                RunResult::Done(v, stats) => {
                    assert!(stats.collections > 0, "{config_name}: never collected");
                    break v;
                }
                RunResult::Failed(e, _) => panic!("{config_name}: {e}"),
            }
        };
        assert!(suspensions > 0, "{config_name}: never suspended");
        assert_eq!(got.write_string(), expected, "{config_name}");
    }
}

/// Forces a full collection on `engine`'s machine and returns the thread
/// heap's live object count.
fn live_after_collect(engine: &mut Engine) -> u64 {
    engine.machine_mut().collect_now();
    heap_stats().live_objects
}

#[test]
fn distinct_evals_leave_live_objects_bounded() {
    // Each eval compiles a fresh string constant and returns a fresh
    // list; once the result is dropped, neither may stay behind.
    fn eval_range(engine: &mut Engine, range: std::ops::Range<u64>) -> u64 {
        for i in range {
            let got = engine
                .eval(&format!("(list {i} (+ {i} 1) \"s{i}\")"))
                .unwrap();
            assert_eq!(got.write_string(), format!("({i} {} \"s{i}\")", i + 1));
        }
        live_after_collect(engine)
    }
    let mut engine = Engine::new(EngineConfig::full());
    let at_1000 = eval_range(&mut engine, 0..1000);
    let at_3000 = eval_range(&mut engine, 1000..3000);
    assert!(
        at_3000 <= at_1000 + 16,
        "live objects grew from {at_1000} to {at_3000} over 2,000 evals"
    );
}

#[test]
fn dropped_codes_free_their_constants() {
    let mut engine = Engine::new(EngineConfig::full());
    let start = live_after_collect(&mut engine);
    for i in 0..500 {
        let code = engine
            .compile_only(&format!("(lambda () '(a (b {i}) \"q{i}\" #(c {i})))"))
            .unwrap();
        drop(code);
    }
    assert_eq!(
        live_after_collect(&mut engine),
        start,
        "constants of 500 dropped codes stayed live"
    );
}

#[test]
fn held_result_survives_stress_runs_and_dies_with_its_holder() {
    // Nine objects: three spine pairs, two strings, a vector, the pairs
    // of `(2 3)` and `(x . "y")`.
    const HELD: &str = "(list \"held\" (vector 1 (list 2 3)) (cons 'x \"y\"))";
    const HELD_OBJECTS: u64 = 9;
    for (config_name, config) in all_configs() {
        let mut stressed = config.clone();
        stressed.machine.gc_stress = true;
        let mut engine = Engine::new(stressed);
        engine.eval(CHURN).unwrap();
        let held = engine.eval(HELD).unwrap();
        let expected = held.write_string();
        for i in 0..50 {
            engine.eval(&format!("(churn {} '())", 2 + i % 3)).unwrap();
            assert_eq!(
                held.write_string(),
                expected,
                "{config_name}: run {i} corrupted a held result"
            );
        }
        let with_holder = live_after_collect(&mut engine);
        drop(held);
        let freed = with_holder - live_after_collect(&mut engine);
        assert_eq!(
            freed, HELD_OBJECTS,
            "{config_name}: dropping the holder freed {freed} objects"
        );
    }
}

#[test]
fn hopped_state_job_leaves_nothing_behind() {
    // A `with-state` job run once in place and once hopped through
    // snapshot -> drop -> restore at every suspension, the way the
    // stealing pool migrates engines: the decoded globals, codes and
    // constants of every hop must die with the engine they rebuilt.
    const JOB: &str = "(with-state 0
                         (lambda ()
                           (let loop ([i 0])
                             (if (= i 60)
                                 (state-get)
                                 (begin (state-put (+ (state-get) i)) (loop (+ i 1)))))))";
    fn run(host: &mut WorkerHost, hop: bool) -> (String, u64, u32) {
        let mut engine = host.spawn(JOB).unwrap();
        let mut hops = 0;
        let answer = loop {
            match engine.run(400) {
                RunResult::Suspended(mut next, _) => {
                    if hop {
                        let bytes = next.snapshot().unwrap();
                        drop(next);
                        next = cm_engines::Engine::restore(&bytes).unwrap();
                        hops += 1;
                    }
                    engine = next;
                }
                RunResult::Done(v, _) => break v.write_string(),
                RunResult::Failed(e, _) => panic!("{e}"),
            }
        };
        (answer, live_after_collect(host.core_mut()), hops)
    }
    let mut host = WorkerHost::new(EngineConfig::full());
    let (plain, plain_live, _) = run(&mut host, false);
    let (hopped, hopped_live, hops) = run(&mut host, true);
    assert_eq!(hopped, plain, "hopping changed the answer");
    assert!(hops >= 10, "only {hops} hops");
    assert!(
        hopped_live <= plain_live + 16,
        "{hops} hops left {hopped_live} live objects against {plain_live} unhopped"
    );
}
