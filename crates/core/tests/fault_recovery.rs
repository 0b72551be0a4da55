//! The reuse-after-fault guarantee at the engine level: a `VmError` from
//! one run must never poison the next, on every engine variant. The
//! exhaustive version of this property (thousands of injected faults) is
//! the `cm-torture` harness; these are the targeted regressions.

use std::time::Duration;

use cm_core::{Engine, EngineConfig, EngineError};
use cm_vm::VmErrorKind;

/// All measured engine variants (the centralized eight-config matrix).
fn all_configs() -> Vec<(&'static str, EngineConfig)> {
    cm_core::all_configs()
}

fn runtime_kind(err: EngineError) -> VmErrorKind {
    match err {
        EngineError::Runtime(e) => e.kind,
        EngineError::Compile(e) => panic!("expected runtime error, got compile error: {e}"),
    }
}

#[test]
fn error_success_cycles_on_every_config() {
    for (name, config) in all_configs() {
        let mut e = Engine::new(config);
        e.eval("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        for round in 0..2 {
            // A type error raised under a live mark...
            let kind = runtime_kind(e.eval("(with-continuation-mark 'k 1 (car 5))").unwrap_err());
            assert!(
                matches!(kind, VmErrorKind::WrongType { .. }),
                "[{name}] round {round}: {kind:?}"
            );
            // ...must not leave the mark (or anything else) behind.
            assert_eq!(
                e.eval_to_string("(continuation-mark-set->list (current-continuation-marks) 'k)")
                    .unwrap(),
                "()",
                "[{name}] stale mark after error, round {round}"
            );
            // An error escaping a dynamic-wind must not leave winders.
            let kind = runtime_kind(
                e.eval("(dynamic-wind (lambda () 0) (lambda () (car 5)) (lambda () 1))")
                    .unwrap_err(),
            );
            assert!(matches!(kind, VmErrorKind::WrongType { .. }), "[{name}]");
            // Out-of-fuel mid-loop, then a normal run on the same engine.
            e.machine_mut().config.fuel = Some(100);
            let kind = runtime_kind(e.eval("(spin 1000000)").unwrap_err());
            assert!(matches!(kind, VmErrorKind::OutOfFuel), "[{name}] {kind:?}");
            e.machine_mut().config.fuel = None;
            assert_eq!(
                e.eval_to_string("(spin 10)").unwrap(),
                "done",
                "[{name}] engine poisoned after fuel fault, round {round}"
            );
            e.check_invariants()
                .unwrap_or_else(|m| panic!("[{name}] invariant violated: {m}"));
        }
    }
}

#[test]
fn deadline_is_enforced_and_recoverable() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define (forever) (forever))").unwrap();
    e.machine_mut().config.deadline = Some(Duration::from_millis(10));
    let kind = runtime_kind(e.eval("(forever)").unwrap_err());
    assert!(matches!(kind, VmErrorKind::DeadlineExceeded), "{kind:?}");
    e.machine_mut().config.deadline = None;
    assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3");
}

#[test]
fn runtime_errors_carry_backtraces() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define (inner x) (+ 1 (car x))) (define (outer x) (+ 1 (inner x)))")
        .unwrap();
    let err = match e.eval("(outer 5)").unwrap_err() {
        EngineError::Runtime(err) => err,
        other => panic!("expected runtime error, got {other}"),
    };
    assert!(matches!(err.kind, VmErrorKind::WrongType { .. }));
    let bt = err.backtrace.as_ref().expect("fault-time backtrace");
    assert!(!bt.frames.is_empty());
    // The rendered form names the active code objects and offsets.
    let detailed = err.detailed();
    assert!(detailed.contains("at "), "no backtrace in: {detailed}");
}

#[test]
fn injected_prim_fault_is_clean_and_recoverable() {
    let mut e = Engine::new(EngineConfig::default());
    e.machine_mut().config.fault_plan.fail_prim_at = Some(0);
    let kind = runtime_kind(e.eval("(display 1)").unwrap_err());
    assert!(
        matches!(kind, VmErrorKind::InjectedFault { at: 0, .. }),
        "{kind:?}"
    );
    e.machine_mut().config.fault_plan.fail_prim_at = None;
    assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3");
    assert!(e.machine_mut().stats.injected_faults >= 1);
}
