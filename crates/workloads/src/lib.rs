//! Workloads for the paper's evaluation (§8): microbenchmarks for
//! attachments (figure 4) and marks (figure 5), the `ctak` and `triple`
//! continuation benchmarks (§8.1, figure 1, §8.2), a classic Scheme
//! benchmark suite (figure 2), the contract microbenchmark and five
//! synthetic applications (§8.4).
//!
//! Each workload is a Scheme source bundle plus an entry procedure that
//! takes one scale argument and returns a deterministic checksum, so the
//! same definition serves correctness tests (small scale, fixed expected
//! value) and benchmarks (large scale, timed).
//!
//! # Examples
//!
//! ```
//! use cm_workloads::{attachment_micros, load_into, run_scaled};
//! let mut engine = cm_core::Engine::new(Default::default());
//! let w = &attachment_micros()[0];
//! load_into(&mut engine, w);
//! let v = run_scaled(&mut engine, w, 10).unwrap();
//! assert_eq!(v.display_string(), "done");
//! ```

use cm_core::{Engine, EngineError};
use cm_vm::{Rooted, Value};

/// A benchmark workload: a Scheme source bundle with a 1-argument entry
/// procedure.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Short name matching the paper's benchmark tables.
    pub name: &'static str,
    /// Scheme source defining the entry (and its helpers).
    pub source: &'static str,
    /// Name of the entry procedure; called as `(entry n)`.
    pub entry: &'static str,
    /// A small-scale check: `(entry small_n)` must print this.
    pub small_n: i64,
    /// Expected `write` output at `small_n` (deterministic across
    /// engines); `None` for workloads checked elsewhere.
    pub expected: Option<&'static str>,
    /// Default scale for timed runs (tuned for an interpreter, not the
    /// paper's native-code iteration counts).
    pub bench_n: i64,
}

const MICRO_ATTACH: &str = include_str!("scm/micro_attachments.scm");
const MICRO_MARKS: &str = include_str!("scm/micro_marks.scm");
const CTAK: &str = include_str!("scm/ctak.scm");
const TRIPLE_NATIVE: &str = include_str!("scm/triple_native.scm");
const TRIPLE_DPJS: &str = include_str!("scm/triple_dpjs.scm");
const TRIPLE_K: &str = include_str!("scm/triple_k.scm");
const GABRIEL: &str = include_str!("scm/gabriel.scm");
const CONTRACT: &str = include_str!("scm/contract.scm");
const APPS: &str = include_str!("scm/apps.scm");
const BOYER: &str = include_str!("scm/boyer.scm");
const MARKFLOW: &str = include_str!("scm/markflow.scm");
const EFFECTS: &str = include_str!("scm/effects.scm");

/// Loads a workload's source into an engine (idempotent per engine).
///
/// # Panics
///
/// Panics if the bundled source fails to compile — a build defect.
pub fn load_into(engine: &mut Engine, w: &Workload) {
    engine
        .eval(w.source)
        .unwrap_or_else(|e| panic!("workload {} failed to load: {e}", w.name));
}

/// Runs a workload's entry at the given scale.
///
/// # Errors
///
/// Propagates any engine error.
pub fn run_scaled(engine: &mut Engine, w: &Workload, n: i64) -> Result<Rooted, EngineError> {
    engine.call_global(w.entry, vec![Value::fixnum(n)])
}

macro_rules! workloads {
    ($(($name:expr, $src:expr, $entry:expr, $small:expr, $expected:expr, $bench:expr)),* $(,)?) => {
        &[$(Workload {
            name: $name,
            source: $src,
            entry: $entry,
            small_n: $small,
            expected: $expected,
            bench_n: $bench,
        }),*]
    };
}

/// Figure 4: raw continuation-attachment microbenchmarks
/// (builtin vs. the figure-3 imitation).
pub fn attachment_micros() -> &'static [Workload] {
    workloads![
        (
            "base-loop",
            MICRO_ATTACH,
            "base-loop-bench",
            10,
            Some("done"),
            300_000
        ),
        (
            "base-callcc-loop",
            MICRO_ATTACH,
            "base-callcc-loop-bench",
            10,
            Some("done"),
            60_000
        ),
        (
            "base-deep",
            MICRO_ATTACH,
            "base-deep-bench",
            100,
            Some("100"),
            100_000
        ),
        (
            "base-callcc-deep",
            MICRO_ATTACH,
            "base-callcc-deep-bench",
            100,
            Some("100"),
            60_000
        ),
        (
            "set-loop",
            MICRO_ATTACH,
            "set-loop-bench",
            10,
            Some("done"),
            150_000
        ),
        (
            "get-loop",
            MICRO_ATTACH,
            "get-loop-bench",
            10,
            Some("done"),
            150_000
        ),
        (
            "get-has-loop",
            MICRO_ATTACH,
            "get-has-loop-bench",
            10,
            Some("done"),
            100_000
        ),
        (
            "get-set-loop",
            MICRO_ATTACH,
            "get-set-loop-bench",
            10,
            Some("done"),
            100_000
        ),
        (
            "consume-set-loop",
            MICRO_ATTACH,
            "consume-set-loop-bench",
            10,
            Some("done"),
            100_000
        ),
        (
            "set-nontail-notail",
            MICRO_ATTACH,
            "set-nontail-notail-bench",
            100,
            Some("100"),
            50_000
        ),
        (
            "set-tail-notail",
            MICRO_ATTACH,
            "set-tail-notail-bench",
            100,
            Some("100"),
            50_000
        ),
        (
            "set-nontail-tail",
            MICRO_ATTACH,
            "set-nontail-tail-bench",
            100,
            Some("100"),
            50_000
        ),
        (
            "loop-arg-call",
            MICRO_ATTACH,
            "loop-arg-call-bench",
            10,
            Some("done"),
            100_000
        ),
        (
            "loop-arg-prim",
            MICRO_ATTACH,
            "loop-arg-prim-bench",
            10,
            Some("done"),
            100_000
        ),
    ]
}

/// Figure 5: continuation-mark microbenchmarks (Racket CS vs. the old
/// Racket eager mark-stack model).
pub fn mark_micros() -> &'static [Workload] {
    workloads![
        (
            "base-loop",
            MICRO_MARKS,
            "mbase-loop-bench",
            10,
            Some("done"),
            300_000
        ),
        (
            "base-deep",
            MICRO_MARKS,
            "mbase-deep-bench",
            100,
            Some("100"),
            100_000
        ),
        (
            "base-arg-call-loop",
            MICRO_MARKS,
            "mbase-arg-call-loop-bench",
            10,
            Some("done"),
            150_000
        ),
        (
            "set-loop",
            MICRO_MARKS,
            "mset-loop-bench",
            10,
            Some("done"),
            60_000
        ),
        (
            "set-nontail-prim",
            MICRO_MARKS,
            "mset-nontail-prim-bench",
            100,
            Some("100"),
            30_000
        ),
        (
            "set-tail-notail",
            MICRO_MARKS,
            "mset-tail-notail-bench",
            100,
            Some("100"),
            30_000
        ),
        (
            "set-nontail-tail",
            MICRO_MARKS,
            "mset-nontail-tail-bench",
            100,
            Some("100"),
            30_000
        ),
        (
            "set-arg-call-loop",
            MICRO_MARKS,
            "mset-arg-call-loop-bench",
            10,
            Some("done"),
            50_000
        ),
        (
            "set-arg-prim-loop",
            MICRO_MARKS,
            "mset-arg-prim-loop-bench",
            10,
            Some("done"),
            50_000
        ),
        (
            "first-none-loop",
            MICRO_MARKS,
            "mfirst-none-loop-bench",
            10,
            Some("done"),
            100_000
        ),
        (
            "first-some-loop",
            MICRO_MARKS,
            "mfirst-some-loop-bench",
            10,
            Some("done"),
            100_000
        ),
        (
            "first-deep-loop",
            MICRO_MARKS,
            "mfirst-deep-loop-bench",
            10,
            Some("0"),
            50_000
        ),
        (
            "immed-none-loop",
            MICRO_MARKS,
            "mimmed-none-loop-bench",
            10,
            Some("done"),
            60_000
        ),
        (
            "immed-some-loop",
            MICRO_MARKS,
            "mimmed-some-loop-bench",
            10,
            Some("done"),
            50_000
        ),
    ]
}

/// §8.1: the ctak continuation benchmark. The scale argument selects a
/// size (0 = small, 1 = medium, 2 = the traditional 18/12/6).
pub fn ctak() -> &'static [Workload] {
    workloads![("ctak", CTAK, "ctak-bench", 0, Some("5"), 1)]
}

/// Figure 1 / §8.2: the triple delimited-continuation benchmark in its
/// three implementation strategies.
pub fn triple() -> &'static [Workload] {
    workloads![
        (
            "triple-native",
            TRIPLE_NATIVE,
            "triple-native",
            30,
            Some("91"),
            200
        ),
        (
            "triple-dpjs",
            TRIPLE_DPJS,
            "triple-dpjs",
            30,
            Some("91"),
            200
        ),
        ("triple-k", TRIPLE_K, "triple-k", 30, Some("91"), 200),
    ]
}

/// Figure 2: the classic Scheme benchmark suite (no marks involved).
pub fn gabriel() -> &'static [Workload] {
    workloads![
        ("tak", GABRIEL, "tak-bench", 1, Some("4"), 20),
        ("takl", GABRIEL, "takl-bench", 1, Some("3"), 12),
        ("cpstak", GABRIEL, "cpstak-bench", 1, Some("4"), 15),
        ("fib", GABRIEL, "fib-bench", 10, Some("55"), 22),
        ("ack", GABRIEL, "ack-bench", 3, Some("9"), 10),
        ("div", GABRIEL, "div-bench", 2, Some("400"), 300),
        ("deriv", GABRIEL, "deriv-bench", 2, Some("122"), 6_000),
        ("dderiv", GABRIEL, "dderiv-bench", 2, Some("122"), 5_000),
        ("destruct", GABRIEL, "destruct-bench", 1, Some("4560"), 300),
        ("nqueens", GABRIEL, "nqueens-bench", 6, Some("4"), 8),
        ("sort1", GABRIEL, "sort1-bench", 2, None, 60),
        ("fft", GABRIEL, "fft-bench", 1, None, 30),
        ("primes", GABRIEL, "primes-bench", 100, Some("25"), 40_000),
        ("collatz-q", GABRIEL, "collatz-bench", 10, Some("67"), 4_000),
        ("boyer", BOYER, "boyer-bench", 2, Some("8"), 100),
    ]
}

/// §8.4: the contract-checking microbenchmark (unchecked/checked).
pub fn contract() -> &'static [Workload] {
    workloads![
        (
            "unchecked",
            CONTRACT,
            "contract-unchecked-bench",
            10,
            Some("10"),
            100_000
        ),
        (
            "checked",
            CONTRACT,
            "contract-checked-bench",
            10,
            Some("10"),
            40_000
        ),
    ]
}

/// §8.4: the five synthetic applications.
pub fn applications() -> &'static [Workload] {
    workloads![
        (
            "ActivityLog import",
            APPS,
            "app-activity-log",
            10,
            None,
            4_000
        ),
        ("Xsmith cish", APPS, "app-xsmith", 10, None, 2_000),
        ("Megaparsack JSON", APPS, "app-json", 10, None, 2_500),
        ("Markdown", APPS, "app-markdown", 10, None, 6_000),
        ("OL1V3R gauss", APPS, "app-smt", 5, None, 150),
    ]
}

/// Mark-heavy shapes the §7.2 local categorization cannot optimize —
/// the measurement group for the eighth (mark-flow) engine config.
pub fn markflow_micros() -> &'static [Workload] {
    workloads![
        (
            "observed-key",
            MARKFLOW,
            "mf-observed-bench",
            10,
            Some("120"),
            200_000
        ),
        (
            "dead-key",
            MARKFLOW,
            "mf-dead-bench",
            10,
            Some("120"),
            200_000
        ),
        (
            "mixed-keys",
            MARKFLOW,
            "mf-mixed-bench",
            10,
            Some("175"),
            150_000
        ),
    ]
}

/// The libseff-shaped effect-handler workloads (pipes, handler-chain
/// depth sweep, request storm) plus the canonical-handler stress shapes
/// (state, generators, multi-shot amb, shift/reset) — all running on
/// the `crates/effects` library shipped in the prelude.
pub fn effects() -> &'static [Workload] {
    workloads![
        ("pipes", EFFECTS, "eff-pipes-bench", 8, Some("60"), 400),
        ("chain", EFFECTS, "eff-chain-bench", 12, Some("312"), 400),
        ("storm", EFFECTS, "eff-storm-bench", 6, Some("451"), 120),
        ("state", EFFECTS, "eff-state-bench", 20, Some("190"), 3_000),
        ("gen", EFFECTS, "eff-gen-bench", 12, Some("90"), 800),
        ("amb", EFFECTS, "eff-amb-bench", 6, Some("112"), 13),
        ("deep", EFFECTS, "eff-deep-bench", 20, Some("1990"), 600),
        ("shift", EFFECTS, "eff-shift-bench", 10, Some("120"), 4_000),
    ]
}

/// Every workload group, for exhaustive validation.
pub fn all_groups() -> Vec<(&'static str, &'static [Workload])> {
    vec![
        ("attachment-micros", attachment_micros()),
        ("mark-micros", mark_micros()),
        ("ctak", ctak()),
        ("triple", triple()),
        ("gabriel", gabriel()),
        ("contract", contract()),
        ("applications", applications()),
        ("markflow-micros", markflow_micros()),
        ("effects", effects()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::EngineConfig;

    #[test]
    fn every_workload_loads_and_passes_its_small_check() {
        for (group, ws) in all_groups() {
            let mut engine = Engine::new(EngineConfig::full());
            for w in ws {
                load_into(&mut engine, w);
                let v = run_scaled(&mut engine, w, w.small_n)
                    .unwrap_or_else(|e| panic!("{group}/{}: {e}", w.name));
                if let Some(expected) = w.expected {
                    assert_eq!(
                        v.write_string(),
                        expected,
                        "{group}/{} at n={}",
                        w.name,
                        w.small_n
                    );
                }
            }
        }
    }

    #[test]
    fn triple_variants_agree_with_direct_count() {
        // Count (i, j, k) with 0 <= i <= j <= k <= n and i+j+k = n.
        fn direct(n: i64) -> i64 {
            let mut count = 0;
            for i in 0..=n {
                for j in i..=n {
                    let k = n - i - j;
                    if k >= j && k <= n {
                        count += 1;
                    }
                }
            }
            count
        }
        let mut engine = Engine::new(EngineConfig::full());
        for w in triple() {
            load_into(&mut engine, w);
            for n in [0, 1, 5, 17, 30] {
                let v = run_scaled(&mut engine, w, n).unwrap();
                assert!(
                    v.eq_value(&Value::fixnum(direct(n))),
                    "{} at n={n}: got {v}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn checksums_agree_across_engine_variants() {
        // The checksum of every workload must be engine-independent.
        let configs = [
            ("full", EngineConfig::full()),
            ("no-1cc", EngineConfig::no_one_shot()),
            ("no-opt", EngineConfig::no_attachment_opt()),
            ("no-prim", EngineConfig::no_prim_opt()),
        ];
        for (group, ws) in all_groups() {
            for w in ws {
                let mut expected: Option<String> = None;
                for (cname, config) in &configs {
                    let mut engine = Engine::new(config.clone());
                    load_into(&mut engine, w);
                    let v = run_scaled(&mut engine, w, w.small_n)
                        .unwrap_or_else(|e| panic!("{group}/{} [{cname}]: {e}", w.name));
                    let s = v.write_string();
                    match &expected {
                        None => expected = Some(s),
                        Some(e) => assert_eq!(&s, e, "{group}/{} [{cname}]", w.name),
                    }
                }
            }
        }
    }

    #[test]
    fn mark_micros_run_on_old_racket_model() {
        let mut engine = cm_core::Engine::new(EngineConfig::old_racket());
        for w in mark_micros() {
            load_into(&mut engine, w);
            let v = run_scaled(&mut engine, w, w.small_n)
                .unwrap_or_else(|e| panic!("{} (old racket): {e}", w.name));
            if let Some(expected) = w.expected {
                assert_eq!(v.write_string(), expected, "{} (old racket)", w.name);
            }
        }
    }

    #[test]
    fn attachment_micros_run_on_imitation() {
        let mut engine = cm_baseline::imitation_engine();
        for w in attachment_micros() {
            load_into(&mut engine, w);
            let v = run_scaled(&mut engine, w, w.small_n)
                .unwrap_or_else(|e| panic!("{} (imitation): {e}", w.name));
            if let Some(expected) = w.expected {
                assert_eq!(v.write_string(), expected, "{} (imitation)", w.name);
            }
        }
    }

    #[test]
    fn contract_and_apps_run_on_imitation() {
        let mut engine = cm_baseline::imitation_engine();
        for group in [contract(), applications()] {
            for w in group {
                load_into(&mut engine, w);
                run_scaled(&mut engine, w, w.small_n)
                    .unwrap_or_else(|e| panic!("{} (imitation): {e}", w.name));
            }
        }
    }
}
