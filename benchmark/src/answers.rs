//! Pinned answers: the `write` string every request must produce, per
//! (workload, entry, n), with where each answer came from.
//!
//! An answer comes from the reference model (`cm-refmodel`) when it
//! accepts the program, and otherwise from the agreement of every engine
//! configuration in `cm_core::all_configs()`. The `#[ignore]`d test
//! `pinned_answers_rederive` recomputes the table and prints it in this
//! file's format when anything differs.

/// One pinned answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinned {
    /// Workload name (`classic`, `marks`, …).
    pub workload: &'static str,
    /// Entry procedure.
    pub entry: &'static str,
    /// Scale argument.
    pub n: i64,
    /// Expected `write` output of `(entry n)`.
    pub answer: &'static str,
    /// How the answer was derived.
    pub provenance: &'static str,
}

/// The answer pinned for `(entry n)` in `workload`, if any.
pub fn lookup<'a>(table: &'a [Pinned], workload: &str, entry: &str, n: i64) -> Option<&'a str> {
    table
        .iter()
        .find(|p| p.workload == workload && p.entry == entry && p.n == n)
        .map(|p| p.answer)
}

macro_rules! pinned {
    ($(($w:expr, $e:expr, $n:expr, $a:expr, $p:expr)),* $(,)?) => {
        &[$(Pinned { workload: $w, entry: $e, n: $n, answer: $a, provenance: $p }),*]
    };
}

/// Every pinned answer.
#[rustfmt::skip]
pub const PINNED: &[Pinned] = pinned![
    ("classic", "tak-bench", 1, "4", "all 8 configs agree"),
    ("classic", "takl-bench", 1, "3", "all 8 configs agree"),
    ("classic", "cpstak-bench", 1, "4", "all 8 configs agree"),
    ("classic", "fib-bench", 21, "10946", "all 8 configs agree"),
    ("classic", "ack-bench", 128, "259", "all 8 configs agree"),
    ("classic", "div-bench", 95, "19000", "all 8 configs agree"),
    ("classic", "deriv-bench", 190, "11590", "all 8 configs agree"),
    ("classic", "dderiv-bench", 190, "11590", "all 8 configs agree"),
    ("classic", "destruct-bench", 19, "86640", "all 8 configs agree"),
    ("classic", "nqueens-bench", 8, "92", "all 8 configs agree"),
    ("classic", "sort1-bench", 4, "10", "all 8 configs agree"),
    ("classic", "fft-bench", 2, "79", "all 8 configs agree"),
    ("classic", "primes-bench", 7500, "950", "all 8 configs agree"),
    ("classic", "collatz-bench", 390, "19512", "all 8 configs agree"),
    ("classic", "boyer-bench", 4, "16", "all 8 configs agree"),
    ("marks", "base-loop-bench", 34000, "done", "all 8 configs agree"),
    ("marks", "base-callcc-loop-bench", 5600, "done", "all 8 configs agree"),
    ("marks", "base-deep-bench", 19000, "19000", "all 8 configs agree"),
    ("marks", "base-callcc-deep-bench", 18000, "18000", "all 8 configs agree"),
    ("marks", "set-loop-bench", 25000, "done", "all 8 configs agree"),
    ("marks", "get-loop-bench", 30000, "done", "all 8 configs agree"),
    ("marks", "get-has-loop-bench", 22000, "done", "all 8 configs agree"),
    ("marks", "get-set-loop-bench", 32000, "done", "all 8 configs agree"),
    ("marks", "consume-set-loop-bench", 19000, "done", "all 8 configs agree"),
    ("marks", "set-nontail-notail-bench", 14000, "14000", "all 8 configs agree"),
    ("marks", "set-tail-notail-bench", 9000, "9000", "all 8 configs agree"),
    ("marks", "set-nontail-tail-bench", 8200, "8200", "all 8 configs agree"),
    ("marks", "loop-arg-call-bench", 11000, "done", "all 8 configs agree"),
    ("marks", "loop-arg-prim-bench", 26000, "done", "all 8 configs agree"),
    ("marks", "mbase-loop-bench", 35000, "done", "all 8 configs agree"),
    ("marks", "mbase-deep-bench", 22000, "22000", "all 8 configs agree"),
    ("marks", "mbase-arg-call-loop-bench", 20000, "done", "all 8 configs agree"),
    ("marks", "mset-loop-bench", 3800, "done", "all 8 configs agree"),
    ("marks", "mset-nontail-prim-bench", 4200, "4200", "all 8 configs agree"),
    ("marks", "mset-tail-notail-bench", 3500, "3500", "all 8 configs agree"),
    ("marks", "mset-nontail-tail-bench", 3300, "3300", "all 8 configs agree"),
    ("marks", "mset-arg-call-loop-bench", 4100, "done", "all 8 configs agree"),
    ("marks", "mset-arg-prim-loop-bench", 5800, "done", "all 8 configs agree"),
    ("marks", "mfirst-none-loop-bench", 8200, "done", "all 8 configs agree"),
    ("marks", "mfirst-some-loop-bench", 13000, "done", "all 8 configs agree"),
    ("marks", "mfirst-deep-loop-bench", 13000, "0", "all 8 configs agree"),
    ("marks", "mimmed-none-loop-bench", 16000, "done", "all 8 configs agree"),
    ("marks", "mimmed-some-loop-bench", 4100, "done", "all 8 configs agree"),
    ("marks", "contract-unchecked-bench", 20000, "20000", "all 8 configs agree"),
    ("marks", "contract-checked-bench", 5000, "5000", "all 8 configs agree"),
    ("marks", "app-activity-log", 1300, "1509562", "all 8 configs agree"),
    ("marks", "app-xsmith", 140, "4461", "all 8 configs agree"),
    ("marks", "app-json", 320, "7324", "all 8 configs agree"),
    ("marks", "app-markdown", 1900, "55749", "all 8 configs agree"),
    ("marks", "app-smt", 14, "915235", "all 8 configs agree"),
    ("marks", "mf-observed-bench", 6100, "37222200", "all 8 configs agree"),
    ("marks", "mf-dead-bench", 6400, "40972800", "all 8 configs agree"),
    ("marks", "mf-mixed-bench", 2700, "10941750", "all 8 configs agree"),
    ("effects", "eff-pipes-bench", 90, "4365", "all 8 configs agree"),
    ("effects", "eff-chain-bench", 95, "18240", "all 8 configs agree"),
    ("effects", "eff-storm-bench", 100, "335372", "all 8 configs agree"),
    ("effects", "eff-state-bench", 630, "198135", "all 8 configs agree"),
    ("effects", "eff-gen-bench", 700, "366450", "all 8 configs agree"),
    ("effects", "eff-amb-bench", 16, "405", "all 8 configs agree"),
    ("effects", "eff-deep-bench", 44, "2746", "all 8 configs agree"),
    ("effects", "eff-shift-bench", 1100, "212197", "all 8 configs agree"),
    ("callcc", "ctak-bench", 1, "10", "refmodel"),
    ("callcc", "triple-native", 100, "884", "all 8 configs agree"),
    ("callcc", "triple-dpjs", 70, "444", "refmodel"),
    ("callcc", "triple-k", 90, "721", "all 8 configs agree"),
    ("callcc", "base-callcc-loop-bench", 8400, "done", "refmodel"),
    ("callcc", "base-callcc-deep-bench", 25000, "25000", "refmodel"),
    ("serve", "eff-pipes-bench", 1, "4", "all 8 configs agree"),
    ("serve", "eff-chain-bench", 1, "4", "all 8 configs agree"),
    ("serve", "eff-storm-bench", 1, "17", "all 8 configs agree"),
    ("serve", "eff-state-bench", 6, "15", "all 8 configs agree"),
    ("serve", "eff-gen-bench", 6, "18", "all 8 configs agree"),
    ("serve", "eff-amb-bench", 2, "0", "all 8 configs agree"),
    ("serve", "eff-deep-bench", 1, "1800", "all 8 configs agree"),
    ("serve", "eff-shift-bench", 16, "288", "all 8 configs agree"),
    ("serve", "eff-pipes-bench", 90, "4365", "all 8 configs agree"),
    ("serve", "eff-chain-bench", 95, "18240", "all 8 configs agree"),
    ("serve", "eff-storm-bench", 100, "335372", "all 8 configs agree"),
    ("serve", "eff-state-bench", 630, "198135", "all 8 configs agree"),
    ("serve", "eff-gen-bench", 700, "366450", "all 8 configs agree"),
    ("serve", "eff-amb-bench", 16, "405", "all 8 configs agree"),
    ("serve", "eff-deep-bench", 44, "2746", "all 8 configs agree"),
    ("serve", "eff-shift-bench", 1100, "212197", "all 8 configs agree"),
];
