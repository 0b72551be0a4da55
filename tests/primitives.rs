//! Inlined and called primitives agree. For every inline row of the
//! primitive table, `(op a ...)` compiles to an `Instr::PrimCall` and
//! `(apply op (list a ...))` makes a native call; both must give the same
//! value, or fail with the same message.

use std::collections::BTreeSet;

use continuation_marks::vm::natives;
use continuation_marks::{Engine, EngineConfig, EngineError};

/// Argument expressions. Neighbours pair a vector with a valid index and
/// numbers of both kinds; every other entry is a wrong type for some row.
const POOL: &[&str] = &[
    "7",
    "2.5",
    "'a",
    "\"s\"",
    "#\\c",
    "'()",
    "(cons 1 2)",
    "(vector 1 2)",
    "0",
    "(box 5)",
    "#f",
];

/// The `write` string of the value, or the error message without the
/// backtrace.
fn outcome(engine: &mut Engine, src: &str) -> String {
    match engine.eval(src) {
        Ok(v) => v.write_string(),
        Err(EngineError::Runtime(e)) => format!("error: {}", e.kind),
        Err(e) => panic!("{src}: {e}"),
    }
}

/// Argument tuples of `argc` pool entries: each entry repeated, and each
/// run of consecutive entries.
fn tuples(argc: usize) -> BTreeSet<Vec<usize>> {
    let n = POOL.len();
    (0..n)
        .flat_map(|start| [0, 1].map(|step| (0..argc).map(|k| (start + k * step) % n).collect()))
        .collect()
}

#[test]
fn inlined_and_applied_primitives_agree() {
    let mut engine = Engine::new(EngineConfig::full());
    let mut rows = 0;
    for (_, def) in natives().filter(|(_, def)| def.inlinable()) {
        rows += 1;
        // Variadic rows take up to two arguments.
        for argc in def.min..=def.max.unwrap_or(def.min.max(2)) {
            for tuple in tuples(argc) {
                let args: Vec<&str> = tuple.iter().map(|&i| POOL[i]).collect();
                let args = args.join(" ");
                let inline = outcome(&mut engine, &format!("({} {args})", def.name));
                let applied = outcome(&mut engine, &format!("(apply {} (list {args}))", def.name));
                assert_eq!(inline, applied, "({} {args})", def.name);
            }
        }
    }
    assert_eq!(rows, 42);
}
