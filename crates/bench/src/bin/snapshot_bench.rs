//! Emits `BENCH_snapshot.json`: the durable-snapshot codec's cost
//! profile, measured on a live suspended engine rather than synthetic
//! buffers.
//!
//! Three throughput rows — `snapshot` (encode a suspended run + its
//! reachable heap graph to bytes), `restore-vm` (decode + relocate into
//! a fresh machine), and `restore-verified` (the full engine-level
//! restore, which also re-verifies every restored code object through
//! `cm-analysis`) — plus a fleet table: the durable footprint of parking
//! 1k and 10k engines as snapshot bytes, the way the supervised
//! scheduler's checkpoints do. Every timed snapshot is also resumed once
//! and checked against the uninterrupted answer, so the numbers can't
//! quietly describe a codec that corrupts state.
//!
//! ```text
//! snapshot_bench [OUT.json]    # default: BENCH_snapshot.json
//! ```

use std::time::Instant;

use cm_core::EngineConfig;
use cm_engines::{Engine, RunResult, WorkerHost};
use cm_vm::{Machine, Rooted};

/// The checkpointed workload: a mark-annotated accumulator loop that
/// keeps a few thousand pairs and a growing vector live, so snapshots
/// carry a real heap graph (codes, closures, pairs, vectors, marks),
/// not just a stack.
const SETUP: &str = "
(define (build n acc)
  (with-continuation-mark 'depth n
    (if (zero? n)
        acc
        (build (- n 1) (cons n acc)))))
(define (spin n acc)
  (if (zero? n)
      (length acc)
      (spin (- n 1) (cons (car acc) acc))))
";
const RUN: &str = "(spin 200000 (build 4000 '()))";

/// Slices to run before the measured suspension: deep enough that the
/// accumulator list exists and the loop is mid-flight.
const WARM_SLICES: u64 = 40_000;

struct Measurement {
    median_ms: f64,
    stdev_ms: f64,
}

fn time_runs(runs: usize, mut f: impl FnMut()) -> Measurement {
    f(); // warmup
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
    samples.sort_by(|a, b| a.total_cmp(b));
    // The median, not the mean: a single descheduled run would otherwise
    // swing the published numbers.
    Measurement {
        median_ms: samples[samples.len() / 2],
        stdev_ms: var.sqrt(),
    }
}

fn mb_per_s(bytes: usize, ms: f64) -> f64 {
    (bytes as f64 / (1024.0 * 1024.0)) / (ms / 1000.0)
}

/// Runs an engine to completion and returns the displayed value.
fn finish(mut engine: Engine) -> Rooted {
    loop {
        match engine.run(u64::MAX) {
            RunResult::Done(v, _) => return v,
            RunResult::Suspended(e, _) => engine = e,
            RunResult::Failed(e, _) => panic!("benchmark workload failed: {e}"),
        }
    }
}

fn suspended_engine(host: &mut WorkerHost) -> Engine {
    let engine = host.spawn(RUN).unwrap_or_else(|e| panic!("compile: {e}"));
    match engine.run(WARM_SLICES) {
        RunResult::Suspended(e, _) => e,
        other => panic!(
            "workload finished inside the warmup slice; raise RUN's iteration count ({})",
            match other {
                RunResult::Done(v, _) => format!("done: {}", v.display_string()),
                RunResult::Failed(e, _) => format!("failed: {e}"),
                RunResult::Suspended(..) => unreachable!(),
            }
        ),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_snapshot.json".to_owned());
    let runs = 9;

    let mut host = WorkerHost::new(EngineConfig::default());
    host.load(SETUP).unwrap_or_else(|e| panic!("setup: {e}"));

    // Ground truth: the uninterrupted answer every restored engine must
    // reproduce.
    let baseline =
        finish(host.spawn(RUN).unwrap_or_else(|e| panic!("compile: {e}"))).display_string();

    let mut engine = suspended_engine(&mut host);
    let bytes = engine
        .snapshot()
        .unwrap_or_else(|e| panic!("snapshot: {e}"));
    let snapshot_bytes = bytes.len();

    // Correctness gate: the snapshot this file describes must actually
    // resume to the uninterrupted answer.
    let restored = Engine::restore(&bytes).unwrap_or_else(|e| panic!("restore: {e}"));
    assert_eq!(
        finish(restored).display_string(),
        baseline,
        "restored engine diverged from the uninterrupted run"
    );

    let snap = time_runs(runs, || {
        std::hint::black_box(
            engine
                .snapshot()
                .unwrap_or_else(|e| panic!("snapshot: {e}")),
        );
    });
    let restore_vm = time_runs(runs, || {
        std::hint::black_box(
            Machine::restore_snapshot(&bytes).unwrap_or_else(|e| panic!("vm restore: {e}")),
        );
    });
    let restore_verified = time_runs(runs, || {
        std::hint::black_box(
            Engine::restore(&bytes).unwrap_or_else(|e| panic!("engine restore: {e}")),
        );
    });

    // Fleet footprint: park N engines (same program, staggered cut
    // points, shared host globals) as durable bytes — the supervised
    // scheduler's steady state with checkpointing on.
    let mut fleet_rows = String::new();
    for (i, fleet_n) in [1_000usize, 10_000].into_iter().enumerate() {
        let started = Instant::now();
        let mut total_bytes: u64 = 0;
        let mut min_bytes = u64::MAX;
        let mut max_bytes = 0u64;
        for k in 0..fleet_n {
            let engine = host.spawn(RUN).unwrap_or_else(|e| panic!("compile: {e}"));
            // Stagger the cuts so the parked fleet spans many machine
            // states instead of measuring one state N times.
            let mut engine = match engine.run(WARM_SLICES + (k as u64 % 64) * 512) {
                RunResult::Suspended(e, _) => e,
                _ => panic!("fleet engine finished before its cut"),
            };
            let b = engine
                .snapshot()
                .unwrap_or_else(|e| panic!("fleet snapshot: {e}"));
            let n = b.len() as u64;
            total_bytes += n;
            min_bytes = min_bytes.min(n);
            max_bytes = max_bytes.max(n);
        }
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        let per_engine = total_bytes / fleet_n as u64;
        fleet_rows.push_str(&format!(
            "    {{\"engines\": {fleet_n}, \"total-bytes\": {total_bytes}, \
             \"bytes-per-engine\": {per_engine}, \"min-bytes\": {min_bytes}, \
             \"max-bytes\": {max_bytes}, \"wall-ms\": {elapsed_ms:.1}}}{}",
            if i == 0 { ",\n" } else { "\n" }
        ));
        println!(
            "fleet {fleet_n}: {per_engine} bytes/engine ({total_bytes} total, {elapsed_ms:.0} ms)"
        );
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"cm-bench-snapshot-v1\",\n");
    out.push_str("  \"workload\": \"mark-annotated accumulator loop, 4k-pair live list\",\n");
    out.push_str(&format!("  \"snapshot-bytes\": {snapshot_bytes},\n"));
    out.push_str(&format!(
        "  \"snapshot\": {{\"median-ms\": {:.3}, \"stdev-ms\": {:.3}, \"mb-per-s\": {:.1}}},\n",
        snap.median_ms,
        snap.stdev_ms,
        mb_per_s(snapshot_bytes, snap.median_ms)
    ));
    out.push_str(&format!(
        "  \"restore-vm\": {{\"median-ms\": {:.3}, \"stdev-ms\": {:.3}, \"mb-per-s\": {:.1}}},\n",
        restore_vm.median_ms,
        restore_vm.stdev_ms,
        mb_per_s(snapshot_bytes, restore_vm.median_ms)
    ));
    out.push_str(&format!(
        "  \"restore-verified\": {{\"median-ms\": {:.3}, \"stdev-ms\": {:.3}, \"mb-per-s\": {:.1}}},\n",
        restore_verified.median_ms,
        restore_verified.stdev_ms,
        mb_per_s(snapshot_bytes, restore_verified.median_ms)
    ));
    out.push_str("  \"fleet\": [\n");
    out.push_str(&fleet_rows);
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "wrote {out_path} ({snapshot_bytes} bytes/snapshot, snapshot {:.2} ms, restore {:.2} ms)",
        snap.median_ms, restore_verified.median_ms
    );
}
