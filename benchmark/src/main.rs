//! `cm-bench`: runs the benchmark workloads and prints their metrics.
//!
//! ```text
//! cm-bench --seed S [--seconds T] [--trace 0|1]
//!     every workload, each in its own child process, one after another;
//!     prints every metric by name and unit; exits 1 on any failure
//! cm-bench --workload W --seed S [--seconds T] [--trace 0|1]
//!     one workload; per-program rows on stderr, and as the last line of
//!     stdout one JSON object: {"correct", "attempted", "failed", "metrics"}
//! ```
//!
//! `--seconds T` sets the amount of work: the requests the commit that
//! introduced the benchmark completes in `T` seconds on the reference
//! machine. `--trace 1` runs traced: the metrics are the per-layer ones
//! and the spans are written to `$CARGO_TARGET_DIR/cm-bench/trace-W.json`.
//!
//! ```text
//! cm-bench --seed S --baseline FILE [--seconds T]
//!     two sets of five untraced runs of every workload, then one traced
//!     run each; writes medians, quartiles and the per-layer table to FILE
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cm_bench_harness::suite::Kind;
use cm_bench_harness::{run, stats, Options, Report, DEFAULT_SECONDS, END_TO_END};
use cm_trace::json::{self, Json};

struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    /// Run traced, writing the spans to [`trace_path`].
    trace: bool,
    /// Record a baseline into this file instead of printing metrics.
    baseline: Option<PathBuf>,
}

/// Untraced runs per workload in each of a baseline's two sets.
const RUNS_PER_SET: usize = 5;

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        baseline: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => cli.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--baseline" => cli.baseline = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// Where a traced run writes its trace:
/// `$CARGO_TARGET_DIR/cm-bench/trace-<workload>.json`, or under
/// `target/` when the variable is unset.
fn trace_path(kind: Kind) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("cm-bench")
        .join(format!("trace-{}.json", kind.name()))
}

fn one(kind: Kind, cli: &Cli) -> Result<Report, String> {
    let mut opts = Options::new(kind, cli.seed);
    opts.seconds = cli.seconds;
    opts.trace = cli.trace;
    let report = run(&opts);
    for row in &report.rows {
        eprintln!(
            "{:<10} {:<34} {:>6} requests  median {:>9.3} ms",
            kind.name(),
            row.program,
            row.requests,
            row.median_ms
        );
    }
    let l = &report.latency;
    eprintln!(
        "{}: {} timed requests, p{} = {:.3} ms; {} of {} attempted failed",
        kind.name(),
        l.count,
        l.tail_pct,
        l.tail,
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        eprintln!("{}: FAILED {e}", kind.name());
    }
    if let Some(doc) = &report.trace {
        let path = trace_path(kind);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, doc.to_string_compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{}: trace written to {}", kind.name(), path.display());
    }
    Ok(report)
}

/// The parsed result line of one child run.
struct ChildRun {
    /// `(name, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    /// Exited 0 with no failed request.
    clean: bool,
}

/// Runs one workload in a child process of this executable.
fn child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .ok_or_else(|| format!("{}: no result ({})", kind.name(), out.status))?;
    let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    let metrics = match result.get("metrics") {
        Some(Json::Obj(ms)) => ms
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(Json::Num(v)) => *v,
                    _ => f64::NAN,
                };
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildRun {
        metrics,
        attempted: count("attempted"),
        failed: count("failed"),
        clean: out.status.success() && count("failed") == 0,
    })
}

/// Runs every workload in a child process and prints its metrics.
fn all(cli: &Cli) -> Result<bool, String> {
    let mut clean = true;
    for kind in Kind::ALL {
        let run = match child(kind, cli.seed, cli.seconds, cli.trace) {
            Ok(run) => run,
            Err(e) => {
                println!("{e}");
                clean = false;
                continue;
            }
        };
        clean &= run.clean;
        for (name, value, unit) in &run.metrics {
            println!("{:<10} {name:<30} {value:>14.4} {unit}", kind.name());
        }
        println!(
            "{:<10} {:<30} {:>14.4} ratio  ({} of {})",
            kind.name(),
            "failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
            run.failed,
            run.attempted
        );
    }
    Ok(clean)
}

/// Records a baseline in `path`: two sets of [`RUNS_PER_SET`] untraced runs per
/// workload (seeds `S`, `S+1`, …; the second set after the first), each
/// metric's median and quartiles per set, the second set's medians over
/// the first's, and one traced run per workload for the per-layer table
/// and the tracing overhead.
fn baseline(cli: &Cli, path: &Path) -> Result<bool, String> {
    let runs = RUNS_PER_SET;
    let mut clean = true;
    let mut sets: Vec<Vec<(String, Json)>> = Vec::new();
    let mut medians: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..2 {
        let mut per_kind = Vec::new();
        let mut set_medians = Vec::new();
        for kind in Kind::ALL {
            let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
            for r in 0..runs {
                let seed = cli.seed + (set * runs + r) as u64;
                let run = child(kind, seed, cli.seconds, false)?;
                clean &= run.clean;
                for (i, (name, value, unit)) in run.metrics.into_iter().enumerate() {
                    if i == samples.len() {
                        samples.push((name, unit, Vec::new()));
                    }
                    samples[i].2.push(value);
                }
            }
            let mut kind_medians = Vec::new();
            let rows = samples
                .into_iter()
                .map(|(name, unit, mut values)| {
                    let s = stats::summarize(&mut values);
                    kind_medians.push(s.median);
                    let row = Json::Obj(vec![
                        ("median".into(), Json::Num(s.median)),
                        ("q1".into(), Json::Num(s.q1)),
                        ("q3".into(), Json::Num(s.q3)),
                        ("unit".into(), Json::str(unit)),
                        (
                            "values".into(),
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]);
                    (name, row)
                })
                .collect();
            per_kind.push((kind.name().to_string(), Json::Obj(rows)));
            set_medians.push(kind_medians);
        }
        sets.push(per_kind);
        medians.push(set_medians);
    }
    let agreement = Kind::ALL
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            let ratios = END_TO_END
                .iter()
                .enumerate()
                .map(|(m, (name, _))| {
                    let (first, second) = (medians[0][k][m], medians[1][k][m]);
                    (name.to_string(), Json::Num(second / first))
                })
                .collect();
            (kind.name().to_string(), Json::Obj(ratios))
        })
        .collect();
    let mut per_layer = Vec::new();
    for kind in Kind::ALL {
        let run = child(kind, cli.seed, cli.seconds, true)?;
        clean &= run.clean;
        let values = run
            .metrics
            .into_iter()
            .map(|(name, value, _)| (name, Json::Num(value)))
            .collect();
        per_layer.push((kind.name().to_string(), Json::Obj(values)));
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-baseline-v1")),
        (
            "machine".into(),
            Json::Obj(vec![
                ("cpu".into(), Json::str(cpu)),
                ("cpus".into(), Json::num(cpus as u64)),
            ]),
        ),
        ("run_seconds".into(), Json::Num(cli.seconds)),
        ("runs_per_set".into(), Json::num(runs as u64)),
        ("first_seed".into(), Json::num(cli.seed)),
        (
            "sets".into(),
            Json::Arr(sets.into_iter().map(Json::Obj).collect()),
        ),
        ("second_over_first".into(), Json::Obj(agreement)),
        ("per_layer".into(), Json::Obj(per_layer)),
    ]);
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("baseline written to {}", path.display());
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cm-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.workload, &cli.baseline) {
        (Some(kind), _) => one(kind, &cli).map(|report| {
            println!("{}", report.result_json().to_string_compact());
            report.correct()
        }),
        (None, Some(path)) => baseline(&cli, path),
        (None, None) => all(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cm-bench: {e}");
            ExitCode::from(1)
        }
    }
}
