//! The workload runners: set-up timing, the warm-up pass, the timed
//! closed loops (or `serve` bursts), and — on traced runs — the spans,
//! counter deltas, and replays behind the per-layer metrics.

use std::collections::HashMap;
use std::time::Instant;

use cm_core::{Engine, EngineConfig};
use cm_engines::{
    jain_index, JobSpec, Outcome, PoolConfig, PoolSpec, RunResult, SchedConfig, StealConfig,
    WorkerHost,
};
use cm_trace::Json;
use cm_vm::{Machine, MachineStats};

use crate::stats::{self, median};
use crate::suite::{self, Kind, Program, Requests, Rng};
use crate::trace::{Span, Tracer};
use crate::{answers, instrs, Metric, Options, Replay, Report, Row, END_TO_END, PER_LAYER};

/// Compile-phase replay passes over the workload's sources.
const REPLAY_PASSES: usize = 5;
/// `serve` pool shape.
const SERVE_WORKERS: usize = 2;
const SERVE_SLICE: u64 = 5000;
/// Jobs in `serve`'s untimed warm-up burst.
const SERVE_WARMUP_JOBS: usize = 200;
/// Light and heavy jobs in `serve`'s traced codec replay.
const CODEC_LIGHT: usize = 12;
const CODEC_HEAVY: usize = 4;
/// Failure messages kept per run.
const MAX_ERRORS: usize = 8;

type Layers = HashMap<&'static str, f64>;

/// One correct response.
#[derive(Debug, Clone, Copy)]
struct Sample {
    program: usize,
    ms: f64,
    /// The measurement window it completed in.
    window: usize,
}

/// The requests of one phase.
#[derive(Debug, Default)]
struct Tally {
    samples: Vec<Sample>,
    /// Wall time in seconds of each measurement window.
    windows: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    fn record(&mut self, program: usize, window: usize, result: Result<f64, String>) {
        self.attempted += 1;
        match result {
            Ok(ms) => self.samples.push(Sample {
                program,
                ms,
                window,
            }),
            Err(msg) => {
                self.failed += 1;
                self.note(msg);
            }
        }
    }

    /// Per window: correct responses per second, and their p90 latency.
    fn window_stats(&self) -> (Vec<f64>, Vec<f64>) {
        let mut latencies = vec![Vec::new(); self.windows.len()];
        for s in &self.samples {
            if let Some(l) = latencies.get_mut(s.window) {
                l.push(s.ms);
            }
        }
        latencies
            .into_iter()
            .zip(&self.windows)
            .map(|(mut l, secs)| {
                l.sort_by(f64::total_cmp);
                (l.len() as f64 / secs, stats::percentile(&l, 90.0))
            })
            .unzip()
    }

    /// Throughput in the faster windows: the 75th percentile of the
    /// per-window rates.
    fn req_per_s(&self) -> f64 {
        let (mut rates, _) = self.window_stats();
        rates.sort_by(f64::total_cmp);
        stats::percentile(&rates, 75.0)
    }
}

/// A traced half's results.
struct Traced {
    tally: Tally,
    layers: Layers,
    tracer: Tracer,
}

/// Sums of `MachineStats` deltas over the traced requests.
#[derive(Debug, Default)]
struct Counters {
    totals: Vec<(&'static str, u64)>,
    requests: u64,
    vm_ns: u64,
    bytes_live_peak: u64,
}

impl Counters {
    fn add(&mut self, before: &MachineStats, after: &MachineStats) {
        let delta = after
            .fields()
            .into_iter()
            .zip(before.fields())
            .map(|((name, a), (_, b))| (name, a.saturating_sub(b)));
        if self.totals.is_empty() {
            self.totals = delta.collect();
        } else {
            for (total, (_, d)) in self.totals.iter_mut().zip(delta) {
                total.1 += d;
            }
        }
        self.bytes_live_peak = self.bytes_live_peak.max(after.bytes_live_peak);
    }

    fn total(&self, field: &str) -> f64 {
        self.totals
            .iter()
            .find(|(name, _)| *name == field)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    fn per_request(&self, field: &str) -> f64 {
        self.total(field) / self.requests.max(1) as f64
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Builds a ready engine, appending the build time in seconds to
/// `setup`.
///
/// A run builds one engine before its warm-up and one more after every
/// measurement window, so that a slow spell of the machine meets only
/// some of the builds; `setup_s` is their median.
fn timed_build<T>(setup: &mut Vec<f64>, build: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let built = build();
    setup.push(start.elapsed().as_secs_f64());
    built
}

/// Runs `request` in a closed loop over `seq`: `windows` measurement
/// windows of `per_window` requests each, calling `between` after each
/// window.
fn closed_loop(
    windows: usize,
    per_window: usize,
    seq: &mut Requests,
    mut request: impl FnMut(usize) -> Result<f64, String>,
    mut between: impl FnMut(),
) -> Tally {
    let mut tally = Tally::default();
    for window in 0..windows {
        let start = Instant::now();
        for _ in 0..per_window {
            let p = seq.next().expect("a workload has programs");
            let result = request(p);
            tally.record(p, window, result);
        }
        tally.windows.push(start.elapsed().as_secs_f64());
        between();
    }
    tally
}

/// The measurement windows of a run's untraced and traced halves: all of
/// them untraced, or half each when traced (at least one per half).
fn halves(opts: &Options) -> (usize, usize) {
    let windows = opts.kind.windows(opts.seconds);
    if opts.trace {
        ((windows / 2).max(1), (windows / 2).max(1))
    } else {
        (windows, 0)
    }
}

/// Each program's request text and pinned answer.
fn pinned(opts: &Options, programs: &[Program]) -> (Vec<String>, Vec<String>) {
    programs
        .iter()
        .map(|p| {
            let want = answers::lookup(&opts.answers, opts.kind.name(), p.entry, p.n)
                .unwrap_or_else(|| {
                    panic!("no pinned answer for {} {}", opts.kind.name(), p.request())
                });
            (p.request(), want.to_string())
        })
        .unzip()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Forces a full collection on `engine`, timed as a `vm.heap.collect`
/// span when traced.
fn collect(engine: &mut Engine, tracer: Option<&mut Tracer>, id: u64) {
    let start = Instant::now();
    engine.machine_mut().collect_now();
    if let Some(tracer) = tracer {
        tracer.record("vm.heap.collect", start, Instant::now(), None, id);
    }
}

/// The `MachineStats`-derived VM metrics, per traced request.
fn vm_layers(layers: &mut Layers, c: &Counters, tracer: &Tracer) {
    for (metric, field) in [
        ("vm.steps", "steps_executed"),
        ("vm.prim_calls", "prim_calls"),
        ("vm.cont.captures", "captures"),
        ("vm.cont.reifications", "reifications"),
        ("vm.cont.underflows", "underflows"),
        ("vm.cont.fusions", "fusions"),
        ("vm.cont.copies", "copies"),
        ("vm.cont.overflow_splits", "overflow_splits"),
        ("vm.cont.winders_run", "winders_run"),
        ("vm.marks.attachments_pushed", "attachments_pushed"),
        ("vm.marks.attachments_popped", "attachments_popped"),
        ("vm.heap.allocations", "allocations"),
        ("vm.heap.collections", "collections"),
    ] {
        layers.insert(metric, c.per_request(field));
    }
    let steps = c.total("steps_executed");
    if steps > 0.0 {
        layers.insert("vm.ns_per_step", c.vm_ns as f64 / steps);
    }
    let (fusions, copies) = (c.total("fusions"), c.total("copies"));
    if fusions + copies > 0.0 {
        layers.insert("vm.cont.fuse_ratio", fusions / (fusions + copies));
    }
    layers.insert("vm.heap.bytes_live_peak", c.bytes_live_peak as f64);
    layers.insert(
        "vm.heap.full_collect_ms",
        median(&mut tracer.durations("vm.heap.collect")),
    );
}

/// Replays the compile of `sources` [`REPLAY_PASSES`] times, checking
/// each replayed code against `Engine::compile_only` by instruction
/// count, and reports each phase's median per-pass total.
fn compile_passes(
    layers: &mut Layers,
    engine: &mut Engine,
    sources: &[&str],
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let mut replay = Replay::new(
        engine.config().compiler.clone(),
        engine.machine_mut().globals.clone(),
    );
    let model = engine.config().compiler.mark_model;
    let mut totals: Vec<[f64; 7]> = Vec::new();
    for pass in 0..REPLAY_PASSES {
        let id = pass as u64;
        let pass_span = tracer.open("compile.pass", None, id);
        let mut sum = [0.0; 7];
        for src in sources {
            let (code, phases) = match replay.compile(src) {
                Ok(done) => done,
                Err(e) => {
                    tally.note(format!("replay failed to compile: {e}"));
                    continue;
                }
            };
            phases.record(tracer, Some(pass_span), id);
            let v0 = Instant::now();
            let verdict = cm_analysis::verify(&code, model);
            let v1 = Instant::now();
            tracer.record("analysis.verify", v0, v1, Some(pass_span), id);
            if verdict.is_err() {
                tally.note("replayed code fails bytecode verification".into());
            }
            let want = engine.compile_only(src).map(|c| instrs(&c));
            if want.as_ref().ok() != Some(&instrs(&code)) {
                tally.note(format!(
                    "replay compiled {} instructions, compile_only {want:?}",
                    instrs(&code)
                ));
            }
            for (i, total) in sum.iter_mut().take(5).enumerate() {
                *total += phases.ms(i);
            }
            sum[5] += ms(v0, v1);
            sum[6] += instrs(&code) as f64;
        }
        tracer.close(pass_span);
        totals.push(sum);
    }
    for (i, metric) in [
        "sexpr.parse_ms",
        "compiler.expand_ms",
        "compiler.cp0_ms",
        "compiler.lower_ms",
        "compiler.codegen_ms",
        "analysis.verify_ms",
        "compiler.instrs",
    ]
    .into_iter()
    .enumerate()
    {
        let mut per_pass: Vec<f64> = totals.iter().map(|t| t[i]).collect();
        layers.insert(metric, median(&mut per_pass));
    }
}

/// Shared end of every runner: end-to-end metrics from the untraced
/// requests, per-layer metrics and the trace document from the traced
/// half.
fn finish(
    opts: &Options,
    setup: &mut [f64],
    names: &[String],
    warmup: Tally,
    untraced: Tally,
    traced: Option<Traced>,
) -> Report {
    let rows: Vec<Row> = names
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let mut own: Vec<f64> = untraced
                .samples
                .iter()
                .filter(|s| s.program == p)
                .map(|s| s.ms)
                .collect();
            Row {
                program: name.clone(),
                requests: own.len(),
                median_ms: median(&mut own),
            }
        })
        .collect();
    let mut latencies: Vec<f64> = untraced.samples.iter().map(|s| s.ms).collect();
    let latency = stats::summarize(&mut latencies);
    let untraced_rps = untraced.req_per_s();
    // The tail in the faster windows: the 25th percentile of the
    // per-window p90s.
    let (_, mut p90s) = untraced.window_stats();
    p90s.sort_by(f64::total_cmp);
    let e2e = [
        median(setup),
        untraced_rps,
        stats::geomean(rows.iter().map(|r| r.median_ms)),
        stats::percentile(&p90s, 25.0),
        peak_rss_mb(),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    let mut report = Report {
        kind: opts.kind,
        traced: opts.trace,
        attempted: warmup.attempted + untraced.attempted,
        failed: warmup.failed + untraced.failed,
        errors: warmup.errors.into_iter().chain(untraced.errors).collect(),
        end_to_end,
        per_layer: Vec::new(),
        rows,
        latency,
        trace: None,
    };
    report.errors.truncate(MAX_ERRORS);
    if let Some(Traced {
        tally,
        mut layers,
        tracer,
    }) = traced
    {
        let traced_rps = tally.req_per_s();
        report.attempted += tally.attempted;
        report.failed += tally.failed;
        report.errors.extend(tally.errors);
        report.errors.truncate(MAX_ERRORS);
        layers.insert("trace.request_ms", median(&mut tracer.durations("request")));
        layers.insert("trace.child_cover_min", tracer.child_cover_min());
        layers.insert("trace.req_per_s", traced_rps);
        layers.insert("trace.overhead", traced_rps / untraced_rps.max(1e-9));
        report.per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
            })
            .collect();
        let metrics = |ms: &[Metric]| {
            Json::Obj(
                ms.iter()
                    .map(|m| (m.name.to_string(), Json::Num(m.value)))
                    .collect(),
            )
        };
        report.trace = Some(tracer.to_json(vec![
            ("schema".into(), Json::str("cm-bench-trace-v1")),
            ("workload".into(), Json::str(opts.kind.name())),
            ("seed".into(), Json::num(opts.seed)),
            ("per_layer".into(), metrics(&report.per_layer)),
            ("end_to_end".into(), metrics(&report.end_to_end)),
        ]));
    }
    report
}

/// A run workload's client: its engine and its requests.
struct Client {
    engine: Engine,
    names: Vec<String>,
    texts: Vec<String>,
    expected: Vec<String>,
    next_id: u64,
}

impl Client {
    /// One request: `(entry n)` source text to `write` string, checked
    /// against the pinned answer. Returns the latency in ms.
    ///
    /// A full collection follows every request, outside its timing, so
    /// each request starts from the same heap whatever ran before it.
    fn request(
        &mut self,
        p: usize,
        trace: Option<(&mut Tracer, &mut Counters)>,
    ) -> Result<f64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let before = self.engine.stats();
        let t0 = Instant::now();
        let code = self.engine.compile_only(&self.texts[p]);
        let t1 = Instant::now();
        let result = code.map_err(|e| e.to_string()).and_then(|code| {
            let machine = self.engine.machine_mut();
            machine.refuel();
            machine
                .run_code(code)
                .map(|v| v.write_string())
                .map_err(|e| e.to_string())
        });
        let t2 = Instant::now();
        let mut trace = trace;
        if let Some((tracer, counters)) = &mut trace {
            let r = tracer.record("request", t0, t2, None, id);
            tracer.record("compiler", t0, t1, Some(r), id);
            tracer.record("vm.run", t1, t2, Some(r), id);
            counters.add(&before, &self.engine.stats());
            counters.requests += 1;
            counters.vm_ns += u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
        }
        collect(&mut self.engine, trace.map(|(t, _)| t), id);
        let got = result.map_err(|e| format!("{}: {e}", self.names[p]))?;
        if got != self.expected[p] {
            return Err(format!(
                "{}: got {got}, want {}",
                self.names[p], self.expected[p]
            ));
        }
        Ok(ms(t0, t2))
    }
}

/// `classic`, `marks`, `effects`, `callcc`: one engine, one client.
fn run_programs(opts: &Options) -> Report {
    let programs = suite::programs(opts.kind);
    let bundles = suite::bundles(&programs);
    let (texts, expected) = pinned(opts, &programs);
    let build = || {
        let mut engine = Engine::new(EngineConfig::full());
        for b in &bundles {
            engine.eval(b).expect("workload bundle loads");
        }
        engine
    };
    let mut setup = Vec::new();
    let engine = timed_build(&mut setup, build);
    let names: Vec<String> = programs.iter().map(|p| p.entry.to_string()).collect();
    let mut s = Client {
        engine,
        names: names.clone(),
        texts,
        expected,
        next_id: 0,
    };
    let mut warmup = Tally::default();
    for p in 0..programs.len() {
        warmup.record(p, 0, s.request(p, None));
    }
    let mut seq = Requests::new(programs.len(), opts.seed);
    let per_window = opts.kind.window_rounds() * programs.len();
    let (untraced_windows, traced_windows) = halves(opts);
    let untraced = closed_loop(
        untraced_windows,
        per_window,
        &mut seq,
        |p| s.request(p, None),
        || drop(timed_build(&mut setup, build)),
    );
    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let mut counters = Counters::default();
        let mut tally = closed_loop(
            traced_windows,
            per_window,
            &mut seq,
            |p| s.request(p, Some((&mut tracer, &mut counters))),
            || drop(timed_build(&mut setup, build)),
        );
        let mut layers = Layers::new();
        vm_layers(&mut layers, &counters, &tracer);
        layers.insert(
            "compiler.request_ms",
            median(&mut tracer.durations("compiler")),
        );
        compile_passes(
            &mut layers,
            &mut s.engine,
            &bundles,
            &mut tracer,
            &mut tally,
        );
        Traced {
            tally,
            layers,
            tracer,
        }
    });
    finish(opts, &mut setup, &names, warmup, untraced, traced)
}

/// `compile`: source text to code for every bundle, never run.
fn run_compile(opts: &Options) -> Report {
    let sources = suite::compile_sources();
    let (names, texts): (Vec<&str>, Vec<&str>) = sources.into_iter().unzip();
    let names: Vec<String> = names.into_iter().map(str::to_string).collect();
    let build = || Engine::new(EngineConfig::full());
    let mut setup = Vec::new();
    let mut engine = timed_build(&mut setup, build);
    let model = engine.config().compiler.mark_model;
    // Untraced request: `compile_only`, then the bytecode verifier as
    // the correctness check (outside the latency). The VM stays idle, so
    // no collections are forced.
    let request = |engine: &mut Engine, p: usize| {
        let t0 = Instant::now();
        let code = engine.compile_only(texts[p]);
        let t1 = Instant::now();
        match code {
            Ok(code) if cm_analysis::verify(&code, model).is_ok() => Ok(ms(t0, t1)),
            Ok(_) => Err(format!("{}: compiled code fails verification", names[p])),
            Err(e) => Err(format!("{}: {e}", names[p])),
        }
    };
    let mut warmup = Tally::default();
    for p in 0..texts.len() {
        warmup.record(p, 0, request(&mut engine, p));
    }
    let mut seq = Requests::new(texts.len(), opts.seed);
    let per_window = opts.kind.window_rounds() * texts.len();
    let (untraced_windows, traced_windows) = halves(opts);
    let untraced = closed_loop(
        untraced_windows,
        per_window,
        &mut seq,
        |p| request(&mut engine, p),
        || drop(timed_build(&mut setup, build)),
    );
    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let mut replay = Replay::new(
            engine.config().compiler.clone(),
            engine.machine_mut().globals.clone(),
        );
        let mut id = 0u64;
        // Traced request: the phase replay under a `request` span; then
        // `compile_only` (its instruction count must match) and the
        // verifier, each in its own span.
        let replayed = |p: usize| {
            id += 1;
            let (code, phases) = replay
                .compile(texts[p])
                .map_err(|e| format!("{}: {e}", names[p]))?;
            let (t0, t1) = phases.bounds();
            let r = tracer.record("request", t0, t1, None, id);
            phases.record(&mut tracer, Some(r), id);
            let c0 = Instant::now();
            let direct = engine.compile_only(texts[p]);
            let c1 = Instant::now();
            tracer.record("compiler", c0, c1, None, id);
            let verdict = cm_analysis::verify(&code, model);
            tracer.record("analysis.verify", c1, Instant::now(), None, id);
            let direct = direct.map_err(|e| format!("{}: {e}", names[p]))?;
            if instrs(&direct) != instrs(&code) {
                return Err(format!(
                    "{}: replay compiled {} instructions, compile_only {}",
                    names[p],
                    instrs(&code),
                    instrs(&direct)
                ));
            }
            verdict
                .map(|()| ms(t0, t1))
                .map_err(|_| format!("{}: replayed code fails verification", names[p]))
        };
        let mut tally = closed_loop(traced_windows, per_window, &mut seq, replayed, || {
            drop(timed_build(&mut setup, build));
        });
        let mut layers = Layers::new();
        vm_layers(&mut layers, &Counters::default(), &tracer);
        layers.insert(
            "compiler.request_ms",
            median(&mut tracer.durations("compiler")),
        );
        compile_passes(&mut layers, &mut engine, &texts, &mut tracer, &mut tally);
        Traced {
            tally,
            layers,
            tracer,
        }
    });
    finish(opts, &mut setup, &names, warmup, untraced, traced)
}

/// Per-burst pool accounting gathered on traced `serve` bursts.
#[derive(Debug, Default)]
struct PoolLayers {
    slices: Vec<f64>,
    steals: Vec<f64>,
    migrations: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    jain: Vec<f64>,
}

/// `serve`: bursts of mixed effect jobs through the stealing pool.
struct Serve<'a> {
    opts: &'a Options,
    programs: Vec<Program>,
    bundles: Vec<String>,
    texts: Vec<String>,
    expected: Vec<String>,
    next_burst: u64,
}

impl Serve<'_> {
    fn pool_config(&self, record_spans: bool) -> PoolConfig {
        PoolConfig {
            workers: SERVE_WORKERS,
            sched: SchedConfig {
                slice: SERVE_SLICE,
                record_spans,
                ..SchedConfig::default()
            },
            engine: EngineConfig::full(),
            steal: Some(StealConfig {
                migrate: true,
                ..StealConfig::default()
            }),
        }
    }

    /// Runs one burst of `jobs` through the pool, checking every report
    /// against its pinned answer. Latency is the pool's turnaround.
    fn burst(
        &self,
        jobs: &[usize],
        tally: &mut Tally,
        trace: Option<(&mut Tracer, &mut PoolLayers, u64)>,
    ) {
        let spec = PoolSpec {
            setups: self.bundles.clone(),
            jobs: jobs
                .iter()
                .map(|&p| JobSpec {
                    name: self.programs[p].entry.to_string(),
                    run: self.texts[p].clone(),
                    expected: None,
                })
                .collect(),
            verify: false,
        };
        let start = Instant::now();
        let report = cm_engines::run_pool(&self.pool_config(trace.is_some()), &spec);
        let end = Instant::now();
        let window = tally.windows.len();
        tally.windows.push((end - start).as_secs_f64());
        let reports = report.all_reports();
        tally.attempted += jobs.len() as u64;
        let mut ok = 0usize;
        for r in &reports {
            let p = jobs[r.id];
            match &r.outcome {
                Outcome::Completed(got) if *got == self.expected[p] => {
                    ok += 1;
                    tally.samples.push(Sample {
                        program: p,
                        ms: r.turnaround.as_secs_f64() * 1e3,
                        window,
                    });
                }
                other => tally.note(format!("{}: {other:?}", self.programs[p].request())),
            }
        }
        tally.failed += (jobs.len() - ok) as u64;
        let Some((tracer, pool, base)) = trace else {
            return;
        };
        let burst = tracer.record("serve.burst", start, end, None, base);
        let origin = tracer.ns(start);
        let mut first_slice: HashMap<u64, u64> = HashMap::new();
        for s in report.all_spans() {
            let task = s
                .args
                .iter()
                .find(|(k, _)| *k == "task")
                .and_then(|(_, v)| v.parse::<u64>().ok());
            let name = match s.cat {
                "slice" => "engines.slice",
                "steal" => "engines.steal",
                "migrate" => "engines.migrate",
                "worker" => "engines.worker",
                _ => "engines.pool",
            };
            if let (Some(task), "slice") = (task, s.cat) {
                let first = first_slice.entry(task).or_insert(s.start_us);
                *first = (*first).min(s.start_us);
            }
            tracer.push(Span {
                name,
                start_ns: origin + s.start_us * 1000,
                end_ns: origin + (s.start_us + s.dur_us) * 1000,
                parent: Some(burst),
                request: base + task.unwrap_or(0),
            });
        }
        pool.queue_wait_ms
            .extend(first_slice.values().map(|&us| us as f64 / 1e3));
        for r in &reports {
            pool.slices.push(r.slices as f64);
            pool.steals.push(f64::from(r.steals));
            pool.migrations.push(f64::from(r.migrations));
        }
        pool.jain.push(jain_index(
            report.workers.iter().map(|w| w.steps_executed as f64),
        ));
    }

    /// `count` bursts, calling `between` after each.
    fn bursts(
        &mut self,
        count: usize,
        mut trace: Option<(&mut Tracer, &mut PoolLayers)>,
        mut between: impl FnMut(),
    ) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..count {
            let b = self.next_burst;
            self.next_burst += 1;
            let jobs = suite::serve_mix(self.opts.seed, b, self.opts.serve_burst);
            let base = b * self.opts.serve_burst as u64;
            let trace = trace.as_mut().map(|(t, p)| (&mut **t, &mut **p, base));
            self.burst(&jobs, &mut tally, trace);
            between();
        }
        tally
    }

    /// One job run single-threaded through the codec at every
    /// suspension: spawn → run(slice) → snapshot → decode → restore →
    /// run … Returns the job's `write` string.
    fn codec_job(
        &self,
        host: &mut WorkerHost,
        p: usize,
        id: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
        codec: &mut Codec,
    ) -> Result<String, String> {
        let text = &self.texts[p];
        let c0 = Instant::now();
        host.core_mut()
            .compile_only(text)
            .map_err(|e| e.to_string())?;
        tracer.record("compiler", c0, Instant::now(), None, id);
        // Child spans are kept locally and recorded once the request's
        // own span exists, so no span bookkeeping falls inside it.
        let mut kids: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let start = Instant::now();
        let spawned = host.spawn(text);
        kids.push(("engines.spawn", start, Instant::now()));
        let mut engine = spawned.map_err(|e| e.to_string())?;
        let zero = MachineStats::default();
        counters.requests += 1;
        let result = loop {
            let r0 = Instant::now();
            let ran = engine.run(SERVE_SLICE);
            let r1 = Instant::now();
            kids.push(("engines.run", r0, r1));
            counters.vm_ns += u64::try_from((r1 - r0).as_nanos()).unwrap_or(u64::MAX);
            match ran {
                RunResult::Done(v, st) => {
                    counters.add(&zero, &st);
                    break Ok(v.write_string());
                }
                RunResult::Failed(e, st) => {
                    counters.add(&zero, &st);
                    break Err(e.to_string());
                }
                RunResult::Suspended(mut suspended, st) => {
                    counters.add(&zero, &st);
                    let e0 = Instant::now();
                    let bytes = suspended.snapshot().map_err(|e| e.to_string())?;
                    let e1 = Instant::now();
                    Machine::restore_snapshot(&bytes).map_err(|e| e.to_string())?;
                    let d1 = Instant::now();
                    engine = cm_engines::Engine::restore(&bytes).map_err(|e| e.to_string())?;
                    let v1 = Instant::now();
                    kids.push(("vm.snapshot.encode", e0, e1));
                    kids.push(("vm.snapshot.decode", e1, d1));
                    kids.push(("engines.restore", d1, v1));
                    codec.bytes.push(bytes.len() as f64);
                    codec.reverify_ms.push((ms(d1, v1) - ms(e1, d1)).max(0.0));
                }
            }
        };
        let end = kids.last().map_or(start, |k| k.2);
        let r = tracer.record("request", start, end, None, id);
        for (name, a, b) in kids {
            tracer.record(name, a, b, Some(r), id);
        }
        result
    }
}

/// Codec samples from `serve`'s traced replay.
#[derive(Debug, Default)]
struct Codec {
    bytes: Vec<f64>,
    reverify_ms: Vec<f64>,
}

fn run_serve(opts: &Options) -> Report {
    let programs = suite::programs(Kind::Serve);
    let bundles: Vec<String> = suite::bundles(&programs)
        .into_iter()
        .map(str::to_string)
        .collect();
    let (texts, expected) = pinned(opts, &programs);
    let setups = bundles.clone();
    let build = || {
        let mut host = WorkerHost::new(EngineConfig::full());
        for b in &setups {
            host.load(b).expect("workload bundle loads");
        }
        host
    };
    let mut setup = Vec::new();
    let mut host = timed_build(&mut setup, build);
    let names: Vec<String> = programs.iter().map(Program::request).collect();
    let mut serve = Serve {
        opts,
        programs,
        bundles,
        texts,
        expected,
        next_burst: 0,
    };
    let mut warmup = Tally::default();
    let warm_jobs = suite::serve_mix(opts.seed, u64::MAX, SERVE_WARMUP_JOBS.min(opts.serve_burst));
    serve.burst(&warm_jobs, &mut warmup, None);
    let (untraced_bursts, traced_bursts) = halves(opts);
    let untraced = serve.bursts(untraced_bursts, None, || {
        drop(timed_build(&mut setup, build));
    });
    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let mut pool = PoolLayers::default();
        let mut tally = serve.bursts(traced_bursts, Some((&mut tracer, &mut pool)), || {
            drop(timed_build(&mut setup, build));
        });
        let mut counters = Counters::default();
        let mut codec = Codec::default();
        let mut rng = Rng::new(opts.seed ^ 0xC0DE_C0DE);
        let shapes = serve.programs.len() / 2;
        for k in 0..CODEC_LIGHT + CODEC_HEAVY {
            let p = rng.below(shapes) + if k < CODEC_HEAVY { shapes } else { 0 };
            let id = u64::MAX - k as u64;
            let got = serve.codec_job(&mut host, p, id, &mut tracer, &mut counters, &mut codec);
            tally.attempted += 1;
            if got.as_deref() != Ok(serve.expected[p].as_str()) {
                tally.failed += 1;
                tally.note(format!("codec replay {}: {got:?}", serve.texts[p]));
            }
            collect(host.core_mut(), Some(&mut tracer), id);
        }
        let mut layers = Layers::new();
        vm_layers(&mut layers, &counters, &tracer);
        for (metric, span) in [
            ("compiler.request_ms", "compiler"),
            ("engines.spawn_ms", "engines.spawn"),
            ("engines.slice_ms", "engines.slice"),
            ("vm.snapshot.encode_ms", "vm.snapshot.encode"),
            ("vm.snapshot.decode_ms", "vm.snapshot.decode"),
        ] {
            layers.insert(metric, median(&mut tracer.durations(span)));
        }
        layers.insert("vm.snapshot.bytes", mean(&codec.bytes));
        layers.insert("analysis.reverify_ms", median(&mut codec.reverify_ms));
        layers.insert("engines.slices", mean(&pool.slices));
        layers.insert("engines.steals", mean(&pool.steals));
        layers.insert("engines.migrations", mean(&pool.migrations));
        layers.insert("engines.queue_wait_ms_p50", median(&mut pool.queue_wait_ms));
        layers.insert("engines.jain_worker_load", median(&mut pool.jain));
        let bundle_refs: Vec<&str> = serve.bundles.iter().map(String::as_str).collect();
        compile_passes(
            &mut layers,
            host.core_mut(),
            &bundle_refs,
            &mut tracer,
            &mut tally,
        );
        Traced {
            tally,
            layers,
            tracer,
        }
    });
    finish(opts, &mut setup, &names, warmup, untraced, traced)
}

/// Runs one workload as `opts` describes.
///
/// # Panics
///
/// When a program has no pinned answer or a bundle fails to load — both
/// defects of the harness itself, not measurement outcomes.
pub fn run(opts: &Options) -> Report {
    match opts.kind {
        Kind::Compile => run_compile(opts),
        Kind::Serve => run_serve(opts),
        _ => run_programs(opts),
    }
}
