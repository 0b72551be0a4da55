//! `cm-bench`: one benchmark harness for the continuation-marks engine.
//!
//! Six workloads ([`suite::Kind`]) each drive the engine from source
//! text to a checked result through its public crates. An untraced run
//! reports the end-to-end metrics ([`END_TO_END`]); a traced run
//! reports the per-layer breakdown ([`PER_LAYER`]) measured by timing
//! calls into each layer's public functions and by `MachineStats`
//! deltas. See `README.md` beside this crate for the workloads, the
//! metric definitions, and how to read the trace.

pub mod answers;
mod replay;
mod run;
pub mod stats;
pub mod suite;
pub mod trace;

use cm_trace::Json;

pub use replay::{instrs, Phases, Replay};
pub use run::run;

/// The end-to-end metrics, `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, `(name, unit)`, reported by traced runs. A
/// layer the workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sexpr.parse_ms", "ms"),
    ("compiler.expand_ms", "ms"),
    ("compiler.cp0_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("compiler.codegen_ms", "ms"),
    ("compiler.instrs", "count"),
    ("compiler.request_ms", "ms"),
    ("analysis.verify_ms", "ms"),
    ("analysis.reverify_ms", "ms"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("vm.prim_calls", "count"),
    ("vm.cont.captures", "count"),
    ("vm.cont.reifications", "count"),
    ("vm.cont.underflows", "count"),
    ("vm.cont.fusions", "count"),
    ("vm.cont.copies", "count"),
    ("vm.cont.fuse_ratio", "ratio"),
    ("vm.cont.overflow_splits", "count"),
    ("vm.cont.winders_run", "count"),
    ("vm.marks.attachments_pushed", "count"),
    ("vm.marks.attachments_popped", "count"),
    ("vm.heap.allocations", "count"),
    ("vm.heap.collections", "count"),
    ("vm.heap.bytes_live_peak", "bytes"),
    ("vm.heap.full_collect_ms", "ms"),
    ("vm.snapshot.encode_ms", "ms"),
    ("vm.snapshot.decode_ms", "ms"),
    ("vm.snapshot.bytes", "bytes"),
    ("engines.spawn_ms", "ms"),
    ("engines.slice_ms", "ms"),
    ("engines.slices", "count"),
    ("engines.queue_wait_ms_p50", "ms"),
    ("engines.steals", "count"),
    ("engines.migrations", "count"),
    ("engines.jain_worker_load", "ratio"),
    ("trace.request_ms", "ms"),
    ("trace.child_cover_min", "ratio"),
    ("trace.req_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Default amount of work, in seconds (see [`Options::seconds`]).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: suite::Kind,
    /// Seed for the request order and the `serve` job mix.
    pub seed: u64,
    /// Amount of work in the timed phase, in seconds at the pace of the
    /// commit that introduced the benchmark: a fixed number of
    /// measurement windows ([`suite::Kind::windows`]). A traced run
    /// splits them evenly between an untraced and a traced half.
    pub seconds: f64,
    /// Run traced: report [`PER_LAYER`] instead of [`END_TO_END`].
    pub trace: bool,
    /// Jobs per `serve` burst.
    pub serve_burst: usize,
    /// The pinned answers responses are checked against.
    pub answers: Vec<answers::Pinned>,
}

impl Options {
    /// An untraced run of [`DEFAULT_SECONDS`] against [`answers::PINNED`].
    pub fn new(kind: suite::Kind, seed: u64) -> Options {
        Options {
            kind,
            seed,
            seconds: DEFAULT_SECONDS,
            trace: false,
            serve_burst: suite::SERVE_BURST,
            answers: answers::PINNED.to_vec(),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Median latency of one program over the run's untraced requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Program (entry or source) name.
    pub program: String,
    /// Requests measured.
    pub requests: usize,
    /// Their median latency.
    pub median_ms: f64,
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub kind: suite::Kind,
    /// Whether the run was traced.
    pub traced: bool,
    /// Timed requests attempted.
    pub attempted: u64,
    /// Of those, requests that failed or produced a wrong answer.
    pub failed: u64,
    /// The first few failure messages (wrong answers, errors, and
    /// failed internal checks such as the replay's instruction count).
    pub errors: Vec<String>,
    /// [`END_TO_END`] values, in that order.
    pub end_to_end: Vec<Metric>,
    /// [`PER_LAYER`] values, in that order (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Per-program latency rows.
    pub rows: Vec<Row>,
    /// Summary of the untraced request latencies (ms).
    pub latency: stats::Summary,
    /// The trace document (traced runs only).
    pub trace: Option<Json>,
}

impl Report {
    /// No request failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The one-line result: correctness, counts, and the end-to-end
    /// metrics (untraced) or the per-layer metrics (traced).
    pub fn result_json(&self) -> Json {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            (
                "metrics".into(),
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            let v = Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]);
                            (m.name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
