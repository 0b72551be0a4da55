//! The six workloads: which programs each runs, at which scale, in which
//! seeded order, and how much work one run does.
//!
//! A run workload's request is the source text `(entry n)` evaluated
//! against an engine that has the workload's bundles loaded. The scale
//! `n` of every program is fixed here — the seed never changes it — and
//! was chosen so that one request costs roughly 5 ms in a release build
//! (entries whose smallest scale already costs more, such as `tak` at
//! `n = 1`, run at that smallest scale).
//!
//! The bundles are the Scheme sources of `crates/workloads`, copied into
//! `scm/` beside this crate: what the benchmark runs changes only when the
//! benchmark itself changes.

/// The workloads, in the order `cm-bench --seed S` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The figure-2 classic suite: dispatch and allocation, no marks.
    Classic,
    /// Figure-4/5 attachment and mark micros, the contract benchmark,
    /// the five applications, and the mark-flow micros.
    Marks,
    /// The eight libseff-shaped effect-handler workloads.
    Effects,
    /// Multi-shot continuation programs: ctak, triple, call/cc loops.
    Callcc,
    /// Source text to code for every bundle; the VM stays idle.
    Compile,
    /// Bursts of mixed effect jobs through the work-stealing pool.
    Serve,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 6] = [
        Kind::Classic,
        Kind::Marks,
        Kind::Effects,
        Kind::Callcc,
        Kind::Compile,
        Kind::Serve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Classic => "classic",
            Kind::Marks => "marks",
            Kind::Effects => "effects",
            Kind::Callcc => "callcc",
            Kind::Compile => "compile",
            Kind::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Rounds of the request order in one measurement window (`serve`:
    /// bursts), about half a second of work.
    pub fn window_rounds(self) -> usize {
        match self {
            Kind::Classic => 4,
            Kind::Marks => 3,
            Kind::Effects => 12,
            Kind::Callcc => 15,
            Kind::Compile => 60,
            Kind::Serve => 1,
        }
    }

    /// Measurement windows one second of `--seconds` stands for: the pace
    /// of the commit that introduced the benchmark, in a release build on
    /// the reference machine (2 vCPUs of an Intel Xeon at 2.1 GHz).
    fn windows_per_second(self) -> f64 {
        match self {
            Kind::Classic => 2.0,
            Kind::Marks => 2.1,
            Kind::Effects => 2.0,
            Kind::Callcc => 1.9,
            Kind::Compile => 1.9,
            Kind::Serve => 1.6,
        }
    }

    /// The measurement windows a run of `seconds` does (at least one): a
    /// fixed amount of work, so that every commit does the same requests
    /// and a faster one finishes sooner.
    pub fn windows(self, seconds: f64) -> usize {
        ((seconds * self.windows_per_second()).round() as usize).max(1)
    }
}

/// One program of a run workload.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// The entry procedure (unique across every bundle).
    pub entry: &'static str,
    /// The bundle defining it.
    pub bundle: &'static str,
    /// Its fixed scale.
    pub n: i64,
}

impl Program {
    /// The request's source text.
    pub fn request(&self) -> String {
        format!("({} {})", self.entry, self.n)
    }
}

const CLASSIC: &[(&str, i64)] = &[
    ("tak-bench", 1),
    ("takl-bench", 1),
    ("cpstak-bench", 1),
    ("fib-bench", 21),
    ("ack-bench", 128),
    ("div-bench", 95),
    ("deriv-bench", 190),
    ("dderiv-bench", 190),
    ("destruct-bench", 19),
    ("nqueens-bench", 8),
    ("sort1-bench", 4),
    ("fft-bench", 2),
    ("primes-bench", 7500),
    ("collatz-bench", 390),
    ("boyer-bench", 4),
];

const MARKS: &[(&str, i64)] = &[
    // Figure 4: attachments.
    ("base-loop-bench", 34_000),
    ("base-callcc-loop-bench", 5_600),
    ("base-deep-bench", 19_000),
    ("base-callcc-deep-bench", 18_000),
    ("set-loop-bench", 25_000),
    ("get-loop-bench", 30_000),
    ("get-has-loop-bench", 22_000),
    ("get-set-loop-bench", 32_000),
    ("consume-set-loop-bench", 19_000),
    ("set-nontail-notail-bench", 14_000),
    ("set-tail-notail-bench", 9_000),
    ("set-nontail-tail-bench", 8_200),
    ("loop-arg-call-bench", 11_000),
    ("loop-arg-prim-bench", 26_000),
    // Figure 5: marks.
    ("mbase-loop-bench", 35_000),
    ("mbase-deep-bench", 22_000),
    ("mbase-arg-call-loop-bench", 20_000),
    ("mset-loop-bench", 3_800),
    ("mset-nontail-prim-bench", 4_200),
    ("mset-tail-notail-bench", 3_500),
    ("mset-nontail-tail-bench", 3_300),
    ("mset-arg-call-loop-bench", 4_100),
    ("mset-arg-prim-loop-bench", 5_800),
    ("mfirst-none-loop-bench", 8_200),
    ("mfirst-some-loop-bench", 13_000),
    ("mfirst-deep-loop-bench", 13_000),
    ("mimmed-none-loop-bench", 16_000),
    ("mimmed-some-loop-bench", 4_100),
    // §8.4: contracts and the five applications.
    ("contract-unchecked-bench", 20_000),
    ("contract-checked-bench", 5_000),
    ("app-activity-log", 1_300),
    ("app-xsmith", 140),
    ("app-json", 320),
    ("app-markdown", 1_900),
    ("app-smt", 14),
    // Mark-flow micros.
    ("mf-observed-bench", 6_100),
    ("mf-dead-bench", 6_400),
    ("mf-mixed-bench", 2_700),
];

const EFFECTS: &[(&str, i64)] = &[
    ("eff-pipes-bench", 90),
    ("eff-chain-bench", 95),
    ("eff-storm-bench", 100),
    ("eff-state-bench", 630),
    ("eff-gen-bench", 700),
    ("eff-amb-bench", 16),
    ("eff-deep-bench", 44),
    ("eff-shift-bench", 1_100),
];

const CALLCC: &[(&str, i64)] = &[
    ("ctak-bench", 1),
    ("triple-native", 100),
    ("triple-dpjs", 70),
    ("triple-k", 90),
    ("base-callcc-loop-bench", 8_400),
    ("base-callcc-deep-bench", 25_000),
];

/// `serve`'s light jobs: each effects shape at a scale costing about
/// 0.05–0.4 ms. Its heavy jobs run the same shape at its `effects` scale.
const SERVE_LIGHT: &[(&str, i64)] = &[
    ("eff-pipes-bench", 1),
    ("eff-chain-bench", 1),
    ("eff-storm-bench", 1),
    ("eff-state-bench", 6),
    ("eff-gen-bench", 6),
    ("eff-amb-bench", 2),
    ("eff-deep-bench", 1),
    ("eff-shift-bench", 16),
];

/// Jobs per `serve` burst.
pub const SERVE_BURST: usize = 2000;
/// One `serve` job in this many is heavy.
pub const SERVE_HEAVY_ONE_IN: u64 = 16;

/// The twelve workload bundles, by file name, in the order `compile`
/// compiles them.
pub const BUNDLES: [(&str, &str); 12] = [
    (
        "micro_attachments.scm",
        include_str!("../scm/micro_attachments.scm"),
    ),
    ("micro_marks.scm", include_str!("../scm/micro_marks.scm")),
    ("ctak.scm", include_str!("../scm/ctak.scm")),
    (
        "triple_native.scm",
        include_str!("../scm/triple_native.scm"),
    ),
    ("triple_dpjs.scm", include_str!("../scm/triple_dpjs.scm")),
    ("triple_k.scm", include_str!("../scm/triple_k.scm")),
    ("gabriel.scm", include_str!("../scm/gabriel.scm")),
    ("boyer.scm", include_str!("../scm/boyer.scm")),
    ("contract.scm", include_str!("../scm/contract.scm")),
    ("apps.scm", include_str!("../scm/apps.scm")),
    ("markflow.scm", include_str!("../scm/markflow.scm")),
    ("effects.scm", include_str!("../scm/effects.scm")),
];

/// The bundle that defines `entry`.
fn bundle_of(entry: &str) -> &'static str {
    let define = format!("(define ({entry} ");
    BUNDLES
        .iter()
        .find(|(_, src)| src.contains(&define))
        .map(|&(_, src)| src)
        .unwrap_or_else(|| panic!("no bundle defines {entry}"))
}

fn table(rows: &[(&'static str, i64)]) -> Vec<Program> {
    rows.iter()
        .map(|&(entry, n)| Program {
            entry,
            bundle: bundle_of(entry),
            n,
        })
        .collect()
}

/// The programs of a run workload. For `serve`, the eight light jobs
/// followed by the eight heavy ones; empty for `compile`.
pub fn programs(kind: Kind) -> Vec<Program> {
    match kind {
        Kind::Classic => table(CLASSIC),
        Kind::Marks => table(MARKS),
        Kind::Effects => table(EFFECTS),
        Kind::Callcc => table(CALLCC),
        Kind::Compile => Vec::new(),
        Kind::Serve => {
            let mut all = table(SERVE_LIGHT);
            all.extend(table(EFFECTS));
            all
        }
    }
}

/// The distinct bundles `programs` need, in first-use order.
pub fn bundles(programs: &[Program]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for p in programs {
        if !out.contains(&p.bundle) {
            out.push(p.bundle);
        }
    }
    out
}

/// The four prelude layers a `full` engine loads, in load order.
pub const PRELUDE: [(&str, &str); 4] = [
    (
        "prelude",
        include_str!("../../crates/core/src/prelude_common.scm"),
    ),
    (
        "marks-layer",
        include_str!("../../crates/core/src/marks_attachments.scm"),
    ),
    (
        "features",
        include_str!("../../crates/core/src/features.scm"),
    ),
    (
        "effects-library",
        include_str!("../../crates/effects/src/effects.scm"),
    ),
];

/// The `compile` workload's sources: the four prelude layers and the
/// twelve workload bundles, each named for display.
pub fn compile_sources() -> Vec<(&'static str, &'static str)> {
    PRELUDE.iter().chain(&BUNDLES).copied().collect()
}

/// A small xorshift64* generator; the harness's only source of
/// randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Rng {
        // One splitmix64 round spreads nearby seeds apart.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)).max(1))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A Fisher–Yates shuffle of `items` driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The request order: an endless run of rounds, each a seeded shuffle of
/// every program index, so any prefix holds each program equally often
/// (within one round).
#[derive(Debug, Clone)]
pub struct Requests {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Requests {
    /// The order over `programs` programs for `seed`.
    pub fn new(programs: usize, seed: u64) -> Requests {
        Requests {
            rng: Rng::new(seed),
            order: (0..programs).collect(),
            pos: programs,
        }
    }
}

impl Iterator for Requests {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.order.is_empty() {
            return None;
        }
        if self.pos == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.order[self.pos - 1])
    }
}

/// Burst `burst` of the `serve` mix for `seed`: `jobs` indices into
/// [`programs`]`(Kind::Serve)`. Every burst of a size holds the same
/// jobs — one in [`SERVE_HEAVY_ONE_IN`] heavy, the shapes dealt evenly
/// among the light jobs and among the heavy ones — in a seeded order.
pub fn serve_mix(seed: u64, burst: u64, jobs: usize) -> Vec<usize> {
    let shapes = SERVE_LIGHT.len();
    let heavy = jobs / SERVE_HEAVY_ONE_IN as usize;
    let mut mix: Vec<usize> = (0..jobs)
        .map(|i| {
            if i < heavy {
                shapes + i % shapes
            } else {
                (i - heavy) % shapes
            }
        })
        .collect();
    shuffle(
        &mut mix,
        &mut Rng::new(seed ^ burst.wrapping_mul(0xA24B_AED4_963E_E407)),
    );
    mix
}
