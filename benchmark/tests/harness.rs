//! Self-tests of the benchmark harness, run through its library entry
//! point with a few requests per workload; plus the `#[ignore]`d
//! re-derivation of the pinned answers (run it with
//! `cargo test --release -- --ignored`).

use cm_bench_harness::answers::{Pinned, PINNED};
use cm_bench_harness::suite::{self, Kind, Requests};
use cm_bench_harness::{instrs, run, Options, Replay, END_TO_END, PER_LAYER};
use cm_core::{Engine, EngineConfig};
use cm_trace::json::{self, Json};

/// A run of a few requests: every phase takes at least one request (or
/// one small burst).
fn quick(kind: Kind, trace: bool) -> Options {
    let mut opts = Options::new(kind, 7);
    opts.seconds = 0.0;
    opts.trace = trace;
    opts.serve_burst = 24;
    opts
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the harness");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_match_the_harness() {
    let names = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
        ms.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), names(&END_TO_END));
    assert_eq!(declared("per_layer"), names(&PER_LAYER));
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for kind in Kind::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&quick(kind, trace));
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                kind.name(),
                report.errors
            );
            let line = report.result_json().to_string_compact();
            let doc = json::parse(&line).expect("result line parses");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = doc.get("metrics").expect("metrics");
            for (name, unit) in declared(section) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", kind.name()));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(matches!(m.get("value"), Some(Json::Num(_))));
            }
            if trace {
                let doc = report.trace.expect("traced run has a trace");
                json::parse(&doc.to_string_compact()).expect("trace parses");
                let cover = report
                    .per_layer
                    .iter()
                    .find(|m| m.name == "trace.child_cover_min");
                assert!(
                    cover.is_some_and(|m| m.value >= 0.9),
                    "{}: {cover:?}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn the_seed_fixes_the_request_order() {
    let take = |seed| Requests::new(38, seed).take(200).collect::<Vec<_>>();
    assert_eq!(take(1), take(1));
    assert_ne!(take(1), take(2));
    // Every round is a permutation: each program once per 38 requests.
    let mut round = take(3)[38..76].to_vec();
    round.sort_unstable();
    assert_eq!(round, (0..38).collect::<Vec<_>>());
    assert_eq!(suite::serve_mix(1, 0, 100), suite::serve_mix(1, 0, 100));
    assert_ne!(suite::serve_mix(1, 0, 100), suite::serve_mix(2, 0, 100));
    // Every burst holds the same jobs, one in sixteen heavy; only their
    // order depends on the seed and the burst.
    let sorted = |seed, burst| {
        let mut jobs = suite::serve_mix(seed, burst, suite::SERVE_BURST);
        jobs.sort_unstable();
        jobs
    };
    assert_eq!(sorted(1, 0), sorted(2, 5));
    let heavy = sorted(1, 0).iter().filter(|&&p| p >= 8).count();
    assert_eq!(heavy, suite::SERVE_BURST / 16);
}

#[test]
fn a_corrupted_answer_counts_as_failed() {
    let mut opts = quick(Kind::Classic, false);
    let victim = opts
        .answers
        .iter_mut()
        .find(|p| p.workload == "classic")
        .expect("classic answers");
    victim.answer = "corrupted";
    let report = run(&opts);
    assert!(!report.correct());
    // failed_frac = failed / attempted.
    assert!(report.failed >= 1, "{report:?}");
}

#[test]
fn replay_instruction_counts_equal_compile_only() {
    let mut engine = Engine::new(EngineConfig::full());
    let mut replay = Replay::new(
        engine.config().compiler.clone(),
        engine.machine_mut().globals.clone(),
    );
    for (name, src) in suite::compile_sources() {
        let (code, _) = replay.compile(src).expect("replay compiles");
        let direct = engine.compile_only(src).expect("compile_only compiles");
        assert_eq!(instrs(&code), instrs(&direct), "{name}");
    }
}

/// How the answer to `(entry n)` is derived: the reference model when it
/// accepts the program, else the agreement of every engine config. The
/// configs that refuse (error on) a program are named in the provenance;
/// two configs producing different answers fail the derivation.
fn derive(
    kind: Kind,
    bundles: &[&str],
    request: &str,
    engines: &mut [(&str, Option<Engine>)],
) -> (String, String) {
    let mut model = cm_refmodel::RefInterp::new();
    model.set_step_limit(2_000_000_000);
    let modeled = bundles
        .iter()
        .try_for_each(|b| model.eval(b).map(drop))
        .and_then(|()| model.eval(request));
    let mut agreed: Option<String> = None;
    let mut refused = Vec::new();
    for (name, engine) in engines.iter_mut() {
        let got = match engine {
            Some(e) => e.eval_to_string(request).map_err(|e| e.to_string()),
            None => Err("bundles do not load".into()),
        };
        match (got, &agreed) {
            (Ok(v), None) => agreed = Some(v),
            (Ok(v), Some(a)) => assert_eq!(&v, a, "{} {request}: {name} disagrees", kind.name()),
            (Err(_), _) => refused.push(*name),
        }
    }
    let agreed =
        agreed.unwrap_or_else(|| panic!("{} {request}: every config refuses", kind.name()));
    match modeled {
        Ok(v) => {
            assert_eq!(
                v,
                agreed,
                "{} {request}: refmodel and engines disagree",
                kind.name()
            );
            (v, "refmodel".into())
        }
        Err(_) if refused.is_empty() => (agreed, "all 8 configs agree".into()),
        Err(_) => (
            agreed,
            format!("configs agree; refused by {}", refused.join(", ")),
        ),
    }
}

#[test]
#[ignore = "slow: re-derives every pinned answer; run with --release -- --ignored"]
fn pinned_answers_rederive() {
    let mut derived: Vec<(String, &str, i64, String, String)> = Vec::new();
    for kind in Kind::ALL {
        let programs = suite::programs(kind);
        let bundles = suite::bundles(&programs);
        let mut engines: Vec<(&str, Option<Engine>)> = cm_core::all_configs()
            .into_iter()
            .map(|(name, config)| {
                let mut e = Engine::new(config);
                let loaded = bundles.iter().all(|b| e.eval(b).is_ok());
                (name, loaded.then_some(e))
            })
            .collect();
        for p in &programs {
            let (answer, provenance) = derive(kind, &bundles, &p.request(), &mut engines);
            derived.push((kind.name().into(), p.entry, p.n, answer, provenance));
        }
    }
    let table: String = derived
        .iter()
        .map(|(w, e, n, a, p)| format!("    ({w:?}, {e:?}, {n}, {a:?}, {p:?}),\n"))
        .collect();
    let same = derived.len() == PINNED.len()
        && derived
            .iter()
            .zip(PINNED)
            .all(|((w, e, n, a, p), pin): (_, &Pinned)| {
                pin.workload == w
                    && pin.entry == *e
                    && pin.n == *n
                    && pin.answer == a
                    && pin.provenance == p
            });
    assert!(same, "pinned answers differ; re-derived table:\n{table}");
}
