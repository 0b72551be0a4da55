//! Deterministic fault-injection torture harness for the
//! continuation-marks engine.
//!
//! The paper's design hangs on delicate cross-cutting invariants —
//! underflow records must stay in sync with the marks register, one-shot
//! fusion must only fire when the machine holds the sole reference,
//! winder state must survive capture/apply (§5–§6). This crate proves the
//! engine *recovers* from faults at every point where those invariants
//! are in flight, by running each workload and §2 example under
//! systematically injected faults:
//!
//! * **fuel bisection** — cut execution off after *k* steps for dozens of
//!   *k* spread over the program's full step count; every cut must fail
//!   cleanly with [`VmErrorKind::OutOfFuel`] (or, at the boundary,
//!   produce the checksum-correct answer),
//! * **forced segment overflow** — rerun with `segment_frame_limit` as
//!   low as 1, forcing a stack split (and an underflow record) at nearly
//!   every call; the answer must not change,
//! * **forced clone** — take the multi-shot copy path on every underflow
//!   even where one-shot fusion would fire ([`FaultPlan::force_clone`]);
//!   the answer must not change,
//! * **primitive-boundary faults** — fail the *n*th primitive/native
//!   call with [`VmErrorKind::InjectedFault`] for *n* spread over the
//!   run's primitive-call count,
//! * **suspension slicing** — preempt the run into a
//!   [`cm_vm::SuspendedRun`] after *k* steps for dozens of *k* spread
//!   over the full step count, then resume in *k*-step slices to
//!   completion; the machine invariants must hold at **every**
//!   suspension point and the final answer must match the baseline,
//! * **kill and restore** — preempt after *k* steps, serialize the
//!   suspended run with [`cm_vm::Machine::snapshot_suspended`], *drop*
//!   the live run (the simulated crash), rebuild machine and run from
//!   bytes alone with [`cm_vm::Machine::restore_snapshot`], and resume
//!   the restored run to completion: the answer must match the baseline
//!   and re-snapshotting the restored run must reproduce the original
//!   bytes bit-for-bit. The first snapshot per target also feeds a
//!   corruption suite (truncations, bit flips, bad version): every
//!   corrupted decode must yield a typed [`cm_vm::SnapshotError`],
//!   never a panic.
//! * **kill worker and resteal** — the serving-tier migration torture:
//!   run in *k*-step slices, and at **every** suspension serialize the
//!   run, drop the live machine (the worker died), and restore into a
//!   brand-new machine (a thief worker picked the engine out of the dead
//!   worker's queue). An engine that hops machines at every single
//!   suspension point must still produce the baseline answer, and the
//!   first hop must re-snapshot bit-identically.
//!
//! After **every** trial the harness checks
//! [`Engine::check_invariants`], then requires the *same* engine to run
//! probe programs correctly — the reuse-after-fault guarantee.
//!
//! # Examples
//!
//! ```
//! use cm_torture::{engine_configs, torture_targets, torture_target, SweepOptions};
//!
//! let mut opts = SweepOptions::quick();
//! opts.fuel_cuts = 4; // tiny sweep for the doc test
//! opts.prim_cuts = 2;
//! let (name, config) = &engine_configs()[0];
//! let target = &torture_targets(true)[0];
//! let report = torture_target(name, config, target, &opts);
//! assert!(report.ok(), "{:?}", report.violations);
//! ```

use cm_core::{Engine, EngineConfig, EngineError};
use cm_vm::VmErrorKind;
use cm_workloads::Workload;

/// The probe programs every engine must run correctly after every
/// injected fault (value + continuation-marks machinery).
const PROBES: [(&str, &str); 2] = [
    ("(+ 40 2)", "42"),
    (
        "(with-continuation-mark 'torture-probe 17 \
           (continuation-mark-set-first #f 'torture-probe 0))",
        "17",
    ),
];

/// The engine configurations of the evaluation matrix (the paper's
/// seven §8 variants plus the mark-flow optimizer); the torture sweeps
/// run every target under all of them. Delegates to
/// [`cm_core::all_configs`], the single source of truth.
pub fn engine_configs() -> Vec<(&'static str, EngineConfig)> {
    cm_core::all_configs()
}

/// One program the harness tortures: definitions loaded once per engine,
/// an expression evaluated per trial, and the expected `write` output
/// (`None` derives it from the un-faulted baseline run).
#[derive(Debug, Clone)]
pub struct Target {
    /// Display name (`group/workload` or `sec2-...`).
    pub name: String,
    /// Definitions evaluated once, un-faulted, at engine setup.
    pub setup: String,
    /// The expression evaluated under injected faults.
    pub run: String,
    /// Expected `write` output; `None` trusts the baseline run.
    pub expected: Option<String>,
}

fn workload_target(group_name: &str, group: &[Workload], name: &str) -> Target {
    let w = group
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name} in group {group_name}"));
    Target {
        name: format!("{group_name}/{name}"),
        setup: w.source.to_string(),
        run: format!("({} {})", w.entry, w.small_n),
        expected: w.expected.map(str::to_string),
    }
}

fn sec2_target(name: &str, setup: &str, run: &str, expected: &str) -> Target {
    Target {
        name: name.to_string(),
        setup: setup.to_string(),
        run: run.to_string(),
        expected: Some(expected.to_string()),
    }
}

/// The torture corpus: §2 examples plus workloads from every group at
/// their small (checksum-checked) scales. `quick` selects the bounded CI
/// subset; the full set adds more workloads per group.
pub fn torture_targets(quick: bool) -> Vec<Target> {
    let attach = cm_workloads::attachment_micros();
    let marks = cm_workloads::mark_micros();
    let gabriel = cm_workloads::gabriel();
    let effects = cm_workloads::effects();
    let mut targets = vec![
        // §2.1/§2.2: the team-color examples.
        sec2_target(
            "sec2-first",
            "(define (current-team-color)
               (continuation-mark-set-first #f 'team-color \"?\"))",
            "(with-continuation-mark 'team-color \"red\" (current-team-color))",
            "\"red\"",
        ),
        sec2_target(
            "sec2-nested",
            "(define (all-team-colors)
               (continuation-mark-set->list (current-continuation-marks) 'team-color))
             (define (place-in-game a b) (cons a b))",
            "(with-continuation-mark 'team-color \"red\"
               (place-in-game
                 (continuation-mark-set-first #f 'team-color \"?\")
                 (with-continuation-mark 'team-color \"blue\" (all-team-colors))))",
            "(\"red\" \"blue\" \"red\")",
        ),
        // Deep non-tail marks: gives the fuel and segment sweeps a chain
        // of live attachments to cut through.
        sec2_target(
            "sec2-deep",
            "(define (deep n)
               (if (zero? n)
                   (continuation-mark-set-first #f 'd -1)
                   (with-continuation-mark 'd n (add1 (deep (- n 1))))))",
            "(deep 40)",
            "41",
        ),
        // Marks observed through a captured continuation.
        sec2_target(
            "sec2-callcc",
            "",
            "(call/cc (lambda (k)
               (with-continuation-mark 'a 1
                 (+ 1 (continuation-mark-set-first #f 'a 0)))))",
            "2",
        ),
        workload_target("attach", attach, "base-loop"),
        workload_target("attach", attach, "base-callcc-deep"),
        workload_target("mark", marks, "set-loop"),
        workload_target("ctak", cm_workloads::ctak(), "ctak"),
        workload_target("triple", cm_workloads::triple(), "triple-native"),
        workload_target("gabriel", gabriel, "fib"),
        // The full effects group rides in the quick corpus: the
        // acceptance bar is that every handler workload survives fuel
        // slicing, snapshot kill-and-restore, gc_stress, and the trace
        // matrix on all 8 configs, and every one of those suites draws
        // from torture_targets(true).
        workload_target("effects", effects, "pipes"),
        workload_target("effects", effects, "chain"),
        workload_target("effects", effects, "storm"),
        workload_target("effects", effects, "state"),
        workload_target("effects", effects, "gen"),
        workload_target("effects", effects, "amb"),
        workload_target("effects", effects, "deep"),
        workload_target("effects", effects, "shift"),
    ];
    if !quick {
        targets.extend([
            workload_target("attach", attach, "base-callcc-loop"),
            workload_target("attach", attach, "get-set-loop"),
            workload_target("attach", attach, "consume-set-loop"),
            workload_target("mark", marks, "first-some-loop"),
            workload_target("triple", cm_workloads::triple(), "triple-dpjs"),
            workload_target("triple", cm_workloads::triple(), "triple-k"),
            workload_target("gabriel", gabriel, "cpstak"),
            workload_target("gabriel", gabriel, "deriv"),
            workload_target("gabriel", gabriel, "nqueens"),
            workload_target("contract", cm_workloads::contract(), "checked"),
        ]);
    }
    targets
}

/// How hard each sweep pushes.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Fuel-bisection cut points, spread evenly over the baseline run's
    /// step count.
    pub fuel_cuts: u64,
    /// `segment_frame_limit` values for the forced-overflow sweep.
    pub segment_limits: &'static [usize],
    /// Primitive-boundary fault points, spread evenly over the baseline
    /// run's primitive-call count.
    pub prim_cuts: u64,
    /// Suspension-slicing cut points, spread evenly over the baseline
    /// run's step count; each cut runs the target in that many-step
    /// slices with invariant checks at every suspension.
    pub suspend_cuts: u64,
    /// Whether to rerun the target with [`cm_vm::MachineConfig::gc_stress`]
    /// on (a heap collection at every safe point) — alone, and combined
    /// with a tiny segment limit so collection hits mid-split state.
    pub gc_stress: bool,
    /// Kill-and-restore cut points, spread evenly over the baseline
    /// run's step count; each cut snapshots the suspended run, drops it,
    /// restores from bytes into a fresh machine, and resumes to
    /// completion. `0` disables the sweep.
    pub kill_restore_cuts: u64,
    /// Kill-worker-and-resteal cut points: for each slice size *k*
    /// spread over the run, execute in *k*-step slices with a
    /// snapshot → drop → restore-into-a-fresh-machine hop at **every**
    /// suspension — the worst-case serving-tier migration pattern, where
    /// the engine is re-stolen by a different worker each time it
    /// suspends. Hops are capped at [`RESTEAL_HOP_CAP`] per trial (the
    /// last thief then finishes the run locally) so small slices over
    /// long programs stay bounded. `0` disables the sweep.
    pub resteal_cuts: u64,
}

impl SweepOptions {
    /// The bounded sweep CI runs on every push (`cm-torture --quick`).
    pub fn quick() -> SweepOptions {
        SweepOptions {
            fuel_cuts: 50,
            segment_limits: &[1, 2, 3, 7],
            prim_cuts: 10,
            suspend_cuts: 50,
            gc_stress: true,
            kill_restore_cuts: 12,
            resteal_cuts: 8,
        }
    }

    /// The exhaustive sweep (`cm-torture --full`, and the `--ignored`
    /// test).
    pub fn full() -> SweepOptions {
        SweepOptions {
            fuel_cuts: 250,
            segment_limits: &[1, 2, 3, 7, 13],
            prim_cuts: 60,
            suspend_cuts: 120,
            gc_stress: true,
            kill_restore_cuts: 40,
            resteal_cuts: 24,
        }
    }
}

/// What a torture sweep proved (and any counterexamples).
#[derive(Debug, Default)]
pub struct TortureReport {
    /// Fault-injected (or stressed) runs executed.
    pub trials: u64,
    /// Trials that ended in the expected clean [`cm_vm::VmError`].
    pub clean_faults: u64,
    /// Trials that produced the checksum-correct answer.
    pub correct_runs: u64,
    /// Post-fault probe programs run (two per trial).
    pub probes: u64,
    /// Suspension points taken (and invariant-checked) by the
    /// suspension-slicing sweep.
    pub suspensions: u64,
    /// Snapshots serialized by the kill-and-restore sweep.
    pub snapshots: u64,
    /// Machines rebuilt from snapshot bytes by the kill-and-restore
    /// sweep.
    pub restores: u64,
    /// Machine hops taken by the kill-worker-and-resteal sweep: every
    /// hop is one snapshot + one restore into a brand-new machine at a
    /// suspension point.
    pub resteal_hops: u64,
    /// Corrupted-snapshot decodes that correctly yielded a typed error.
    pub corrupt_rejected: u64,
    /// Total violations (clamped list in [`TortureReport::violations`]).
    pub violation_count: u64,
    /// The first violations, with context (at most 20 kept).
    pub violations: Vec<String>,
}

impl TortureReport {
    /// Whether the sweep found no violations.
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: TortureReport) {
        self.trials += other.trials;
        self.clean_faults += other.clean_faults;
        self.correct_runs += other.correct_runs;
        self.probes += other.probes;
        self.suspensions += other.suspensions;
        self.snapshots += other.snapshots;
        self.restores += other.restores;
        self.resteal_hops += other.resteal_hops;
        self.corrupt_rejected += other.corrupt_rejected;
        self.violation_count += other.violation_count;
        for v in other.violations {
            self.push_violation(v);
        }
    }

    fn violate(&mut self, ctx: &str, msg: String) {
        self.violation_count += 1;
        self.push_violation(format!("[{ctx}] {msg}"));
    }

    fn push_violation(&mut self, msg: String) {
        if self.violations.len() < 20 {
            self.violations.push(msg);
        }
    }
}

/// What a single fault-injected trial must produce.
enum Expectation {
    /// Checksum-correct answer, no fault (stress trials: segment limits,
    /// forced clone).
    Success,
    /// [`VmErrorKind::OutOfFuel`] — or the correct answer if the cut
    /// lands past the program's end.
    OutOfFuel,
    /// [`VmErrorKind::InjectedFault`] at exactly this primitive index.
    InjectedFault(u64),
}

/// Runs the full torture sweep for one target under one engine
/// configuration: un-faulted baseline, fuel bisection, segment-overflow
/// limits, forced clone, and primitive-boundary faults — checking
/// invariants and probing engine reuse after every trial.
pub fn torture_target(
    config_name: &str,
    config: &EngineConfig,
    target: &Target,
    opts: &SweepOptions,
) -> TortureReport {
    let mut rep = TortureReport::default();
    let ctx = format!("{config_name}/{}", target.name);
    let mut cfg = config.clone();
    // Invariant verification is the point; pay for it in release too.
    cfg.machine.check_invariants = true;
    // Tracing too: the journal's per-kind totals must equal the stats
    // counters after every trial, faulted or not. A small ring keeps
    // memory flat across long sweeps; totals stay exact regardless.
    cfg.machine.trace = true;
    cfg.machine.trace_capacity = 1024;
    let mut engine = Engine::new(cfg);
    if !target.setup.is_empty() {
        if let Err(e) = engine.eval(&target.setup) {
            rep.violate(&ctx, format!("setup failed: {e}"));
            return rep;
        }
    }

    // Un-faulted baseline: the reference answer, the step count the fuel
    // sweep bisects, and the primitive-call count the fault sweep cuts.
    const BIG: u64 = 200_000_000;
    engine.machine_mut().config.fuel = Some(BIG);
    let prims_before = engine.stats().prim_calls;
    rep.trials += 1;
    let baseline = match engine.eval(&target.run) {
        Ok(v) => v.write_string(),
        Err(e) => {
            rep.violate(&ctx, format!("baseline run failed: {e}"));
            return rep;
        }
    };
    rep.correct_runs += 1;
    let fuel_used = BIG - engine.machine_mut().fuel_remaining().unwrap_or(BIG);
    let prim_total = engine.stats().prim_calls - prims_before;
    engine.machine_mut().config.fuel = None;
    if let Some(exp) = &target.expected {
        if &baseline != exp {
            rep.violate(
                &ctx,
                format!("baseline produced {baseline}, expected {exp}"),
            );
            return rep;
        }
    }

    // Fuel bisection: cut the run off at `fuel_cuts` points spread over
    // its whole step count.
    let cuts = opts.fuel_cuts.min(fuel_used.max(1));
    for i in 0..cuts {
        let k = fuel_used * i / cuts;
        engine.machine_mut().config.fuel = Some(k);
        let got = engine.eval(&target.run);
        check_trial(
            &mut rep,
            &ctx,
            &mut engine,
            got,
            &baseline,
            &Expectation::OutOfFuel,
            &format!("fuel={k}"),
        );
    }
    engine.machine_mut().config.fuel = None;

    // Forced segment overflow: a stack split (hence an underflow record)
    // every `limit` frames must not change the answer.
    let orig_limit = engine.machine_mut().config.segment_frame_limit;
    for &limit in opts.segment_limits {
        engine.machine_mut().config.segment_frame_limit = limit;
        let got = engine.eval(&target.run);
        check_trial(
            &mut rep,
            &ctx,
            &mut engine,
            got,
            &baseline,
            &Expectation::Success,
            &format!("segment-limit={limit}"),
        );
    }
    engine.machine_mut().config.segment_frame_limit = orig_limit;

    // Forced clone: take the multi-shot copy path everywhere fusion
    // would fire — alone, then combined with tiny segments.
    engine.machine_mut().config.fault_plan.force_clone = true;
    let got = engine.eval(&target.run);
    check_trial(
        &mut rep,
        &ctx,
        &mut engine,
        got,
        &baseline,
        &Expectation::Success,
        "force-clone",
    );
    engine.machine_mut().config.segment_frame_limit = 2;
    let got = engine.eval(&target.run);
    check_trial(
        &mut rep,
        &ctx,
        &mut engine,
        got,
        &baseline,
        &Expectation::Success,
        "force-clone+segment-limit=2",
    );
    engine.machine_mut().config.segment_frame_limit = orig_limit;
    engine.machine_mut().config.fault_plan.force_clone = false;

    // GC stress: collect the handle heap at every safe point, so every
    // rooting path (frames, marks, winders, underflow chains, captured
    // continuations) is exercised with collection in flight — alone,
    // then combined with tiny segments so collection also lands between
    // a stack split and its underflow record.
    if opts.gc_stress {
        engine.machine_mut().config.gc_stress = true;
        let got = engine.eval(&target.run);
        check_trial(
            &mut rep,
            &ctx,
            &mut engine,
            got,
            &baseline,
            &Expectation::Success,
            "gc-stress",
        );
        engine.machine_mut().config.segment_frame_limit = 2;
        let got = engine.eval(&target.run);
        check_trial(
            &mut rep,
            &ctx,
            &mut engine,
            got,
            &baseline,
            &Expectation::Success,
            "gc-stress+segment-limit=2",
        );
        engine.machine_mut().config.segment_frame_limit = orig_limit;
        engine.machine_mut().config.gc_stress = false;
    }

    // Primitive-boundary faults: fail the nth primitive/native call for
    // n spread over the run's primitive-call count.
    if prim_total > 0 {
        let cuts = opts.prim_cuts.min(prim_total);
        for i in 0..cuts {
            let n = prim_total * i / cuts;
            engine.machine_mut().config.fault_plan.fail_prim_at = Some(n);
            let got = engine.eval(&target.run);
            check_trial(
                &mut rep,
                &ctx,
                &mut engine,
                got,
                &baseline,
                &Expectation::InjectedFault(n),
                &format!("prim-fault@{n}"),
            );
        }
        engine.machine_mut().config.fault_plan.fail_prim_at = None;
    }

    // Suspension slicing: preempt the run after k steps, then keep
    // resuming in k-step slices until it finishes. Invariants are
    // checked at every suspension point (both by the machine itself —
    // `check_invariants` is forced on above — and explicitly here), and
    // the final answer must match the baseline.
    suspension_sweep(
        &mut rep,
        &ctx,
        &mut engine,
        target,
        &baseline,
        fuel_used,
        opts,
    );

    // Kill and restore: the durable-snapshot counterpart of the
    // suspension sweep — serialize, crash, rebuild from bytes, finish.
    kill_restore_sweep(
        &mut rep,
        &ctx,
        &mut engine,
        target,
        &baseline,
        fuel_used,
        opts,
    );

    // Kill worker and resteal: hop the run into a brand-new machine at
    // every suspension — the serving tier's migration path, pushed to
    // its worst case.
    resteal_sweep(
        &mut rep,
        &ctx,
        &mut engine,
        target,
        &baseline,
        fuel_used,
        opts,
    );

    rep
}

/// Most codec hops a single resteal trial takes before the last thief
/// keeps the engine and finishes it locally. Without the cap a small
/// slice over a long program (slice 1 over a million-step run) costs a
/// full serialize + restore per step, which is the same property tested
/// a million times; 64 consecutive hops already exercises every
/// restored-state shape the program cycles through.
pub const RESTEAL_HOP_CAP: u64 = 64;

/// The kill-worker-and-resteal sweep of [`torture_target`]: run the
/// target in *k*-step slices, and at **every** suspension serialize the
/// run, drop the live machine (the worker crashed mid-flight), restore
/// the bytes into a brand-new machine (an idle worker stole the engine
/// out of the dead worker's queue), and resume there for one more slice
/// — until [`RESTEAL_HOP_CAP`], after which the last thief runs the
/// engine to completion. This is exactly what the stealing pool's
/// migration path does, iterated at every hand-off point the cap
/// admits: the final answer must equal the baseline, and the first hop
/// must re-snapshot bit-for-bit.
fn resteal_sweep(
    rep: &mut TortureReport,
    ctx: &str,
    engine: &mut Engine,
    target: &Target,
    baseline: &str,
    fuel_used: u64,
    opts: &SweepOptions,
) {
    use cm_vm::{Machine, RunStatus};

    if opts.resteal_cuts == 0 {
        return;
    }
    let code = match engine.compile_only(&target.run) {
        Ok(c) => c,
        Err(e) => {
            rep.violate(ctx, format!("resteal sweep: compile failed: {e}"));
            return;
        }
    };
    let cuts = opts.resteal_cuts.min(fuel_used.max(1));
    for i in 0..cuts {
        let k = (fuel_used * i / cuts).max(1);
        let what = format!("resteal@{k}");
        rep.trials += 1;
        // The first slice runs on the original engine's machine; every
        // later slice runs on the machine restored at the previous hop.
        let mut pending = engine.machine_mut().run_code_sliced(code.clone(), k);
        let mut current: Option<Machine> = None;
        let mut first_hop_checked = false;
        let mut stalls = 0u32;
        let mut hops = 0u64;
        let outcome = loop {
            match pending {
                Ok(RunStatus::Done(v)) => break Ok(v),
                Ok(RunStatus::Suspended(run)) => {
                    rep.suspensions += 1;
                    // A restored machine's stats start at zero, so
                    // `steps_executed` is exactly this hop's progress; a
                    // bounded run of zero-step hops means the program
                    // stopped advancing (e.g. `%engine-block` spinning).
                    if let Some(m) = &current {
                        if m.stats.steps_executed == 0 {
                            stalls += 1;
                            if stalls > 16 {
                                break Err("restolen run made no progress".to_string());
                            }
                        } else {
                            stalls = 0;
                        }
                    }
                    if hops >= RESTEAL_HOP_CAP {
                        // Cap reached: the last thief keeps the engine
                        // and drains it with whole-run slices.
                        let slice = fuel_used.max(k);
                        pending = match current.as_mut() {
                            Some(m) => m.resume(run, slice),
                            None => engine.machine_mut().resume(run, slice),
                        };
                        continue;
                    }
                    let bytes = match current.as_mut() {
                        Some(m) => m.snapshot_suspended(&run),
                        None => engine.machine_mut().snapshot_suspended(&run),
                    };
                    let bytes = match bytes {
                        Ok(b) => b,
                        Err(e) => break Err(format!("snapshot failed: {e}")),
                    };
                    rep.snapshots += 1;
                    // The crash: the victim machine dies with the run;
                    // only the bytes cross to the thief.
                    drop(run);
                    drop(current.take());
                    let restored = match Machine::restore_snapshot(&bytes) {
                        Ok(r) => r,
                        Err(e) => break Err(format!("restore failed: {e}")),
                    };
                    rep.restores += 1;
                    rep.resteal_hops += 1;
                    hops += 1;
                    let mut machine = restored.machine;
                    if !first_hop_checked {
                        first_hop_checked = true;
                        match machine.snapshot_suspended(&restored.run) {
                            Ok(again) if again == bytes => {}
                            Ok(_) => {
                                break Err(
                                    "re-snapshot on the thief differs from the stolen bytes".into()
                                )
                            }
                            Err(e) => break Err(format!("re-snapshot failed: {e}")),
                        }
                    }
                    pending = machine.resume(restored.run, k);
                    current = Some(machine);
                }
                Err(e) => break Err(format!("unexpected error: {}", e.detailed())),
            }
        };
        match outcome {
            Ok(v) => {
                let out = v.write_string();
                if out == baseline {
                    rep.correct_runs += 1;
                } else {
                    rep.violate(ctx, format!("{what}: produced {out}, expected {baseline}"));
                }
            }
            Err(msg) => rep.violate(ctx, format!("{what}: {msg}")),
        }
        // The original engine only donated its first slice; it must
        // still be healthy.
        probe(rep, ctx, engine, &what);
    }
}

/// The kill-and-restore sweep of [`torture_target`]: at cut points
/// spread over the run, suspend, snapshot, drop the live run (the
/// simulated crash), restore a fresh machine from bytes alone, and
/// resume it to completion. Checks, per cut: the restored run's answer
/// equals the baseline, and re-snapshotting the restored run reproduces
/// the original bytes bit-for-bit (the codec is deterministic and
/// lossless). The first snapshot also runs the corruption suite.
fn kill_restore_sweep(
    rep: &mut TortureReport,
    ctx: &str,
    engine: &mut Engine,
    target: &Target,
    baseline: &str,
    fuel_used: u64,
    opts: &SweepOptions,
) {
    use cm_vm::{Machine, RunStatus};

    if opts.kill_restore_cuts == 0 {
        return;
    }
    let code = match engine.compile_only(&target.run) {
        Ok(c) => c,
        Err(e) => {
            rep.violate(ctx, format!("kill-restore sweep: compile failed: {e}"));
            return;
        }
    };
    let cuts = opts.kill_restore_cuts.min(fuel_used.max(1));
    let mut corruption_done = false;
    for i in 0..cuts {
        let k = (fuel_used * i / cuts).max(1);
        let what = format!("kill-restore@{k}");
        rep.trials += 1;
        match engine.machine_mut().run_code_sliced(code.clone(), k) {
            Ok(RunStatus::Done(v)) => {
                // The cut landed past the program's end; nothing to kill.
                let out = v.write_string();
                if out == baseline {
                    rep.correct_runs += 1;
                } else {
                    rep.violate(ctx, format!("{what}: produced {out}, expected {baseline}"));
                }
            }
            Ok(RunStatus::Suspended(run)) => {
                rep.suspensions += 1;
                let bytes = match engine.machine_mut().snapshot_suspended(&run) {
                    Ok(b) => b,
                    Err(e) => {
                        rep.violate(ctx, format!("{what}: snapshot failed: {e}"));
                        continue;
                    }
                };
                rep.snapshots += 1;
                // The crash: the only surviving state is `bytes`.
                drop(run);
                if !corruption_done {
                    corruption_done = true;
                    corruption_suite(rep, ctx, &bytes, &what);
                }
                let restored = match Machine::restore_snapshot(&bytes) {
                    Ok(r) => r,
                    Err(e) => {
                        rep.violate(ctx, format!("{what}: restore failed: {e}"));
                        continue;
                    }
                };
                rep.restores += 1;
                let mut machine = restored.machine;
                match machine.snapshot_suspended(&restored.run) {
                    Ok(again) if again == bytes => {}
                    Ok(_) => rep.violate(
                        ctx,
                        format!("{what}: re-snapshot of the restored run differs from the original bytes"),
                    ),
                    Err(e) => rep.violate(ctx, format!("{what}: re-snapshot failed: {e}")),
                }
                // Same progress metric as the suspension sweep: executed
                // instructions, because `%engine-block` suspends without
                // spending the slice's fuel.
                let mut stalls = 0u32;
                let mut steps_before = machine.stats.steps_executed;
                let mut status = machine.resume(restored.run, k);
                let outcome = loop {
                    match status {
                        Ok(RunStatus::Done(v)) => break Ok(v),
                        Ok(RunStatus::Suspended(run)) => {
                            let steps_now = machine.stats.steps_executed;
                            if steps_now == steps_before {
                                stalls += 1;
                                if stalls > 16 {
                                    break Err("restored run made no progress".to_string());
                                }
                            } else {
                                stalls = 0;
                            }
                            steps_before = steps_now;
                            status = machine.resume(run, k);
                        }
                        Err(e) => break Err(format!("unexpected error: {}", e.detailed())),
                    }
                };
                match outcome {
                    Ok(v) => {
                        let out = v.write_string();
                        if out == baseline {
                            rep.correct_runs += 1;
                        } else {
                            rep.violate(
                                ctx,
                                format!("{what}: restored run produced {out}, expected {baseline}"),
                            );
                        }
                    }
                    Err(msg) => rep.violate(ctx, format!("{what}: {msg}")),
                }
            }
            Err(e) => {
                rep.violate(ctx, format!("{what}: unexpected error: {}", e.detailed()));
            }
        }
        // The original engine survived the kill (snapshots are
        // non-destructive reads); it must still run programs correctly.
        probe(rep, ctx, engine, &what);
    }
}

/// The corrupted-snapshot suite: every truncation (strided), every
/// single-bit flip (strided), a wrong version, and a wrong magic must
/// decode to a typed [`cm_vm::SnapshotError`] — `Ok` here means the
/// checksum or structural validation failed to catch tampering. A panic
/// crashes the harness, which is itself the failure signal.
fn corruption_suite(rep: &mut TortureReport, ctx: &str, bytes: &[u8], what: &str) {
    use cm_vm::Machine;

    let trunc_stride = (bytes.len() / 64).max(1);
    for end in (0..bytes.len()).step_by(trunc_stride) {
        rep.trials += 1;
        match Machine::restore_snapshot(&bytes[..end]) {
            Err(_) => rep.corrupt_rejected += 1,
            Ok(_) => rep.violate(
                ctx,
                format!("{what}: truncation to {end} bytes decoded successfully"),
            ),
        }
    }
    let flip_stride = (bytes.len() / 48).max(1);
    for pos in (0..bytes.len()).step_by(flip_stride) {
        for bit in [0, 4, 7] {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 1 << bit;
            rep.trials += 1;
            match Machine::restore_snapshot(&bad) {
                Err(_) => rep.corrupt_rejected += 1,
                Ok(_) => rep.violate(
                    ctx,
                    format!("{what}: bit flip at byte {pos} bit {bit} decoded successfully"),
                ),
            }
        }
    }
}

/// The suspension-slicing sweep of [`torture_target`].
fn suspension_sweep(
    rep: &mut TortureReport,
    ctx: &str,
    engine: &mut Engine,
    target: &Target,
    baseline: &str,
    fuel_used: u64,
    opts: &SweepOptions,
) {
    use cm_vm::RunStatus;

    if opts.suspend_cuts == 0 {
        return;
    }
    let code = match engine.compile_only(&target.run) {
        Ok(c) => c,
        Err(e) => {
            rep.violate(ctx, format!("suspension sweep: compile failed: {e}"));
            return;
        }
    };
    let cuts = opts.suspend_cuts.min(fuel_used.max(1));
    for i in 0..cuts {
        let k = (fuel_used * i / cuts).max(1);
        let what = format!("suspend-slice={k}");
        rep.trials += 1;
        // Progress is measured in executed instructions, not resumes: a
        // `%engine-block` ends a slice early without spending its fuel,
        // so resume counts say nothing. A resume that suspends again
        // after executing zero instructions is a stall; a bounded run of
        // stalls means the machine stopped making progress.
        let mut stalls = 0u32;
        let mut steps_before = engine.machine_mut().stats.steps_executed;
        let mut status = engine.machine_mut().run_code_sliced(code.clone(), k);
        let outcome = loop {
            match status {
                Ok(RunStatus::Done(v)) => break Ok(v),
                Ok(RunStatus::Suspended(run)) => {
                    rep.suspensions += 1;
                    if let Err(msg) = engine.check_invariants() {
                        rep.violate(
                            ctx,
                            format!("{what}: invariant violated at suspension: {msg}"),
                        );
                    }
                    check_journal(rep, ctx, engine, &what);
                    let steps_now = engine.machine_mut().stats.steps_executed;
                    if steps_now == steps_before {
                        stalls += 1;
                        if stalls > 16 {
                            break Err("suspended run made no progress".to_string());
                        }
                    } else {
                        stalls = 0;
                    }
                    steps_before = steps_now;
                    status = engine.machine_mut().resume(run, k);
                }
                Err(e) => break Err(format!("unexpected error: {}", e.detailed())),
            }
        };
        match outcome {
            Ok(v) => {
                let out = v.write_string();
                if out == baseline {
                    rep.correct_runs += 1;
                } else {
                    rep.violate(ctx, format!("{what}: produced {out}, expected {baseline}"));
                }
            }
            Err(msg) => rep.violate(ctx, format!("{what}: {msg}")),
        }
        if let Err(msg) = engine.check_invariants() {
            rep.violate(
                ctx,
                format!("{what}: invariant violated after trial: {msg}"),
            );
        }
        check_journal(rep, ctx, engine, &what);
        probe(rep, ctx, engine, &what);
    }
}

/// Scores one trial's outcome, then checks invariants and probes engine
/// reuse — the same engine must still run programs correctly.
fn check_trial(
    rep: &mut TortureReport,
    ctx: &str,
    engine: &mut Engine,
    got: Result<cm_vm::Rooted, EngineError>,
    expected_output: &str,
    expectation: &Expectation,
    what: &str,
) {
    rep.trials += 1;
    match got {
        Ok(v) => {
            let out = v.write_string();
            if out == expected_output {
                rep.correct_runs += 1;
            } else {
                rep.violate(
                    ctx,
                    format!("{what}: produced {out}, expected {expected_output}"),
                );
            }
        }
        Err(EngineError::Compile(e)) => {
            rep.violate(ctx, format!("{what}: unexpected compile error: {e}"));
        }
        Err(EngineError::Runtime(e)) => {
            let clean = match expectation {
                Expectation::Success => false,
                Expectation::OutOfFuel => matches!(e.kind, VmErrorKind::OutOfFuel),
                Expectation::InjectedFault(n) => {
                    matches!(&e.kind, VmErrorKind::InjectedFault { at, .. } if at == n)
                }
            };
            if clean {
                rep.clean_faults += 1;
            } else {
                rep.violate(ctx, format!("{what}: unexpected error: {}", e.detailed()));
            }
        }
    }
    if let Err(msg) = engine.check_invariants() {
        rep.violate(
            ctx,
            format!("{what}: invariant violated after trial: {msg}"),
        );
    }
    check_journal(rep, ctx, engine, what);
    probe(rep, ctx, engine, what);
}

/// The counter/journal contract: both are fed by the machine's single
/// trace hook, so their per-kind totals must agree even after injected
/// faults, fuel exhaustion, and mid-run suspensions.
fn check_journal(rep: &mut TortureReport, ctx: &str, engine: &mut Engine, what: &str) {
    let stats = engine.stats();
    if let Err(msg) = engine.machine_mut().journal.verify_consistency(&stats) {
        rep.violate(
            ctx,
            format!("{what}: journal inconsistent with counters: {msg}"),
        );
    }
}

/// The reuse-after-fault guarantee: with faults disarmed, the engine
/// that just took a fault must run the probe programs correctly.
fn probe(rep: &mut TortureReport, ctx: &str, engine: &mut Engine, what: &str) {
    let saved_fuel = engine.machine_mut().config.fuel.take();
    let saved_plan = std::mem::take(&mut engine.machine_mut().config.fault_plan);
    for (src, want) in PROBES {
        rep.probes += 1;
        match engine.eval(src) {
            Ok(v) if v.write_string() == want => {}
            Ok(v) => rep.violate(
                ctx,
                format!(
                    "{what}: probe `{src}` returned {}, want {want}",
                    v.write_string()
                ),
            ),
            Err(e) => rep.violate(
                ctx,
                format!("{what}: probe `{src}` failed after fault: {e}"),
            ),
        }
        if let Err(msg) = engine.check_invariants() {
            rep.violate(
                ctx,
                format!("{what}: invariant violated after probe: {msg}"),
            );
        }
        check_journal(rep, ctx, engine, what);
    }
    engine.machine_mut().config.fuel = saved_fuel;
    engine.machine_mut().config.fault_plan = saved_plan;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SweepOptions {
        SweepOptions {
            fuel_cuts: 6,
            segment_limits: &[2, 7],
            prim_cuts: 3,
            suspend_cuts: 6,
            gc_stress: true,
            kill_restore_cuts: 4,
            resteal_cuts: 3,
        }
    }

    #[test]
    fn sec2_targets_survive_on_full_and_old_racket() {
        let opts = tiny_opts();
        let targets = torture_targets(true);
        for (name, config) in engine_configs()
            .into_iter()
            .filter(|(n, _)| *n == "full" || *n == "old-racket")
        {
            for t in targets.iter().filter(|t| t.name.starts_with("sec2-")) {
                let rep = torture_target(name, &config, t, &opts);
                assert!(rep.ok(), "{name}/{}: {:?}", t.name, rep.violations);
                assert!(rep.trials > 5);
                assert!(rep.clean_faults > 0, "no faults injected for {}", t.name);
            }
        }
    }

    #[test]
    fn a_workload_survives_quick_torture() {
        let opts = tiny_opts();
        let targets = torture_targets(true);
        let t = targets
            .iter()
            .find(|t| t.name == "gabriel/fib")
            .expect("fib target present");
        let (name, config) = &engine_configs()[0];
        let rep = torture_target(name, config, t, &opts);
        assert!(rep.ok(), "{:?}", rep.violations);
        assert!(rep.correct_runs >= 3); // baseline + stress trials
    }

    #[test]
    fn quick_corpus_meets_acceptance_floor() {
        // ≥ 5 workloads plus §2 examples, and the 8-config matrix.
        let workloads = torture_targets(true)
            .iter()
            .filter(|t| !t.name.starts_with("sec2-"))
            .count();
        assert!(workloads >= 5);
        assert_eq!(engine_configs().len(), 8);
        assert!(SweepOptions::quick().fuel_cuts >= 50);
        assert_eq!(SweepOptions::quick().segment_limits, &[1, 2, 3, 7]);
        // The suspension sweep slices every target at ≥ 50 cut points.
        assert!(SweepOptions::quick().suspend_cuts >= 50);
        // Collection at every safe point is part of the CI matrix.
        assert!(SweepOptions::quick().gc_stress);
        assert!(SweepOptions::full().gc_stress);
        // Crash recovery (kill + restore from snapshot) is too.
        assert!(SweepOptions::quick().kill_restore_cuts >= 10);
        assert!(SweepOptions::full().kill_restore_cuts >= 40);
        // ... and so is serving-tier migration (a machine hop at every
        // suspension).
        assert!(SweepOptions::quick().resteal_cuts >= 8);
        assert!(SweepOptions::full().resteal_cuts >= 24);
    }

    #[test]
    fn resteal_hops_machines_at_every_suspension_on_every_config() {
        let mut opts = tiny_opts();
        opts.fuel_cuts = 0;
        opts.prim_cuts = 0;
        opts.segment_limits = &[];
        opts.suspend_cuts = 0;
        opts.gc_stress = false;
        opts.kill_restore_cuts = 0;
        opts.resteal_cuts = 4;
        let targets = torture_targets(true);
        let t = targets
            .iter()
            .find(|t| t.name == "sec2-deep")
            .expect("sec2-deep target present");
        for (name, config) in engine_configs() {
            let rep = torture_target(name, &config, t, &opts);
            assert!(rep.ok(), "{name}: {:?}", rep.violations);
            // Small slices force several suspensions per trial, and the
            // sweep must hop machines at every one of them.
            assert!(
                rep.resteal_hops > opts.resteal_cuts,
                "{name}: only {} hops across {} trials",
                rep.resteal_hops,
                opts.resteal_cuts
            );
            assert_eq!(
                rep.snapshots, rep.restores,
                "{name}: a hop lost its restore"
            );
        }
    }

    #[test]
    fn kill_restore_survives_on_every_config() {
        let mut opts = tiny_opts();
        opts.fuel_cuts = 0;
        opts.prim_cuts = 0;
        opts.segment_limits = &[];
        opts.suspend_cuts = 0;
        opts.gc_stress = false;
        opts.kill_restore_cuts = 5;
        let targets = torture_targets(true);
        let t = targets
            .iter()
            .find(|t| t.name == "sec2-deep")
            .expect("sec2-deep target present");
        for (name, config) in engine_configs() {
            let rep = torture_target(name, &config, t, &opts);
            assert!(rep.ok(), "{name}: {:?}", rep.violations);
            assert!(rep.snapshots > 0, "{name}: no snapshots taken");
            assert_eq!(rep.snapshots, rep.restores, "{name}: a restore failed");
            assert!(
                rep.corrupt_rejected > 0,
                "{name}: corruption suite did not run"
            );
        }
    }

    #[test]
    fn suspension_sweep_suspends_and_agrees() {
        let mut opts = tiny_opts();
        opts.fuel_cuts = 0;
        opts.prim_cuts = 0;
        opts.segment_limits = &[];
        opts.suspend_cuts = 8;
        let targets = torture_targets(true);
        let t = targets
            .iter()
            .find(|t| t.name == "sec2-deep")
            .expect("sec2-deep target present");
        for (name, config) in engine_configs() {
            let rep = torture_target(name, &config, t, &opts);
            assert!(rep.ok(), "{name}: {:?}", rep.violations);
            // Small slices must actually preempt the run, many times.
            assert!(
                rep.suspensions > opts.suspend_cuts,
                "{name}: only {} suspensions",
                rep.suspensions
            );
        }
    }

    #[test]
    #[ignore = "exhaustive sweep; run with --ignored"]
    fn full_torture_sweep() {
        let opts = SweepOptions::full();
        let mut total = TortureReport::default();
        for (name, config) in engine_configs() {
            for t in torture_targets(false) {
                total.merge(torture_target(name, &config, &t, &opts));
            }
        }
        assert!(total.ok(), "{:?}", total.violations);
    }
}
