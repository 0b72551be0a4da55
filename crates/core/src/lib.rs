//! Continuation marks for a Scheme with first-class continuations — the
//! user-facing engine reproducing Flatt & Dybvig, *Compiler and Runtime
//! Support for Continuation Marks* (PLDI 2020).
//!
//! An [`Engine`] bundles a [`cm_vm::Machine`] and a
//! [`cm_compiler::Compiler`] over a shared global table, preloads the
//! runtime library (list utilities, `dynamic-wind`, the marks layer,
//! exceptions, parameters, contracts), and evaluates programs.
//!
//! The full continuation-marks API is available to evaluated programs:
//!
//! * `with-continuation-mark`, `current-continuation-marks`,
//!   `continuation-marks`, `continuation-mark-set-first` (amortized O(1)),
//!   `continuation-mark-set->list`, `continuation-mark-set->iterator`,
//!   `call-with-immediate-continuation-mark`;
//! * the §7.1 attachment primitives
//!   (`call-setting/-getting/-consuming-continuation-attachment`,
//!   `current-continuation-attachments`);
//! * `call/cc`, `call/1cc`, `dynamic-wind`, and multi-prompt delimited
//!   control (`%call-with-prompt`, `%abort`,
//!   `%call-with-composable-continuation`);
//! * library-level features built from marks: `catch`/`throw` (§2.3),
//!   `make-parameter`/`parameterize`, and `contract->`.
//!
//! # Examples
//!
//! The paper's §2 team-color example:
//!
//! ```
//! use cm_core::{Engine, EngineConfig};
//!
//! # fn main() -> Result<(), cm_core::EngineError> {
//! let mut engine = Engine::new(EngineConfig::default());
//! let result = engine.eval(
//!     r#"
//!     (define (current-team-color)
//!       (continuation-mark-set-first #f 'team-color "?"))
//!     (with-continuation-mark 'team-color "red"
//!       (current-team-color))
//!     "#,
//! )?;
//! assert_eq!(result.display_string(), "red");
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use cm_analysis::markflow::{MarkFlowFacts, TrustedObserver, TrustedObservers};
use cm_compiler::{CompileError, Compiler, CompilerConfig};
use cm_vm::{Globals, Machine, MachineConfig, MachineStats, MarkModel, Rooted, Value, VmError};

/// The runtime library sources, concatenated per mark model.
const PRELUDE_COMMON: &str = include_str!("prelude_common.scm");
const MARKS_ATTACHMENTS: &str = include_str!("marks_attachments.scm");
const MARKS_EAGER: &str = include_str!("marks_eager.scm");
const FEATURES: &str = include_str!("features.scm");
// The effects library lives in `crates/effects` (its own crate for the
// Rust-side API, tests, and docs) but is loaded here as the last
// prelude layer so every engine — every config, every crate — speaks
// `handle`/`perform`/`async`. Included by path to keep the dependency
// arrow pointing from cm-effects to cm-core, not the other way.
const EFFECTS: &str = include_str!("../../effects/src/effects.scm");

/// An error from compiling or running a program.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A compile-time error.
    Compile(CompileError),
    /// A runtime error.
    Runtime(VmError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> EngineError {
        EngineError::Compile(e)
    }
}

impl From<VmError> for EngineError {
    fn from(e: VmError) -> EngineError {
        EngineError::Runtime(e)
    }
}

/// Full configuration of an engine: machine plus compiler switches.
///
/// The named constructors correspond to the paper's measured variants.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Runtime switches.
    pub machine: MachineConfig,
    /// Compile-time switches.
    pub compiler: CompilerConfig,
}

impl EngineConfig {
    /// The full system ("attach" / Racket CS without wrapper overhead —
    /// i.e. modified Chez Scheme).
    pub fn full() -> EngineConfig {
        EngineConfig::default()
    }

    /// The full system plus the Racket CS control-operation wrapper
    /// overhead (what §8.3–§8.5 measure as "Racket CS").
    pub fn racket_cs() -> EngineConfig {
        let mut c = EngineConfig::default();
        c.machine.wrapped_control = true;
        c
    }

    /// §8.2 "unmod": no attachment specialization, no cp0 restriction —
    /// the baseline Chez Scheme.
    pub fn unmodified_chez() -> EngineConfig {
        let mut c = EngineConfig::default();
        c.compiler.attachment_opt = false;
        c.compiler.cp0_attachment_restriction = false;
        c.compiler.elide_irrelevant_marks = false;
        c
    }

    /// §8.5 "no 1cc": opportunistic one-shot fusion disabled.
    pub fn no_one_shot() -> EngineConfig {
        let mut c = EngineConfig::racket_cs();
        c.machine.one_shot_fusion = false;
        c
    }

    /// §8.5 "no opt": the compiler does not specialize attachment
    /// operations (uniform native calls with closure allocation).
    pub fn no_attachment_opt() -> EngineConfig {
        let mut c = EngineConfig::racket_cs();
        c.compiler.attachment_opt = false;
        c
    }

    /// §8.5 "no prim": primitives are not assumed attachment-transparent.
    pub fn no_prim_opt() -> EngineConfig {
        let mut c = EngineConfig::racket_cs();
        c.compiler.prim_attachment_opt = false;
        c
    }

    /// The old-Racket model (figure 5 baseline): eager per-frame mark
    /// stack, expensive capture, wrapper overhead.
    pub fn old_racket() -> EngineConfig {
        let mut c = EngineConfig::default();
        c.machine.mark_model = MarkModel::EagerMarkStack;
        c.machine.wrapped_control = true;
        c.compiler.mark_model = MarkModel::EagerMarkStack;
        c
    }

    /// The full system plus the interprocedural mark-flow optimizer
    /// (dead-key mark elision and non-observing `call/attach` →
    /// `call` + `pop-attach` rewriting) — the eighth measured config.
    pub fn mark_flow() -> EngineConfig {
        let mut c = EngineConfig::full();
        c.machine.mark_flow_opt = true;
        c.compiler.mark_flow_opt = true;
        c
    }
}

/// Every engine configuration in the evaluation matrix, in canonical
/// order — the single source of truth for the differential fuzzer, the
/// torture matrix, the trace-consistency suite, and `cm-verify`.
///
/// Lives here rather than in `cm-vm` because an [`EngineConfig`] pairs
/// machine *and* compiler switches, which `cm-vm` cannot name.
pub fn all_configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("full", EngineConfig::full()),
        ("racket-cs", EngineConfig::racket_cs()),
        ("unmod", EngineConfig::unmodified_chez()),
        ("no-1cc", EngineConfig::no_one_shot()),
        ("no-opt", EngineConfig::no_attachment_opt()),
        ("no-prim", EngineConfig::no_prim_opt()),
        ("old-racket", EngineConfig::old_racket()),
        ("mark-flow", EngineConfig::mark_flow()),
    ]
}

/// A ready-to-use Scheme engine with continuation-marks support.
pub struct Engine {
    machine: Machine,
    compiler: Compiler,
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine and loads the runtime library.
    ///
    /// # Panics
    ///
    /// Panics if the bundled prelude fails to compile or run (a build
    /// defect, not a user error).
    pub fn new(config: EngineConfig) -> Engine {
        let globals = Rc::new(RefCell::new(Globals::new()));
        let machine = Machine::with_globals(config.machine.clone(), globals.clone());
        let compiler = Compiler::new(config.compiler.clone(), globals.clone());
        let mut engine = Engine {
            machine,
            compiler,
            config,
        };
        // Uniform-native aliases for the §7.1 primitives; installed from
        // Rust so the compiler's immediate-lambda recognition is not
        // suppressed by a user-definition check.
        {
            let mut g = globals.borrow_mut();
            for (alias, native) in [
                (
                    "call-setting-continuation-attachment",
                    "$call-setting-attachment",
                ),
                (
                    "call-getting-continuation-attachment",
                    "$call-getting-attachment",
                ),
                (
                    "call-consuming-continuation-attachment",
                    "$call-consuming-attachment",
                ),
            ] {
                let v = g.lookup(cm_sexpr::sym(native)).expect("native installed");
                g.define(cm_sexpr::sym(alias), v);
            }
        }
        let marks_layer = if engine.config.compiler.eager_marks() {
            MARKS_EAGER
        } else {
            MARKS_ATTACHMENTS
        };
        for (what, src) in [
            ("prelude", PRELUDE_COMMON),
            ("marks layer", marks_layer),
            ("features", FEATURES),
            ("effects", EFFECTS),
        ] {
            engine
                .eval(src)
                .unwrap_or_else(|e| panic!("failed to load {what}: {e}"));
        }
        // The mark-flow optimizer is armed only now: the prelude itself
        // is compiled without it (its closed-world assumption covers
        // user programs over a fixed prelude, not the prelude itself).
        if engine.config.machine.mark_flow_opt || engine.config.compiler.mark_flow_opt {
            let trusted = engine.trusted_observers();
            engine.compiler.enable_mark_flow(trusted, true);
        }
        engine
    }

    /// Builds the trusted-observer summaries from the loaded prelude:
    /// the key-specific observers whose calls the mark-flow analysis
    /// models as "observes exactly the constant key at argument 1".
    /// Trust is by closure-code identity, so user redefinitions fall
    /// back to the conservative path.
    fn trusted_observers(&self) -> TrustedObservers {
        let mut trusted = TrustedObservers::default();
        let globals = self.machine.globals.borrow();
        for (name, key_arg) in [
            ("continuation-mark-set-first", 1),
            ("continuation-mark-set->list", 1),
        ] {
            if let Some(Value::Closure(c)) = globals.lookup(cm_sexpr::sym(name)) {
                trusted.observers.push(TrustedObserver {
                    name: name.to_string(),
                    code: c.code(),
                    key_arg,
                });
            }
        }
        trusted
    }

    /// Arms the mark-flow pass in facts-only mode: subsequent
    /// compilations compute per-call-site observability and dead-key
    /// facts without rewriting anything (`cm-verify --facts`).
    pub fn enable_mark_flow_facts(&mut self) {
        let trusted = self.trusted_observers();
        self.compiler.enable_mark_flow(trusted, false);
    }

    /// Takes the mark-flow facts from the most recent compilation
    /// (present only when the pass is armed — the `mark-flow` config
    /// or after [`Engine::enable_mark_flow_facts`]).
    pub fn take_mark_flow_facts(&mut self) -> Option<MarkFlowFacts> {
        self.compiler.take_mark_flow_facts()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Evaluates source text, returning the value of the last form,
    /// rooted for as long as the caller holds it.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for compile-time or runtime errors.
    pub fn eval(&mut self, src: &str) -> Result<Rooted, EngineError> {
        let code = self.compiler.compile_str(src)?;
        self.machine.refuel();
        Ok(self.machine.run_code(code)?)
    }

    /// Compiles source text without running it (used by `cm-verify`).
    ///
    /// With [`CompilerConfig::verify_bytecode`] on, the returned code has
    /// passed the `cm-analysis` bytecode verifier; verification failures
    /// surface as [`EngineError::Compile`].
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for compile-time errors, including
    /// bytecode-verification failures.
    pub fn compile_only(&mut self, src: &str) -> Result<Rc<cm_vm::Code>, EngineError> {
        Ok(self.compiler.compile_str(src)?)
    }

    /// Takes the accumulated §7.4 cp0 lint findings (non-empty only when
    /// [`CompilerConfig::cp0_attachment_restriction`] is off and cp0
    /// collapsed an attachment-observable frame — the expected "unmod"
    /// miscompilation class).
    pub fn take_lint_findings(&mut self) -> Vec<cm_compiler::lint::Finding> {
        self.compiler.take_lints()
    }

    /// Evaluates and renders the result in `write` notation.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for compile-time or runtime errors.
    pub fn eval_to_string(&mut self, src: &str) -> Result<String, EngineError> {
        Ok(self.eval(src)?.write_string())
    }

    /// Calls a global procedure by name; the result comes back rooted, as
    /// from [`Engine::eval`].
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] if the global is unbound or the call
    /// fails.
    pub fn call_global(&mut self, name: &str, args: Vec<Value>) -> Result<Rooted, EngineError> {
        let f = self
            .machine
            .globals
            .borrow()
            .lookup(cm_sexpr::sym(name))
            .ok_or_else(|| EngineError::Runtime(VmError::unbound(name)))?;
        self.machine.refuel();
        Ok(self.machine.call_value(f, args)?)
    }

    /// Takes and clears output captured from `display`/`write`/`newline`.
    pub fn take_output(&mut self) -> String {
        self.machine.take_output()
    }

    /// The machine's event counters.
    pub fn stats(&self) -> MachineStats {
        self.machine.stats
    }

    /// Resets the machine's event counters.
    pub fn reset_stats(&mut self) {
        self.machine.stats.reset();
    }

    /// Direct access to the underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Checks the machine's structural invariants (see
    /// [`Machine::check_invariants`]). The torture harness calls this
    /// after every injected fault to prove the engine is still sound.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.machine.check_invariants()
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> String {
        Engine::new(EngineConfig::default())
            .eval_to_string(src)
            .unwrap()
    }

    #[test]
    fn basic_evaluation() {
        assert_eq!(eval("(+ 1 2)"), "3");
        assert_eq!(eval("(let ([x 2]) (* x x))"), "4");
        assert_eq!(eval("((lambda (a . rest) (cons a rest)) 1 2 3)"), "(1 2 3)");
    }

    #[test]
    fn prelude_utilities_work() {
        assert_eq!(eval("(map add1 '(1 2 3))"), "(2 3 4)");
        assert_eq!(eval("(filter even? (iota 6))"), "(0 2 4)");
        assert_eq!(eval("(fold-left + 0 '(1 2 3 4))"), "10");
        assert_eq!(eval("(map + '(1 2) '(10 20))"), "(11 22)");
    }

    #[test]
    fn config_constructors_differ() {
        assert!(!EngineConfig::no_one_shot().machine.one_shot_fusion);
        assert!(!EngineConfig::no_attachment_opt().compiler.attachment_opt);
        assert!(!EngineConfig::no_prim_opt().compiler.prim_attachment_opt);
        assert!(EngineConfig::old_racket().compiler.eager_marks());
        assert!(
            !EngineConfig::unmodified_chez()
                .compiler
                .cp0_attachment_restriction
        );
        assert!(EngineConfig::mark_flow().compiler.mark_flow_opt);
        assert!(!EngineConfig::full().compiler.mark_flow_opt);
    }

    #[test]
    fn all_configs_is_the_eight_config_matrix() {
        let configs = all_configs();
        assert_eq!(configs.len(), 8);
        let names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
        assert_eq!(names[0], "full");
        assert_eq!(names[7], "mark-flow");
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), 8, "config names must be distinct");
    }

    #[test]
    fn mark_flow_engine_agrees_with_full_and_reports_facts() {
        let program = r#"
            (define (observe) (continuation-mark-set-first #f 'live 0))
            (define (go n)
              (with-continuation-mark 'dead n
                (with-continuation-mark 'live n
                  (observe))))
            (go 7)
        "#;
        let mut full = Engine::new(EngineConfig::full());
        let mut mf = Engine::new(EngineConfig::mark_flow());
        let a = full.eval_to_string(program).unwrap();
        let b = mf.eval_to_string(program).unwrap();
        assert_eq!(a, b);
        let facts = mf.take_mark_flow_facts().expect("facts from armed engine");
        assert!(facts.dead_keys.contains(&"dead".to_string()), "{facts:?}");
        assert!(!facts.dead_keys.contains(&"live".to_string()), "{facts:?}");
    }

    #[test]
    fn facts_only_mode_rewrites_nothing() {
        let mut e = Engine::new(EngineConfig::full());
        e.enable_mark_flow_facts();
        e.eval("(with-continuation-mark 'k 1 (+ 1 2))").unwrap();
        let facts = e.take_mark_flow_facts().expect("facts armed");
        assert_eq!(facts.rewritten_sites, 0);
        assert_eq!(facts.elided_wcms, 0);
    }

    #[test]
    fn errors_are_reported() {
        let mut e = Engine::new(EngineConfig::default());
        assert!(matches!(
            e.eval("(car 5)"),
            Err(EngineError::Runtime(VmError {
                kind: cm_vm::VmErrorKind::WrongType { .. },
                ..
            }))
        ));
        assert!(matches!(e.eval("(if)"), Err(EngineError::Compile(_))));
        // The machine recovers after an error.
        assert_eq!(e.eval_to_string("(+ 1 1)").unwrap(), "2");
    }

    #[test]
    fn output_capture() {
        let mut e = Engine::new(EngineConfig::default());
        e.eval(r#"(display "hi") (newline) (write "hi")"#).unwrap();
        assert_eq!(e.take_output(), "hi\n\"hi\"");
    }

    #[test]
    fn call_global_works() {
        let mut e = Engine::new(EngineConfig::default());
        e.eval("(define (double x) (* 2 x))").unwrap();
        let v = e.call_global("double", vec![Value::fixnum(21)]).unwrap();
        assert!(v.eq_value(&Value::fixnum(42)));
    }
}
