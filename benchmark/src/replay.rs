//! A replay of `Compiler::compile_data` through the compiler's public
//! phase functions, so each phase can be timed from outside.
//!
//! The replay runs the same steps the release compiler runs for the
//! `full` configuration — read, expand, cp0 (primitive recognition and
//! optimization), lower, codegen — against the engine's own global
//! table, with an expander primed by the four prelude layers. Its
//! output is checked against `Engine::compile_only` by instruction
//! count.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cm_compiler::ast::{Expr, TopForm};
use cm_compiler::expand::Expander;
use cm_compiler::{codegen, cp0, lower, CompileError, CompilerConfig};
use cm_vm::{Code, Globals};

use crate::suite::PRELUDE;
use crate::trace::Tracer;

/// The phase span names, in pipeline order.
pub const PHASES: [&str; 5] = [
    "sexpr.parse",
    "compiler.expand",
    "compiler.cp0",
    "compiler.lower",
    "compiler.codegen",
];

/// Instructions in `code` and every nested code object.
pub fn instrs(code: &Code) -> u64 {
    code.instrs.len() as u64 + code.codes.iter().map(|c| instrs(c)).sum::<u64>()
}

/// The replaying compiler.
pub struct Replay {
    expander: Expander,
    config: CompilerConfig,
    globals: Rc<RefCell<Globals>>,
}

fn map_top(form: TopForm, mut f: impl FnMut(Expr) -> Expr) -> TopForm {
    match form {
        TopForm::Define(name, e) => TopForm::Define(name, f(e)),
        TopForm::Expr(e) => TopForm::Expr(f(e)),
    }
}

impl Replay {
    /// A replay over `globals` (the engine's table) with `config`, its
    /// expander primed by expanding the prelude layers.
    pub fn new(config: CompilerConfig, globals: Rc<RefCell<Globals>>) -> Replay {
        let mut expander = Expander::new();
        for (name, src) in PRELUDE {
            let data = cm_sexpr::parse_str(src)
                .unwrap_or_else(|e| panic!("prelude layer {name} does not read: {e}"));
            expander
                .expand_program(&data)
                .unwrap_or_else(|e| panic!("prelude layer {name} does not expand: {e}"));
        }
        Replay {
            expander,
            config,
            globals,
        }
    }

    /// Compiles `src`, returning the code and when each phase ran.
    ///
    /// # Errors
    ///
    /// A read or expansion error.
    pub fn compile(&mut self, src: &str) -> Result<(Rc<Code>, Phases), CompileError> {
        let mut at = [Instant::now(); 6];
        let data = cm_sexpr::parse_str(src)?;
        at[1] = Instant::now();
        let forms = self.expander.expand_program(&data)?;
        // Each phase pays for freeing its own input.
        drop(data);
        at[2] = Instant::now();
        let user = cp0::user_defined_names(&forms);
        let opts = cp0::Cp0Options {
            attachment_restriction: self.config.cp0_attachment_restriction,
            elide_irrelevant_marks: self.config.elide_irrelevant_marks,
        };
        let forms: Vec<TopForm> = forms
            .into_iter()
            .map(|f| map_top(f, |e| cp0::optimize(cp0::recognize_prims(e, &user), &opts)))
            .collect();
        at[3] = Instant::now();
        // As in `compile_data`: lowering numbers its variables above
        // everything the expander has allocated.
        let mut supply = lower::VarSupply::starting_at(self.expander.var_count().max(1_000_000));
        let forms: Vec<TopForm> = forms
            .into_iter()
            .map(|f| map_top(f, |e| lower::lower(e, &self.config, &mut supply)))
            .collect();
        at[4] = Instant::now();
        let code = codegen::gen_program(&forms, &self.globals, &self.config);
        drop(forms);
        at[5] = Instant::now();
        Ok((code, Phases(at)))
    }
}

/// When each phase of one replayed compile began and ended.
#[derive(Debug, Clone, Copy)]
pub struct Phases([Instant; 6]);

impl Phases {
    /// Phase `i`'s duration (in [`PHASES`] order) in milliseconds.
    pub fn ms(&self, i: usize) -> f64 {
        (self.0[i + 1] - self.0[i]).as_secs_f64() * 1e3
    }

    /// The start of the first phase and the end of the last.
    pub fn bounds(&self) -> (Instant, Instant) {
        (self.0[0], self.0[5])
    }

    /// Records one span per phase under `parent`.
    pub fn record(&self, tracer: &mut Tracer, parent: Option<usize>, request: u64) {
        for (i, phase) in PHASES.iter().enumerate() {
            tracer.record(phase, self.0[i], self.0[i + 1], parent, request);
        }
    }
}
