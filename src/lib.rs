//! # continuation-marks
//!
//! A from-scratch Rust reproduction of *Compiler and Runtime Support for
//! Continuation Marks* (Flatt & Dybvig, PLDI 2020): a Scheme engine whose
//! runtime uses Chez-style segmented-stack continuations with
//! *continuation attachments* (§5–§6), whose compiler performs the §7
//! attachment categorization and optimizations, and whose library layer
//! provides Racket's continuation-marks API with amortized-O(1)
//! `continuation-mark-set-first` (§7.5).
//!
//! The crates:
//!
//! * [`engine`] (`cm-core`) — the user-facing [`Engine`],
//! * [`vm`] (`cm-vm`) — values, bytecode, the segmented-stack machine,
//! * [`compiler`] (`cm-compiler`) — expander, cp0, attachment lowering,
//! * [`sexpr`] (`cm-sexpr`) — reader and printer,
//! * [`refmodel`] (`cm-refmodel`) — the heap-based §3–§4 semantic model,
//! * [`baseline`] (`cm-baseline`) — the figure-3 imitation and
//!   old-Racket model constructors,
//! * [`workloads`] (`cm-workloads`) — every benchmark of the paper's §8,
//! * [`engines`] (`cm-engines`) — suspendable engines over the VM's
//!   preemption path, plus a multi-tenant scheduler and worker pool,
//! * [`effects`] (`cm-effects`) — `shift`/`reset` and algebraic effect
//!   handlers built purely on the VM's delimited-control and
//!   continuation-mark surface, plus a cooperative async runtime.
//!
//! # Quickstart
//!
//! ```
//! use continuation_marks::{Engine, EngineConfig};
//!
//! # fn main() -> Result<(), continuation_marks::EngineError> {
//! let mut engine = Engine::new(EngineConfig::default());
//! let v = engine.eval(
//!     "(with-continuation-mark 'user \"alice\"
//!        (continuation-mark-set-first #f 'user \"nobody\"))",
//! )?;
//! assert_eq!(v.display_string(), "alice");
//! # Ok(())
//! # }
//! ```
//!
//! Effect handlers (and `shift`/`reset`, generators, async) are part of
//! the default prelude:
//!
//! ```
//! use continuation_marks::{Engine, EngineConfig};
//!
//! # fn main() -> Result<(), continuation_marks::EngineError> {
//! let mut engine = Engine::new(EngineConfig::default());
//! let v = engine.eval(
//!     "(handle (+ (perform ask) (perform ask))
//!        [(ask k) (k 21)])",
//! )?;
//! assert_eq!(v.display_string(), "42");
//! # Ok(())
//! # }
//! ```

pub use cm_baseline as baseline;
pub use cm_compiler as compiler;
pub use cm_core as engine;
pub use cm_effects as effects;
pub use cm_engines as engines;
pub use cm_refmodel as refmodel;
pub use cm_sexpr as sexpr;
pub use cm_vm as vm;
pub use cm_workloads as workloads;

pub use cm_core::{all_configs, Engine, EngineConfig, EngineError};
pub use cm_vm::{MachineStats, Rooted, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umbrella_reexports_work() {
        let mut e = Engine::new(EngineConfig::default());
        assert!(e.eval("(+ 20 22)").unwrap().eq_value(&Value::fixnum(42)));
    }
}
