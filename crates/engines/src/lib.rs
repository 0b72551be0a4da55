//! Suspendable engines and a multi-tenant scheduler for the
//! continuation-marks VM.
//!
//! This crate is the systems payoff of the VM's preemption path
//! ([`cm_vm::Machine::run_code_sliced`] / [`cm_vm::Machine::resume`]):
//! because a continuation-marks machine can freeze its in-flight state —
//! frames, marks register, winders, pending underflow records — into a
//! one-shot continuation at any instruction boundary, whole programs
//! become *engines* in the Dybvig–Hieb sense: values that run for a fuel
//! slice and either finish or hand back a resumable remainder.
//!
//! Three layers:
//!
//! * [`engine`] — [`Engine`]: one suspendable program;
//!   [`WorkerHost`]: a prelude-loaded compiler + globals that spawns
//!   engines cheaply.
//! * [`sched`] — [`Scheduler`]: the one slice loop. It interleaves many
//!   engines on one thread (round-robin or earliest-deadline-first),
//!   enforcing per-task [`MachineConfig::deadline`](cm_vm::MachineConfig)
//!   timeouts, supervising checkpointed tasks, and producing per-task
//!   [`TaskReport`]s.
//! * [`pool`] — [`run_pool`]: shards `Send` job specs across N workers,
//!   each a host, a scheduler and an inbox, and aggregates throughput /
//!   latency / fairness [`SchedMetrics`]. [`steal`] decides who moves
//!   work: nobody (static sharding), idle and busy workers (stealing,
//!   with started engines crossing threads as snapshot bytes, since the
//!   VM is `Rc`-based), or a recorded schedule (the replay simulator).
//!
//! The `cm-sched` binary drives the paper's §2 examples and the
//! benchmark workloads through the pool concurrently and reports the
//! metrics.
//!
//! # Examples
//!
//! ```
//! use cm_engines::{RunResult, WorkerHost};
//!
//! let mut host = WorkerHost::new(Default::default());
//! host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
//!     .unwrap();
//! let engine = host.spawn("(spin 1000)").unwrap();
//! match engine.run(100) {
//!     RunResult::Suspended(engine, stats) => {
//!         assert_eq!(stats.suspensions, 1);
//!         let (v, _slices) = engine.run_to_completion(100).unwrap();
//!         assert_eq!(v.display_string(), "done");
//!     }
//!     other => panic!("a 1000-deep spin cannot finish in 100 steps: {other:?}"),
//! }
//! ```

pub mod engine;
pub mod pool;
pub mod sched;
pub mod spans;
pub mod steal;

pub use engine::{Engine, RunResult, WorkerHost};
pub use pool::{run_pool, JobSpec, PoolConfig, PoolReport, PoolSpec, WorkerSummary};
pub use sched::{jain_index, Outcome, Policy, SchedConfig, SchedMetrics, Scheduler, TaskReport};
pub use spans::{Span, SpanLog};
pub use steal::{StealConfig, StealEvent, StealSchedule};
