//! # sk-core — the SlackSim parallel simulation engine
//!
//! A reproduction of *"Exploiting Simulation Slack to Improve Parallel
//! Simulation Speed"* (Chen, Annavaram, Dubois — ICPP 2009): a parallel
//! CMP-on-CMP microarchitecture simulator where each target core simulates
//! its own cycles and a simulation manager models the shared L2/directory
//! and paces the run through three shared clocks
//! (`global ≤ local ≤ max_local`) — as tasks on a pool of host threads.
//!
//! ## Quick start
//!
//! ```no_run
//! use sk_core::{run_parallel, run_sequential, Scheme, TargetConfig};
//! use sk_isa::{ProgramBuilder, Reg, Syscall};
//!
//! // A trivial workload for an 8-core target.
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::arg(0), 42);
//! b.sys(Syscall::PrintInt);
//! b.sys(Syscall::Exit);
//! let program = b.build().unwrap();
//!
//! let cfg = TargetConfig::paper_8core();
//! // Gold standard: sequential cycle-by-cycle.
//! let baseline = run_sequential(&program, &cfg);
//! // Bounded slack with a 9-cycle window (the paper's S9).
//! let s9 = run_parallel(&program, Scheme::BoundedSlack(9), &cfg);
//! println!("error = {:.3}%", 100.0 * s9.exec_time_error(&baseline));
//! ```
//!
//! ## Map of the crate
//!
//! | module | paper concept |
//! |---|---|
//! | [`scheme`] | §3 slack schemes (CC, Q, L, S, S*, SU) |
//! | [`clock`] | §2.1 global/local/max-local time + worker wake-ups |
//! | [`msg`], [`spsc`] | §2.2 OutQ / InQ / GQ event queues |
//! | [`cpu`] | §2.2/§4.1 OoO (NetBurst-like) and in-order core models |
//! | [`sync`] | §4 Table 1 lock/barrier/semaphore API |
//! | [`uncore`] | §2 manager thread: directory, L2, event disciplines |
//! | [`violation`] | §3.2 simulation-violation taxonomy + fast-forward |
//! | [`engine`], [`pool`] | the parallel engine on W = min(host CPUs, N) workers |
//! | [`seq`] | the single-thread cycle-by-cycle baseline |

pub mod backend;
pub mod clock;
pub mod config;
pub mod core_thread;
pub mod cpu;
pub mod engine;
pub mod exec;
pub mod interp;
mod memstage;
pub mod msg;
pub mod pool;
pub mod scheme;
pub mod seq;
pub mod shard;
pub mod spsc;
pub mod stats;
pub mod sync;
pub mod uncore;
pub mod violation;

pub use backend::{run_det, DetEngine};
pub use config::{ConfigError, CoreConfig, CoreModel, StopCondition, TargetConfig};
pub use engine::{run_parallel, Engine, RunOutcome};
pub use interp::{interpret, InterpResult, InterpStop};
pub use scheme::{Scheme, SchemeParseError};
pub use seq::run_sequential;
/// The snapshot codec [`cpu::CpuModel::save_state`] / `restore_state` speak.
pub use sk_snap as snap;
pub use stats::{CoreStats, EngineStats, SimReport, ViolationReport};
