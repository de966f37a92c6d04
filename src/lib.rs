//! # SlackSim-RS — "Exploiting Simulation Slack to Improve Parallel
//! Simulation Speed" (Chen, Annavaram, Dubois — ICPP 2009), in Rust
//!
//! This meta-crate re-exports the whole workspace and hosts the
//! integration tests and runnable examples. The interesting code lives in:
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] (`sk-isa`) | the mini RISC ISA, assembler, program builder |
//! | [`mem`] (`sk-mem`) | caches, MSHRs, directory MESI, NUCA L2, bus |
//! | [`core`] (`sk-core`) | the SlackSim engine: schemes, clocks, cores, manager |
//! | [`kernels`] (`sk-kernels`) | Barnes / FFT / LU / Water + microbenchmarks |
//!
//! See README.md for a tour, DESIGN.md for the system inventory, and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! ```no_run
//! use slacksim_suite::prelude::*;
//!
//! let w = kernels::fft::fft(8, 10); // 8 threads, 1024 points
//! let cfg = TargetConfig::paper_8core();
//! let baseline = run_sequential(&w.program, &cfg);
//! let s9 = run_parallel(&w.program, Scheme::BoundedSlack(9), &cfg);
//! println!("S9 error: {:.3}%", 100.0 * s9.exec_time_error(&baseline));
//! ```

pub use sk_core as core;
pub use sk_isa as isa;
pub use sk_kernels as kernels;
pub use sk_mem as mem;

/// The items most programs need.
pub mod prelude {
    pub use sk_core::{
        run_parallel, run_sequential, CoreModel, Scheme, SimReport, StopCondition, TargetConfig,
    };
    pub use sk_isa::{ProgramBuilder, Reg, Syscall};
    pub use sk_kernels::{self as kernels, paper_suite, Scale, Workload};
}
