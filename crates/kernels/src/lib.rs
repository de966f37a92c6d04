//! # sk-kernels — SPLASH-2-like workloads for the SlackSim reproduction
//!
//! The paper evaluates four parallel benchmarks from SPLASH-2 — Barnes,
//! FFT, LU and Water-Nsquared (§4.1, Table 2) — compiled for PISA. Neither
//! PISA binaries nor the original sources are usable here, so this crate
//! re-implements the four *computational kernels* for the `sk-isa` mini
//! ISA through the program-builder DSL, preserving what the experiments
//! actually depend on: the sharing and synchronization patterns
//! (barrier-separated phases, lock-protected accumulation, read-mostly
//! shared data) and floating-point-heavy inner loops. See DESIGN.md §2 for
//! the substitution argument; the headline simplification is that Barnes
//! uses direct force summation over a particle set rather than a full
//! Barnes-Hut tree (same phase/barrier structure, same read-shared
//! position data).
//!
//! Every workload follows the paper's run protocol: the program starts as
//! a single workload thread, spawns the remaining threads, then issues
//! `RoiBegin` so statistics cover only the parallel phase (§4.1).
//!
//! Each kernel ships with a bit-exact host reference: the simulated
//! program prints scaled integer checksums, and [`Workload::expected`]
//! holds the values a correct simulation must print. Because every shared
//! datum is written by exactly one thread per phase (and cross-thread
//! reductions are integer-scaled under a lock), the checksums are
//! identical under every slack scheme — which is exactly what makes the
//! paper's Table 3 a *timing*-error table, not a correctness table.

pub mod actors;
pub mod barnes;
pub mod common;
pub mod fft;
pub mod lu;
pub mod micro;
pub mod ocean;
pub mod pipeline;
pub mod radix;
pub mod treiber;
pub mod water;
pub mod worksteal;

use sk_isa::Program;
use std::fmt;
use std::str::FromStr;

/// A ready-to-run benchmark: program + the values it must print.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (paper's Table 2 benchmark name).
    pub name: String,
    /// Input-set description (paper's Table 2 column).
    pub input: String,
    /// The linked program.
    pub program: Program,
    /// Exact values the workload prints ((tid 0) in program order).
    pub expected: Vec<i64>,
    /// Number of workload threads the program spawns (= target cores used).
    pub n_threads: usize,
}

/// Which rung of every kernel's input ladder ([`Kernel::params`]) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit tests (seconds on the sequential engine); also
    /// every scenario's default.
    Test,
    /// The default benchmarking scale.
    Bench,
    /// Larger runs for error studies.
    Full,
}

/// Parses the names `--scale` and job bodies use: `test`, `bench`, `full`.
impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "test" => Ok(Scale::Test),
            "bench" => Ok(Scale::Bench),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (expected test, bench or full)")),
        }
    }
}

/// Which suite builds a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// The paper's Table 2: [`paper_suite`].
    Paper,
    /// Radix and Ocean, which complete [`extended_suite`]'s six.
    Splash,
    /// Microbenchmarks, run by name only.
    Micro,
    /// Message-passing and irregular kernels: [`irregular_suite`].
    Irregular,
}

/// One row of the workload registry, [`KERNELS`].
#[derive(Debug)]
pub struct Kernel {
    /// The name its [`Workload`] carries, matched ASCII case-insensitively.
    pub name: &'static str,
    /// The suite that builds it.
    family: Family,
    /// Inputs in builder order: the scenario `[kernel]` key and the value
    /// at each [`Scale`] (`[test, bench, full]`; scenarios default to test).
    pub params: &'static [(&'static str, [i64; 3])],
    /// The fewest target cores a job, a scenario or `slacksim run` may ask
    /// for. The suites build below it, with the threads the kernel needs.
    pub min_cores: usize,
    /// Builds on `cores` threads from inputs in `params` order, each raised
    /// to its floor: a kernel that partitions elements across threads takes
    /// at least one per thread, so only many-core runs outgrow the rungs.
    builder: fn(usize, &[i64]) -> Workload,
}

/// Input ladder shared by the microbenchmarks.
const MICRO: [i64; 3] = [200, 2_000, 20_000];

/// The workload registry: every kernel, in the order `slacksim list` prints
/// them. The suites, scenarios, served jobs and the CLI all build from it.
pub const KERNELS: &[Kernel] = &[
    Kernel {
        name: "Barnes",
        family: Family::Paper,
        params: &[("bodies", [24, 96, 160]), ("steps", [1, 2, 3])],
        min_cores: 1,
        builder: |n, p| barnes::barnes(n, (p[0] as usize).max(n), p[1] as usize),
    },
    Kernel {
        name: "FFT",
        family: Family::Paper,
        params: &[("log2", [6, 10, 12])],
        min_cores: 1,
        builder: |n, p| {
            let log2_floor = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
            fft::fft(n, (p[0] as u32).max(log2_floor).clamp(2, 20))
        },
    },
    Kernel {
        name: "LU",
        family: Family::Paper,
        params: &[("n", [12, 48, 96])],
        min_cores: 1,
        builder: |n, p| lu::lu(n, (p[0] as usize).max(4)),
    },
    Kernel {
        name: "Water-Nsquared",
        family: Family::Paper,
        params: &[("molecules", [16, 64, 96]), ("steps", [1, 2, 3])],
        min_cores: 1,
        builder: |n, p| water::water(n, (p[0] as usize).max(n), p[1] as usize),
    },
    Kernel {
        name: "Radix",
        family: Family::Splash,
        params: &[("n", [64, 1024, 4096])],
        min_cores: 1,
        builder: |n, p| radix::radix(n, (p[0] as usize).max(n)),
    },
    Kernel {
        name: "Ocean",
        family: Family::Splash,
        params: &[("m", [8, 30, 62]), ("sweeps", [2, 4, 6])],
        min_cores: 1,
        builder: |n, p| ocean::ocean(n, (p[0] as usize).max(n), p[1] as usize),
    },
    Kernel {
        name: "pingpong",
        family: Family::Micro,
        params: &[("rounds", MICRO)],
        min_cores: 2,
        builder: |_, p| micro::pingpong(p[0]),
    },
    Kernel {
        name: "lock_sweep",
        family: Family::Micro,
        params: &[("iters", MICRO)],
        min_cores: 1,
        builder: |n, p| micro::lock_sweep(n, p[0]),
    },
    Kernel {
        name: "private_compute",
        family: Family::Micro,
        params: &[("iters", MICRO)],
        min_cores: 1,
        builder: |n, p| micro::private_compute(n, p[0]),
    },
    // The fuzzing targets: racy by design (violations observable) and
    // coherence-bound but race-free (violations must stay timing-only).
    Kernel {
        name: "racy_increment",
        family: Family::Micro,
        params: &[("iters", MICRO)],
        min_cores: 1,
        builder: |n, p| micro::racy_increment(n, p[0]),
    },
    Kernel {
        name: "false_sharing",
        family: Family::Micro,
        params: &[("iters", MICRO)],
        min_cores: 1,
        builder: |n, p| micro::false_sharing(n, p[0]),
    },
    // Producer and consumer, actor partners: one thread alone has no peer.
    Kernel {
        name: "pipeline",
        family: Family::Irregular,
        params: &[("items", [8, 64, 256])],
        min_cores: 2,
        builder: |n, p| pipeline::pipeline(n.max(2), p[0]),
    },
    Kernel {
        name: "mailbox_actors",
        family: Family::Irregular,
        params: &[("rounds", [2, 8, 16])],
        min_cores: 2,
        builder: |n, p| actors::mailbox_actors(n.max(2), p[0]),
    },
    Kernel {
        name: "work_steal",
        family: Family::Irregular,
        params: &[("tasks", [24, 256, 1024])],
        min_cores: 1,
        builder: |n, p| worksteal::work_steal(n, p[0].max(2 * n as i64)),
    },
    Kernel {
        name: "treiber_stack",
        family: Family::Irregular,
        params: &[("pushes", [4, 32, 96])],
        min_cores: 1,
        builder: |n, p| treiber::treiber_stack(n, p[0]),
    },
];

impl Kernel {
    /// The inputs at `scale`, in [`Kernel::params`] order.
    pub fn inputs(&self, scale: Scale) -> Vec<i64> {
        self.params.iter().map(|(_, rungs)| rungs[scale as usize]).collect()
    }

    /// Build on `cores` workload threads from `inputs` (in
    /// [`Kernel::params`] order), each raised to its floor.
    pub fn build(&self, cores: usize, inputs: &[i64]) -> Workload {
        (self.builder)(cores, inputs)
    }

    /// Build on `cores` workload threads with the inputs of `scale`.
    pub fn at(&self, cores: usize, scale: Scale) -> Workload {
        self.build(cores, &self.inputs(scale))
    }
}

/// Why a front end cannot build a kernel by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// No row of [`KERNELS`] has this name.
    Unknown(String),
    /// The kernel needs more target cores than were asked for.
    TooFewCores {
        /// The kernel's name.
        kernel: &'static str,
        /// Its [`Kernel::min_cores`].
        min_cores: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Unknown(name) => write!(f, "unknown benchmark {name:?}"),
            KernelError::TooFewCores { kernel, min_cores } => {
                write!(f, "{kernel} needs at least {min_cores} cores")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// The kernel named `name` (ASCII case-insensitive), if it runs on `cores`
/// target cores. Checks the name without building a program.
pub fn kernel(name: &str, cores: usize) -> Result<&'static Kernel, KernelError> {
    let k = KERNELS
        .iter()
        .find(|k| k.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| KernelError::Unknown(name.to_string()))?;
    if cores < k.min_cores {
        return Err(KernelError::TooFewCores { kernel: k.name, min_cores: k.min_cores });
    }
    Ok(k)
}

/// Every kernel of the `families`, in registry order, at `scale` on
/// `n_threads` workload threads.
fn suite(n_threads: usize, scale: Scale, families: &[Family]) -> Vec<Workload> {
    KERNELS
        .iter()
        .filter(|k| families.contains(&k.family))
        .map(|k| k.at(n_threads, scale))
        .collect()
}

/// The four benchmarks of the paper's Table 2, at a given scale, all
/// configured for `n_threads` workload threads.
pub fn paper_suite(n_threads: usize, scale: Scale) -> Vec<Workload> {
    suite(n_threads, scale, &[Family::Paper])
}

/// The paper's §4.1 states "we choose six parallel benchmarks" although
/// Table 2 lists only four. This suite adds two canonical SPLASH-2
/// companions — Radix (all-to-all scatter) and Ocean (nearest-neighbour
/// stencil) — to complete the six with sharing patterns the four lack.
pub fn extended_suite(n_threads: usize, scale: Scale) -> Vec<Workload> {
    suite(n_threads, scale, &[Family::Paper, Family::Splash])
}

/// Message-passing and irregular-workload kernels. Unlike the SPLASH
/// suite's data-parallel phases, these four stress manager-ordered sync
/// (semaphores, fine-grained locks, manager-routed CAS) with irregular,
/// schedule-dependent communication — yet each prints host-verifiable
/// values, so workload-state corruption under bounded slack stays
/// observable against [`Workload::expected`].
pub fn irregular_suite(n_threads: usize, scale: Scale) -> Vec<Workload> {
    suite(n_threads, scale, &[Family::Irregular])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_the_papers_benchmarks() {
        let suite = paper_suite(4, Scale::Test);
        let names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["Barnes", "FFT", "LU", "Water-Nsquared"]);
        for w in &suite {
            assert_eq!(w.n_threads, 4);
            w.program.validate().expect("kernel programs validate");
            assert!(!w.expected.is_empty(), "{} has a checksum", w.name);
        }
    }

    /// Every route through the registry builds one program per (kernel,
    /// cores, scale): the suites, a lookup by name (any ASCII case) and
    /// `build` from the scale's inputs agree on name, inputs, thread count,
    /// expected output and program image. A lookup below the kernel's
    /// minimum core count is refused. Served jobs, scenarios and the CLI
    /// build through the lookup, so their memo keys and fingerprints rest
    /// on this.
    #[test]
    fn suite_kernel_builds_what_the_suite_builds() {
        let same = |a: &Workload, b: &Workload, what: &str| {
            assert_eq!(a.name, b.name, "{what}");
            assert_eq!(a.input, b.input, "{what}");
            assert_eq!(a.n_threads, b.n_threads, "{what}");
            assert_eq!(a.expected, b.expected, "{what}");
            assert_eq!(a.program.entry, b.program.entry, "{what}");
            assert!(a.program.image().eq(b.program.image()), "{what}");
        };
        for scale in [Scale::Test, Scale::Bench, Scale::Full] {
            for cores in [1, 2, 4] {
                let suite: Vec<Workload> = extended_suite(cores, scale)
                    .into_iter()
                    .chain(irregular_suite(cores, scale))
                    .collect();
                let in_suite: Vec<&str> =
                    KERNELS.iter().filter(|k| k.family != Family::Micro).map(|k| k.name).collect();
                let names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
                assert_eq!(names, in_suite);
                for k in KERNELS {
                    let what = format!("{} at {cores} cores, {scale:?}", k.name);
                    let built = k.build(cores, &k.inputs(scale));
                    assert_eq!(built.name, k.name, "{what}");
                    if let Some(w) = suite.iter().find(|w| w.name == k.name) {
                        same(&built, w, &what);
                    }
                    match kernel(&k.name.to_ascii_uppercase(), cores) {
                        Ok(by_name) => {
                            assert!(cores >= k.min_cores, "{what}: offered below its minimum");
                            same(&by_name.at(cores, scale), &built, &what);
                        }
                        Err(e) => assert_eq!(
                            e,
                            KernelError::TooFewCores { kernel: k.name, min_cores: k.min_cores },
                            "{what}"
                        ),
                    }
                }
            }
        }
        assert_eq!(
            kernel("no_such_kernel", 4).unwrap_err(),
            KernelError::Unknown("no_such_kernel".into())
        );
        assert_eq!("bench".parse(), Ok(Scale::Bench));
        assert!("galactic".parse::<Scale>().is_err());
    }

    #[test]
    fn extended_suite_has_six_benchmarks() {
        let suite = extended_suite(4, Scale::Test);
        let names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["Barnes", "FFT", "LU", "Water-Nsquared", "Radix", "Ocean"]);
        for w in &suite {
            w.program.validate().expect("kernel programs validate");
        }
    }
}
