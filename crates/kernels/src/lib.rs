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

/// Relative input scale for [`paper_suite`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit tests (seconds on the sequential engine).
    Test,
    /// The default benchmarking scale.
    Bench,
    /// Larger runs for error studies.
    Full,
}

/// Every kernel of [`extended_suite`] and then [`irregular_suite`], by the
/// name its [`Workload`] carries, in suite order.
pub const SUITE_KERNELS: [&str; 10] = [
    "Barnes",
    "FFT",
    "LU",
    "Water-Nsquared",
    "Radix",
    "Ocean",
    "pipeline",
    "mailbox_actors",
    "work_steal",
    "treiber_stack",
];

/// Where [`irregular_suite`]'s kernels start in [`SUITE_KERNELS`].
const IRREGULAR: usize = 6;

/// The four benchmarks of the paper's Table 2, at a given scale, all
/// configured for `n_threads` workload threads.
pub fn paper_suite(n_threads: usize, scale: Scale) -> Vec<Workload> {
    SUITE_KERNELS[..4].iter().map(|k| build_kernel(k, n_threads, scale)).collect()
}

/// The paper's §4.1 states "we choose six parallel benchmarks" although
/// Table 2 lists only four. This suite adds two canonical SPLASH-2
/// companions — Radix (all-to-all scatter) and Ocean (nearest-neighbour
/// stencil) — to complete the six with sharing patterns the four lack.
pub fn extended_suite(n_threads: usize, scale: Scale) -> Vec<Workload> {
    SUITE_KERNELS[..IRREGULAR].iter().map(|k| build_kernel(k, n_threads, scale)).collect()
}

/// Message-passing and irregular-workload kernels. Unlike the SPLASH
/// suite's data-parallel phases, these four stress manager-ordered sync
/// (semaphores, fine-grained locks, manager-routed CAS) with irregular,
/// schedule-dependent communication — yet each prints host-verifiable
/// values, so workload-state corruption under bounded slack stays
/// observable against [`Workload::expected`].
pub fn irregular_suite(n_threads: usize, scale: Scale) -> Vec<Workload> {
    SUITE_KERNELS[IRREGULAR..].iter().map(|k| build_kernel(k, n_threads, scale)).collect()
}

/// The kernel of [`extended_suite`] named `name` (ASCII case-insensitive),
/// or of [`irregular_suite`] when `n_threads >= 2` (they need a peer:
/// producer and consumer, actor partners, a steal victim), built alone
/// with the inputs its suite gives it. `None` for any other name.
pub fn suite_kernel(name: &str, n_threads: usize, scale: Scale) -> Option<Workload> {
    let i = suite_kernel_index(name, n_threads)?;
    Some(build_kernel(SUITE_KERNELS[i], n_threads, scale))
}

/// Would [`suite_kernel`] build a kernel for `name` at `n_threads`? Checks
/// the name without building a program.
pub fn is_suite_kernel(name: &str, n_threads: usize) -> bool {
    suite_kernel_index(name, n_threads).is_some()
}

fn suite_kernel_index(name: &str, n_threads: usize) -> Option<usize> {
    SUITE_KERNELS
        .iter()
        .position(|k| k.eq_ignore_ascii_case(name))
        .filter(|&i| i < IRREGULAR || n_threads >= 2)
}

/// One kernel of [`SUITE_KERNELS`] under its scale-derived inputs.
fn build_kernel(name: &str, n: usize, scale: Scale) -> Workload {
    // Inputs are listed per scale: [Test, Bench, Full].
    let at = |v: [usize; 3]| v[scale as usize];
    // Many-core scale-out (64/128/256 threads): kernels that partition
    // elements across threads need at least one element per thread, so
    // the problem grows with the thread count past the scale's floor.
    // At the historical core counts (<= 8, and <= 32 for every Bench
    // size) the floors win and the inputs are unchanged.
    match name {
        "Barnes" => barnes::barnes(n, at([24, 96, 160]).max(n), at([1, 2, 3])),
        "FFT" => {
            let log2_floor = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
            fft::fft(n, (at([6, 10, 12]) as u32).max(log2_floor))
        }
        "LU" => lu::lu(n, at([12, 48, 96])),
        "Water-Nsquared" => water::water(n, at([16, 64, 96]).max(n), at([1, 2, 3])),
        "Radix" => radix::radix(n, at([64, 1024, 4096]).max(n)),
        "Ocean" => ocean::ocean(n, at([8, 30, 62]).max(n), at([2, 4, 6])),
        "pipeline" => pipeline::pipeline(n.max(2), at([8, 64, 256]) as i64),
        "mailbox_actors" => actors::mailbox_actors(n.max(2), at([2, 8, 16]) as i64),
        "work_steal" => worksteal::work_steal(n, at([24, 256, 1024]).max(2 * n) as i64),
        "treiber_stack" => treiber::treiber_stack(n, at([4, 32, 96]) as i64),
        other => unreachable!("{other} is not in SUITE_KERNELS"),
    }
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

    /// A kernel built by name is the one its suite builds: same name, same
    /// program image, same expected output, at every core count and scale.
    /// Served jobs build their kernel by name, so their snapshot keys and
    /// fingerprints rest on this.
    #[test]
    fn suite_kernel_builds_what_the_suite_builds() {
        for scale in [Scale::Test, Scale::Bench, Scale::Full] {
            for cores in [1, 2, 4] {
                let suite: Vec<Workload> = extended_suite(cores, scale)
                    .into_iter()
                    .chain(irregular_suite(cores, scale))
                    .collect();
                let names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
                assert_eq!(names, SUITE_KERNELS);
                for (i, w) in suite.iter().enumerate() {
                    let by_name = suite_kernel(&w.name.to_ascii_uppercase(), cores, scale);
                    assert_eq!(is_suite_kernel(&w.name, cores), by_name.is_some());
                    if i >= IRREGULAR && cores < 2 {
                        assert!(by_name.is_none(), "{} offered at one core", w.name);
                        continue;
                    }
                    let k = by_name.unwrap_or_else(|| panic!("{} not found", w.name));
                    let what = format!("{} at {cores} cores, {scale:?}", w.name);
                    assert_eq!(k.name, w.name, "{what}");
                    assert_eq!(k.input, w.input, "{what}");
                    assert_eq!(k.n_threads, w.n_threads, "{what}");
                    assert_eq!(k.expected, w.expected, "{what}");
                    assert_eq!(k.program.entry, w.program.entry, "{what}");
                    assert!(k.program.image().eq(w.program.image()), "{what}");
                }
            }
        }
        assert!(suite_kernel("no_such_kernel", 4, Scale::Test).is_none());
        assert!(!is_suite_kernel("pingpong", 4), "microbenchmarks are not suite kernels");
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
