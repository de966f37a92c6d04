//! The four simulation workloads as fixed matrices of cells. A cell is
//! one kernel under one scheme on one target and one backend.
//!
//! Sizes come from measurements on the 2-CPU development host and aim at
//! one rep-major pass of 0.5–1.5 s, so a 10 s run holds seven or more
//! reps of every cell. Kernel inputs never depend on the seed.

use sk_core::{CoreModel, Scheme, TargetConfig};
use sk_kernels::micro::{lock_sweep, private_compute};
use sk_kernels::{extended_suite, irregular_suite, paper_suite, Scale, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `DetEngine`: every core, the manager and the shards as seeded
    /// cooperative tasks on the calling thread.
    Det,
    /// `Engine::run_until`: one OS thread per core plus the manager.
    Threads,
}

pub struct Cell {
    pub label: String,
    pub kernel: Workload,
    pub scheme: Scheme,
    pub cfg: TargetConfig,
    pub backend: Backend,
}

impl Cell {
    pub fn new(kernel: Workload, scheme: Scheme, cfg: TargetConfig, backend: Backend) -> Cell {
        let label = format!("{}/{}c/{}", kernel.name, cfg.n_cores, scheme.short_name());
        Cell { label, kernel, scheme, cfg, backend }
    }

    /// Zero-slack schemes are schedule-independent: any det seed and the
    /// threaded backend must produce the same fingerprint.
    pub fn zero_slack(&self) -> bool {
        self.scheme.slack_bound() == Some(0)
    }
}

fn inorder(n_cores: usize) -> TargetConfig {
    let mut cfg = TargetConfig::paper_8core();
    cfg.n_cores = n_cores;
    cfg.core.model = CoreModel::InOrder;
    cfg
}

/// The backend every cell of `workload` runs on.
pub fn backend_of(workload: &str) -> Backend {
    if workload == "threads_slack" {
        Backend::Threads
    } else {
        Backend::Det
    }
}

/// The cells of a simulation workload, `None` for an unknown name.
pub fn matrix(workload: &str) -> Option<Vec<Cell>> {
    let s10 = Scheme::BoundedSlack(10);
    let s100 = Scheme::BoundedSlack(100);
    let backend = backend_of(workload);
    let cells = match workload {
        // The paper's Table-2 target. The OoO core model does nearly all
        // the work here (run_sequential ≈ det), so transport, clock and
        // manager gains must not show.
        "ooo_compute" => extended_suite(8, Scale::Bench)
            .into_iter()
            .map(|k| Cell::new(k, s10, TargetConfig::paper_8core(), backend))
            .collect(),
        // In-order cores with superblocks: the core model and the
        // transport/clock/manager layers each cost about half, so gains
        // in either show.
        "inorder_slack" => {
            let mut kernels = extended_suite(8, Scale::Bench);
            kernels.push(private_compute(8, 24_000));
            kernels
                .into_iter()
                .flat_map(|k| [s10, s100].map(|s| Cell::new(k.clone(), s, inorder(8), backend)))
                .collect()
        }
        // Lockstep: per-cycle grants (CC) and the ordered horizon heap
        // (S10*), about four global updates per simulated cycle, so the
        // clock board, manager and shard iteration dominate and the core
        // model does little. FFT and LU are the all-to-all and the
        // barrier-heavy paper kernels; Barnes and Water add compute only.
        "coordinator_cc" => {
            let mut kernels: Vec<Workload> = paper_suite(8, Scale::Bench)
                .into_iter()
                .filter(|k| k.name == "FFT" || k.name == "LU")
                .collect();
            kernels.extend(irregular_suite(8, Scale::Bench));
            kernels.push(lock_sweep(8, 600));
            let mut cells: Vec<Cell> = kernels
                .into_iter()
                .flat_map(|k| {
                    [Scheme::CycleByCycle, Scheme::OldestFirstBounded(10)]
                        .map(|s| Cell::new(k.clone(), s, inorder(8), backend))
                })
                .collect();
            // The only cells that run shard tasks and frontier coupling.
            let mut many = TargetConfig::many_core(64);
            many.mem_shards = 4;
            for k in [lock_sweep(64, 6), private_compute(64, 100)] {
                cells.push(Cell::new(k, Scheme::CycleByCycle, many, backend));
            }
            cells
        }
        // The paper's operating point on real threads: SPSC contention,
        // parking and wake-ups, manager pacing. Four target cores (five
        // simulation threads) because two-core runs on a 2-CPU host are
        // bimodal; see NOISE.md.
        "threads_slack" => extended_suite(4, Scale::Test)
            .into_iter()
            .flat_map(|k| [s10, s100].map(|s| Cell::new(k.clone(), s, inorder(4), backend)))
            .collect(),
        _ => return None,
    };
    Some(cells)
}
