//! Running cells: the timed rep-major loop, the end-to-end metrics of the
//! simulation workloads, and the correctness gate.

use crate::calib::Clock;
use crate::cells::{backend_of, matrix, Backend, Cell};
use crate::metrics::Outcome;
use crate::stats::{median, percentile, ratio_of_sums};
use crate::Opts;
use sk_core::{run_sequential, DetEngine, Engine, SimReport};
use std::time::{Duration, Instant};

/// Every cell runs at least this often, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-up is repeated and its median reported, so one slow page-in or
/// scheduler hiccup does not read as a set-up regression.
pub const SETUPS: usize = 3;
/// The threaded cross-check of a zero-slack cell costs ~50 µs of host
/// time per simulated cycle; only cells at most this long qualify.
const THREADED_CHECK_MAX_CYCLES: u64 = 16_000;

/// FNV-1a, for the digest of deterministic fingerprints.
pub fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// An engine wired up and ready for its timed run.
pub enum Ready {
    Det(Box<DetEngine>),
    Threads(Box<Engine>),
}

pub fn build(cell: &Cell, det_seed: u64) -> Ready {
    match cell.backend {
        Backend::Det => Ready::Det(Box::new(DetEngine::new(
            &cell.kernel.program,
            cell.scheme,
            &cell.cfg,
            det_seed,
        ))),
        Backend::Threads => {
            Ready::Threads(Box::new(Engine::new(&cell.kernel.program, cell.scheme, &cell.cfg)))
        }
    }
}

/// Whether the timed phase has room for another whole pass: at least
/// `min_reps`, then until the next pass would overshoot `seconds` by more
/// than half a pass. Whole passes only, so every cell has the same number
/// of reps.
pub fn another_pass(reps: usize, min_reps: usize, phase: Instant, seconds: f64) -> bool {
    reps < min_reps || phase.elapsed().as_secs_f64() * (1.0 + 0.5 / reps as f64) < seconds
}

/// What every caller does with a finished run besides reading it: take
/// its fingerprint. Part of the timed interval of the traced rungs.
pub fn fingerprinted(report: SimReport) -> SimReport {
    std::hint::black_box(report.fingerprint());
    report
}

/// The timed call: the public run entry point plus report assembly, timed
/// from outside (never read from `SimReport.wall`).
pub fn run_timed(ready: Ready) -> (Duration, SimReport) {
    let t0 = Instant::now();
    let report = match ready {
        Ready::Det(mut det) => {
            det.run();
            det.into_report()
        }
        Ready::Threads(mut engine) => {
            engine.run_until(None);
            engine.into_report()
        }
    };
    (t0.elapsed(), report)
}

pub fn output_ok(cell: &Cell, report: &SimReport) -> bool {
    report.printed().into_iter().map(|(_, v)| v).eq(cell.kernel.expected.iter().copied())
}

/// The det seed of one rep. Slack cells keep `seed`, so their simulated
/// statistics repeat exactly; zero-slack cells alternate `seed` and
/// `seed + 1`, which costs nothing and lets the gate assert that the
/// schedule cannot change them.
fn det_seed(cell: &Cell, seed: u64, rep: usize) -> u64 {
    if cell.zero_slack() {
        seed.wrapping_add(rep as u64 & 1)
    } else {
        seed
    }
}

/// Build the cells and run each once untimed: programs assembled,
/// allocator and page cache warm, first-run effects spent. Returns the
/// cells and what this took in calibrated seconds, piece by piece, so a
/// host speed change halfway through set-up is corrected too.
fn set_up(workload: &str, seed: u64, clock: &mut Clock, out: &mut Outcome) -> (Vec<Cell>, f64) {
    let t0 = Instant::now();
    let cells = matrix(workload).expect("caller checked the workload name");
    let mut total_s = clock.calibrated(t0.elapsed().as_secs_f64());
    for cell in &cells {
        let t0 = Instant::now();
        let (_, report) = run_timed(build(cell, seed));
        total_s += clock.calibrated(t0.elapsed().as_secs_f64());
        out.check(output_ok(cell, &report), || format!("{} warm-up output", cell.label));
    }
    (cells, total_s)
}

/// What the timed reps of one cell produced.
#[derive(Default)]
pub struct CellRuns {
    pub walls_s: Vec<f64>,
    pub exec_cycles: Vec<f64>,
    pub committed: u64,
    /// Fingerprint of the first rep; later reps of a det cell must match.
    pub fingerprint: String,
}

/// Simulated statistics of a workload, exact for a given seed on the det
/// workloads: Σ exec_cycles, Σ committed and a 48-bit digest (exactly
/// representable as a JSON number) of what is deterministic per cell —
/// the whole fingerprint on the det backend, outputs and instruction
/// counts on threads.
pub fn simulated_stats<'a>(
    cells: &[Cell],
    runs: impl IntoIterator<Item = &'a CellRuns>,
) -> (f64, f64, f64) {
    let mut digest = FNV_OFFSET;
    let (mut cycles, mut committed) = (0.0, 0.0);
    for (cell, r) in cells.iter().zip(runs) {
        cycles += median(&r.exec_cycles);
        committed += r.committed as f64;
        digest = match cell.backend {
            Backend::Det => fnv1a64(digest, r.fingerprint.as_bytes()),
            Backend::Threads => {
                let d = fnv1a64(digest, &r.committed.to_le_bytes());
                cell.kernel.expected.iter().fold(d, |d, v| fnv1a64(d, &v.to_le_bytes()))
            }
        };
    }
    (cycles, committed, (digest & ((1 << 48) - 1)) as f64)
}

/// Record one finished run of `cell` and check what every run must hold.
pub fn record(
    cell: &Cell,
    runs: &mut CellRuns,
    wall_s: f64,
    report: &SimReport,
    out: &mut Outcome,
) {
    out.check(output_ok(cell, report), || format!("{} printed {:?}", cell.label, report.printed()));
    runs.walls_s.push(wall_s);
    runs.exec_cycles.push(report.exec_cycles as f64);
    let fingerprint = report.fingerprint();
    if runs.fingerprint.is_empty() {
        runs.committed = report.total_committed();
        runs.fingerprint = fingerprint;
    } else if cell.backend == Backend::Det {
        // Same seed ⇒ bit-identical; for zero-slack cells also seed+1.
        out.check(runs.fingerprint == fingerprint, || {
            format!("{} fingerprint changed between reps", cell.label)
        });
    }
}

/// The end-to-end run of one simulation workload.
pub fn run(workload: &str, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cells = Vec::new();
    let mut clock = Clock::start(backend_of(workload));
    for _ in 0..SETUPS {
        let (fresh, took_s) = set_up(workload, opts.seed, &mut clock, &mut out);
        cells = fresh;
        setups.push(took_s);
    }
    if opts.perturb {
        cells[0].kernel.expected[0] ^= 1;
    }

    let mut runs: Vec<CellRuns> = cells.iter().map(|_| CellRuns::default()).collect();
    let phase = Instant::now();
    let mut reps = 0;
    while another_pass(reps, MIN_REPS, phase, opts.seconds) {
        // Rep-major: host drift spreads over all cells.
        for (i, cell) in cells.iter().enumerate() {
            let (wall, report) = run_timed(build(cell, det_seed(cell, opts.seed, reps)));
            let wall_s = clock.calibrated(wall.as_secs_f64());
            record(cell, &mut runs[i], wall_s, &report, &mut out);
        }
        reps += 1;
    }
    let phase_s = phase.elapsed().as_secs_f64();

    gate(&cells, &runs, opts.seed, &mut out);

    let walls: Vec<f64> = runs.iter().map(|r| median(&r.walls_s)).collect();
    let cell_cycles: Vec<f64> = runs.iter().map(|r| median(&r.exec_cycles)).collect();
    let cell_committed: Vec<f64> = runs.iter().map(|r| r.committed as f64).collect();
    let (cycles, committed, digest) = simulated_stats(&cells, &runs);
    let v = &mut out.values;
    v.set("kips", ratio_of_sums(&cell_committed, &walls) / 1e3);
    v.set("host_ns_per_cycle", ratio_of_sums(&walls, &cell_cycles) * 1e9);
    v.set("job_p50_ms", median(&walls) * 1e3);
    v.set("job_p90_ms", percentile(&walls, 90.0) * 1e3);
    // Cell runs per second at each cell's median cost, so one slow rep
    // cannot move it.
    v.set("jobs_per_s", cells.len() as f64 / walls.iter().sum::<f64>());
    v.set("peak_rss_mb", crate::peak_rss_mb());
    v.set("setup_s", median(&setups));
    out.notes.push(format!(
        "{} cells x {reps} reps in {phase_s:.2} s; job_p50/p90 over {} per-cell median walls; \
         host at {:.3} calibrated s per host s",
        cells.len(),
        cells.len(),
        clock.median_factor()
    ));
    out.notes.push(format!(
        "sim.exec_cycles {cycles} cycles, sim.committed {committed} instr, \
         sim.fingerprint_digest {digest} hash48"
    ));
    out
}

/// The correctness gate beyond per-run outputs. Exhaustive where it is
/// cheap; the two checks that need an extra slow run each take one cell
/// per run, chosen by the seed, so a sweep of seeds covers them all.
pub fn gate(cells: &[Cell], runs: &[CellRuns], seed: u64, out: &mut Outcome) {
    // Every zero-slack det cell: exec_cycles ≡ the sequential engine.
    for (cell, r) in cells.iter().zip(runs) {
        if cell.zero_slack() && cell.backend == Backend::Det {
            let seq = run_sequential(&cell.kernel.program, &cell.cfg);
            out.check(r.exec_cycles.iter().all(|&c| c == seq.exec_cycles as f64), || {
                format!("{} det exec_cycles != run_sequential {}", cell.label, seq.exec_cycles)
            });
        }
    }
    // One short zero-slack cell: threaded fingerprint ≡ det fingerprint.
    let short: Vec<usize> = (0..cells.len())
        .filter(|&i| {
            cells[i].zero_slack()
                && cells[i].backend == Backend::Det
                && cells[i].cfg.mem_shards == 0
                && runs[i].exec_cycles[0] <= THREADED_CHECK_MAX_CYCLES as f64
        })
        .collect();
    if !short.is_empty() {
        let i = short[seed as usize % short.len()];
        let cell = &cells[i];
        let threaded = || {
            let mut engine = Engine::new(&cell.kernel.program, cell.scheme, &cell.cfg);
            engine.run_until(None);
            engine.into_report().fingerprint()
        };
        if threaded() != runs[i].fingerprint {
            out.retry(|| format!("{} threaded fingerprint != det fingerprint", cell.label));
            out.check(threaded() == runs[i].fingerprint, || {
                format!("{} threaded fingerprint != det fingerprint, twice", cell.label)
            });
        } else {
            out.check(true, String::new);
        }
    }
    // One bounded-slack cell, conflict tracker on: no timestamp inversion
    // may exceed the scheme's bound, and the output must still be right.
    let bounded: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].scheme.slack_bound().is_some_and(|b| b > 0))
        .collect();
    if !bounded.is_empty() {
        let i = bounded[seed as usize % bounded.len()];
        let mut cell =
            Cell { kernel: cells[i].kernel.clone(), label: cells[i].label.clone(), ..cells[i] };
        cell.cfg.track_workload_violations = true;
        let (_, report) = run_timed(build(&cell, seed));
        let bound = cell.scheme.slack_bound().expect("filtered on a bound");
        out.check(
            output_ok(&cell, &report) && report.violations.max_inversion_cycles <= bound,
            || {
                format!(
                    "{} tracked: inversion {} > bound {bound} or wrong output",
                    cell.label, report.violations.max_inversion_cycles
                )
            },
        );
    }
}
