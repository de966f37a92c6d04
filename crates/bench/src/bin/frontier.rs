//! Speed-vs-error frontier: the static bounded-slack ladder vs the
//! closed-loop adaptive controller, forked from one shared CC ROI
//! snapshot per benchmark.
//!
//! Every (kernel, scheme) cell starts from the identical architectural
//! state (gridfork's warm-once/fork-all trick), with the workload
//! violation tracker enabled so each cell reports its *observed* error:
//! timestamp inversions, their maximum magnitude, and the relative
//! execution-time error against the sequential reference. Wall time is
//! the minimum over `REPS` forks of the same cell, which strips most
//! host-scheduling noise without hiding real cost.
//!
//! The frontier claim each kernel's `frontier` rows record:
//!
//! * every adaptive cell keeps `max_inversion <= budget` (the
//!   controller's hard soundness bound), and
//! * `A<b>` matches or beats the wall time of the fastest static
//!   `S<s>` with `s <= b` — the best static scheme that offers the
//!   same worst-case error guarantee — within `WALL_TOLERANCE`, and
//! * no static cell strictly dominates the adaptive cell on the
//!   (wall, max_inversion) plane.
//!
//! A final `det_replay` block runs the committed-corpus adaptive seed
//! twice through the deterministic backend and records the decision
//! hash, proving the controller's trajectory is replayable bit-exactly.
//!
//! ```text
//! cargo run --release -p sk-bench --bin frontier [--scale ...] [--model ...] [--out FILE]
//! ```

use sk_bench::{bench_config, check, model_from_args, print_table, run_seq, scale_from_args};
use sk_core::engine::{Engine, RunOutcome};
use sk_core::{DetEngine, Scheme, SimReport};
use sk_kernels::micro;
use std::fmt::Write as _;
use std::time::Instant;

/// Forks per cell; the reported wall is the minimum.
const REPS: usize = 3;
/// Static bounded-slack ladder (window sizes).
const STATIC_LADDER: [u64; 6] = [4, 8, 16, 32, 64, 100];
/// Adaptive inversion budgets under test.
const ADAPTIVE_BUDGETS: [u64; 3] = [16, 32, 64];
/// Wall-time slop for "matches or beats" (min-of-3 still jitters).
const WALL_TOLERANCE: f64 = 1.15;
/// Committed-corpus seed for the det-replay proof
/// (crates/core/tests/schedules/racy_increment-a16-8.txt).
const REPLAY_SEED: u64 = 8;

struct Cell {
    scheme: Scheme,
    name: String,
    wall_us: u128,
    exec_cycles: u64,
    err_pct: f64,
    violations: u64,
    max_inversion: u64,
    report: SimReport,
}

fn fork_cell(bytes: &[u8], scheme: Scheme, base: &SimReport, w: &sk_kernels::Workload) -> Cell {
    let mut best: Option<(u128, SimReport)> = None;
    for _ in 0..REPS {
        let mut fork = Engine::resume(bytes, Some(scheme)).expect("fork from snapshot");
        let t0 = Instant::now();
        fork.run_until(None);
        let us = t0.elapsed().as_micros();
        let r = fork.into_report();
        check(w, &r);
        if best.as_ref().is_none_or(|(b, _)| us < *b) {
            best = Some((us, r));
        }
    }
    let (wall_us, report) = best.expect("REPS > 0");
    Cell {
        scheme,
        name: scheme.short_name(),
        wall_us,
        exec_cycles: report.exec_cycles,
        err_pct: 100.0 * report.exec_time_error(base),
        violations: report.violations.total(),
        max_inversion: report.violations.max_inversion_cycles,
        report,
    }
}

/// Deterministic replay proof: the committed adaptive corpus seed runs
/// bit-identically twice (same decision hash covers task order AND
/// every controller decision).
fn det_replay_block() -> String {
    let w = micro::racy_increment(3, 30);
    let mut cfg = sk_core::TargetConfig::small(3);
    cfg.track_workload_violations = true;
    cfg.mem.track_violations = true;
    let scheme = Scheme::Adaptive { budget: 16 };
    let run = |seed: u64| {
        let mut det = DetEngine::new(&w.program, scheme, &cfg, seed);
        det.run();
        let hash = det.decision_hash();
        (hash, det.into_report().fingerprint())
    };
    let (h1, f1) = run(REPLAY_SEED);
    let (h2, f2) = run(REPLAY_SEED);
    let identical = h1 == h2 && f1 == f2;
    assert!(identical, "adaptive det run is not bit-identical under seed {REPLAY_SEED}");
    format!(
        "{{\"kernel\":\"racy_increment\",\"scheme\":\"A16\",\"seed\":{REPLAY_SEED},\
         \"decision_hash\":\"0x{h1:016x}\",\"replayed_identical\":{identical}}}"
    )
}

fn main() {
    let scale = scale_from_args();
    let model = model_from_args();
    let args: Vec<String> = std::env::args().collect();
    let out = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();

    // The frontier measures error, so the tracker is on for every cell —
    // its cost lands on static and adaptive schemes alike.
    let mut cfg = bench_config(model);
    cfg.track_workload_violations = true;
    cfg.mem.track_violations = true;

    let mut schemes: Vec<Scheme> = STATIC_LADDER.iter().map(|&s| Scheme::BoundedSlack(s)).collect();
    schemes.extend(ADAPTIVE_BUDGETS.iter().map(|&b| Scheme::Adaptive { budget: b }));

    println!("Speed-vs-error frontier: static S-ladder vs adaptive, one CC ROI snapshot each\n");
    let mut kernels_json = Vec::new();
    let mut table = Vec::new();
    let mut summary_ok = 0usize;
    let mut n_kernels = 0usize;

    // The paper suite plus the irregular family: the frontier should hold
    // for message-passing workloads too, where slack-induced timestamp
    // skew hits the sync path instead of data-parallel phases.
    let suite =
        sk_kernels::paper_suite(8, scale).into_iter().chain(sk_kernels::irregular_suite(8, scale));
    for w in suite {
        let base = run_seq(&w, &cfg);
        let exec_end = base.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let roi_start = exec_end.saturating_sub(base.exec_cycles).max(1);

        let mut warm = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
        let bytes = match warm.run_until(Some(roi_start)) {
            RunOutcome::CheckpointReady => warm.snapshot().expect("snapshot at the ROI safe-point"),
            RunOutcome::Finished => {
                println!("{}: finished before the ROI boundary; skipped", w.name);
                continue;
            }
            RunOutcome::Cancelled => unreachable!("cancelled without a cancel token holder"),
        };
        n_kernels += 1;

        let cells: Vec<Cell> = schemes.iter().map(|&s| fork_cell(&bytes, s, &base, &w)).collect();
        let (statics, adaptives): (Vec<&Cell>, Vec<&Cell>) =
            cells.iter().partition(|c| matches!(c.scheme, Scheme::BoundedSlack(_)));

        let mut rows_json = Vec::new();
        for c in &cells {
            let mut row = format!(
                "{{\"scheme\":\"{}\",\"wall_us\":{},\"exec_cycles\":{},\"err_pct\":{:.3},\
                 \"violations\":{},\"max_inversion\":{}",
                c.name, c.wall_us, c.exec_cycles, c.err_pct, c.violations, c.max_inversion
            );
            if let Scheme::Adaptive { budget } = c.scheme {
                let e = &c.report.engine;
                let _ = write!(
                    row,
                    ",\"budget\":{budget},\"final_window\":{},\"epochs\":{},\"raises\":{},\
                     \"lowers\":{}",
                    e.adapt_final_window, e.adapt_epochs, e.adapt_raises, e.adapt_lowers
                );
            }
            row.push('}');
            rows_json.push(row);
            table.push(vec![
                w.name.clone(),
                c.name.clone(),
                c.wall_us.to_string(),
                format!("{:.2}%", c.err_pct),
                c.violations.to_string(),
                c.max_inversion.to_string(),
            ]);
        }

        // Per-kernel frontier verdicts for the flagship budgets.
        let mut verdicts = Vec::new();
        let mut kernel_ok = true;
        for a in &adaptives {
            let budget = match a.scheme {
                Scheme::Adaptive { budget } => budget,
                _ => unreachable!(),
            };
            let meets_budget = a.max_inversion <= budget;
            // Fastest static whose *declared* bound fits inside the budget
            // — the best static scheme with the same worst-case guarantee.
            let best_static = statics
                .iter()
                .filter(|c| matches!(c.scheme, Scheme::BoundedSlack(s) if s <= budget))
                .min_by_key(|c| c.wall_us)
                .expect("ladder contains windows <= every budget");
            let beats = a.wall_us as f64 <= best_static.wall_us as f64 * WALL_TOLERANCE;
            // A static cell dominates iff it is strictly faster AND has a
            // strictly smaller observed worst inversion.
            let dominated =
                statics.iter().any(|c| c.wall_us < a.wall_us && c.max_inversion < a.max_inversion);
            if budget == 16 {
                kernel_ok &= meets_budget && beats;
            }
            verdicts.push(format!(
                "{{\"budget\":{budget},\"adaptive_meets_budget\":{meets_budget},\
                 \"best_static_within_budget\":\"{}\",\"best_static_wall_us\":{},\
                 \"adaptive_beats_or_matches_best_static\":{beats},\
                 \"dominated_by_a_static_cell\":{dominated}}}",
                best_static.name, best_static.wall_us
            ));
        }
        if kernel_ok {
            summary_ok += 1;
        }

        kernels_json.push(format!(
            "{{\"kernel\":\"{}\",\"roi_start\":{},\"base_exec_cycles\":{},\"rows\":[{}],\
             \"frontier\":[{}],\"a16_meets_budget_and_matches_best_static\":{kernel_ok}}}",
            w.name,
            roi_start,
            base.exec_cycles,
            rows_json.join(","),
            verdicts.join(",")
        ));
    }

    print_table(&["Benchmark", "Scheme", "Wall(us)", "Err", "Violations", "MaxInv"], &table);
    println!(
        "\nA16 meets its budget and matches/beats the best static within \
         the budget on {summary_ok}/{n_kernels} kernels."
    );

    let json = format!(
        "{{\"schema\":\"sk-bench-frontier\",\"version\":1,\"scale\":\"{scale:?}\",\
         \"model\":\"{model:?}\",\"reps\":{REPS},\"wall_tolerance\":{WALL_TOLERANCE},\
         \"static_ladder\":{STATIC_LADDER:?},\"adaptive_budgets\":{ADAPTIVE_BUDGETS:?},\
         \"kernels_passing_a16_frontier\":{summary_ok},\"n_kernels\":{n_kernels},\
         \"kernels\":[{}],\"det_replay\":{}}}\n",
        kernels_json.join(","),
        det_replay_block()
    );
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("write frontier JSON");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
