//! Scale-out bench: sharded clock domains at many-core configs.
//!
//! Grid: backend × cores × manager shards {0 (single manager), 2, 4, 8}
//! × schemes {CC, S10, S10*, SU}. Each cell reports its wall (and the
//! ratio to the unsharded wall), the coordinator's and the busiest
//! shard's occupancy (`busy_ns / wall`) and where memory events were
//! handled:
//!
//! * `det` (cooperative, one host thread) — every role runs as a task on
//!   a single thread, so `busy_ns / wall` is the fraction of the schedule
//!   each role consumed, with no context-switch or time-slicing noise.
//! * `threads` — the worker pool, where the roles run in parallel on as
//!   many workers as the host gives it.
//!
//! Walls and occupancies are reported, never asserted: the harness holds
//! no speed or occupancy gate.
//!
//! Protocol: interleaved min-of-N. Within each round every shard config
//! of a (kernel, cores, scheme) cell runs back-to-back, so slow host
//! drift (thermal, co-tenants) hits all configs alike; the reported
//! wall is the min over rounds, the standard estimator for the noise
//! floor of a deterministic computation.
//!
//! What the harness asserts, on every benched run: the kernel's output is
//! correct; printed output is identical across shard counts for every
//! cell; and CC cells reproduce the single-manager fingerprint bit for
//! bit, across shard counts and across backends (the conformance suite
//! pins the same property; here it guards the benched runs themselves).
//!
//! `FULL` is the default grid and `SMOKE` the CI preset. Prints the grid
//! as one JSON document (`sk-bench-scaleout-v3`, written by
//! `sk_obs::json`) on stdout; progress on stderr.

use sk_core::{CoreModel, DetEngine, Engine, Scheme, TargetConfig};
use sk_kernels::Workload;
use sk_obs::json::Json;
use std::collections::HashMap;
use std::time::Instant;

struct Cell {
    wall_s: f64,
    exec_cycles: u64,
    committed: u64,
    fingerprint: String,
    printed: Vec<i64>,
    mgr_busy_ms: f64,
    mgr_iters: u64,
    shard_busy_ms: Vec<f64>,
    shard_iters: u64,
    events_mgr: u64,
    events_shards: u64,
}

fn run_once(w: &Workload, scheme: Scheme, cfg: &TargetConfig, det_seed: Option<u64>) -> Cell {
    let mut engine = Engine::new(&w.program, scheme, cfg);
    let obs = engine.attach_new_metrics(sk_obs::ObsConfig::default());
    let (wall_s, r) = match det_seed {
        None => {
            let t0 = Instant::now();
            engine.run_until(None);
            (t0.elapsed().as_secs_f64(), engine.into_report())
        }
        Some(seed) => {
            let mut det = DetEngine::from_engine(engine, seed);
            let t0 = Instant::now();
            det.run();
            (t0.elapsed().as_secs_f64(), det.into_report())
        }
    };
    let mgr_busy_ms = obs.manager.busy_ns.get() as f64 / 1e6;
    let shard_busy_ms: Vec<f64> = obs.shards.iter().map(|s| s.busy_ns.get() as f64 / 1e6).collect();
    let events_shards: u64 = obs.shards.iter().map(|s| s.events.get()).sum();
    let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
    assert_eq!(printed, w.expected, "{} produced wrong output", w.name);
    Cell {
        wall_s,
        exec_cycles: r.exec_cycles,
        committed: r.total_committed(),
        fingerprint: r.fingerprint(),
        printed,
        mgr_busy_ms,
        mgr_iters: obs.manager.iterations.get(),
        shard_busy_ms,
        shard_iters: obs.shards.iter().map(|s| s.iterations.get()).sum(),
        events_mgr: obs.manager.events_ingested.get(),
        events_shards,
    }
}

/// `x` rounded to `places` decimals, the precision the grid reports.
fn round(x: f64, places: i32) -> Json {
    let k = 10f64.powi(places);
    Json::from((x * k).round() / k)
}

/// A grid preset: what the harness runs, and how often.
struct Grid {
    backends: &'static [&'static str],
    cores: &'static [usize],
    shards: &'static [usize],
    schemes: &'static [Scheme],
    rounds: usize,
    iters: i64,
}

const FULL: Grid = Grid {
    backends: &["det", "threads"],
    cores: &[8, 64],
    shards: &[0, 2, 4, 8],
    schemes: &[
        Scheme::CycleByCycle,
        Scheme::BoundedSlack(10),
        Scheme::OldestFirstBounded(10),
        Scheme::Unbounded,
    ],
    rounds: 3,
    iters: 2,
};

const SMOKE: Grid = Grid {
    backends: &["det"],
    cores: &[64],
    shards: &[0, 4],
    schemes: &[Scheme::CycleByCycle, Scheme::OldestFirstBounded(10)],
    rounds: 1,
    iters: 1,
};

/// Run the full grid, or the CI smoke with `smoke`, and print its JSON
/// document.
pub fn scaleout(smoke: bool) {
    let Grid { backends, cores, shards, schemes, rounds, iters } = if smoke { SMOKE } else { FULL };
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // CC fingerprint per (kernel, cores): must agree across shard counts
    // (asserted per cell below) and across backends (asserted here).
    let mut cc_fp: HashMap<(String, usize), String> = HashMap::new();

    let mut grid: Vec<Json> = Vec::new();
    for &backend in backends {
        let det_seed = (backend == "det").then_some(0u64);
        for &n in cores {
            let workloads = [
                sk_kernels::micro::lock_sweep(n, iters),
                sk_kernels::micro::private_compute(n, 200),
                // Irregular message-passing leg: manager-ordered mailbox
                // traffic scales with core count and is DRF, so its CC
                // fingerprint must also agree across shard counts and
                // backends.
                sk_kernels::actors::mailbox_actors(n, 2),
            ];
            for w in &workloads {
                for &scheme in schemes {
                    let name = scheme.to_string();
                    // best[k] = min-wall cell for shard config k so far.
                    let mut best: Vec<Option<Cell>> = shards.iter().map(|_| None).collect();
                    for round in 0..rounds {
                        for (k, &s) in shards.iter().enumerate() {
                            let mut cfg = TargetConfig::many_core(n);
                            cfg.core.model = CoreModel::InOrder;
                            cfg.mem_shards = s;
                            if round == 0 && k == 0 {
                                // One warmup per cell family (page faults,
                                // predecode, allocator warm-up).
                                let _ = run_once(w, scheme, &cfg, det_seed);
                            }
                            let cell = run_once(w, scheme, &cfg, det_seed);
                            match &mut best[k] {
                                Some(b) if b.wall_s <= cell.wall_s => {}
                                slot => *slot = Some(cell),
                            }
                        }
                    }
                    let best: Vec<Cell> = best.into_iter().map(Option::unwrap).collect();
                    // Cross-config checks: identical output always;
                    // identical full fingerprint for the conservative
                    // scheme, including across backends.
                    for (k, cell) in best.iter().enumerate() {
                        assert_eq!(
                            cell.printed, best[0].printed,
                            "{}: output diverged at {} shards",
                            w.name, shards[k]
                        );
                        if scheme == Scheme::CycleByCycle {
                            assert_eq!(
                                cell.fingerprint, best[0].fingerprint,
                                "{}: CC fingerprint diverged at {} shards",
                                w.name, shards[k]
                            );
                        }
                    }
                    if scheme == Scheme::CycleByCycle {
                        let first = cc_fp
                            .entry((w.name.to_string(), n))
                            .or_insert_with(|| best[0].fingerprint.clone());
                        assert_eq!(
                            first, &best[0].fingerprint,
                            "{}: CC fingerprint diverged across backends at n={n}",
                            w.name
                        );
                    }
                    let wall0 = best[0].wall_s;
                    for (k, cell) in best.iter().enumerate() {
                        let s = shards[k];
                        // Occupancy = serialized coordinator work / wall.
                        let mgr_occ = cell.mgr_busy_ms / 1e3 / cell.wall_s;
                        let max_shard_occ =
                            cell.shard_busy_ms.iter().cloned().fold(0.0f64, f64::max)
                                / 1e3
                                / cell.wall_s;
                        grid.push(Json::obj([
                            ("backend", Json::from(backend)),
                            ("kernel", w.name.as_str().into()),
                            ("n_cores", n.into()),
                            ("scheme", name.as_str().into()),
                            ("shards", s.into()),
                            ("wall_min_s", round(cell.wall_s, 4)),
                            ("wall_vs_unsharded", round(cell.wall_s / wall0, 4)),
                            ("exec_cycles", cell.exec_cycles.into()),
                            ("committed", cell.committed.into()),
                            ("mgr_busy_ms", round(cell.mgr_busy_ms, 2)),
                            ("mgr_occupancy", round(mgr_occ, 4)),
                            ("max_shard_occupancy", round(max_shard_occ, 4)),
                            (
                                "shard_busy_ms",
                                cell.shard_busy_ms.iter().map(|&b| round(b, 2)).collect(),
                            ),
                            ("mgr_iters", cell.mgr_iters.into()),
                            ("shard_iters", cell.shard_iters.into()),
                            ("events_mgr", cell.events_mgr.into()),
                            ("events_shards", cell.events_shards.into()),
                        ]));
                        eprintln!(
                            "{backend:<7} {:<16} n={n:<3} {name:<4} shards={s}  wall {:.4}s \
                             (x{:.3})  mgr_occ {mgr_occ:.3}  max_shard_occ {max_shard_occ:.3}  \
                             mgr_iters {}  shard_iters {}",
                            w.name,
                            cell.wall_s,
                            cell.wall_s / wall0,
                            cell.mgr_iters,
                            cell.shard_iters,
                        );
                    }
                }
            }
        }
    }

    let description = format!(
        "Sharded clock domains scale-out: backend x cores x manager shards (0 = single \
         manager) x schemes, interleaved min-of-{rounds} walls. The det backend runs every \
         role cooperatively on one host thread, so busy_ns/wall is the schedule fraction \
         each role consumed; the threads backend runs the roles on the worker pool. \
         mgr_occupancy = busy_ns/wall of the coordinator, max_shard_occupancy the same for \
         the busiest shard, wall_vs_unsharded the cell's wall over the single manager's. \
         Walls and occupancies are reported, not asserted. The harness asserts each \
         kernel's output, output equality across shard counts, and bit-identical CC \
         fingerprints across shard counts and across backends."
    );
    let doc = Json::obj([
        ("description", Json::from(description)),
        ("schema", "sk-bench-scaleout-v3".into()),
        ("backends", backends.iter().copied().collect()),
        ("rounds", rounds.into()),
        ("host_threads", host_threads.into()),
        ("grid", Json::Arr(grid)),
    ]);
    println!("{doc}");
}
