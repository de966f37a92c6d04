//! Scale-out bench: sharded clock domains at many-core configs.
//!
//! Grid: backend × cores × manager shards {0 (single manager), 2, 4, 8}
//! × schemes {CC, S10, S10*, SU}. The two backends answer two different
//! questions:
//!
//! * `det` (cooperative, one host thread) — every role runs as a task on
//!   a single thread, so `busy_ns / wall` is the **exact** fraction of
//!   the schedule each role consumed, with zero context-switch or
//!   time-slicing noise. This backend carries the wall-time hygiene gate
//!   (sharding must not inflate algorithmic dispatch cost by >25%) and
//!   the cleanest serialization read: coordinator occupancy must drop as
//!   shards take over memory-event handling.
//! * `threads` — the real parallel backend, where coordinator
//!   serialization actually bites. On a multi-CPU host this is where
//!   sharding wins wall time; on a 1-CPU host every manager timeslices
//!   one core and each extra handoff is a context switch, so wall is
//!   reported but not gated. Occupancy subtracts the coordinator's
//!   `frontier_wait_ns` (bounded yield-spin waiting on lagging shard
//!   frontiers — blocked-on-other-threads time, not serialized work).
//!
//! Protocol: interleaved min-of-N. Within each round every shard config
//! of a (kernel, cores, scheme) cell runs back-to-back, so slow host
//! drift (thermal, co-tenants) hits all configs alike; the reported
//! wall is the min over rounds, the standard estimator for the noise
//! floor of a deterministic computation.
//!
//! Cross-checks while benching: printed output must be identical across
//! shard counts for every cell, and CC cells must reproduce the full
//! single-manager fingerprint bit-for-bit — across shard counts AND
//! across backends (the conformance suite pins the same property; here
//! it guards the benched binaries themselves).
//!
//! Usage:
//!   scaleout [--backends det,threads] [--cores 8,64] [--shards 0,2,4,8]
//!            [--schemes CC,S10,S10*,SU] [--rounds 3] [--iters 2] [--smoke]
//!
//! `--schemes` takes any scheme name `slacksim --scheme` takes.
//! `--smoke` is the CI preset: det backend, 64-core CC+S10*, shards
//! {0,4}, 1 round. Prints the grid as JSON on stdout; progress on
//! stderr.

use sk_core::{CoreModel, DetEngine, Engine, Scheme, TargetConfig};
use sk_kernels::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Cell {
    wall_s: f64,
    exec_cycles: u64,
    committed: u64,
    fingerprint: String,
    printed: Vec<i64>,
    mgr_busy_ms: f64,
    mgr_wait_ms: f64,
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
    let mgr_wait_ms = obs.manager.frontier_wait_ns.get() as f64 / 1e6;
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
        mgr_wait_ms,
        mgr_iters: obs.manager.iterations.get(),
        shard_busy_ms,
        shard_iters: obs.shards.iter().map(|s| s.iterations.get()).sum(),
        events_mgr: obs.manager.events_ingested.get(),
        events_shards,
    }
}

fn parse_list<T: std::str::FromStr>(s: &str) -> Vec<T> {
    s.split(',').filter_map(|x| x.trim().parse().ok()).collect()
}

/// Parse a `--schemes` list, exiting with the parser's message on a bad
/// name.
fn parse_schemes(s: &str) -> Vec<Scheme> {
    s.split(',')
        .map(|name| {
            name.parse().unwrap_or_else(|e| {
                eprintln!("scaleout: --schemes: {e}");
                std::process::exit(2)
            })
        })
        .collect()
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut backends: Vec<String> = vec!["det".into(), "threads".into()];
    let mut cores: Vec<usize> = vec![8, 64];
    let mut shards: Vec<usize> = vec![0, 2, 4, 8];
    let mut schemes = parse_schemes("CC,S10,S10*,SU");
    let mut rounds = 3usize;
    let mut iters = 2i64;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--backends" => {
                backends = raw[i + 1].split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--cores" => {
                cores = parse_list(&raw[i + 1]);
                i += 2;
            }
            "--shards" => {
                shards = parse_list(&raw[i + 1]);
                i += 2;
            }
            "--schemes" => {
                schemes = parse_schemes(&raw[i + 1]);
                i += 2;
            }
            "--rounds" => {
                rounds = raw[i + 1].parse().expect("--rounds N");
                i += 2;
            }
            "--iters" => {
                iters = raw[i + 1].parse().expect("--iters N");
                i += 2;
            }
            "--smoke" => {
                backends = vec!["det".into()];
                cores = vec![64];
                shards = vec![0, 4];
                schemes = parse_schemes("CC,S10*");
                rounds = 1;
                iters = 1;
                i += 1;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // CC fingerprint per (kernel, cores): must agree across shard counts
    // (asserted per cell below) and across backends (asserted here).
    let mut cc_fp: HashMap<(String, usize), String> = HashMap::new();

    let mut entries = String::new();
    for backend in &backends {
        let det_seed = match backend.as_str() {
            "det" => Some(0u64),
            "threads" => None,
            other => panic!("unknown backend {other} (want det or threads)"),
        };
        for &n in &cores {
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
                for &scheme in &schemes {
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
                        match cc_fp.entry((w.name.to_string(), n)) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(best[0].fingerprint.clone());
                            }
                            std::collections::hash_map::Entry::Occupied(e) => {
                                assert_eq!(
                                    e.get(),
                                    &best[0].fingerprint,
                                    "{}: CC fingerprint diverged across backends at n={n}",
                                    w.name
                                );
                            }
                        }
                    }
                    let wall0 = best[0].wall_s;
                    for (k, cell) in best.iter().enumerate() {
                        let s = shards[k];
                        // Occupancy = serialized coordinator work / wall;
                        // frontier-wait is blocked-on-peers, not work.
                        let mgr_occ = (cell.mgr_busy_ms - cell.mgr_wait_ms) / 1e3 / cell.wall_s;
                        let max_shard_occ =
                            cell.shard_busy_ms.iter().cloned().fold(0.0f64, f64::max)
                                / 1e3
                                / cell.wall_s;
                        let shard_busy: Vec<String> =
                            cell.shard_busy_ms.iter().map(|b| format!("{b:.2}")).collect();
                        if !entries.is_empty() {
                            entries.push_str(",\n");
                        }
                        write!(
                            entries,
                            "    {{\"backend\": {backend:?}, \"kernel\": {:?}, \"n_cores\": \
                             {n}, \"scheme\": {name:?}, \"shards\": {s}, \"wall_min_s\": \
                             {:.4}, \"wall_vs_unsharded\": {:.4}, \"exec_cycles\": {}, \
                             \"committed\": {}, \"mgr_busy_ms\": {:.2}, \"mgr_wait_ms\": \
                             {:.2}, \"mgr_occupancy\": {mgr_occ:.4}, \
                             \"max_shard_occupancy\": {max_shard_occ:.4}, \"shard_busy_ms\": \
                             [{}], \"mgr_iters\": {}, \"shard_iters\": {}, \"events_mgr\": {}, \
                             \"events_shards\": {}}}",
                            w.name,
                            cell.wall_s,
                            cell.wall_s / wall0,
                            cell.exec_cycles,
                            cell.committed,
                            cell.mgr_busy_ms,
                            cell.mgr_wait_ms,
                            shard_busy.join(", "),
                            cell.mgr_iters,
                            cell.shard_iters,
                            cell.events_mgr,
                            cell.events_shards,
                        )
                        .unwrap();
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

    println!("{{");
    println!(
        "  \"description\": \"Sharded clock domains scale-out: backend x cores x manager \
         shards (0 = single manager) x schemes, interleaved min-of-{rounds} walls. The det \
         backend runs every role cooperatively on one host thread, so busy_ns/wall is the \
         exact schedule fraction each role consumed and walls measure algorithmic dispatch \
         cost free of context-switch noise — the >25% wall-inflation gate applies to det \
         cells of slack-rich kernels (private_compute, the paper's target regime). \
         lock_sweep is an adversarial fine-grained stress whose tiny windows make the \
         per-cycle cooperative scheduler hop the dominant term; it is reported, not \
         wall-gated — its gated invariant is the occupancy drop. The threads backend is \
         where serialization actually parallelizes; on a 1-CPU \
         host its sharded walls pay real context switches per handoff and are reported, not \
         gated. mgr_occupancy = (busy_ns - frontier_wait_ns)/wall: the coordinator stops \
         handling memory events and window fan-out as shards take over, so its occupancy \
         must drop as shards rise. Output equality across shard counts, bit-identical CC \
         fingerprints across shard counts and across backends are asserted by the harness \
         itself.\","
    );
    println!("  \"schema\": \"sk-bench-scaleout-v2\",");
    println!("  \"backends\": [{}],", {
        let q: Vec<String> = backends.iter().map(|b| format!("{b:?}")).collect();
        q.join(", ")
    });
    println!("  \"rounds\": {rounds},");
    println!("  \"host_threads\": {host_threads},");
    println!("  \"grid\": [\n{entries}\n  ]");
    println!("}}");
}
