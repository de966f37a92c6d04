//! `slacksim` — command-line driver for the SlackSim reproduction.
//!
//! ```text
//! slacksim run   --bench fft --scheme S9 [options]   run one benchmark
//! slacksim suite [options]                           run the whole suite
//! slacksim asm   <file.s> --scheme CC [options]      assemble + run a file
//! slacksim reproduce [name ...] [options]            regenerate the paper's tables
//! slacksim list                                      list benchmarks/schemes
//! slacksim serve [server options]                    run the simulation job server
//! slacksim loadgen --addr <host:port> [options]      drive a running job server
//! ```
//!
//! Common options:
//!
//! ```text
//!   --scheme  CC|Q<n>|S<n>|S<n>*|SU   (default S9; L<n> is an alias of S<n>*)
//!   --cores   <n>        target cores / workload threads (default 8)
//!   --shards  <n>        sharded memory managers (default 0 = single)
//!   --scale   test|bench|full                            (default bench)
//!   --model   inorder|ooo                                (default ooo)
//!   --seq                use the sequential reference engine
//!   --no-superblocks     per-instruction dispatch (host-speed A/B lever)
//!   --track-violations   count slack-induced violations
//!   --fast-forward       enable fast-forwarding compensation
//!   --stats              print the full statistics block
//!   --checkpoint-at <c>  snapshot at the cycle-c safe-point, then continue
//!   --checkpoint <file>  checkpoint file to write (default slacksim.snap)
//!   --restore <file>     resume a snapshot (with `run`; --scheme forks it)
//!   --json <file>        dump the final report(s) as JSON
//!   --metrics-out <file> dump the sk-obs runtime-telemetry JSON
//!   --trace-out <file>   dump a Perfetto/chrome-trace JSON timeline
//!   --det-seed <n>       deterministic backend, schedule seed n
//!   --det-schedules <k>  schedule-fuzz seeds 0..k (violating seeds dumped)
//!   --schedule-out <dir> directory for dumped seed files (default .)
//!   --replay <file>      replay a seed file (sets scheme/bench/cores/seed)
//!   --scenario <file>    declarative .skn run description (pins scheme,
//!                        cores, shards, model, kernel + inputs, ROI)
//! ```

use sk_core::engine::{Engine, RunOutcome};
use sk_core::{CoreModel, DetEngine, Scheme, SimReport, TargetConfig};
use sk_det::Schedule;
use sk_kernels::{Scale, Workload, KERNELS};
use sk_obs::json::Json;
use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;

struct Opts {
    /// The `run` kernel (`--bench`, any registry name).
    bench: String,
    scheme: Scheme,
    /// Whether --scheme was given explicitly (a restore keeps the
    /// snapshot's scheme unless the user asks to fork onto another one).
    scheme_set: bool,
    cores: usize,
    scale: Scale,
    model: CoreModel,
    shards: usize,
    seq: bool,
    track: bool,
    /// Disable superblock dispatch (host-speed knob; timing is
    /// bit-identical either way, this is the escape hatch / A-B lever).
    no_superblocks: bool,
    fast_forward: bool,
    stats: bool,
    checkpoint_at: Option<u64>,
    checkpoint: Option<String>,
    restore: Option<String>,
    json: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    /// Run on the deterministic backend with this schedule seed.
    det_seed: Option<u64>,
    /// Schedule-fuzz: run this many deterministic schedules (seeds 0..K).
    det_schedules: Option<u64>,
    /// Directory violating seed files are dumped into (default ".").
    schedule_out: Option<String>,
    /// Replay a committed seed file (overrides scheme/bench/cores/seed).
    replay: Option<String>,
    /// Declarative `.skn` scenario file: pins the whole run shape
    /// (scheme, cores, shards, model, kernel + inputs, ROI marker).
    scenario: Option<String>,
    /// ROI instruction budget (from a scenario's `roi_instructions`).
    roi_limit: Option<u64>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        bench: "fft".into(),
        scheme: Scheme::BoundedSlack(9),
        scheme_set: false,
        cores: 8,
        scale: Scale::Bench,
        model: CoreModel::OutOfOrder,
        shards: 0,
        seq: false,
        track: false,
        no_superblocks: false,
        fast_forward: false,
        stats: false,
        checkpoint_at: None,
        checkpoint: None,
        restore: None,
        json: None,
        metrics_out: None,
        trace_out: None,
        det_seed: None,
        det_schedules: None,
        schedule_out: None,
        replay: None,
        scenario: None,
        roi_limit: None,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("missing value after {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--scheme" => {
                // SchemeParseError is typed (degenerate parameters like Q0
                // are their own variant); the CLI flattens it to text.
                o.scheme = take(&mut i)?
                    .parse()
                    .map_err(|e: sk_core::SchemeParseError| format!("--scheme: {e}"))?;
                o.scheme_set = true;
            }
            "--cores" => o.cores = take(&mut i)?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--shards" => o.shards = take(&mut i)?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--checkpoint-at" => {
                o.checkpoint_at =
                    Some(take(&mut i)?.parse().map_err(|e| format!("--checkpoint-at: {e}"))?)
            }
            "--det-seed" => {
                o.det_seed = Some(take(&mut i)?.parse().map_err(|e| format!("--det-seed: {e}"))?)
            }
            "--det-schedules" => {
                o.det_schedules =
                    Some(take(&mut i)?.parse().map_err(|e| format!("--det-schedules: {e}"))?)
            }
            "--schedule-out" => o.schedule_out = Some(take(&mut i)?.clone()),
            "--replay" => o.replay = Some(take(&mut i)?.clone()),
            "--scenario" => o.scenario = Some(take(&mut i)?.clone()),
            "--checkpoint" => o.checkpoint = Some(take(&mut i)?.clone()),
            "--restore" => o.restore = Some(take(&mut i)?.clone()),
            "--json" => o.json = Some(take(&mut i)?.clone()),
            "--metrics-out" => o.metrics_out = Some(take(&mut i)?.clone()),
            "--trace-out" => o.trace_out = Some(take(&mut i)?.clone()),
            "--scale" => o.scale = take(&mut i)?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--model" => o.model = take(&mut i)?.parse().map_err(|e| format!("--model: {e}"))?,
            "--seq" => o.seq = true,
            "--no-superblocks" => o.no_superblocks = true,
            "--track-violations" => o.track = true,
            "--fast-forward" => o.fast_forward = true,
            "--stats" => o.stats = true,
            "--bench" => o.bench = take(&mut i)?.clone(),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            _ => {}
        }
        i += 1;
    }
    Ok(o)
}

/// The target the options describe, or why it cannot be simulated.
fn config_for(o: &Opts) -> Result<TargetConfig, String> {
    let mut cfg = TargetConfig::paper_8core();
    cfg.n_cores = o.cores;
    cfg.core.model = o.model;
    cfg.track_workload_violations = o.track;
    cfg.superblocks = !o.no_superblocks;
    cfg.fast_forward_compensation = o.fast_forward;
    cfg.mem.track_violations = o.track;
    cfg.mem_shards = o.shards;
    if let Some(limit) = o.roi_limit {
        cfg.stop = sk_core::StopCondition::RoiInstructions(limit);
    }
    cfg.validate().map_err(|e| format!("bad target: {e}"))?;
    Ok(cfg)
}

/// Drive a parallel engine to completion on the scheduler the options
/// name (the seeded det scheduler under `--det-seed`, else the worker
/// pool), taking the requested checkpoint at its safe-point along the way,
/// and dump the telemetry hub `--metrics-out` / `--trace-out` ask for.
fn drive(mut e: Engine, o: &Opts) -> SimReport {
    // A snapshot taken with a hub attached restores it; a fresh one is
    // attached only when the engine carries none.
    let obs = (o.metrics_out.is_some() || o.trace_out.is_some()).then(|| match e.metrics() {
        Some(m) => m.clone(),
        None => e.attach_new_metrics(sk_obs::ObsConfig::default()),
    });
    let r = match o.det_seed {
        Some(seed) => {
            let det = DetEngine::from_engine(e, seed);
            segments(det, o, DetEngine::run_until, DetEngine::engine_mut).into_report()
        }
        None => segments(e, o, Engine::run_until, |e| e).into_report(),
    };
    if let Some(m) = obs {
        if let Some(p) = &o.metrics_out {
            write_json(p, &m.to_json());
        }
        if let Some(p) = &o.trace_out {
            write_json(p, &m.trace_json());
        }
    }
    r
}

/// [`drive`]'s segments on a scheduler `s`: `run` runs one, `engine` is
/// what gets snapshotted.
fn segments<S>(
    mut s: S,
    o: &Opts,
    run: impl Fn(&mut S, Option<u64>) -> RunOutcome,
    engine: impl Fn(&mut S) -> &mut Engine,
) -> S {
    if let Some(at) = o.checkpoint_at {
        match run(&mut s, Some(at)) {
            RunOutcome::CheckpointReady => {
                let path = o.checkpoint.clone().unwrap_or_else(|| "slacksim.snap".into());
                match engine(&mut s).snapshot_to_file(Path::new(&path)) {
                    Ok(()) => eprintln!("checkpoint written to {path} at cycle {at}"),
                    Err(err) => eprintln!("warning: checkpoint failed: {err}"),
                }
            }
            RunOutcome::Finished => {
                eprintln!("warning: simulation finished before cycle {at}; no checkpoint written");
            }
            // The CLI never raises the cancel token.
            RunOutcome::Cancelled => unreachable!("cancelled without a cancel token holder"),
        }
    }
    run(&mut s, None);
    s
}

fn run_one(w: &Workload, o: &Opts, cfg: &TargetConfig) -> (SimReport, bool) {
    let r = if o.seq {
        sk_core::run_sequential(&w.program, cfg)
    } else {
        drive(Engine::new(&w.program, o.scheme, cfg), o)
    };
    let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
    let ok = printed == w.expected;
    println!(
        "{:<16} {:<18} scheme={:<5} cycles={:<9} instr={:<9} KIPS={:<8.1} output={}",
        w.name,
        w.input,
        if o.seq { "seq".into() } else { r.scheme.clone() },
        r.exec_cycles,
        r.total_committed(),
        r.kips(),
        if ok { "OK" } else { "MISMATCH" },
    );
    note_truncation(&r);
    if o.stats {
        print_stats(&r);
    }
    (r, ok)
}

/// File-name slug for a benchmark/scheme name ("S9*" → "s9star").
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '*' => out.push_str("star"),
            c if c.is_ascii_alphanumeric() => out.push(c.to_ascii_lowercase()),
            _ => out.push('-'),
        }
    }
    out.trim_matches('-').to_string()
}

/// Schedule-fuzz one workload: run seeds `0..k` on the deterministic
/// backend with the violation oracle forced on, dump every violating (or
/// functionally wrong) seed as a replayable schedule file, and return
/// whether the sweep is clean. The sweep fails on wrong output, or on an
/// inversion past the scheme's slack bound (`Scheme::slack_bound`: 0 for
/// CC, the window for bounded schemes — a breach means the *engine*
/// leaked slack it never granted). In-bound violations on racy workloads
/// are the measurement, and only dump.
fn fuzz_schedules(w: &Workload, o: &Opts, cfg: &TargetConfig, k: u64) -> bool {
    let mut cfg = *cfg;
    cfg.track_workload_violations = true;
    cfg.mem.track_violations = true;
    let mut all_ok = true;
    let mut dumped = 0u64;
    let mut max_viol = 0u64;
    let mut max_inv = 0u64;
    let (mut picks, mut futile) = (0u64, 0u64);
    for seed in 0..k {
        let mut det = sk_core::DetEngine::new(&w.program, o.scheme, &cfg, seed);
        det.run();
        picks += det.picks();
        futile += det.futile_picks();
        let r = det.into_report();
        let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
        let output_ok = printed == w.expected;
        let v = r.violations.total();
        max_viol = max_viol.max(v);
        max_inv = max_inv.max(r.violations.max_inversion_cycles);
        if v > 0 || !output_ok {
            let mut sched = Schedule::new(seed, &o.scheme.short_name(), &w.name, cfg.n_cores);
            sched.note = format!(
                "violations={v} max_inversion={} output={}",
                r.violations.max_inversion_cycles,
                if output_ok { "ok" } else { "MISMATCH" }
            );
            let dir = o.schedule_out.as_deref().unwrap_or(".");
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {dir}: {e}");
            }
            let path = format!(
                "{dir}/sched-{}-{}-{seed}.txt",
                slug(&w.name),
                slug(&o.scheme.short_name())
            );
            if let Err(e) = std::fs::write(&path, sched.format()) {
                eprintln!("warning: cannot write {path}: {e}");
            }
            dumped += 1;
        }
        let over_bound =
            o.scheme.slack_bound().is_some_and(|b| r.violations.max_inversion_cycles > b);
        if !output_ok || over_bound {
            all_ok = false;
            eprintln!(
                "FAIL {} scheme={} seed={seed}: violations={v} max_inversion={} output={}",
                w.name,
                o.scheme.short_name(),
                r.violations.max_inversion_cycles,
                if output_ok { "ok" } else { "MISMATCH" }
            );
        }
    }
    // `futile`: picks of a core at a closed window or a manager with no
    // news, booked by the scheduler without dispatching the task.
    println!(
        "{:<16} scheme={:<5} schedules={:<4} violating={:<4} max_violations={:<6} \
         max_inversion={:<6} picks={} futile={:.1}% verdict={}",
        w.name,
        o.scheme.short_name(),
        k,
        dumped,
        max_viol,
        max_inv,
        picks,
        100.0 * futile as f64 / picks.max(1) as f64,
        if all_ok { "OK" } else { "FAIL" },
    );
    all_ok
}

/// A truncated slack profile silently skews Fig. 5-style plots; say so in
/// the end-of-run summary whether or not --stats was requested.
fn note_truncation(r: &SimReport) {
    if r.engine.slack_profile_truncated > 0 {
        println!(
            "  note: slack profile truncated ({} samples dropped after the cap)",
            r.engine.slack_profile_truncated
        );
    }
}

fn print_stats(r: &SimReport) {
    println!(
        "  engine: blocks={} wakeups={} events={} max_slack={} slack_profile_truncated={}",
        r.engine.blocks,
        r.engine.wakeups,
        r.engine.events_processed,
        r.engine.max_observed_slack,
        r.engine.slack_profile_truncated
    );
    println!(
        "  uncore: L2 hits={} misses={} inv_out={} downgrades={} writebacks={}",
        r.dir.l2_hits,
        r.dir.l2_misses,
        r.dir.invalidations_out,
        r.dir.downgrades_out,
        r.dir.writebacks
    );
    println!(
        "  bus:    grants={} conflicts={} inversions={}",
        r.bus.grants, r.bus.conflicts, r.bus.inversions
    );
    println!(
        "  sync:   lock_acq={} lock_waits={} barriers={} sema_waits={}",
        r.sync.lock_acquisitions, r.sync.lock_waits, r.sync.barrier_episodes, r.sync.sema_waits
    );
    println!(
        "  violations: store-past-load={} load-past-store={} compensations={}",
        r.violations.store_past_load, r.violations.load_past_store, r.violations.compensations
    );
    for (i, c) in r.cores.iter().enumerate() {
        println!(
            "  core {i}: cycles={} committed={} ipc={:.2} l1d-miss={:.1}% l1i-miss={:.1}% bp-miss={:.1}%",
            c.cycles, c.committed, c.ipc(),
            100.0 * c.l1d.miss_rate(), 100.0 * c.l1i.miss_rate(),
            100.0 * c.mispredict_rate());
    }
}

fn report_json(r: &SimReport, scenario: Option<&sk_scenario::Scenario>) -> Json {
    let scenario_echo = scenario.map(|sc| {
        Json::obj([
            ("name", sc.name.as_str()),
            ("kernel", sc.kernel.as_str()),
            ("hash", format!("{:016x}", sc.hash()).as_str()),
        ])
    });
    let e = &r.engine;
    let d = &r.dir;
    let y = &r.sync;
    let v = &r.violations;
    let cache = |c: &sk_mem::CacheStats| {
        Json::obj([("hits", c.hits), ("misses", c.misses), ("evictions", c.evictions)])
    };
    let cores = r.cores.iter().map(|c| {
        Json::obj([
            ("cycles", Json::from(c.cycles)),
            ("committed", c.committed.into()),
            ("roi_committed", c.roi_committed.into()),
            ("fetched", c.fetched.into()),
            ("issued", c.issued.into()),
            ("branches", c.branches.into()),
            ("mispredicts", c.mispredicts.into()),
            ("loads", c.loads.into()),
            ("stores", c.stores.into()),
            ("stall_cycles", c.stall_cycles.into()),
            ("idle_cycles", c.idle_cycles.into()),
            ("sys_retries", c.sys_retries.into()),
            ("ff_stall_cycles", c.ff_stall_cycles.into()),
            ("l1d", cache(&c.l1d)),
            ("l1i", cache(&c.l1i)),
            ("printed", c.printed.iter().copied().collect()),
        ])
    });
    let slack_profile = r
        .slack_profile
        .as_ref()
        .map(|p| p.iter().map(|&(g, sl)| Json::from_iter([g, sl])).collect::<Json>());
    Json::obj([
        ("scheme", Json::from(r.scheme.as_str())),
        ("n_cores", r.n_cores.into()),
        ("exec_cycles", r.exec_cycles.into()),
        ("wall_seconds", r.wall.as_secs_f64().into()),
        ("total_committed", r.total_committed().into()),
        ("total_roi_committed", r.total_roi_committed().into()),
        ("kips", r.kips().into()),
        (
            "config",
            Json::obj([
                ("superblocks", Json::from(r.superblocks)),
                ("scenario", scenario_echo.into()),
            ]),
        ),
        (
            "engine",
            Json::obj([
                ("blocks", e.blocks),
                ("wakeups", e.wakeups),
                ("global_updates", e.global_updates),
                ("events_processed", e.events_processed),
                ("max_observed_slack", e.max_observed_slack),
                ("slack_profile_truncated", e.slack_profile_truncated),
            ]),
        ),
        (
            "dir",
            Json::obj([
                ("gets", d.gets),
                ("getm", d.getm),
                ("upgrades", d.upgrades),
                ("puts", d.puts),
                ("invalidations_out", d.invalidations_out),
                ("downgrades_out", d.downgrades_out),
                ("l2_hits", d.l2_hits),
                ("l2_misses", d.l2_misses),
                ("writebacks", d.writebacks),
                ("transition_inversions", d.transition_inversions),
            ]),
        ),
        (
            "bus",
            Json::obj([
                ("grants", r.bus.grants),
                ("conflicts", r.bus.conflicts),
                ("wait_cycles", r.bus.wait_cycles),
                ("inversions", r.bus.inversions),
            ]),
        ),
        (
            "sync",
            Json::obj([
                ("lock_acquisitions", y.lock_acquisitions),
                ("lock_waits", y.lock_waits),
                ("barrier_episodes", y.barrier_episodes),
                ("sema_waits", y.sema_waits),
                ("implicit_inits", y.implicit_inits),
                ("unlock_mismatches", y.unlock_mismatches),
            ]),
        ),
        (
            "violations",
            Json::obj([
                ("store_past_load", v.store_past_load),
                ("load_past_store", v.load_past_store),
                ("compensations", v.compensations),
                ("compensation_cycles", v.compensation_cycles),
                ("max_inversion_cycles", v.max_inversion_cycles),
            ]),
        ),
        ("cores", cores.collect()),
        ("slack_profile", slack_profile.into()),
    ])
}

/// Write `body` to `path`; JSON emission failing is a warning, not a
/// failed run.
fn write_json(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

/// Every registry kernel that runs on the options' core count, at their
/// scale.
fn benches(o: &Opts) -> impl Iterator<Item = Workload> + '_ {
    KERNELS.iter().filter(|k| o.cores >= k.min_cores).map(|k| k.at(o.cores, o.scale))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = if args.is_empty() { &args[..] } else { &args[1..] };
    // The server commands take their own options; dispatch before the
    // simulation-option parser gets a chance to reject them.
    match cmd {
        "serve" => return cmd_serve(rest),
        "loadgen" => return cmd_loadgen(rest),
        "reproduce" => return cmd_reproduce(rest),
        _ => {}
    }
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.checkpoint_at.is_some() && opts.seq {
        eprintln!("error: --checkpoint-at requires the parallel engine (drop --seq)");
        return ExitCode::FAILURE;
    }
    if opts.restore.is_some() && opts.seq {
        eprintln!("error: --restore requires the parallel engine (drop --seq)");
        return ExitCode::FAILURE;
    }
    if opts.seq && (opts.metrics_out.is_some() || opts.trace_out.is_some()) {
        eprintln!("error: --metrics-out/--trace-out require the parallel engine (drop --seq)");
        return ExitCode::FAILURE;
    }
    let whole_schedules = opts.det_schedules.is_some() || opts.replay.is_some();
    if (whole_schedules || opts.det_seed.is_some()) && opts.seq {
        eprintln!("error: --det-seed/--det-schedules/--replay need the parallel engine");
        return ExitCode::FAILURE;
    }
    // A seed names a schedule from cycle 0 to the end: a checkpoint
    // segment picks differently, a restored run starts elsewhere.
    if whole_schedules && (opts.checkpoint_at.is_some() || opts.restore.is_some()) {
        eprintln!(
            "error: --det-schedules/--replay run whole schedules (no --checkpoint-at/--restore)"
        );
        return ExitCode::FAILURE;
    }
    if opts.det_seed.is_some() && opts.det_schedules.is_some() {
        eprintln!("error: --det-seed and --det-schedules are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if opts.scenario.is_some() && (opts.restore.is_some() || opts.replay.is_some()) {
        eprintln!("error: --scenario pins the whole run shape; drop --replay/--restore");
        return ExitCode::FAILURE;
    }
    match cmd {
        "run" => {
            if let Some(path) = &opts.restore {
                // The simulated system comes from the snapshot; benchmark
                // selection and target-shape options are ignored.
                let fork = opts.scheme_set.then_some(opts.scheme);
                let e = match Engine::resume_from_file(Path::new(path), fork) {
                    Ok(e) => e,
                    Err(err) => {
                        eprintln!("error: cannot restore {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                };
                let r = drive(e, &opts);
                println!(
                    "{:<16} {:<18} scheme={:<5} cycles={:<9} instr={:<9} KIPS={:<8.1}",
                    "restored",
                    path,
                    r.scheme,
                    r.exec_cycles,
                    r.total_committed(),
                    r.kips(),
                );
                note_truncation(&r);
                if opts.stats {
                    print_stats(&r);
                }
                if let Some(j) = &opts.json {
                    write_json(j, &report_json(&r, None).to_string());
                }
                return ExitCode::SUCCESS;
            }
            let mut opts = opts;
            let replay_sched = match &opts.replay {
                None => None,
                Some(path) => match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Schedule::parse(&text).map_err(|e| e.to_string()))
                {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("error: cannot replay {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            if let Some(sched) = replay_sched {
                // The seed file pins the whole run shape: scheme, kernel,
                // core count and seed all come from it.
                opts.scheme = match sched.scheme.parse() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: schedule file has a bad scheme: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                opts.cores = sched.n_cores;
                opts.det_seed = Some(sched.seed);
                opts.bench = sched.kernel;
                println!(
                    "replaying seed {:#x} ({} on {}, {} cores)",
                    sched.seed, opts.scheme, opts.bench, opts.cores
                );
            }
            // A scenario file, like --replay, pins the run shape: scheme,
            // target, kernel and inputs all come from the one artifact, so
            // the CLI, the det fuzzer and a server job agree bit-for-bit.
            let mut scenario: Option<sk_scenario::Scenario> = None;
            if let Some(path) = &opts.scenario {
                let sc = match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| sk_scenario::Scenario::parse(&t).map_err(|e| e.to_string()))
                {
                    Ok(sc) => sc,
                    Err(e) => {
                        eprintln!("error: cannot load scenario {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                opts.scheme = sc.scheme;
                opts.scheme_set = true;
                opts.cores = sc.cores;
                opts.shards = sc.mem_shards;
                opts.model = sc.model;
                opts.track |= sc.track_violations;
                opts.roi_limit = sc.roi_instructions;
                // The schedule fuzzer runs whole schedules: no marker.
                if opts.checkpoint_at.is_none() && opts.det_schedules.is_none() {
                    opts.checkpoint_at = sc.checkpoint_at;
                }
                println!(
                    "scenario {path}: {} on {} cores, scheme {} (hash {:016x})",
                    sc.kernel,
                    sc.cores,
                    sc.scheme.short_name(),
                    sc.hash()
                );
                scenario = Some(sc);
            }
            let Ok(cfg) = config_for(&opts).map_err(|e| eprintln!("error: {e}")) else {
                return ExitCode::FAILURE;
            };
            let w = match &scenario {
                // Parse already vetted the kernel and its parameters.
                Some(sc) => sc.workload().expect("parsed scenarios are valid"),
                None => match sk_kernels::kernel(&opts.bench, opts.cores) {
                    Ok(k) => k.at(opts.cores, opts.scale),
                    Err(e) => {
                        eprintln!("error: {e}; try: slacksim list");
                        return ExitCode::FAILURE;
                    }
                },
            };
            if let Some(k) = opts.det_schedules {
                if !fuzz_schedules(&w, &opts, &cfg, k) {
                    return ExitCode::FAILURE;
                }
                return ExitCode::SUCCESS;
            }
            let (r, ok) = run_one(&w, &opts, &cfg);
            if let Some(j) = &opts.json {
                write_json(j, &report_json(&r, scenario.as_ref()).to_string());
            }
            if !ok {
                return ExitCode::FAILURE;
            }
        }
        "suite" => {
            let Ok(cfg) = config_for(&opts).map_err(|e| eprintln!("error: {e}")) else {
                return ExitCode::FAILURE;
            };
            if let Some(k) = opts.det_schedules {
                let mut all_ok = true;
                for w in benches(&opts) {
                    all_ok &= fuzz_schedules(&w, &opts, &cfg, k);
                }
                if !all_ok {
                    eprintln!("error: schedule fuzzing found a conformance failure");
                    return ExitCode::FAILURE;
                }
                return ExitCode::SUCCESS;
            }
            let mut reports = Vec::new();
            let mut all_ok = true;
            for w in benches(&opts) {
                let (r, ok) = run_one(&w, &opts, &cfg);
                reports.push(r);
                all_ok &= ok;
            }
            if let Some(j) = &opts.json {
                let body: Json = reports.iter().map(|r| report_json(r, None)).collect();
                write_json(j, &body.to_string());
            }
            if !all_ok {
                eprintln!("error: at least one benchmark produced MISMATCH output");
                return ExitCode::FAILURE;
            }
        }
        "asm" => {
            let Some(path) = rest.iter().find(|a| !a.starts_with("--")) else {
                eprintln!("usage: slacksim asm <file.s> [options]");
                return ExitCode::FAILURE;
            };
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match sk_isa::asm::assemble(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Ok(cfg) = config_for(&opts).map_err(|e| eprintln!("error: {e}")) else {
                return ExitCode::FAILURE;
            };
            let r = if opts.seq {
                sk_core::run_sequential(&program, &cfg)
            } else {
                drive(Engine::new(&program, opts.scheme, &cfg), &opts)
            };
            for (core, v) in r.printed() {
                println!("[core {core}] {v}");
            }
            println!("cycles={} instructions={}", r.exec_cycles, r.total_committed());
            note_truncation(&r);
            if opts.stats {
                print_stats(&r);
            }
            if let Some(j) = &opts.json {
                write_json(j, &report_json(&r, None).to_string());
            }
        }
        "list" => {
            println!("benchmarks (inputs at --scale, fewest cores):");
            for k in KERNELS {
                let inputs = k.params.iter().zip(k.inputs(opts.scale));
                let inputs: Vec<String> = inputs.map(|((p, _), v)| format!("{p}={v}")).collect();
                println!("  {:<18} {:<24} {}", k.name, inputs.join(" "), k.min_cores);
            }
            println!("schemes: CC  Q<n>  S<n>  S<n>*  SU  (L<n> is an alias of S<n>*)");
        }
        _ => {
            println!("{}", HELP);
        }
    }
    ExitCode::SUCCESS
}

/// `slacksim serve`: run the multi-tenant job server in the foreground
/// until a client posts `/shutdown`.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = sk_serve::ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("missing value after {}", args[*i - 1]))
        };
        let parsed: Result<(), String> = (|| {
            match args[i].as_str() {
                "--addr" => cfg.addr = take(&mut i)?.clone(),
                "--workers" => {
                    cfg.workers = take(&mut i)?.parse().map_err(|e| format!("--workers: {e}"))?
                }
                "--queue" => {
                    cfg.queue_capacity =
                        take(&mut i)?.parse().map_err(|e| format!("--queue: {e}"))?
                }
                "--quota" => {
                    cfg.tenant_quota = take(&mut i)?.parse().map_err(|e| format!("--quota: {e}"))?
                }
                "--cache" => {
                    cfg.cache_entries =
                        take(&mut i)?.parse().map_err(|e| format!("--cache: {e}"))?
                }
                other => return Err(format!("unknown serve option '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let server = match sk_serve::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Machine-greppable: CI boots the server in the background and scrapes
    // the bound address from this line.
    println!("sk-serve listening on {}", server.addr());
    server.wait();
    println!("sk-serve stopped");
    ExitCode::SUCCESS
}

/// `slacksim reproduce`'s options, each read by the harnesses that list
/// it in [`HARNESSES`].
struct Repro {
    scale: Scale,
    model: CoreModel,
    reps: NonZeroUsize,
    verify: bool,
    metrics_out: Option<String>,
    smoke: bool,
}

/// The paper's tables and figures in `reproduce`'s default order: name,
/// the options the harness reads, and how to run it.
type Harness = (&'static str, &'static [&'static str], fn(&Repro));
const HARNESSES: [Harness; 8] = [
    ("fig2", &[], |_| sk_bench::fig2()),
    ("table2", &["--scale", "--model"], |o| sk_bench::table2(o.scale, o.model)),
    ("table3", &["--scale", "--model", "--reps"], |o| sk_bench::table3(o.scale, o.model, o.reps)),
    ("violations", &["--model"], |o| sk_bench::violations(o.model)),
    ("fig8", &["--scale", "--model"], |o| sk_bench::fig8(o.scale, o.model)),
    ("gridfork", &["--scale", "--model", "--verify", "--metrics-out"], |o| {
        sk_bench::gridfork(o.scale, o.model, o.verify, o.metrics_out.as_deref().map(Path::new))
    }),
    ("ablation", &["--scale"], |o| sk_bench::ablation(o.scale)),
    ("scaleout", &["--smoke"], |o| sk_bench::scaleout(o.smoke)),
];

/// `slacksim reproduce`: run the named harnesses (all of them when none is
/// named), rejecting an option that none of them reads.
fn cmd_reproduce(args: &[String]) -> ExitCode {
    let mut o = Repro {
        scale: Scale::Bench,
        model: CoreModel::OutOfOrder,
        reps: NonZeroUsize::MIN,
        verify: false,
        metrics_out: None,
        smoke: false,
    };
    let mut run: Vec<&Harness> = Vec::new();
    let mut given: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("missing value after {}", args[*i - 1]))
        };
        let arg = args[i].as_str();
        let parsed: Result<(), String> = (|| {
            match arg {
                "--scale" => {
                    o.scale = take(&mut i)?.parse().map_err(|e| format!("--scale: {e}"))?
                }
                "--model" => {
                    o.model = take(&mut i)?.parse().map_err(|e| format!("--model: {e}"))?
                }
                "--reps" => o.reps = take(&mut i)?.parse().map_err(|e| format!("--reps: {e}"))?,
                "--verify" => o.verify = true,
                "--metrics-out" => o.metrics_out = Some(take(&mut i)?.clone()),
                "--smoke" => o.smoke = true,
                other if other.starts_with("--") => {
                    return Err(format!("unknown reproduce option '{other}'"))
                }
                name => match HARNESSES.iter().find(|h| h.0 == name) {
                    Some(h) => run.push(h),
                    None => {
                        let all: Vec<&str> = HARNESSES.iter().map(|h| h.0).collect();
                        return Err(format!("unknown harness '{name}' (want {})", all.join(", ")));
                    }
                },
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if arg.starts_with("--") {
            given.push(arg);
        }
        i += 1;
    }
    if run.is_empty() {
        run = HARNESSES.iter().collect();
    }
    if let Some(flag) = given.iter().find(|f| !run.iter().any(|h| h.1.contains(f))) {
        let names: Vec<&str> = run.iter().map(|h| h.0).collect();
        eprintln!("error: {flag} is read by none of: {}", names.join(", "));
        return ExitCode::FAILURE;
    }
    for (k, h) in run.iter().enumerate() {
        if k > 0 {
            println!();
        }
        (h.2)(&o);
    }
    ExitCode::SUCCESS
}

/// `slacksim loadgen`: drive a running server and report what happened.
/// Fails the process on any correctness violation (fingerprint or
/// output mismatch, nothing completed), so CI can gate on the exit code.
fn cmd_loadgen(args: &[String]) -> ExitCode {
    let mut addr_opt: Option<String> = None;
    let mut cfg = sk_serve::LoadgenConfig::default();
    let mut json_out: Option<String> = None;
    let mut shutdown_after = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("missing value after {}", args[*i - 1]))
        };
        let parsed: Result<(), String> = (|| {
            match args[i].as_str() {
                "--addr" => addr_opt = Some(take(&mut i)?.clone()),
                "--jobs" => cfg.jobs = take(&mut i)?.parse().map_err(|e| format!("--jobs: {e}"))?,
                "--threads" => {
                    cfg.threads = take(&mut i)?.parse().map_err(|e| format!("--threads: {e}"))?
                }
                "--burst" => {
                    cfg.burst = take(&mut i)?.parse().map_err(|e| format!("--burst: {e}"))?
                }
                "--seed" => cfg.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--smoke" => cfg = sk_serve::LoadgenConfig::smoke(),
                "--scenario" => {
                    let path = take(&mut i)?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("--scenario {path}: {e}"))?;
                    // Vet locally before hammering the server with it.
                    sk_scenario::Scenario::parse(&text)
                        .map_err(|e| format!("--scenario {path}: {e}"))?;
                    cfg.scenario = Some(text);
                }
                "--shutdown" => shutdown_after = true,
                "--json" => json_out = Some(take(&mut i)?.clone()),
                other => return Err(format!("unknown loadgen option '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let Some(addr_text) = addr_opt else {
        eprintln!("error: loadgen needs --addr <host:port>");
        return ExitCode::FAILURE;
    };
    let addr: std::net::SocketAddr = match addr_text.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bad --addr '{addr_text}': {e}");
            return ExitCode::FAILURE;
        }
    };

    let stats = sk_serve::loadgen::run(addr, &cfg);
    println!("{}", stats.to_json());
    if let Some(p) = &json_out {
        write_json(p, &stats.to_json());
    }
    if shutdown_after {
        let mut c = sk_serve::Client::new(addr);
        let _ = c.request("POST", "/shutdown", &[], b"");
    }
    let ok = stats.completed > 0
        && stats.fingerprint_mismatches == 0
        && stats.output_mismatches == 0
        && stats.failed == 0;
    if !ok {
        eprintln!(
            "loadgen FAILED: completed={} failed={} fingerprint_mismatches={} \
             output_mismatches={}",
            stats.completed, stats.failed, stats.fingerprint_mismatches, stats.output_mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

const HELP: &str = "slacksim - parallel CMP-on-CMP simulation with slack schemes

USAGE:
  slacksim run   --bench <name> [options]   run one benchmark
  slacksim suite [options]                  run all benchmarks
  slacksim asm   <file.s> [options]         assemble and run a program
  slacksim reproduce [name ...] [options]  regenerate the paper's tables/figures
  slacksim list                             list benchmarks and schemes
  slacksim serve   [server options]         run the simulation job server
  slacksim loadgen --addr <host:port>       drive a running job server

REPRODUCE (names fig2 table2 table3 violations fig8 gridfork ablation
scaleout, run in that order; no name runs all eight):
  --scale, --model     as below, for the harnesses that take them
  --reps <n>           table3: worst error over n parallel runs (default 1)
  --verify             gridfork: also run every cell from scratch
  --metrics-out <file> gridfork: dump the grid's sk-obs telemetry
  --smoke              scaleout: the CI preset (det, 64 cores, CC and S10*)

SERVER OPTIONS (serve):
  --addr <host:port>   bind address (default 127.0.0.1:0 = free port)
  --workers <n>        simulation worker threads (default 2)
  --queue <n>          job-queue capacity before 429 shedding (default 32)
  --quota <n>          per-tenant in-flight job quota (default 8)
  --cache <n>          result memo entries, one per (spec, scheme) (default 1024)

LOADGEN OPTIONS:
  --addr <host:port>   server to drive (required)
  --jobs <n>           submit-then-wait jobs (default 1000)
  --threads <n>        client threads (default 4)
  --burst <n>          fire-and-forget overload burst first (default 64)
  --seed <n>           request-stream seed (default 0x5eed)
  --smoke              CI-sized run (12 jobs, 2 threads, no burst)
  --scenario <file>    post every job from this .skn scenario file
  --shutdown           POST /shutdown when done
  --json <file>        write the stats JSON to a file

OPTIONS:
  --scheme CC|Q<n>|S<n>|S<n>*|SU  slack scheme (default S9; L<n> is an alias
                       of S<n>*)
  --cores <n>          target cores (default 8)
  --shards <n>         sharded memory-manager threads (default 0 = single)
  --scale test|bench|full
  --model inorder|ooo
  --seq                sequential reference engine (cycle-by-cycle)
  --no-superblocks     per-instruction dispatch (superblocks are default-on;
                       simulated timing is bit-identical either way)
  --track-violations   count slack-induced violations
  --fast-forward       fast-forwarding compensation (paper S3.2.3)
  --stats              detailed statistics
  --checkpoint-at <c>  snapshot at the cycle-c safe-point, then continue
  --checkpoint <file>  checkpoint file to write (default slacksim.snap)
  --restore <file>     resume a snapshot (with `run`; --scheme forks it)
  --json <file>        dump the final report(s) as JSON
  --metrics-out <file> dump runtime telemetry (sk-obs-metrics JSON schema)
  --trace-out <file>   dump a Perfetto-compatible chrome-trace timeline
  --det-seed <n>       deterministic backend: one run with schedule seed n
  --det-schedules <k>  schedule-fuzz seeds 0..k, dumping violating seeds
  --schedule-out <dir> where violating seed files go (default .)
  --replay <file>      replay a committed seed file (sets scheme/bench/seed)
  --scenario <file>    declarative .skn scenario (pins scheme/cores/shards/
                       model/kernel/inputs/ROI; composes with --det-seed,
                       --det-schedules and --json)";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.scheme, Scheme::BoundedSlack(9));
        assert_eq!(o.cores, 8);
        assert_eq!(o.model, CoreModel::OutOfOrder);
        assert!(!o.seq && !o.track && !o.fast_forward && !o.stats);
        assert!(!o.no_superblocks, "superblock dispatch defaults to on");
    }

    #[test]
    fn parses_all_options() {
        let o = parse_opts(&args(&[
            "--scheme",
            "S9*",
            "--cores",
            "4",
            "--scale",
            "test",
            "--model",
            "inorder",
            "--seq",
            "--no-superblocks",
            "--track-violations",
            "--fast-forward",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(o.scheme, Scheme::OldestFirstBounded(9));
        assert_eq!(o.cores, 4);
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.model, CoreModel::InOrder);
        assert!(o.seq && o.track && o.fast_forward && o.stats);
        assert!(o.no_superblocks);
    }

    #[test]
    fn rejects_unknown_options_and_values() {
        assert!(parse_opts(&args(&["--bogus"])).is_err());
        assert!(parse_opts(&args(&["--scale", "huge"])).is_err());
        assert!(parse_opts(&args(&["--scheme", "Z9"])).is_err());
        assert!(parse_opts(&args(&["--cores"])).is_err());
    }

    #[test]
    fn parses_the_bench_name() {
        let o = parse_opts(&args(&["--bench", "LU", "--scheme", "SU"])).unwrap();
        assert_eq!((o.bench.as_str(), o.scheme), ("LU", Scheme::Unbounded));
        assert!(parse_opts(&args(&["--bench"])).is_err());
    }

    #[test]
    fn parses_checkpoint_and_json_options() {
        let o = parse_opts(&args(&[
            "--checkpoint-at",
            "5000",
            "--checkpoint",
            "roi.snap",
            "--json",
            "out.json",
        ]))
        .unwrap();
        assert_eq!(o.checkpoint_at, Some(5000));
        assert_eq!(o.checkpoint.as_deref(), Some("roi.snap"));
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert!(!o.scheme_set);
        let o = parse_opts(&args(&["--restore", "roi.snap", "--scheme", "SU"])).unwrap();
        assert_eq!(o.restore.as_deref(), Some("roi.snap"));
        assert!(o.scheme_set);
        assert!(parse_opts(&args(&["--checkpoint-at", "abc"])).is_err());
        assert!(parse_opts(&args(&["--restore"])).is_err());
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut r = SimReport {
            scheme: "S9\"\\".into(),
            n_cores: 1,
            exec_cycles: 7,
            cores: vec![sk_core::CoreStats { printed: vec![1, -2], ..Default::default() }],
            ..Default::default()
        };
        r.slack_profile = Some(vec![(1, 2), (3, 4)]);
        let j = report_json(&r, None).to_string();
        assert!(j.contains("\"scheme\":\"S9\\\"\\\\\""));
        assert!(j.contains("\"printed\":[1,-2]"));
        assert!(j.contains("\"slack_profile\":[[1,2],[3,4]]"));
        assert!(j.contains("\"slack_profile_truncated\":0"));
        let doc = sk_obs::json::parse(&j).expect("the report parses");
        assert_eq!(doc.get("scheme").and_then(Json::as_str), Some("S9\"\\"));
        assert_eq!(doc.get("config").and_then(|c| c.get("scenario")), Some(&Json::Null));
    }

    #[test]
    fn parses_det_options() {
        let o = parse_opts(&args(&["--det-seed", "42"])).unwrap();
        assert_eq!(o.det_seed, Some(42));
        assert_eq!(o.det_schedules, None);
        let o = parse_opts(&args(&[
            "--det-schedules",
            "64",
            "--schedule-out",
            "seeds",
            "--replay",
            "sched.txt",
        ]))
        .unwrap();
        assert_eq!(o.det_schedules, Some(64));
        assert_eq!(o.schedule_out.as_deref(), Some("seeds"));
        assert_eq!(o.replay.as_deref(), Some("sched.txt"));
        assert!(parse_opts(&args(&["--det-seed", "abc"])).is_err());
        assert!(parse_opts(&args(&["--det-schedules"])).is_err());
    }

    #[test]
    fn parses_scenario_option() {
        let o = parse_opts(&args(&["--scenario", "scenarios/pipeline.skn"])).unwrap();
        assert_eq!(o.scenario.as_deref(), Some("scenarios/pipeline.skn"));
        assert_eq!(o.roi_limit, None);
        assert!(parse_opts(&args(&["--scenario"])).is_err());
    }

    #[test]
    fn degenerate_scheme_is_a_parse_error_with_the_typed_detail() {
        let err = parse_opts(&args(&["--scheme", "Q0"])).err().unwrap();
        assert!(err.contains("degenerate scheme parameter 'Q0'"), "got: {err}");
        assert!(parse_opts(&args(&["--scheme", "S0"])).is_err());
        assert!(parse_opts(&args(&["--scheme", "L0"])).is_err());
        assert!(parse_opts(&args(&["--scheme", "S0*"])).is_err());
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("S9*"), "s9star");
        assert_eq!(slug("Water-Nsquared"), "water-nsquared");
        assert_eq!(slug("racy_increment"), "racy-increment");
    }

    #[test]
    fn parses_obs_output_options() {
        let o = parse_opts(&args(&["--metrics-out", "m.json", "--trace-out", "t.json"])).unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert!(parse_opts(&args(&["--metrics-out"])).is_err());
        assert!(parse_opts(&args(&["--trace-out"])).is_err());
    }

    /// A fully deterministic report exercising every field `report_json`
    /// emits (including escapes, a null-able slack profile and a
    /// multi-core array).
    fn golden_report() -> SimReport {
        let mut c0 = sk_core::CoreStats {
            cycles: 1000,
            committed: 800,
            roi_committed: 600,
            fetched: 1200,
            issued: 1100,
            branches: 90,
            mispredicts: 9,
            loads: 200,
            stores: 100,
            stall_cycles: 150,
            idle_cycles: 50,
            sys_retries: 2,
            ff_stall_cycles: 1,
            ..Default::default()
        };
        c0.l1d.hits = 180;
        c0.l1d.misses = 20;
        c0.l1d.evictions = 5;
        c0.l1i.hits = 1190;
        c0.l1i.misses = 10;
        c0.l1i.evictions = 1;
        c0.printed = vec![7, -3];
        let c1 = sk_core::CoreStats { cycles: 990, committed: 790, ..Default::default() };
        let mut r = SimReport {
            scheme: "S10".into(),
            n_cores: 2,
            exec_cycles: 1000,
            wall: std::time::Duration::from_millis(125),
            cores: vec![c0, c1],
            ..Default::default()
        };
        r.engine.blocks = 40;
        r.engine.wakeups = 38;
        r.engine.global_updates = 500;
        r.engine.events_processed = 321;
        r.engine.max_observed_slack = 10;
        r.engine.slack_profile_truncated = 0;
        r.dir.gets = 30;
        r.dir.getm = 12;
        r.dir.upgrades = 3;
        r.dir.puts = 6;
        r.dir.invalidations_out = 4;
        r.dir.downgrades_out = 2;
        r.dir.l2_hits = 25;
        r.dir.l2_misses = 17;
        r.dir.writebacks = 5;
        r.dir.transition_inversions = 0;
        r.bus.grants = 42;
        r.bus.conflicts = 7;
        r.bus.wait_cycles = 19;
        r.bus.inversions = 0;
        r.sync.lock_acquisitions = 11;
        r.sync.lock_waits = 4;
        r.sync.barrier_episodes = 3;
        r.sync.sema_waits = 1;
        r.violations.store_past_load = 2;
        r.violations.load_past_store = 1;
        r.violations.compensations = 1;
        r.violations.compensation_cycles = 12;
        r.violations.max_inversion_cycles = 5;
        r.superblocks = true;
        r.slack_profile = Some(vec![(0, 0), (10, 9), (20, 10)]);
        r
    }

    /// The deterministic scenario echoed into the golden report's config
    /// object (exercises the `"scenario":{...}` arm; plain runs emit
    /// `"scenario":null`).
    fn golden_scenario() -> sk_scenario::Scenario {
        sk_scenario::Scenario::parse(
            "[scenario]\nname = \"golden\"\n[run]\nscheme = \"S10\"\n\
             [kernel]\nname = \"pipeline\"\nitems = 8\n",
        )
        .unwrap()
    }

    /// Freezes the `--json` report schema: any change to `report_json`
    /// must come with a deliberate regeneration of the golden file
    /// (`SK_REGEN_GOLDEN=1 cargo test -p sk-cli regen_golden`) and a
    /// matching consumer-side review. CI runs this test.
    #[test]
    fn report_json_matches_golden_schema() {
        let actual = report_json(&golden_report(), Some(&golden_scenario())).to_string();
        let expected = include_str!("golden_report.json");
        assert_eq!(
            actual,
            expected.trim_end(),
            "report JSON schema drifted from crates/cli/src/golden_report.json; \
             if intentional, regenerate with SK_REGEN_GOLDEN=1 cargo test -p sk-cli regen_golden"
        );
    }

    #[test]
    fn regen_golden() {
        if std::env::var_os("SK_REGEN_GOLDEN").is_none() {
            return;
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/golden_report.json");
        std::fs::write(
            path,
            format!("{}\n", report_json(&golden_report(), Some(&golden_scenario()))),
        )
        .unwrap();
    }

    #[test]
    fn config_reflects_options() {
        let o = parse_opts(&args(&["--cores", "2", "--track-violations"])).unwrap();
        let cfg = config_for(&o).unwrap();
        assert_eq!(cfg.n_cores, 2);
        assert!(cfg.track_workload_violations);
        assert!(cfg.mem.track_violations);
        assert!(cfg.superblocks);
        let o = parse_opts(&args(&["--no-superblocks"])).unwrap();
        assert!(!config_for(&o).unwrap().superblocks);
    }
}
