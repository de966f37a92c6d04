//! The traced pass of the simulation workloads: per-layer metrics from
//! three sources, all from outside the simulator.
//!
//! (a) The backend ladder — the same cell through `interpret` (functional
//!     execution only) → `run_sequential` (+ timing model) → `DetEngine`
//!     (+ spsc, clock board, manager, shards under the interleaver) →
//!     threaded `Engine` (+ OS threads, parking, wake-ups). Each rung
//!     adds layers, so rung differences attribute host-ns per simulated
//!     cycle to layer groups.
//! (b) An `sk_obs::Metrics` hub attached to one more run of the
//!     workload's own backend, plus `SimReport` counters.
//! (c) Spans around each public call, written to `out/` at exit.

use crate::calib::Clock;
use crate::cells::{matrix, Backend, Cell};
use crate::metrics::{Outcome, Values};
use crate::sim::{another_pass, fingerprinted, output_ok, record, simulated_stats, CellRuns};
use crate::span::{Recorder, SpanId};
use crate::stats::{median, ratio_of_sums};
use crate::Opts;
use sk_core::{interpret, run_sequential, DetEngine, Engine, Scheme, SimReport};
use sk_obs::{Metrics, ObsConfig};
use std::sync::Arc;
use std::time::Instant;

/// One engine rung: its span names and whether a hub is attached.
struct Rung {
    build: &'static str,
    run: &'static str,
    report: &'static str,
    with_hub: bool,
}

const DET: Rung =
    Rung { build: "det.build", run: "det.run", report: "det.report", with_hub: false };
const THREADS: Rung =
    Rung { build: "threads.build", run: "threads.run", report: "threads.report", with_hub: false };
const TRACED: Rung =
    Rung { build: "traced.build", run: "traced.run", report: "traced.report", with_hub: true };

/// What one engine rung produced.
struct RungRun {
    /// Run + report in host seconds, the interval the end-to-end pass
    /// times.
    host_s: f64,
    /// The same interval in calibrated seconds.
    wall_s: f64,
    report: SimReport,
    /// Interleaver decisions (det backend only).
    picks: u64,
    hub: Option<Arc<Metrics>>,
}

/// The state one traced pass threads through every rung.
struct Pass<'a> {
    rec: &'a mut Recorder,
    out: &'a mut Outcome,
    clock: Clock,
    totals: Totals,
    seed: u64,
}

impl Pass<'_> {
    /// Time `f` as a span; returns its result and calibrated seconds.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let (value, ns) = self.rec.time(name, Some(parent), group, f);
        (value, self.clock.calibrated(ns as f64 / 1e9))
    }

    /// One engine run as three spans: build, run, report.
    fn engine_rung(
        &mut self,
        parent: SpanId,
        group: u64,
        cell: &Cell,
        backend: Backend,
        names: &Rung,
    ) -> RungRun {
        let program = &cell.kernel.program;
        let (mut engine, _) = self.rec.time(names.build, Some(parent), group, || {
            Engine::new(program, cell.scheme, &cell.cfg)
        });
        let hub = names.with_hub.then(|| engine.attach_new_metrics(ObsConfig::default()));
        let rec = &mut *self.rec;
        let (host_ns, report, picks) = match backend {
            Backend::Det => {
                let mut det = DetEngine::from_engine(engine, self.seed);
                let (_, run_ns) = rec.time(names.run, Some(parent), group, || det.run());
                let picks = det.picks();
                let (report, report_ns) = rec
                    .time(names.report, Some(parent), group, || fingerprinted(det.into_report()));
                (run_ns + report_ns, report, picks)
            }
            Backend::Threads => {
                let (_, run_ns) =
                    rec.time(names.run, Some(parent), group, || engine.run_until(None));
                let (report, report_ns) = rec.time(names.report, Some(parent), group, || {
                    fingerprinted(engine.into_report())
                });
                (run_ns + report_ns, report, 0)
            }
        };
        let host_s = host_ns as f64 / 1e9;
        RungRun { host_s, wall_s: self.clock.calibrated(host_s), report, picks, hub }
    }

    /// Run one cell up the ladder once.
    fn climb(&mut self, group: u64, cell: &Cell, ladder: &mut Ladder) {
        let top = self.rec.open("cell", None, group);
        let program = &cell.kernel.program;
        let expected = || cell.kernel.expected.iter().copied();

        let (interp, wall_s) = self
            .timed("interp", top, group, || interpret(program, cell.kernel.n_threads, u64::MAX));
        ladder.interp_s.push(wall_s);
        ladder.interp_instrs = interp.executed.iter().sum();
        self.out.check(interp.printed_by_tid().into_iter().map(|(_, v)| v).eq(expected()), || {
            format!("{} interpreter output", cell.label)
        });

        let (seq, wall_s) = self.timed("seq", top, group, || run_sequential(program, &cell.cfg));
        ladder.seq_s.push(wall_s);
        ladder.seq_cycles = seq.exec_cycles;
        self.out.check(output_ok(cell, &seq), || format!("{} sequential output", cell.label));

        let det = self.engine_rung(top, group, cell, Backend::Det, &DET);
        record(cell, &mut ladder.det, det.wall_s, &det.report, self.out);
        ladder.det_picks = det.picks;
        if cell.zero_slack() {
            self.out.check(det.report.exec_cycles == seq.exec_cycles, || {
                format!("{} det exec_cycles != run_sequential", cell.label)
            });
        }

        if cell.backend == Backend::Threads {
            let thr = self.engine_rung(top, group, cell, Backend::Threads, &THREADS);
            record(cell, &mut ladder.threads, thr.wall_s, &thr.report, self.out);
            self.totals.add_report(&thr.report);
        } else {
            self.totals.add_report(&det.report);
        }

        let traced = self.engine_rung(top, group, cell, cell.backend, &TRACED);
        self.out.check(output_ok(cell, &traced.report), || format!("{} traced output", cell.label));
        ladder.traced_s.push(traced.wall_s);
        self.totals.add_hub(&traced);
        self.rec.close(top);
    }
}

/// Per-cell results of every rung.
#[derive(Default)]
struct Ladder {
    interp_s: Vec<f64>,
    interp_instrs: u64,
    seq_s: Vec<f64>,
    seq_cycles: u64,
    det: CellRuns,
    det_picks: u64,
    threads: CellRuns,
    traced_s: Vec<f64>,
}

/// Sums over every hub-attached run and every primary report; ratios of
/// these are the counter-based per-layer metrics.
#[derive(Default)]
struct Totals {
    // SimReport counters of the workload's own backend
    cycles: u64,
    core_cycles: u64,
    committed: u64,
    branches: u64,
    mispredicts: u64,
    l1d: (u64, u64),
    l1i: (u64, u64),
    dir_requests: u64,
    global_updates: u64,
    blocks: u64,
    wakeups: u64,
    // hub counters
    hub_cycles: u64,
    hub_wall_ns: u64,
    sb_len: (u64, u64),
    sb_exit_window: u64,
    sb_exit_fallback: u64,
    sb_exits: u64,
    utlb: (u64, u64),
    mgr_events: u64,
    mgr_iterations: u64,
    mgr_busy_ns: u64,
    frontier_wait_ns: u64,
    out_batch: (u64, u64),
    outq_high_water: u64,
    inq_high_water: u64,
    slack: (u64, u64),
    park_ns: u64,
    backoff_us: (u64, u64),
    shard_cycles: u64,
    shard_busy_ns: u64,
    shard_events: u64,
    shard_iterations: u64,
    frontier_lag: (u64, u64),
}

fn add_hist(acc: &mut (u64, u64), h: &sk_obs::Histogram) {
    acc.0 += h.sum();
    acc.1 += h.count();
}

fn div(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Totals {
    fn add_report(&mut self, r: &SimReport) {
        self.cycles += r.exec_cycles;
        for c in &r.cores {
            self.core_cycles += c.cycles;
            self.committed += c.committed;
            self.branches += c.branches;
            self.mispredicts += c.mispredicts;
            self.l1d.0 += c.l1d.misses;
            self.l1d.1 += c.l1d.accesses();
            self.l1i.0 += c.l1i.misses;
            self.l1i.1 += c.l1i.accesses();
        }
        self.dir_requests += r.dir.gets + r.dir.getm + r.dir.upgrades + r.dir.puts;
        self.global_updates += r.engine.global_updates;
        self.blocks += r.engine.blocks;
        self.wakeups += r.engine.wakeups;
    }

    fn add_hub(&mut self, run: &RungRun) {
        let Some(hub) = &run.hub else { return };
        self.hub_cycles += run.report.exec_cycles;
        self.hub_wall_ns += (run.host_s * 1e9) as u64;
        for c in &hub.cores {
            add_hist(&mut self.sb_len, &c.sb_block_len);
            self.sb_exit_window += c.sb_exit_window.get();
            self.sb_exit_fallback += c.sb_exit_fallback.get();
            self.sb_exits += c.sb_exit_branch.get()
                + c.sb_exit_miss.get()
                + c.sb_exit_sync.get()
                + c.sb_exit_syscall.get()
                + c.sb_exit_window.get()
                + c.sb_exit_fallback.get();
            self.utlb.0 += c.utlb_hits.get();
            self.utlb.1 += c.utlb_hits.get() + c.utlb_misses.get();
            add_hist(&mut self.out_batch, &c.out_batch);
            self.outq_high_water = self.outq_high_water.max(c.outq_high_water.get());
            // Every way a core thread parks: window, sync and memory waits.
            self.park_ns += c.park_ns.sum() + c.sync_park_ns.sum() + c.mem_park_ns.sum();
        }
        let m = &hub.manager;
        self.mgr_events += m.events_ingested.get();
        self.mgr_iterations += m.iterations.get();
        self.mgr_busy_ns += m.busy_ns.get();
        self.frontier_wait_ns += m.frontier_wait_ns.get();
        add_hist(&mut self.slack, &m.slack);
        add_hist(&mut self.backoff_us, &m.backoff_us);
        for q in &m.inq_high_water {
            self.inq_high_water = self.inq_high_water.max(q.get());
        }
        if !hub.shards.is_empty() {
            self.shard_cycles += run.report.exec_cycles;
        }
        for s in &hub.shards {
            self.shard_busy_ns += s.busy_ns.get();
            self.shard_events += s.events.get();
            self.shard_iterations += s.iterations.get();
            add_hist(&mut self.frontier_lag, &s.frontier_lag);
        }
    }

    /// The counter-based per-layer metrics.
    fn publish(&self, v: &mut Values) {
        v.set("sb.block_len_mean", div(self.sb_len.0, self.sb_len.1));
        v.set("sb.exit_window_frac", div(self.sb_exit_window, self.sb_exits));
        v.set("sb.exit_fallback_frac", div(self.sb_exit_fallback, self.sb_exits));
        v.set("core.ipc", div(self.committed, self.core_cycles));
        v.set("core.mispredict_rate", div(self.mispredicts, self.branches));
        v.set("l1d.miss_rate", div(self.l1d.0, self.l1d.1));
        v.set("l1i.miss_rate", div(self.l1i.0, self.l1i.1));
        v.set("utlb.hit_rate", div(self.utlb.0, self.utlb.1));
        v.set("dir.requests_per_kcycle", 1e3 * div(self.dir_requests, self.cycles));
        v.set("manager.global_updates_per_cycle", div(self.global_updates, self.cycles));
        v.set("manager.events_per_iteration", div(self.mgr_events, self.mgr_iterations));
        v.set("manager.busy_ns_per_cycle", div(self.mgr_busy_ns, self.hub_cycles));
        v.set("spsc.out_batch_mean", div(self.out_batch.0, self.out_batch.1));
        v.set("spsc.outq_high_water", self.outq_high_water as f64);
        v.set("spsc.inq_high_water", self.inq_high_water as f64);
        v.set("clock.window_blocks_per_kcycle", 1e3 * div(self.blocks, self.cycles));
        v.set("clock.observed_slack_mean", div(self.slack.0, self.slack.1));
        v.set("shard.busy_ns_per_cycle", div(self.shard_busy_ns, self.shard_cycles));
        v.set("shard.events_per_iteration", div(self.shard_events, self.shard_iterations));
        v.set("shard.frontier_lag_mean", div(self.frontier_lag.0, self.frontier_lag.1));
        v.set("manager.frontier_wait_ns_per_cycle", div(self.frontier_wait_ns, self.hub_cycles));
        v.set("clock.park_ns_per_cycle", div(self.park_ns, self.hub_cycles));
        v.set("clock.wakeups_per_kcycle", 1e3 * div(self.wakeups, self.cycles));
        v.set(
            "manager.occupancy",
            div(self.mgr_busy_ns.saturating_sub(self.frontier_wait_ns), self.hub_wall_ns),
        );
        v.set("manager.backoff_us_mean", div(self.backoff_us.0, self.backoff_us.1));
    }
}

/// Each cell's median of the series `of` selects.
fn medians(ladders: &[Ladder], of: impl Fn(&Ladder) -> &[f64]) -> Vec<f64> {
    ladders.iter().map(|l| median(of(l))).collect()
}

/// The traced run of one simulation workload.
pub fn run(workload: &str, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let cells = matrix(workload).expect("caller checked the workload name");
    let mut rec = Recorder::new();
    ladder_pass(&cells, opts, &mut rec, &mut out);
    crate::write_trace(workload, &rec, &mut out);
    out
}

/// Climb the ladder with every cell for `opts.seconds` (at least once) and
/// publish the ladder, counter and simulated-statistics metrics.
pub fn ladder_pass(cells: &[Cell], opts: &Opts, rec: &mut Recorder, out: &mut Outcome) {
    let mut ladders: Vec<Ladder> = cells.iter().map(|_| Ladder::default()).collect();
    let mut pass = Pass {
        rec,
        out,
        clock: Clock::start(cells[0].backend),
        totals: Totals::default(),
        seed: opts.seed,
    };

    let phase = Instant::now();
    let mut reps = 0;
    while another_pass(reps, 1, phase, opts.seconds) {
        for (i, cell) in cells.iter().enumerate() {
            let group = (reps * cells.len() + i) as u64;
            pass.climb(group, cell, &mut ladders[i]);
        }
        reps += 1;
    }

    let threaded = cells[0].backend == Backend::Threads;
    // Per-cycle costs use each rung's own simulated cycles: a slack run
    // and the sequential run of one kernel differ by the timing error.
    let seq_cycles: Vec<f64> = ladders.iter().map(|l| l.seq_cycles as f64).collect();
    let det_s = medians(&ladders, |l| &l.det.walls_s);
    let det_cycles = medians(&ladders, |l| &l.det.exec_cycles);
    let seq_ns = 1e9 * ratio_of_sums(&medians(&ladders, |l| &l.seq_s), &seq_cycles);
    let det_ns = 1e9 * ratio_of_sums(&det_s, &det_cycles);
    let instrs: Vec<f64> = ladders.iter().map(|l| l.interp_instrs as f64).collect();
    let picks: Vec<f64> = ladders.iter().map(|l| l.det_picks as f64).collect();

    let v = &mut pass.out.values;
    pass.totals.publish(v);
    v.set("host.speed_factor", pass.clock.median_factor());
    v.set("interp.ns_per_instr", 1e9 * ratio_of_sums(&medians(&ladders, |l| &l.interp_s), &instrs));
    v.set("seq.ns_per_cycle", seq_ns);
    v.set("det.ns_per_cycle", det_ns);
    v.set("parallel_overhead.ns_per_cycle", det_ns - seq_ns);
    v.set("det.picks_per_cycle", ratio_of_sums(&picks, &det_cycles));
    let primary_s: f64 = if threaded {
        let thr_s = medians(&ladders, |l| &l.threads.walls_s);
        let thr_ns = 1e9 * ratio_of_sums(&thr_s, &medians(&ladders, |l| &l.threads.exec_cycles));
        v.set("threads.ns_per_cycle", thr_ns);
        v.set("threading_overhead.ns_per_cycle", thr_ns - det_ns);
        thr_s.iter().sum()
    } else {
        det_s.iter().sum()
    };
    let traced_s: f64 = medians(&ladders, |l| &l.traced_s).iter().sum();
    v.set("trace.overhead_pct", 100.0 * (traced_s - primary_s) / primary_s);
    let primary = if threaded { &THREADS } else { &DET };
    v.set("engine.build_ms", median(&pass.rec.durations(primary.build)) / 1e6);
    v.set("engine.report_ms", median(&pass.rec.durations(primary.report)) / 1e6);

    // Timing error of the slack cells against the zero-slack reference
    // (run_sequential ≡ det CC, asserted above and in the gate).
    let primary_runs: Vec<&CellRuns> =
        ladders.iter().map(|l| if threaded { &l.threads } else { &l.det }).collect();
    let errs: Vec<f64> = cells
        .iter()
        .zip(&ladders)
        .zip(&primary_runs)
        .filter(|((c, _), _)| !c.zero_slack())
        .map(|((_, l), r)| {
            (median(&r.exec_cycles) - l.seq_cycles as f64).abs() / l.seq_cycles as f64
        })
        .collect();
    let mean_err = if errs.is_empty() { 0.0 } else { errs.iter().sum::<f64>() / errs.len() as f64 };
    v.set("sim.exec_err_pct", 100.0 * mean_err);
    let (cycles, committed, digest) = simulated_stats(cells, primary_runs.iter().copied());
    v.set("sim.exec_cycles", cycles);
    v.set("sim.committed", committed);
    v.set("sim.fingerprint_digest", digest);

    if threaded {
        // Informational: what slack buys on real threads. One lockstep
        // rep of the shortest S10 cell against that cell's S10 median.
        let s10 = Scheme::BoundedSlack(10);
        let shortest = (0..cells.len()).filter(|&i| cells[i].scheme == s10).min_by(|&a, &b| {
            median(&primary_runs[a].walls_s).total_cmp(&median(&primary_runs[b].walls_s))
        });
        if let Some(i) = shortest {
            let cc = Cell {
                kernel: cells[i].kernel.clone(),
                label: format!("{} as CC", cells[i].label),
                scheme: Scheme::CycleByCycle,
                ..cells[i]
            };
            let top = pass.rec.open("cell", None, u64::MAX);
            let run = pass.engine_rung(top, u64::MAX, &cc, Backend::Threads, &THREADS);
            pass.rec.close(top);
            pass.out.check(output_ok(&cc, &run.report), || format!("{} output", cc.label));
            pass.out.values.set(
                "scheme.slack_speedup_s10_vs_cc",
                run.wall_s / median(&primary_runs[i].walls_s),
            );
        }
    }

    pass.out.notes.push(format!("{} cells x {reps} ladder reps", cells.len()));
}
