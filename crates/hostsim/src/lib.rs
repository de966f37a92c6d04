//! # sk-hostsim — a deterministic virtual host for speedup studies
//!
//! The paper's Figure 8 measures wall-clock speedups of SlackSim on a
//! 2×quad-core Xeon host. This reproduction runs inside a container with
//! **one** physical CPU, where parallel wall-clock speedup is physically
//! unobtainable — so, per the substitution policy in DESIGN.md §2, the
//! host itself is simulated.
//!
//! [`VirtualHost`] is a discrete-event model of `H` host cores executing
//! the `N` core threads plus the simulation-manager thread:
//!
//! * each core thread replays a **work trace** — host-work units per
//!   simulated cycle — recorded from a real engine run
//!   (`TargetConfig::record_trace`), so per-thread load imbalance is the
//!   real workload's imbalance;
//! * the scheme's window rule (`max_local = f(global)`) gates the replay
//!   exactly as `sk_core::clock::ClockBoard` gates the real engine, so
//!   each scheme's *blocking structure* is the real one;
//! * parking, manager iterations, serial wake-issuance and context
//!   switches are charged through a calibratable [`CostModel`].
//!
//! The reported number is host time; speedups are ratios against the
//! H = 1 cycle-by-cycle run, mirroring the paper's baseline ("all threads
//! executed by one single host core").

pub mod gantt;

use sk_core::Scheme;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Host-cost constants, in the same (arbitrary) unit as the work traces.
///
/// The defaults are calibrated so that the paper's target configuration
/// lands in the bands of Figure 8 (see EXPERIMENTS.md); they correspond to
/// a host where one simulated OoO-core cycle costs ~1–2 µs and a
/// futex/condvar round trip a few µs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Multiplier applied to trace work units.
    pub work_unit: f64,
    /// Cost of dispatching a thread onto a host core (context switch).
    pub ctx_switch: f64,
    /// Fixed cost of one manager iteration (drain + global + windows).
    pub mgr_base: f64,
    /// Serial cost, inside a manager iteration, of waking one parked core.
    pub wake_issue: f64,
    /// Latency from wake issuance until the core thread runs again.
    pub wake_latency: f64,
    /// Timeslice: max work units a thread may run before re-queueing.
    pub timeslice: f64,
    /// Manager cost per OutQ event processed (L2/directory/sync work).
    /// The manager is one thread; this is what saturates it at high H.
    pub mgr_event: f64,
    /// Cache-thrash inflation of per-cycle work when more simulation
    /// threads than host cores share each core's cache hierarchy: the
    /// work multiplier is `1 + thrash·(threads/H − 1)/(threads − 1)`
    /// (1 + thrash at H = 1, fading to 1 when every thread has a core).
    pub thrash: f64,
    /// How far (simulated cycles) a core thread can run past the
    /// manager's event-processing frontier before it stalls for replies
    /// (MSHR/ROB-bounded). This is what keeps even unbounded slack from
    /// outrunning the single manager thread.
    pub reply_horizon: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibration anchor: one simulated OoO core-cycle averages ~10
        // work units ~= 4-5 us on the paper's 1.6 GHz Xeon; a context
        // switch / condvar round-trip is 1-3 us, a manager iteration a few
        // us. See EXPERIMENTS.md for the resulting Figure 8 bands.
        CostModel {
            work_unit: 1.0,
            ctx_switch: 2.0,
            mgr_base: 4.0,
            wake_issue: 2.0,
            wake_latency: 64.0,
            timeslice: 4000.0,
            mgr_event: 55.0,
            thrash: 0.5,
            reply_horizon: 24,
        }
    }
}

/// Outcome of one virtual-host run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostRun {
    /// Total host time to finish the simulation (model units).
    pub host_time: f64,
    /// Number of times a core thread parked at its window.
    pub blocks: u64,
    /// Manager iterations executed.
    pub mgr_bursts: u64,
    /// Thread dispatches (≥ one context switch each).
    pub dispatches: u64,
}

impl HostRun {
    /// Speedup of this run against a baseline host time.
    pub fn speedup_vs(&self, baseline: &HostRun) -> f64 {
        baseline.host_time / self.host_time
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    /// In the run queue.
    Ready,
    /// Executing on a host core (or wake in flight).
    Running,
    /// Parked at its window, waiting for a manager wake.
    Parked,
    /// Trace exhausted.
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Token {
    /// A core thread's burst completes.
    CoreDone(usize),
    /// The manager iteration completes.
    MgrDone,
    /// A woken thread arrives in the run queue.
    Arrive(usize),
}

/// Event key: (fixed-point time, seq, token) for fully deterministic order.
type Ev = (u64, u64, Token);

/// The virtual host.
pub struct VirtualHost {
    /// Number of host cores.
    pub h: usize,
    /// Cost constants.
    pub cost: CostModel,
}

const TIME_SCALE: f64 = 1024.0; // fixed-point host time for determinism

fn compute_global(local: &[u64], state: &[ThreadState], prev: u64) -> u64 {
    let min = local
        .iter()
        .zip(state)
        .filter(|(_, s)| **s != ThreadState::Finished)
        .map(|(l, _)| *l)
        .min()
        .unwrap_or(prev);
    min.max(prev)
}

impl VirtualHost {
    /// A virtual host with `h` cores and the default cost model.
    pub fn new(h: usize) -> Self {
        VirtualHost { h, cost: CostModel::default() }
    }

    /// Replay `traces` under `scheme` with a default event rate of 0.06
    /// events per core per cycle (roughly what the real engine measures
    /// on the paper kernels).
    pub fn run(&self, traces: &[Vec<u16>], scheme: Scheme) -> HostRun {
        self.run_with_events(traces, scheme, 0.06 * traces.len() as f64)
    }

    /// Replay `traces` (one per target core, one entry per simulated
    /// cycle) under `scheme`. `ev_rate` is the average number of OutQ
    /// events the manager processes per simulated cycle (all cores
    /// combined), taken from the real run. Returns the modeled host time.
    pub fn run_with_events(&self, traces: &[Vec<u16>], scheme: Scheme, ev_rate: f64) -> HostRun {
        assert!(self.h >= 1);
        let n = traces.len();
        assert!(n >= 1);

        let mut stats = HostRun::default();
        let mut state = vec![ThreadState::Ready; n];
        let mut local = vec![0u64; n];
        let end: Vec<u64> = traces.iter().map(|t| t.len() as u64).collect();
        let mut global: u64 = 0;
        let mut max_local = scheme.window(0);

        let mut events: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut runq: VecDeque<usize> = (0..n).collect();
        let mut free_cores = self.h;
        let mut mgr_running = false;
        let mut mgr_signal = false;
        let mut now: u64 = 0;
        let mut finished = 0usize;
        // Global time already covered by manager event processing.
        let mut mgr_g: u64 = 0;

        let to_fix = |t: f64| -> u64 { (t * TIME_SCALE).round() as u64 };
        // Cache-thrash work inflation (see CostModel::thrash).
        let threads = (n + 1) as f64;
        let over = (threads / self.h as f64 - 1.0).max(0.0);
        let work_mult =
            if threads > 1.0 { 1.0 + self.cost.thrash * over / (threads - 1.0) } else { 1.0 };

        macro_rules! dispatch {
            () => {
                while free_cores > 0 {
                    // The manager takes priority for a core when signalled:
                    // it is the highest-leverage thread in the real engine.
                    if mgr_signal && !mgr_running {
                        mgr_signal = false;
                        mgr_running = true;
                        free_cores -= 1;
                        // Manager burst: base + serial wake issuance for
                        // every parked core it will release.
                        let g_next = compute_global(&local, &state, global);
                        let w_next = scheme
                            .window(g_next)
                            .max(max_local)
                            .min(g_next.saturating_add(1).max(mgr_g) + self.cost.reply_horizon);
                        let wakes = (0..n)
                            .filter(|&i| state[i] == ThreadState::Parked && local[i] < w_next)
                            .count() as f64;
                        // Event processing: the manager serially handles
                        // every event generated since its last iteration.
                        let dg = g_next.saturating_sub(mgr_g) as f64;
                        mgr_g = g_next.max(mgr_g);
                        let dur = self.cost.mgr_base
                            + wakes * self.cost.wake_issue
                            + dg * ev_rate * self.cost.mgr_event;
                        seq += 1;
                        events.push(Reverse((now + to_fix(dur), seq, Token::MgrDone)));
                        stats.mgr_bursts += 1;
                        continue;
                    }
                    let Some(tid) = runq.pop_front() else { break };
                    debug_assert_eq!(state[tid], ThreadState::Ready);
                    free_cores -= 1;
                    state[tid] = ThreadState::Running;
                    stats.dispatches += 1;
                    // Burst: run cycles until the window edge, trace end,
                    // or timeslice exhaustion.
                    let mut work = self.cost.ctx_switch;
                    let mut c = local[tid];
                    let eff_max = max_local.min(mgr_g + self.cost.reply_horizon);
                    while c < end[tid]
                        && c < eff_max
                        && work < self.cost.ctx_switch + self.cost.timeslice
                    {
                        work += traces[tid][c as usize] as f64 * self.cost.work_unit * work_mult;
                        c += 1;
                    }
                    local[tid] = c;
                    seq += 1;
                    events.push(Reverse((now + to_fix(work), seq, Token::CoreDone(tid))));
                }
            };
        }

        dispatch!();
        while finished < n {
            let Some(Reverse((t, _, tok))) = events.pop() else {
                // Nothing scheduled but threads remain: force a manager
                // iteration (liveness backstop, mirrors the engine's
                // manager timeout).
                mgr_signal = true;
                dispatch!();
                continue;
            };
            now = t;
            match tok {
                Token::CoreDone(tid) => {
                    free_cores += 1;
                    if local[tid] >= end[tid] {
                        state[tid] = ThreadState::Finished;
                        finished += 1;
                        mgr_signal = true; // manager recomputes global
                    } else if local[tid] >= max_local.min(mgr_g + self.cost.reply_horizon) {
                        state[tid] = ThreadState::Parked;
                        stats.blocks += 1;
                        mgr_signal = true;
                    } else {
                        // Timeslice expired: back of the queue.
                        state[tid] = ThreadState::Ready;
                        runq.push_back(tid);
                        mgr_signal = true;
                    }
                    // Heartbeat: even with no one blocked, the manager must
                    // keep consuming the event stream (it competes for a
                    // host core — the SU/S100 capacity effect).
                    if compute_global(&local, &state, global) > mgr_g + 8 {
                        mgr_signal = true;
                    }
                    dispatch!();
                }
                Token::MgrDone => {
                    mgr_running = false;
                    free_cores += 1;
                    global = compute_global(&local, &state, global);
                    let new_window = scheme.window(global);
                    if new_window > max_local {
                        max_local = new_window;
                    }
                    // Wake parked threads whose window opened (scheme
                    // window or the manager's reply frontier).
                    let eff = max_local.min(mgr_g + self.cost.reply_horizon);
                    for i in 0..n {
                        if state[i] == ThreadState::Parked && local[i] < eff {
                            state[i] = ThreadState::Running; // wake in flight
                            seq += 1;
                            events.push(Reverse((
                                now + to_fix(self.cost.wake_latency),
                                seq,
                                Token::Arrive(i),
                            )));
                        }
                    }
                    dispatch!();
                }
                Token::Arrive(tid) => {
                    state[tid] = ThreadState::Ready;
                    runq.push_back(tid);
                    dispatch!();
                }
            }
        }
        stats.host_time = now as f64 / TIME_SCALE;
        stats
    }

    /// The paper's baseline: cycle-by-cycle on one host core.
    pub fn baseline(traces: &[Vec<u16>], cost: CostModel) -> HostRun {
        VirtualHost { h: 1, cost }.run(traces, Scheme::CycleByCycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform traces: every core costs `w` per cycle for `cycles` cycles.
    fn uniform(n: usize, cycles: usize, w: u16) -> Vec<Vec<u16>> {
        vec![vec![w; cycles]; n]
    }

    /// Jittered traces: deterministic per-cycle imbalance across cores.
    fn jittered(n: usize, cycles: usize) -> Vec<Vec<u16>> {
        (0..n).map(|i| (0..cycles).map(|c| 6 + ((c * 7 + i * 13) % 11) as u16).collect()).collect()
    }

    #[test]
    fn more_host_cores_rarely_slower() {
        // Fine-sync schemes can mildly regress with more host cores (the
        // manager preempts differently) — the paper's own CC curve is
        // nearly flat. Allow a 35% tolerance; coarse schemes must scale.
        let traces = jittered(8, 400);
        for scheme in [Scheme::CycleByCycle, Scheme::Quantum(10), Scheme::BoundedSlack(9)] {
            let t2 = VirtualHost::new(2).run(&traces, scheme).host_time;
            let t4 = VirtualHost::new(4).run(&traces, scheme).host_time;
            let t8 = VirtualHost::new(8).run(&traces, scheme).host_time;
            assert!(t2 >= t4 * 0.95, "{scheme}: t2 {t2} vs t4 {t4}");
            assert!(t4 >= t8 * 0.65, "{scheme}: t4 {t4} vs t8 {t8}");
        }
        let t2 = VirtualHost::new(2).run(&traces, Scheme::Unbounded).host_time;
        let t8 = VirtualHost::new(8).run(&traces, Scheme::Unbounded).host_time;
        assert!(t2 > t8, "unbounded must scale: {t2} vs {t8}");
    }

    #[test]
    fn slack_reduces_blocking() {
        // Blocking counts both window blocks and reply-frontier stalls;
        // the window component shrinks with slack, so CC dominates all.
        let traces = jittered(8, 400);
        let host = VirtualHost::new(8);
        let cc = host.run(&traces, Scheme::CycleByCycle);
        let q10 = host.run(&traces, Scheme::Quantum(10));
        let s9 = host.run(&traces, Scheme::BoundedSlack(9));
        let su = host.run(&traces, Scheme::Unbounded);
        assert!(cc.blocks > 2 * q10.blocks, "CC blocks {} vs Q10 {}", cc.blocks, q10.blocks);
        assert!(cc.blocks > 2 * s9.blocks, "CC blocks {} vs S9 {}", cc.blocks, s9.blocks);
        assert!(cc.blocks > 2 * su.blocks, "CC blocks {} vs SU {}", cc.blocks, su.blocks);
    }

    #[test]
    fn figure8_ordering_holds_on_jittered_traces() {
        let traces = jittered(8, 600);
        let base = VirtualHost::baseline(&traces, CostModel::default());
        let host = VirtualHost::new(8);
        let s = |sch: Scheme| host.run(&traces, sch).speedup_vs(&base);
        let cc = s(Scheme::CycleByCycle);
        let q10 = s(Scheme::Quantum(10));
        let s9 = s(Scheme::BoundedSlack(9));
        let s100 = s(Scheme::BoundedSlack(100));
        let su = s(Scheme::Unbounded);
        assert!(cc > 1.0, "parallel CC beats 1-core baseline: {cc}");
        assert!(q10 > cc * 1.3, "Q10 {q10} well above CC {cc}");
        assert!(s9 > q10 * 0.9, "S9 {s9} comparable-or-better than Q10 {q10}");
        assert!(s100 >= s9, "S100 {s100} >= S9 {s9}");
        assert!(su >= s100 * 0.99, "SU {su} >= S100 {s100}");
    }

    #[test]
    fn baseline_equals_h1_cc() {
        let traces = uniform(4, 100, 10);
        let a = VirtualHost::baseline(&traces, CostModel::default());
        let b = VirtualHost { h: 1, cost: CostModel::default() }.run(&traces, Scheme::CycleByCycle);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_replay() {
        let traces = jittered(8, 300);
        let host = VirtualHost::new(4);
        let a = host.run(&traces, Scheme::BoundedSlack(9));
        let b = host.run(&traces, Scheme::BoundedSlack(9));
        assert_eq!(a, b);
    }

    #[test]
    fn unbounded_on_balanced_traces_scales_with_h() {
        let traces = uniform(8, 500, 10);
        let t1 = VirtualHost::new(1).run(&traces, Scheme::Unbounded).host_time;
        let t8 = VirtualHost::new(8).run(&traces, Scheme::Unbounded).host_time;
        let scaling = t1 / t8;
        // Sublinear: the single manager thread's event processing bounds
        // even unbounded slack (the paper's SU tops out at ~6.8 on 8
        // cores for the same reason).
        assert!(scaling > 3.0, "balanced unbounded run should scale: {scaling}");
    }

    #[test]
    fn empty_and_single_cycle_traces() {
        let r = VirtualHost::new(2).run(&[vec![5u16], vec![]], Scheme::CycleByCycle);
        assert!(r.host_time > 0.0);
    }

    #[test]
    fn manager_event_load_slows_the_run() {
        // More events per cycle = more serial manager work = slower.
        let traces = uniform(8, 300, 10);
        let host = VirtualHost::new(8);
        let light = host.run_with_events(&traces, Scheme::BoundedSlack(9), 0.1);
        let heavy = host.run_with_events(&traces, Scheme::BoundedSlack(9), 2.0);
        assert!(
            heavy.host_time > light.host_time * 1.2,
            "heavy {} vs light {}",
            heavy.host_time,
            light.host_time
        );
    }

    #[test]
    fn reply_horizon_bounds_unbounded_slack() {
        // Even SU cannot run past the manager's frontier: host time grows
        // when the horizon tightens.
        let traces = jittered(8, 400);
        let tight = CostModel { reply_horizon: 4, ..CostModel::default() };
        let loose = CostModel { reply_horizon: 4096, ..CostModel::default() };
        let t_tight = VirtualHost { h: 8, cost: tight }.run(&traces, Scheme::Unbounded).host_time;
        let t_loose = VirtualHost { h: 8, cost: loose }.run(&traces, Scheme::Unbounded).host_time;
        assert!(t_tight >= t_loose, "tight {t_tight} vs loose {t_loose}");
    }

    #[test]
    fn thrash_inflates_low_core_counts_only() {
        let traces = uniform(8, 200, 10);
        let hot = CostModel { thrash: 4.0, ..CostModel::default() };
        let cold = CostModel { thrash: 0.0, ..CostModel::default() };
        // At H=1 the thrash multiplier bites hard...
        let t1_hot = VirtualHost { h: 1, cost: hot }.run(&traces, Scheme::Unbounded).host_time;
        let t1_cold = VirtualHost { h: 1, cost: cold }.run(&traces, Scheme::Unbounded).host_time;
        assert!(t1_hot > t1_cold * 2.0, "{t1_hot} vs {t1_cold}");
        // ...while with a core per thread it vanishes.
        let t9_hot = VirtualHost { h: 9, cost: hot }.run(&traces, Scheme::Unbounded).host_time;
        let t9_cold = VirtualHost { h: 9, cost: cold }.run(&traces, Scheme::Unbounded).host_time;
        assert!((t9_hot - t9_cold).abs() / t9_cold < 0.05, "{t9_hot} vs {t9_cold}");
    }
}
