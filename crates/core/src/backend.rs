//! Execution backends: the threaded engine and the deterministic
//! single-threaded schedule explorer.
//!
//! The parallel engine ([`crate::engine`]) runs the cores, the manager and
//! the shards on a pool of worker threads ([`crate::pool`]); host timing
//! picks the interleaving, so two runs of a racy scheme differ.
//! [`DetEngine`] runs the *same* cores and the *same* manager iteration
//! body ([`Engine::manager_iter`] via [`CoreSim::run_step`]) as
//! cooperative tasks on one thread, with every "who steps next" decision
//! delegated to a seedable [`Interleaver`]:
//!
//! * same seed ⇒ bit-identical simulation, including every violation
//!   counter — a failing schedule is a replayable artifact;
//! * different seeds ⇒ different *legal* interleavings of the same run,
//!   turning the violation tracker and the conformance suite into a
//!   schedule-fuzzing oracle (see `--det-schedules` in the CLI);
//! * the conservative schemes (CC, Q, L) are schedule-
//!   independent by construction, so any seed must reproduce the threaded
//!   run byte for byte — asserted by `tests/conformance.rs`.
//!
//! Blocking points are the same on both: `run_step` publishes the parked
//! state on the [`ClockBoard`] and returns, and the scheduler stops
//! picking that core until the manager's reply (or a window raise) makes
//! it runnable again. When a fixed number of picks in a row moved nothing,
//! the scheduler runs the quiescence rule both backends share
//! ([`Engine::forced_round`]): a forced manager body and shard round, then
//! either a workload deadlock or the *virtual timeout* that resumes every
//! waiting core ([`ClockBoard::unpark_all_waiting`]).
//!
//! So is the segment: both schedulers are a pick loop between
//! `Engine::begin_segment` and `Engine::end_segment`, so a det run stops at
//! a checkpoint safe-point or on the cancel token exactly as a threaded one
//! does, and a snapshot taken on one scheduler resumes on the other.

use crate::clock::{ClockBoard, CoreState};
use crate::config::TargetConfig;
use crate::core_thread::StepOutcome;
use crate::engine::{Engine, MgrState, MgrVerdict, RunOutcome, Stall};
use crate::scheme::Scheme;
use crate::shard::ShardSignal;
use crate::stats::SimReport;
use sk_det::{Interleaver, PickHook};
use sk_isa::Program;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which machinery executes a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecBackend {
    /// The paper's execution model on a pool of min(host CPUs, cores)
    /// worker threads ([`crate::pool`]; the default).
    Threads,
    /// All cores and the manager as cooperative tasks on one thread,
    /// interleaved by a seeded PRNG ([`DetEngine`]).
    Deterministic {
        /// Schedule seed: same seed ⇒ bit-identical run.
        seed: u64,
    },
}

impl ExecBackend {
    /// Run `program` under `scheme` on this backend.
    pub fn run(self, program: &Program, scheme: Scheme, cfg: &TargetConfig) -> SimReport {
        match self {
            ExecBackend::Threads => crate::engine::run_parallel(program, scheme, cfg),
            ExecBackend::Deterministic { seed } => run_det(program, scheme, cfg, seed),
        }
    }
}

/// Consecutive fruitless scheduler picks (no core progressed, manager
/// ingested nothing) before the scheduler runs the forced round
/// ([`Engine::forced_round`]). Scaled by task count at runtime; the
/// constant only sets the per-task factor.
const STALL_FACTOR: usize = 4;

/// The scheduler's runnable set, kept up to date from the transitions the
/// loop itself observes instead of being rebuilt from the board before
/// every pick. Membership is exactly what a rebuild would find:
///
/// * core `i`, unless its step returned `Stopped`/`Finished` or its board
///   state is a parked one — and, with sharded managers, unless it sits at
///   its window edge (it cannot progress until the coordinator raises the
///   window, and at 64+ cores those wasted picks dominate a CC schedule;
///   unsharded sets keep window-edge cores, as they always have, so
///   recorded schedule logs replay);
/// * the manager, always;
/// * shard `s` while its signal is pending.
///
/// The interleaver's index maps onto cores ascending, then the manager,
/// then shards ascending, so same seed ⇒ same task at every pick.
struct RunSet {
    /// Runnable cores, ascending.
    cores: Vec<usize>,
    /// Core `i` is permanently out of the schedule.
    done: Vec<bool>,
    /// Signalled shards, ascending.
    shards: Vec<usize>,
    sharded: bool,
}

impl RunSet {
    fn new(n: usize, sharded: bool) -> RunSet {
        RunSet { cores: Vec::with_capacity(n), done: vec![false; n], shards: Vec::new(), sharded }
    }

    fn len(&self) -> usize {
        self.cores.len() + 1 + self.shards.len()
    }

    fn wants(&self, board: &ClockBoard, i: usize) -> bool {
        !self.done[i]
            && matches!(board.state(i), CoreState::Running | CoreState::Blocked)
            && (!self.sharded || board.may_advance(i, board.local(i)))
    }

    /// Core `i` stepped, was woken, or had its window raised.
    fn refresh_core(&mut self, board: &ClockBoard, i: usize) {
        match (self.cores.binary_search(&i), self.wants(board, i)) {
            (Ok(pos), false) => {
                self.cores.remove(pos);
            }
            (Err(pos), true) => self.cores.insert(pos, i),
            _ => {}
        }
    }

    /// Anything may have moved (a window grant under sharding, a forced
    /// round, the virtual timeout).
    fn refresh_all(&mut self, board: &ClockBoard) {
        self.cores.clear();
        for i in 0..self.done.len() {
            if self.wants(board, i) {
                self.cores.push(i);
            }
        }
    }

    /// Re-poll the shard signals (one relaxed-cost load each).
    fn refresh_shards(&mut self, signals: &[Arc<ShardSignal>]) {
        self.shards.clear();
        self.shards.extend((0..signals.len()).filter(|&s| signals[s].pending()));
    }
}

/// The deterministic schedule-exploration backend.
///
/// Wraps an [`Engine`] and runs its segments on the calling thread.
/// No host threads are spawned; all cross-task interaction goes through
/// the same SPSC queues and [`ClockBoard`](crate::clock::ClockBoard) states
/// as the threaded backend, so the simulated outcome differs only where
/// the *schedule* is allowed to matter (racy schemes' violation counts).
pub struct DetEngine {
    engine: Engine,
    il: Interleaver,
    /// Picks whose dispatch was elided (see [`DetEngine::futile_picks`]).
    futile_picks: u64,
}

impl DetEngine {
    /// Wire up a deterministic simulation of `program`.
    pub fn new(program: &Program, scheme: Scheme, cfg: &TargetConfig, seed: u64) -> DetEngine {
        DetEngine::from_engine(Engine::new(program, scheme, cfg), seed)
    }

    /// Adopt an existing engine (e.g. one restored from a snapshot).
    /// Sharded memory managers run as additional cooperative tasks.
    pub fn from_engine(engine: Engine, seed: u64) -> DetEngine {
        DetEngine { engine, il: Interleaver::from_seed(seed), futile_picks: 0 }
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.il.seed()
    }

    /// Scheduling decisions made so far.
    pub fn picks(&self) -> u64 {
        self.il.picks()
    }

    /// Picks that cost a draw and nothing else: the task picked was a core
    /// at a closed window or a manager with no news, whose dispatch
    /// provably changes no state, so the scheduler booked the fruitless
    /// pick without making the call. Such a pick is *not* an iteration:
    /// [`EngineStats::global_updates`](crate::EngineStats::global_updates)
    /// and the `manager.iterations` telemetry counter count manager
    /// bodies that ran.
    pub fn futile_picks(&self) -> u64 {
        self.futile_picks
    }

    /// Running hash of all scheduling decisions: two runs with equal
    /// hashes (and pick counts) took the identical schedule.
    pub fn decision_hash(&self) -> u64 {
        self.il.decision_hash()
    }

    /// Record the exact pick log for later [`DetEngine::replay`].
    pub fn record_schedule(&mut self) {
        self.il.record();
    }

    /// The recorded pick log, if recording was enabled.
    pub fn recorded_schedule(&self) -> Option<&[u32]> {
        self.il.recorded()
    }

    /// Replay a previously recorded pick log (takes priority over the
    /// seed's RNG while entries remain).
    pub fn replay(&mut self, log: Vec<u32>) {
        self.il.replay(log);
    }

    /// Install a test-only pick override (see [`sk_det::PickHook`]).
    pub fn set_pick_hook(&mut self, hook: PickHook) {
        self.il.set_pick_hook(hook);
    }

    /// The wrapped engine (e.g. for `inject_window_bug` in tests).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Run the simulation to its natural end (workload exit, stop
    /// condition, max cycles, or workload deadlock), or until the cancel
    /// token is raised: [`DetEngine::run_until`]`(None)`.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(None)
    }

    /// Run one segment on this thread, exactly as [`Engine::run_until`]
    /// runs one on the worker pool: the same checkpoint limit and
    /// safe-point, the same cancel token (looked at before every manager
    /// body and forced round), the same teardown. A snapshot taken at its
    /// [`RunOutcome::CheckpointReady`] resumes on either scheduler.
    pub fn run_until(&mut self, until: Option<u64>) -> RunOutcome {
        let Some(t0) = self.engine.begin_segment(until) else { return RunOutcome::Finished };
        let outcome = self.pick_loop(until);
        self.engine.end_segment(outcome, t0)
    }

    /// The seeded pick loop of one segment. It is change-driven. Every
    /// scheduling decision still costs one interleaver draw from a runnable
    /// set of exactly the size a rebuild from the board would give, so pick
    /// counts, decision hashes and recorded logs do not depend on any of
    /// this; what the loop avoids is work that cannot change state:
    ///
    /// * the runnable set is edited when a task's step, a manager body's
    ///   wake-ups or grants, or a forced round moved something
    ///   ([`RunSet`]), never rebuilt per pick;
    /// * a picked core whose window is closed is not stepped
    ///   ([`CoreSim::window_closed`](crate::core_thread::CoreSim::window_closed):
    ///   the step would return `AtWindow` having touched nothing);
    /// * a picked manager whose last body settled
    ///   ([`MgrVerdict::Continue`]) and that has had no news since — no
    ///   core raised a change flag on the board, no shard ran — is not
    ///   iterated (the body would re-read the same inputs and do nothing).
    ///
    /// An elided dispatch is booked as what it would have returned: a
    /// fruitless pick, one step closer to the forced round.
    fn pick_loop(&mut self, until: Option<u64>) -> RunOutcome {
        let n = self.engine.cfg.n_cores;
        let board = self.engine.board.clone();
        let signals = self.engine.shard_signals.clone();
        let cancel = self.engine.cancel_token();
        let obs = self.engine.metrics().cloned();
        let obs = obs.as_deref();
        let mut st = MgrState::new(n, self.engine.ordered_sharded());
        let mut set = RunSet::new(n, !signals.is_empty());
        set.refresh_all(&board);
        set.refresh_shards(&signals);
        // The manager's last body settled and no shard has run since; with
        // no change flag up on the board either, its next body is a no-op.
        let mut mgr_settled = false;
        // Fruitless picks since the last progress; `stall_after` fruitless
        // picks trigger one forced round.
        let mut stall = 0usize;
        let stall_after = STALL_FACTOR * (n + 1);
        // The quiescence rule's count of forced rounds since progress.
        let mut quiet = Stall::default();

        loop {
            let k = self.il.pick(set.len());
            let progressed = if let Some(&pick) = set.cores.get(k) {
                if self.engine.cores[pick].window_closed(&board) {
                    // Unsharded sets keep a core at its window edge; it
                    // answers `AtWindow` until the manager raises the
                    // window, so the answer is booked without the call.
                    self.futile_picks += 1;
                    false
                } else {
                    let progressed = match self.engine.cores[pick].run_step(&board) {
                        StepOutcome::Progressed => true,
                        StepOutcome::Stopped | StepOutcome::Finished => {
                            set.done[pick] = true;
                            true
                        }
                        StepOutcome::Idle
                        | StepOutcome::SyncBlocked
                        | StepOutcome::MemBlocked
                        | StepOutcome::AtWindow => false,
                    };
                    // A step moves only its own core's board state.
                    set.refresh_core(&board, pick);
                    progressed
                }
            } else if k == set.cores.len() {
                if mgr_settled && !board.any_dirty() {
                    self.futile_picks += 1;
                    if let Some(o) = obs {
                        o.manager.picks_elided.inc();
                    }
                    false
                } else if cancel.load(Ordering::Relaxed) {
                    return RunOutcome::Cancelled;
                } else {
                    match self.engine.manager_body(until, &mut st) {
                        MgrVerdict::Finish => return RunOutcome::Finished,
                        MgrVerdict::CheckpointReady => return RunOutcome::CheckpointReady,
                        MgrVerdict::Continue { ingested, granted, settled, .. } => {
                            // The body moved the cores it woke and, when it
                            // raised the windows, under sharding every core
                            // that sat at its edge.
                            if granted && set.sharded {
                                set.refresh_all(&board);
                            } else {
                                for &c in self.engine.uncore.woken() {
                                    set.refresh_core(&board, c);
                                }
                            }
                            mgr_settled = settled;
                            ingested > 0
                        }
                    }
                }
            } else {
                // Signal-gated: cores and the coordinator raise the
                // shard's pending flag on every state change it could
                // act on (event flush, window grant, frontier clamp), so
                // an unsignalled shard has nothing to do and is not in
                // the set. Re-raise after a productive iterate so
                // residual work (held-back heap events) gets another look.
                let si = set.shards[k - set.cores.len() - 1];
                let progressed = signals[si].take() && self.engine.shard_body(si);
                if progressed {
                    signals[si].signal();
                }
                // Its frontier, the replies it delivered and the cores it
                // woke are all news to the manager.
                mgr_settled = false;
                for &c in self.engine.shards[si].woken() {
                    set.refresh_core(&board, c);
                }
                progressed
            };
            // Whatever ran may have raised shard signals (a core's event
            // flush, the manager's frontier clamp) or consumed one.
            set.refresh_shards(&signals);

            if progressed {
                stall = 0;
                quiet = Stall::default();
                continue;
            }
            stall += 1;
            if stall < stall_after {
                continue;
            }
            // Nothing has moved for a full round of picks.
            stall = 0;
            if cancel.load(Ordering::Relaxed) {
                return RunOutcome::Cancelled;
            }
            let end = self.engine.forced_round(until, &mut st, &mut quiet);
            if let Some(outcome) = end {
                return outcome;
            }
            // Rare enough to resynchronise wholesale.
            mgr_settled = false;
            set.refresh_all(&board);
            set.refresh_shards(&signals);
        }
    }

    /// Finalize and assemble the run's report.
    pub fn into_report(self) -> SimReport {
        self.engine.into_report()
    }
}

/// Run `program` deterministically under `scheme` with schedule `seed`:
/// [`DetEngine::new`] + [`DetEngine::run`] + [`DetEngine::into_report`].
pub fn run_det(program: &Program, scheme: Scheme, cfg: &TargetConfig, seed: u64) -> SimReport {
    let mut det = DetEngine::new(program, scheme, cfg, seed);
    det.run();
    det.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_isa::{ProgramBuilder, Reg, Syscall};

    /// Two threads ping a lock-protected counter; thread 0 prints the sum.
    fn counter_program(n: usize, iters: i64) -> Program {
        let a0 = Reg::arg(0);
        let a1 = Reg::arg(1);
        let mut b = ProgramBuilder::new();
        let counter = b.zeros("counter", 1);
        let worker = b.new_label("worker");
        let main = b.here("main");
        b.li(a0, 0);
        b.sys(Syscall::InitLock);
        b.li(a0, 1);
        b.li(a1, n as i64);
        b.sys(Syscall::InitBarrier);
        for _ in 1..n {
            b.la_text(a0, worker);
            b.li(a1, 0);
            b.sys(Syscall::Spawn);
        }
        b.j(worker);
        b.bind(worker);
        let t_iter = Reg::saved(0);
        let t_addr = Reg::saved(1);
        let t_val = Reg::tmp(1);
        let t_inc = Reg::saved(2);
        b.li(t_iter, iters);
        b.li(t_addr, counter as i64);
        b.sys(Syscall::GetTid);
        b.addi(t_inc, a0, 1);
        let loop_top = b.here("loop");
        b.li(a0, 0);
        b.sys(Syscall::Lock);
        b.ld(t_val, t_addr, 0);
        b.add(t_val, t_val, t_inc);
        b.st(t_val, t_addr, 0);
        b.li(a0, 0);
        b.sys(Syscall::Unlock);
        b.addi(t_iter, t_iter, -1);
        b.bne(t_iter, Reg::ZERO, loop_top);
        b.li(a0, 1);
        b.sys(Syscall::Barrier);
        let done = b.new_label("done");
        b.sys(Syscall::GetTid);
        b.bne(a0, Reg::ZERO, done);
        b.ld(a0, t_addr, 0);
        b.sys(Syscall::PrintInt);
        b.bind(done);
        b.sys(Syscall::Exit);
        b.entry(main);
        b.build().unwrap()
    }

    fn cfg(n: usize) -> TargetConfig {
        let mut cfg = TargetConfig::small(n);
        cfg.max_cycles = 5_000_000;
        cfg
    }

    #[test]
    fn det_runs_a_locked_counter_to_completion() {
        let p = counter_program(3, 4);
        let r = run_det(&p, Scheme::CycleByCycle, &cfg(3), 1);
        assert_eq!(r.printed(), vec![(0, (1 + 2 + 3) * 4)]);
        assert_eq!(r.violations.total(), 0);
    }

    #[test]
    fn same_seed_is_bit_identical_including_schedule() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        let mut a = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 7);
        let mut b = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 7);
        a.run();
        b.run();
        assert_eq!(a.picks(), b.picks());
        assert_eq!(a.decision_hash(), b.decision_hash());
        assert_eq!(a.into_report().fingerprint(), b.into_report().fingerprint());
    }

    #[test]
    fn different_seeds_take_different_schedules() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        let mut a = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 1);
        let mut b = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 2);
        a.run();
        b.run();
        // The simulated outcome may or may not coincide; the schedules
        // themselves must differ for a multi-core run of this length.
        assert_ne!(a.decision_hash(), b.decision_hash());
        // …and both must still compute the right answer.
        assert_eq!(a.into_report().printed(), vec![(0, 24)]);
        assert_eq!(b.into_report().printed(), vec![(0, 24)]);
    }

    #[test]
    fn det_cc_matches_threaded_cc_byte_for_byte() {
        let p = counter_program(4, 3);
        let c = cfg(4);
        let threaded = crate::engine::run_parallel(&p, Scheme::CycleByCycle, &c);
        for seed in [0u64, 3, 99] {
            let det = run_det(&p, Scheme::CycleByCycle, &c, seed);
            assert_eq!(det.fingerprint(), threaded.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn recorded_schedule_replays_identically() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        let mut a = DetEngine::new(&p, Scheme::Unbounded, &c, 5);
        a.record_schedule();
        a.run();
        let log = a.recorded_schedule().unwrap().to_vec();
        let hash = a.decision_hash();
        let fp = a.into_report().fingerprint();

        // Replay under a different seed: the log drives every pick.
        let mut b = DetEngine::new(&p, Scheme::Unbounded, &c, 999);
        b.replay(log);
        b.run();
        assert_eq!(b.decision_hash(), hash);
        assert_eq!(b.into_report().fingerprint(), fp);
    }

    #[test]
    fn backend_enum_dispatches() {
        let p = counter_program(2, 2);
        let c = cfg(2);
        let t = ExecBackend::Threads.run(&p, Scheme::CycleByCycle, &c);
        let d = ExecBackend::Deterministic { seed: 0 }.run(&p, Scheme::CycleByCycle, &c);
        assert_eq!(t.fingerprint(), d.fingerprint());
    }

    /// Every scheme class converges on a det safe-point, including the
    /// ones whose cores mem-park and sync-wait past it, and runs on to the
    /// right answer from there.
    #[test]
    fn det_segments_stop_at_the_checkpoint_under_every_scheme_class() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        for scheme in [
            Scheme::CycleByCycle,
            Scheme::BoundedSlack(10),
            Scheme::BoundedSlack(100),
            Scheme::Unbounded,
            Scheme::Quantum(10),
            Scheme::OldestFirstBounded(10),
        ] {
            let mut det = DetEngine::new(&p, scheme, &c, 3);
            for at in [101, 257] {
                assert_eq!(det.run_until(Some(at)), RunOutcome::CheckpointReady, "{scheme}");
                assert_eq!(det.engine.global(), at, "{scheme}");
            }
            assert_eq!(det.run(), RunOutcome::Finished, "{scheme}");
            assert_eq!(det.into_report().printed(), vec![(0, 24)], "{scheme}");
        }
    }
}
