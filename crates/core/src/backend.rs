//! Execution backends: the threaded engine and the deterministic
//! single-threaded schedule explorer.
//!
//! The parallel engine ([`crate::engine`]) runs N core Pthreads plus a
//! manager Pthread; the host OS scheduler picks the interleaving, so two
//! runs of a racy scheme differ. [`DetEngine`] runs the *same* cores and
//! the *same* manager iteration body ([`Engine::manager_iter`] via
//! [`CoreSim::run_step`]) as cooperative tasks on one thread, with every
//! "who steps next" decision delegated to a seedable [`Interleaver`]:
//!
//! * same seed ⇒ bit-identical simulation, including every violation
//!   counter — a failing schedule is a replayable artifact;
//! * different seeds ⇒ different *legal* interleavings of the same run,
//!   turning the violation tracker and the conformance suite into a
//!   schedule-fuzzing oracle (see `--det-schedules` in the CLI);
//! * the conservative schemes (CC, Q, L, adaptive) are schedule-
//!   independent by construction, so any seed must reproduce the threaded
//!   run byte for byte — asserted by `tests/conformance.rs`.
//!
//! Blocking points map one-to-one: where a threaded core would park on a
//! condvar, `run_step` publishes the parked state on the [`ClockBoard`]
//! and returns; the scheduler simply stops picking that core until the
//! manager's reply (or a window raise) makes it runnable again. The
//! threaded backend's 10 ms liveness timeout — a *progress mechanism*
//! under barrier schemes, not just a watchdog — becomes a deterministic
//! "virtual timeout": after a fixed number of fruitless picks the
//! scheduler resumes every waiting core via
//! [`ClockBoard::unpark_all_waiting`], with identical re-park semantics.

use crate::clock::{ClockBoard, CoreState};
use crate::config::TargetConfig;
use crate::core_thread::StepOutcome;
use crate::engine::{Engine, MgrState, MgrVerdict, RunOutcome};
use crate::scheme::Scheme;
use crate::shard::ShardSignal;
use crate::stats::SimReport;
use sk_det::{Interleaver, PickHook};
use sk_isa::Program;
use sk_obs::Metrics;
use std::sync::Arc;
use std::time::Instant;

/// Which machinery executes a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecBackend {
    /// One host Pthread per target core plus a manager thread (the
    /// paper's execution model; the default).
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
/// ingested nothing) before the scheduler forces a manager iteration and,
/// if that also yields nothing, fires the virtual timeout. Scaled by task
/// count at runtime; the constant only sets the per-task factor.
const STALL_FACTOR: usize = 4;

/// Forced-manager rounds with no progress before the run is declared
/// livelocked (a bug in the engine, not the workload — workload deadlock
/// is detected separately via `deadlockable`, exactly like the threaded
/// backend's 100 ms quiescence timer).
const LIVELOCK_ROUNDS: u64 = 100_000;

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
/// Wraps an [`Engine`] and drives it to completion on the calling thread.
/// No host threads are spawned; all cross-task interaction goes through
/// the same SPSC queues and [`ClockBoard`](crate::clock::ClockBoard) states
/// as the threaded backend, so the simulated outcome differs only where
/// the *schedule* is allowed to matter (racy schemes' violation counts).
pub struct DetEngine {
    engine: Engine,
    il: Interleaver,
    /// Adaptive-controller decisions already folded into the interleaver
    /// (see [`DetEngine::fold_adapt_decisions`]).
    adapt_seen: u64,
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
        // A resumed adaptive engine arrives with decisions already made;
        // only decisions taken under *this* interleaver belong in its
        // schedule stream.
        let adapt_seen = engine.adapt_decisions().map_or(0, |(n, _)| n);
        DetEngine { engine, il: Interleaver::from_seed(seed), adapt_seen, futile_picks: 0 }
    }

    /// Draw every new closed-loop controller decision through the
    /// interleaver ([`sk_det::Interleaver::note_decision`]): the granted
    /// window enters the decision hash and the recorded schedule, so same
    /// seed ⇒ bit-identical adaptive run *including the window
    /// trajectory*, and a replayed schedule that diverges from the
    /// recorded trajectory is detectable by hash.
    fn fold_adapt_decisions(&mut self) {
        if let Some((n, w)) = self.engine.adapt_decisions() {
            while self.adapt_seen < n {
                self.adapt_seen += 1;
                self.il.note_decision(w);
            }
        }
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

    /// One manager iteration on behalf of the scheduler (a manager pick or
    /// a forced round), with the threaded backend's accounting: the body
    /// counts as one `manager.iterations` and its time as `busy_ns` — on
    /// one host thread, busy_ns / wall is the *exact* fraction of the
    /// schedule the role consumed, the noise-free serialization
    /// measurement the scaleout bench reports.
    fn manager_body(&mut self, st: &mut MgrState, obs: Option<&Metrics>) -> MgrVerdict {
        let t = obs.map(|_| Instant::now());
        let verdict = self.engine.manager_iter(None, st);
        if let (Some(o), Some(t)) = (obs, t) {
            o.manager.iterations.inc();
            o.manager.busy_ns.add(t.elapsed().as_nanos() as u64);
        }
        self.fold_adapt_decisions();
        verdict
    }

    /// One iteration of shard `si`, timed like the threaded shard loop.
    fn shard_body(&mut self, si: usize, obs: Option<&Metrics>) -> bool {
        let t = obs.map(|_| Instant::now());
        let progressed = self.engine.shards[si].iterate();
        if let (Some(o), Some(t)) = (obs, t) {
            o.shards[si].busy_ns.add(t.elapsed().as_nanos() as u64);
        }
        progressed
    }

    /// Run the simulation to its natural end (workload exit, stop
    /// condition, max cycles, or workload deadlock). Checkpoint
    /// safe-points are a threads-backend feature; the deterministic
    /// backend always runs whole segments.
    ///
    /// The loop is change-driven. Every scheduling decision still costs
    /// one interleaver draw from a runnable set of exactly the size a
    /// rebuild from the board would give, so pick counts, decision hashes
    /// and recorded logs do not depend on any of this; what the loop
    /// avoids is work that cannot change state:
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
    pub fn run(&mut self) -> RunOutcome {
        if self.engine.finished {
            return RunOutcome::Finished;
        }
        self.engine.board.clear_checkpoint_limit();
        self.engine.board.reset_stop();

        let n = self.engine.cfg.n_cores;
        let board = self.engine.board.clone();
        let signals = self.engine.shard_signals.clone();
        let t0 = Instant::now();
        let obs = self.engine.metrics().cloned();
        let obs = obs.as_deref();
        let mut st = MgrState::new(n, self.engine.ordered_sharded());
        let mut set = RunSet::new(n, !signals.is_empty());
        set.refresh_all(&board);
        set.refresh_shards(&signals);
        // Core i parked as MemWait; its inert streak must be cleared when
        // it next steps (the threaded backend resets it after wait_parked).
        let mut mem_blocked = vec![false; n];
        // The manager's last body settled and no shard has run since; with
        // no change flag up on the board either, its next body is a no-op.
        let mut mgr_settled = false;
        // Fruitless picks since the last progress; `stall_after` fruitless
        // picks trigger one forced-manager round.
        let mut stall = 0usize;
        let stall_after = STALL_FACTOR * (n + 1);
        // Consecutive forced-manager rounds that found the system
        // deadlockable; two in a row = workload deadlock (mirrors the
        // threaded DEADLOCK_AFTER policy on a virtual clock).
        let mut deadlock_rounds = 0u32;
        // Forced-manager rounds with no progress at all since the last
        // progress; the livelock backstop.
        let mut barren_rounds = 0u64;

        'sim: loop {
            let k = self.il.pick(set.len());
            let progressed = if let Some(&pick) = set.cores.get(k) {
                if mem_blocked[pick] {
                    // Resumed after MemWait (reply delivered or virtual
                    // timeout): same streak reset as the threaded loop.
                    self.engine.cores[pick].clear_inert_streak();
                    mem_blocked[pick] = false;
                }
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
                        StepOutcome::MemBlocked => {
                            mem_blocked[pick] = true;
                            false
                        }
                        StepOutcome::Idle | StepOutcome::SyncBlocked | StepOutcome::AtWindow => {
                            false
                        }
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
                } else {
                    match self.manager_body(&mut st, obs) {
                        MgrVerdict::Finish | MgrVerdict::CheckpointReady => break 'sim,
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
                let progressed = signals[si].take() && self.shard_body(si, obs);
                if progressed {
                    signals[si].signal();
                }
                // Its frontier, the replies it delivered and the cores it
                // woke are all news to the manager.
                mgr_settled = false;
                if self.engine.shards[si].granted() {
                    set.refresh_all(&board);
                } else {
                    for &c in self.engine.shards[si].woken() {
                        set.refresh_core(&board, c);
                    }
                }
                progressed
            };
            // Whatever ran may have raised shard signals (a core's event
            // flush, the manager's frontier clamp) or consumed one.
            set.refresh_shards(&signals);

            if progressed {
                stall = 0;
                deadlock_rounds = 0;
                barren_rounds = 0;
                continue;
            }
            stall += 1;
            if stall < stall_after {
                continue;
            }
            // Nothing has moved for a full round of picks: force a manager
            // iteration (it may raise a window or release a barrier) and a
            // round of every shard (it may apply a grant or deliver the
            // reply a MemWait core is parked on)…
            stall = 0;
            let verdict = self.manager_body(&mut st, obs);
            let mut shard_progress = false;
            for si in 0..signals.len() {
                shard_progress |= self.shard_body(si, obs);
            }
            // Rare enough to resynchronise wholesale.
            mgr_settled = false;
            set.refresh_all(&board);
            set.refresh_shards(&signals);
            match verdict {
                MgrVerdict::Finish | MgrVerdict::CheckpointReady => break 'sim,
                MgrVerdict::Continue { ingested, deadlockable, .. } => {
                    if ingested > 0 || shard_progress {
                        deadlock_rounds = 0;
                        barren_rounds = 0;
                        continue;
                    }
                    barren_rounds += 1;
                    if deadlockable {
                        // Quiescent with nothing in flight. One sighting
                        // may be transient (a core parked between our
                        // drain and its publish is impossible here, but
                        // keep the threaded two-strike shape).
                        deadlock_rounds += 1;
                        if deadlock_rounds >= 2 {
                            break 'sim; // workload deadlock
                        }
                        continue;
                    }
                    deadlock_rounds = 0;
                    // …then fire the virtual timeout: resume every waiting
                    // core so it re-checks its queues and re-ticks, exactly
                    // what the threaded 10 ms backstop does (barrier-quantum
                    // schemes and self-scheduled core work need this to
                    // make progress).
                    board.unpark_all_waiting();
                    set.refresh_all(&board);
                    assert!(
                        barren_rounds < LIVELOCK_ROUNDS,
                        "deterministic scheduler livelocked (seed {}, {} picks): \
                         no task progressed for {} forced-manager rounds",
                        self.il.seed(),
                        self.il.picks(),
                        barren_rounds,
                    );
                }
            }
        }

        // Teardown, mirroring the threaded run_until: stop everything,
        // let each core publish its final state, account late events.
        self.engine.uncore.broadcast_stop();
        board.stop_all();
        for core in self.engine.cores.iter_mut() {
            if core.finished() {
                board.finish(core.id());
            }
            core.publish_obs();
        }
        for sh in self.engine.shards.iter_mut() {
            sh.finish();
        }
        self.engine.final_drain();
        self.engine.wall += t0.elapsed();
        if self.engine.metrics().is_some() {
            self.engine.uncore.publish_obs();
        }
        self.engine.finished = true;
        RunOutcome::Finished
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
}
