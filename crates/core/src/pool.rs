//! The threaded backend: W = min(host CPUs, N) worker threads step N
//! target cores; worker 0 is the calling thread, core `c` is worker
//! `c mod W`'s. A worker *scans*: it steps each of its cores through
//! [`CoreSim::run_step`] until the window closes (slack is the scheduling
//! quantum), then, if a change flag is up and no other worker holds the
//! control lock, runs the signalled shards and a manager body — for CC, a
//! parallel-for over the cores followed by the coordinator. After a run of
//! fruitless scans a worker parks (`ClockBoard::go_idle`) until a raise
//! or an unpark of one of its cores wakes it; the last one to go idle runs
//! the quiescence rule instead (`Engine::forced_round`), so a run ends,
//! deadlocks or times out virtually in simulated rounds.

use crate::clock::{ClockBoard, CoreState};
use crate::core_thread::{CoreSim, StepOutcome};
use crate::engine::{Engine, MgrState, MgrVerdict, RunOutcome, Stall};
use crate::shard::ShardSignal;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most fruitless scans a worker spins through before it parks while
/// another worker is busy. Per worker the bound halves (to
/// `MIN_SPIN_SCANS`) when a spin runs out — an oversubscribed host's peer
/// is better waited for asleep — and doubles back when work arrives
/// mid-spin (EXPERIMENTS.md "Worker pool" has the data).
const SPIN_SCANS: u32 = 1024;
const MIN_SPIN_SCANS: u32 = 4;

/// Steps a core takes per visit at most. Only a window that never closes
/// (SU) reaches it; it keeps such a core from starving the manager and the
/// worker's other cores.
const STEPS_PER_VISIT: u32 = 16;

/// One core of a worker's slice.
struct Slot {
    core: CoreSim,
    /// It stopped or finished: never stepped again this segment.
    done: bool,
}

impl Slot {
    /// Step the core until its window closes, it parks, or its visit is
    /// up. Returns whether it progressed.
    fn visit(&mut self, board: &ClockBoard) -> bool {
        let id = self.core.id();
        if self.done || board.state(id) != CoreState::Running {
            return false;
        }
        let mut progressed = false;
        for _ in 0..STEPS_PER_VISIT {
            match self.core.run_step(board) {
                StepOutcome::Progressed => progressed = true,
                StepOutcome::Stopped | StepOutcome::Finished => {
                    self.done = true;
                    return true;
                }
                StepOutcome::Idle | StepOutcome::SyncBlocked | StepOutcome::MemBlocked => break,
                StepOutcome::AtWindow => {
                    if board.block(id) {
                        break;
                    }
                }
            }
        }
        progressed
    }
}

/// The manager, the shards and the quiescence rule: one worker at a time.
struct Control<'e> {
    engine: &'e mut Engine,
    st: MgrState,
    stall: Stall,
    /// `Pool::epoch` at the last forced round.
    seen_epoch: u64,
    outcome: RunOutcome,
}

struct Pool<'e> {
    board: Arc<ClockBoard>,
    signals: Vec<Arc<ShardSignal>>,
    cancel: Arc<AtomicBool>,
    until: Option<u64>,
    control: Mutex<Control<'e>>,
    /// The last manager body was not settled: the next one has work. A
    /// hint that publishes nothing (the control lock orders the engine's
    /// state), hence `Relaxed`.
    unsettled: AtomicBool,
    /// Bumped by a worker going idle after it made progress: tells the
    /// forced round that something moved since the last one.
    epoch: AtomicU64,
}

/// Run one segment of `engine` on the pool and return how it ended. The
/// caller opens and closes the segment ([`Engine::begin_segment`],
/// [`Engine::end_segment`]).
pub(crate) fn run(engine: &mut Engine, until: Option<u64>) -> RunOutcome {
    let n = engine.cfg.n_cores;
    let workers = match engine.workers {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        w => w,
    }
    .clamp(1, n);
    let mut slices: Vec<Vec<Slot>> = (0..workers).map(|_| Vec::new()).collect();
    for core in std::mem::take(&mut engine.cores) {
        slices[core.id() % workers].push(Slot { core, done: false });
    }
    let board = engine.board.clone();
    board.attach_pool(workers, |c| c % workers);
    let pool = Pool {
        board: board.clone(),
        signals: engine.shard_signals.clone(),
        cancel: engine.cancel_token(),
        until,
        control: Mutex::new(Control {
            st: MgrState::new(n, engine.ordered_sharded()),
            engine,
            stall: Stall::default(),
            seen_epoch: 0,
            outcome: RunOutcome::Finished,
        }),
        unsettled: AtomicBool::new(true),
        epoch: AtomicU64::new(0),
    };
    std::thread::scope(|s| {
        let (first, rest) = slices.split_first_mut().expect("at least one worker");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, slice)| {
                let pool = &pool;
                std::thread::Builder::new()
                    .name(format!("sk-worker-{}", i + 1))
                    .spawn_scoped(s, move || pool.work(i + 1, slice))
                    .expect("spawn a pool worker")
            })
            .collect();
        pool.work(0, first);
        // The scope alone returns once each worker's closure has returned,
        // which can be before its OS thread has exited; `join` waits for
        // the exit, so no worker outlives its segment.
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    board.detach_pool();
    let ctl = pool.control.into_inner().expect("no pool worker panicked");
    let outcome = ctl.outcome;
    let mut cores: Vec<CoreSim> = slices.into_iter().flatten().map(|s| s.core).collect();
    cores.sort_by_key(|c| c.id());
    ctl.engine.cores = cores;
    outcome
}

/// Raises the stop flag if its worker unwinds, so the others leave their
/// loops and the panic reaches the caller instead of a hang.
struct StopOnPanic<'a>(&'a ClockBoard);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop_all();
        }
    }
}

impl Pool<'_> {
    fn work(&self, me: usize, slots: &mut [Slot]) {
        let board = &*self.board;
        let _guard = StopOnPanic(board);
        board.register_worker(me);
        let mut spins = 0;
        let mut spin_limit = SPIN_SCANS;
        let mut moved = false;
        while !board.stopping() {
            let mut progressed = false;
            for slot in slots.iter_mut() {
                progressed |= slot.visit(board);
            }
            progressed |= self.try_control();
            if progressed {
                if spins > 0 {
                    spin_limit = (spin_limit * 2).min(SPIN_SCANS);
                }
                moved = true;
                spins = 0;
                continue;
            }
            spins += 1;
            if !board.others_idle() {
                if spins <= spin_limit {
                    std::hint::spin_loop();
                    continue;
                }
                spin_limit = (spin_limit / 2).max(MIN_SPIN_SCANS);
            }
            spins = 0;
            if std::mem::take(&mut moved) {
                self.epoch.fetch_add(1, Ordering::Release);
            }
            let live: Vec<usize> = slots.iter().filter(|s| !s.done).map(|s| s.core.id()).collect();
            if board.go_idle(me, &live) {
                self.forced_round();
            }
        }
    }

    /// If a change flag is up and no other worker holds the control lock,
    /// run the signalled shards and a manager body. Returns whether that
    /// moved anything: events ingested, windows raised, cores woken, shard
    /// work done.
    fn try_control(&self) -> bool {
        let shard_news = self.signals.iter().any(|s| s.pending());
        if !(shard_news || self.unsettled.load(Ordering::Relaxed) || self.board.any_dirty()) {
            return false;
        }
        let Ok(mut ctl) = self.control.try_lock() else { return false };
        if self.board.stopping() {
            return false;
        }
        let mut moved = false;
        for (si, sig) in self.signals.iter().enumerate() {
            // Re-raised after a productive iterate, so residual work (held
            // back heap events) gets another look.
            if sig.take() && ctl.engine.shard_body(si) {
                sig.signal();
                moved = true;
            }
        }
        if self.cancel.load(Ordering::Relaxed) {
            self.end(&mut ctl, RunOutcome::Cancelled);
            return true;
        }
        let Control { engine, st, .. } = &mut *ctl;
        match engine.manager_body(self.until, st) {
            MgrVerdict::Finish => self.end(&mut ctl, RunOutcome::Finished),
            MgrVerdict::CheckpointReady => self.end(&mut ctl, RunOutcome::CheckpointReady),
            MgrVerdict::Continue { ingested, granted, settled, .. } => {
                self.unsettled.store(!settled, Ordering::Relaxed);
                moved |= ingested > 0 || granted || !ctl.engine.uncore.stage.woken().is_empty();
            }
        }
        moved
    }

    /// Nothing is runnable on any worker: the quiescence rule's forced
    /// round, reset first if any worker progressed since the last one.
    fn forced_round(&self) {
        let mut ctl =
            self.control.lock().expect("no pool worker panicked holding the control lock");
        let ctl = &mut *ctl;
        if self.board.stopping() {
            return;
        }
        let epoch = self.epoch.load(Ordering::Acquire);
        if epoch != ctl.seen_epoch {
            ctl.seen_epoch = epoch;
            ctl.stall = Stall::default();
        }
        if self.cancel.load(Ordering::Relaxed) {
            return self.end(ctl, RunOutcome::Cancelled);
        }
        if let Some(outcome) = ctl.engine.forced_round(self.until, &mut ctl.st, &mut ctl.stall) {
            self.end(ctl, outcome);
        }
        self.unsettled.store(true, Ordering::Relaxed);
    }

    fn end(&self, ctl: &mut Control, outcome: RunOutcome) {
        ctl.outcome = outcome;
        self.board.stop_all();
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_det, CoreModel, Engine, RunOutcome, Scheme, TargetConfig};

    fn cfg() -> TargetConfig {
        let mut cfg = TargetConfig::small(4);
        cfg.core.model = CoreModel::InOrder;
        cfg.max_cycles = 5_000_000;
        cfg
    }

    #[test]
    fn every_pool_size_runs_cc_bit_identically_to_det() {
        let w = sk_kernels::fft::fft(4, 6);
        let det = run_det(&w.program, Scheme::CycleByCycle, &cfg(), 1).fingerprint();
        for workers in 1..=4 {
            let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg());
            e.set_workers(workers);
            assert_eq!(e.run_until(None), RunOutcome::Finished);
            assert_eq!(e.into_report().fingerprint(), det, "W={workers}");
        }
    }

    /// Cores stopped on one checkpoint limit under a window wider than the
    /// next one: the segment's end leaves them running, so they run on to
    /// the new limit before any grant.
    #[test]
    fn cores_blocked_on_a_checkpoint_run_on_when_the_limit_moves() {
        let w = sk_kernels::fft::fft(4, 6);
        let mut e = Engine::new(&w.program, Scheme::BoundedSlack(100), &cfg());
        e.set_workers(2);
        assert_eq!(e.run_until(Some(40)), RunOutcome::CheckpointReady);
        assert_eq!(e.run_until(Some(70)), RunOutcome::CheckpointReady);
        assert_eq!(e.global(), 70);
        assert_eq!(e.run_until(None), RunOutcome::Finished);
        let printed: Vec<i64> = e.into_report().printed().iter().map(|&(_, v)| v).collect();
        assert_eq!(printed, w.expected);
    }
}
