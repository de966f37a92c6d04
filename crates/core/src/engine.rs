//! The parallel simulation engine: target cores, the manager and the
//! memory shards as tasks over one clock board.
//!
//! This is SlackSim's execution model (paper Fig. 1) — each target core
//! simulates its own cycles, the simulation manager simulates the lower
//! cache hierarchy and paces the run by publishing global time and per-core
//! max local times through shared memory — with the paper's thread per
//! core replaced by tasks: [`Engine::run_until`] runs them on a pool of
//! W = min(host CPUs, N) worker threads ([`crate::pool`]), `DetEngine` on
//! one thread under a seeded interleaver ([`crate::backend`]). Both step a
//! core through [`CoreSim::run_step`], the manager through
//! `Engine::manager_iter`, end a quiet run by the same rule
//! (`Engine::forced_round`), and open and close a segment the same way
//! (`Engine::begin_segment`, `Engine::end_segment`).

use crate::clock::{ClockBoard, CoreState, GlobalCache};
use crate::config::{StopCondition, TargetConfig};
use crate::core_thread::{CoreSim, RoiState};
use crate::cpu::CpuModel;
use crate::msg::OutEvent;
use crate::scheme::Scheme;
use crate::shard::{MemShard, ShardSignal};
use crate::spsc;
use crate::stats::{CoreStats, EngineStats, SimReport, ViolationReport};
use crate::uncore::Uncore;
use crate::violation::ConflictTracker;
use sk_isa::{DecodedProgram, Program, SuperblockTable};
use sk_mem::FuncMemory;
use sk_obs::{Metrics, ObsConfig};
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most samples the manager records into the slack profile of a
/// `record_trace` run (the rest are counted in
/// `EngineStats::slack_profile_truncated`).
const SLACK_PROFILE_CAP: usize = 1_000_000;

/// Forced rounds in a row with no progress before a run is declared
/// livelocked (a bug in the engine, not the workload — workload deadlock
/// is the `deadlockable` rule of [`Engine::forced_round`]).
const LIVELOCK_ROUNDS: u64 = 100_000;

/// What every core of one simulation shares: built from the program on a
/// cold start, read back from a snapshot on resume.
pub(crate) struct Shared {
    pub mem: FuncMemory,
    /// The text predecoded once; every core reads the same table.
    pub text: Arc<DecodedProgram>,
    /// Superblocks fused once over that table (`None` with
    /// `cfg.superblocks` off). Derived, never serialized.
    pub sbt: Option<Arc<SuperblockTable>>,
    pub tracker: Option<Arc<ConflictTracker>>,
    pub roi: Arc<RoiState>,
}

impl Shared {
    /// Load `program` into a fresh functional memory.
    pub(crate) fn from_program(program: &Program, cfg: &TargetConfig) -> Shared {
        cfg.validate().expect("invalid target configuration");
        program.validate().expect("program failed validation");
        let mem = FuncMemory::new();
        mem.load(program.image());
        let text = Arc::new(DecodedProgram::from_program(program));
        let tracker = (cfg.track_workload_violations || cfg.fast_forward_compensation)
            .then(|| Arc::new(ConflictTracker::new(cfg.fast_forward_compensation)));
        Shared::around(mem, text, tracker, cfg)
    }

    fn around(
        mem: FuncMemory,
        text: Arc<DecodedProgram>,
        tracker: Option<Arc<ConflictTracker>>,
        cfg: &TargetConfig,
    ) -> Shared {
        let sbt = cfg.superblocks.then(|| Arc::new(SuperblockTable::build(&text)));
        Shared { mem, text, sbt, tracker, roi: Arc::new(RoiState::default()) }
    }
}

/// Cores, manager and shards, connected by their queues.
pub(crate) struct Wiring {
    pub cores: Vec<CoreSim>,
    /// The cores' OutQs, coordinator side.
    pub out_consumers: Vec<spsc::Consumer<OutEvent>>,
    pub uncore: Uncore,
    pub board: Option<Arc<ClockBoard>>,
    pub shards: Vec<MemShard>,
    pub shard_signals: Vec<Arc<ShardSignal>>,
}

/// Build every core with its InQ and OutQ, then the clock board, the
/// manager, and — `cfg.mem_shards > 0` — the memory shards with one event
/// and one reply queue per (core, shard) pair. The one place queues are
/// made: a cold start, a resume and the sequential engine differ only in
/// where `shared` came from and in the board (`None` for the sequential
/// engine, which has no threads to pace and never shards).
pub(crate) fn wire(
    cfg: &TargetConfig,
    scheme: Scheme,
    shared: &Shared,
    board: impl FnOnce() -> Option<Arc<ClockBoard>>,
) -> Wiring {
    let n = cfg.n_cores;
    let mut cores = Vec::with_capacity(n);
    let mut out_consumers = Vec::with_capacity(n);
    let mut in_producers = Vec::with_capacity(n);
    for id in 0..n {
        let (in_p, in_c) = spsc::channel();
        let (out_p, out_c) = spsc::channel();
        let mut cpu = CpuModel::new(cfg);
        if let Some(t) = &shared.sbt {
            cpu.attach_superblocks(t.clone());
        }
        let mut core = CoreSim::new(
            id,
            cfg,
            cpu,
            in_c,
            out_p,
            shared.mem.clone(),
            shared.text.clone(),
            shared.tracker.clone(),
            shared.roi.clone(),
        );
        core.set_batch_cap(scheme.batch_cap());
        cores.push(core);
        out_consumers.push(out_c);
        in_producers.push(in_p);
    }
    let board = board();
    let uncore = Uncore::new(cfg, scheme, in_producers, board.clone(), shared.mem.clone());

    // ---- sharded memory managers (extension; cfg.mem_shards > 0) ----
    // `validate()` already rejected mem_shards > n_banks.
    let mut shards = Vec::new();
    let mut shard_signals = Vec::new();
    if let Some(board) = board.as_ref().filter(|_| cfg.mem_shards > 0) {
        let n_shards = cfg.mem_shards;
        shard_signals = (0..n_shards).map(|_| Arc::new(ShardSignal::default())).collect();
        let dirty_masks: Vec<Arc<Vec<AtomicU64>>> = (0..n_shards)
            .map(|_| Arc::new((0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()))
            .collect();
        // Per shard, one end of every core's pair: events core -> shard,
        // replies shard -> core.
        let mut ev_consumers: Vec<Vec<_>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut reply_producers: Vec<Vec<_>> = (0..n_shards).map(|_| Vec::new()).collect();
        for core in cores.iter_mut() {
            let mut my_reply_queues = Vec::new();
            let mut my_event_queues = Vec::new();
            for s in 0..n_shards {
                let (ev_p, ev_c) = spsc::channel();
                let (rep_p, rep_c) = spsc::channel();
                ev_consumers[s].push(ev_c);
                reply_producers[s].push(rep_p);
                my_event_queues.push(ev_p);
                my_reply_queues.push(rep_c);
            }
            core.attach_shards(
                my_reply_queues,
                my_event_queues,
                shard_signals.clone(),
                dirty_masks.clone(),
            );
        }
        for (s, (evc, repp)) in ev_consumers.into_iter().zip(reply_producers).enumerate() {
            shards.push(MemShard::new(
                s,
                cfg,
                scheme,
                evc,
                repp,
                board.clone(),
                dirty_masks[s].clone(),
            ));
        }
    }
    Wiring { cores, out_consumers, uncore, board, shards, shard_signals }
}

pub(crate) fn violation_report(tracker: &Option<Arc<ConflictTracker>>) -> ViolationReport {
    match tracker {
        None => ViolationReport::default(),
        Some(t) => ViolationReport {
            store_past_load: t.stats.store_past_load.load(Ordering::Relaxed),
            load_past_store: t.stats.load_past_store.load(Ordering::Relaxed),
            compensations: t.stats.compensations.load(Ordering::Relaxed),
            compensation_cycles: t.stats.compensation_cycles.load(Ordering::Relaxed),
            max_inversion_cycles: t.stats.max_inversion.load(Ordering::Relaxed),
        },
    }
}

pub(crate) fn assemble_report(
    scheme: Scheme,
    cfg: &TargetConfig,
    cores: Vec<CoreStats>,
    uncore: &Uncore,
    engine: EngineStats,
    violations: ViolationReport,
    wall: Duration,
) -> SimReport {
    let exec_end = cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    let roi_start = uncore.roi_start.unwrap_or(0);
    SimReport {
        scheme: scheme.short_name(),
        n_cores: cfg.n_cores,
        exec_cycles: exec_end.saturating_sub(roi_start),
        wall,
        cores,
        dir: uncore.dir.stats,
        bus: uncore.dir.bus_stats(),
        sync: uncore.sync.stats,
        engine,
        violations,
        superblocks: cfg.superblocks,
        slack_profile: None,
    }
}

/// Per-segment manager-loop state, threaded through
/// [`Engine::manager_iter`] so both schedulers drive the identical
/// iteration body.
pub(crate) struct MgrState {
    clock_cache: GlobalCache,
    drain_scratch: Vec<OutEvent>,
    /// Consecutive iterations the safe-point condition held with no
    /// event drained. Two in a row prove the system is at rest:
    /// the first pass shows every core was already parked *before*
    /// this iteration's drain (a core publishes its events, then
    /// its parked state, so anything it sent is visible), and the
    /// second shows the manager's own processing woke nobody.
    ready_streak: u32,
    /// Ordered scheme with sharded managers: windows also hold back to
    /// the slowest shard's processed frontier.
    ordered_scheme: bool,
}

impl MgrState {
    pub(crate) fn new(n: usize, ordered_scheme: bool) -> Self {
        MgrState {
            clock_cache: GlobalCache::new(n),
            drain_scratch: Vec::new(),
            ready_streak: 0,
            ordered_scheme,
        }
    }
}

/// What the quiescence rule ([`Engine::forced_round`]) remembers between
/// forced rounds.
#[derive(Default)]
pub(crate) struct Stall {
    /// Consecutive rounds that found the system deadlockable.
    deadlock_rounds: u32,
    /// Rounds since the last progress (the livelock backstop).
    barren_rounds: u64,
}

/// What one manager iteration decided. When to run the next one, and the
/// deadlock *policy* ([`Engine::forced_round`]), stay with the scheduler.
pub(crate) enum MgrVerdict {
    /// Keep iterating. `ingested` is the number of OutQ events drained
    /// (progress signal); `deadlockable` means nothing is runnable, nothing
    /// is mem-waiting and nothing is in flight — continuous repetition of
    /// this state is a workload deadlock. `granted` says the iteration
    /// raised the cores' windows. `settled` says the iteration left
    /// nothing of its own to follow up: run again before any core, shard
    /// or signal has moved, it would read the same inputs and do nothing
    /// (both schedulers then skip that body).
    Continue { ingested: usize, deadlockable: bool, granted: bool, settled: bool },
    /// The segment is over (workload exit, stop condition, max cycles).
    Finish,
    /// Every clock is parked exactly on the checkpoint cycle.
    CheckpointReady,
}

/// Why a segment ended ([`Engine::run_until`] on the worker pool,
/// [`crate::DetEngine::run_until`] on the det scheduler).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The simulation is over: workload exit, stop condition reached, or
    /// workload deadlock.
    Finished,
    /// Every clock is parked exactly on the requested checkpoint cycle
    /// (safe-point): [`Engine::snapshot`] now captures a quiescent system.
    CheckpointReady,
    /// The cooperative cancellation flag (see [`Engine::cancel_token`])
    /// was raised. The segment stopped at the next manager iteration with
    /// checkpoint-style teardown: no `Stop` broadcast, no final drain, the
    /// engine is *not* finished. The run can continue (clear the flag and
    /// run another segment, on either scheduler) or be abandoned; a
    /// snapshot taken at an earlier safe-point resumes cleanly.
    Cancelled,
}

/// The parallel simulation engine as a resumable object.
///
/// [`run_parallel`] is `Engine::new` + `run_until(None)` + `into_report`.
/// The segmented form exists for checkpointing: `run_until(Some(c))`
/// converges every clock onto cycle `c` (a *safe-point*: global == local
/// on every unfinished driving core, SPSC queues drained, no in-flight
/// uncore transaction unaccounted for), after which [`Engine::snapshot`]
/// serializes the complete simulated system and [`Engine::resume`]
/// reconstructs it — bit-deterministically for conservative schemes —
/// in this or any later process, optionally under a different scheme
/// (fork-from-snapshot, the Fig. 6 grid workflow).
pub struct Engine {
    pub(crate) cfg: TargetConfig,
    scheme: Scheme,
    mem: FuncMemory,
    pub(crate) cores: Vec<CoreSim>,
    out_consumers: Vec<spsc::Consumer<OutEvent>>,
    pub(crate) uncore: Uncore,
    pub(crate) board: Arc<ClockBoard>,
    tracker: Option<Arc<ConflictTracker>>,
    roi: Arc<RoiState>,
    pub(crate) shards: Vec<MemShard>,
    pub(crate) shard_signals: Vec<Arc<ShardSignal>>,
    shard_frontiers: Vec<Arc<AtomicU64>>,
    engine: EngineStats,
    /// (global time, observed slack) samples; `Some` with `record_trace`.
    slack_profile: Option<Vec<(u64, u64)>>,
    /// Global time of the last manager sample (obs slack histogram,
    /// violation samples, slack profile): one sample per global time.
    last_sample_g: Option<u64>,
    /// Highest window already published to every core: re-raising an
    /// unchanged window is a no-op per core, so skip the whole loop.
    last_window: u64,
    wall: Duration,
    finished: bool,
    /// Optional telemetry hub (see [`Engine::attach_metrics`]).
    obs: Option<Arc<Metrics>>,
    /// Next global cycle at which to sample the violation counters.
    next_violation_sample: u64,
    /// Length of the program's text segment in instructions; persisted so
    /// resume can rebuild the predecode table from functional memory.
    text_len: usize,
    /// Shared superblock table (None with `cfg.superblocks` off). Derived
    /// from the text and rebuilt on resume, never serialized.
    sbt: Option<Arc<SuperblockTable>>,
    /// Fault injection for the conformance suite: added to every published
    /// window, letting cores illegally outrun the scheme's slack bound.
    /// Always zero outside tests.
    window_bug_extra: u64,
    /// Cooperative cancellation flag, shared with callers via
    /// [`Engine::cancel_token`]. Checked before every manager body and
    /// forced round. Sticky: the holder clears it to run further segments
    /// on the same engine.
    cancel: Arc<AtomicBool>,
    /// Worker threads for threaded segments; 0 = one per host CPU (see
    /// [`Engine::set_workers`]).
    pub(crate) workers: usize,
}

impl Engine {
    /// Wire up a simulation of `program` under `scheme` without starting
    /// any host threads.
    pub fn new(program: &Program, scheme: Scheme, cfg: &TargetConfig) -> Engine {
        let shared = Shared::from_program(program, cfg);
        let mut wiring = wire(cfg, scheme, &shared, || {
            Some(Arc::new(ClockBoard::new(cfg.n_cores, scheme.window(0))))
        });
        wiring.cores[0].start_main(program.entry);
        Engine::from_parts(*cfg, scheme, shared, wiring, program.text_len())
    }

    /// The engine around freshly wired parts; nothing has run on them.
    fn from_parts(
        cfg: TargetConfig,
        scheme: Scheme,
        shared: Shared,
        wiring: Wiring,
        text_len: usize,
    ) -> Engine {
        let Wiring { cores, out_consumers, uncore, board, shards, shard_signals } = wiring;
        Engine {
            cfg,
            scheme,
            mem: shared.mem,
            cores,
            out_consumers,
            uncore,
            board: board.expect("the parallel engine runs on a clock board"),
            tracker: shared.tracker,
            roi: shared.roi,
            shard_frontiers: shards.iter().map(|s| s.frontier.clone()).collect(),
            shards,
            shard_signals,
            engine: EngineStats::default(),
            slack_profile: cfg.record_trace.then(Vec::new),
            last_sample_g: None,
            last_window: 0,
            wall: Duration::ZERO,
            finished: false,
            obs: None,
            next_violation_sample: 0,
            text_len,
            sbt: shared.sbt,
            window_bug_extra: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            workers: 0,
        }
    }

    /// Deliberately raise every published window by `extra` cycles beyond
    /// what the scheme allows — an injected ordering bug for validating
    /// that the conformance suite (and the DetEngine schedule fuzzer)
    /// actually catches slack-discipline escapes. Never call outside tests.
    #[doc(hidden)]
    pub fn inject_window_bug(&mut self, extra: u64) {
        self.window_bug_extra = extra;
    }

    /// Run threaded segments on `w` worker threads (clamped to 1..=n_cores)
    /// instead of one per host CPU, so tests and Fig. 8's harness can sweep
    /// the pool size. `0` restores the default.
    pub fn set_workers(&mut self, w: usize) {
        self.workers = w;
    }

    /// Force the run-ahead batch cap on every core, overriding the
    /// scheme-derived default (see [`Scheme::batch_cap`]). Intended for
    /// tests and tuning experiments proving batched publication is
    /// invisible; must be called between run segments, not during one.
    pub fn set_batch_cap(&mut self, cap: u64) {
        for core in &mut self.cores {
            core.set_batch_cap(cap);
        }
    }

    /// Attach a telemetry hub to every layer of the engine: the clock
    /// board (park durations, run/park trace spans), each core (slack and
    /// batch histograms, OutQ high-water), the uncore (InQ high-water,
    /// sync wait times) and any memory shards (drain batches). The hub
    /// must be sized for this engine's core count.
    ///
    /// Telemetry costs one relaxed-load branch per hot-path site when no
    /// hub is attached.
    pub fn attach_metrics(&mut self, obs: Arc<Metrics>) {
        assert_eq!(obs.n_cores(), self.cfg.n_cores, "metrics hub sized for a different core count");
        assert!(
            obs.shards.len() >= self.shards.len(),
            "metrics hub sized for {} shards but the engine has {}",
            obs.shards.len(),
            self.shards.len()
        );
        self.board.set_obs(obs.clone());
        for core in &mut self.cores {
            core.set_obs(obs.clone());
        }
        self.uncore.set_obs(obs.clone());
        for shard in &mut self.shards {
            shard.set_obs(obs.clone());
        }
        // Static formation census: every core shares the one table.
        if let Some(t) = &self.sbt {
            for c in &obs.cores {
                c.sb_blocks_formed.raise_to(t.blocks_formed());
            }
        }
        self.obs = Some(obs);
    }

    /// Build a fresh hub from `cfg` (sized for this engine's core *and*
    /// shard counts), attach it, and return it.
    pub fn attach_new_metrics(&mut self, cfg: ObsConfig) -> Arc<Metrics> {
        let obs = Arc::new(Metrics::new_sharded(self.cfg.n_cores, self.shards.len(), cfg));
        self.attach_metrics(obs.clone());
        obs
    }

    /// Does this engine couple windows to shard frontiers (an ordered
    /// scheme running over sharded memory managers)? Shared by both
    /// backends so their `MgrState` flags agree.
    pub(crate) fn ordered_sharded(&self) -> bool {
        self.scheme.ordering() != crate::scheme::EventOrdering::Eager
            && !self.shard_frontiers.is_empty()
    }

    /// The attached telemetry hub, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.obs.as_ref()
    }

    /// The scheme this engine runs under.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The current global time.
    pub fn global(&self) -> u64 {
        self.board.global()
    }

    /// One pipeline diagnostic line per core ([`crate::cpu::CpuModel::debug_state`]):
    /// what is in flight at a safe-point, for stall debugging and for tests
    /// that must know a checkpoint caught the pipeline busy.
    pub fn core_debug_states(&self) -> Vec<String> {
        self.cores.iter().map(|c| c.debug_state()).collect()
    }

    /// Has the simulation ended (workload exit, stop condition, deadlock)?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The cooperative cancellation flag for this engine. Store `true`
    /// from any thread to stop the current (or next) segment, on either
    /// scheduler, at its next manager iteration with
    /// [`RunOutcome::Cancelled`]. The flag is sticky — clear it (store
    /// `false`) before running further segments on the same engine.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Has the workload's region of interest begun (the manager has
    /// processed `RoiBegin`)? At a safe-point this is exact: a snapshot
    /// taken when it returns `true` carries the ROI start, so forked runs
    /// measure `exec_cycles` from the same origin as a cold run.
    pub fn roi_started(&self) -> bool {
        self.uncore.roi_start.is_some()
    }

    /// Is every core either excluded from the driving set (finished,
    /// parked without a thread, sync-suspended) or running or blocked
    /// exactly on the checkpoint cycle? This is the safe-point condition:
    /// no clock that drives global time sits anywhere but `c`, where it
    /// cannot step a cycle, so all it can still do is park.
    fn checkpoint_ready(&self, c: u64) -> bool {
        (0..self.board.n_cores()).all(|i| match self.board.state(i) {
            CoreState::MemWait => false,
            CoreState::Running | CoreState::Blocked => self.board.local(i) == c,
            CoreState::Finished | CoreState::Parked | CoreState::SyncWait => true,
        })
    }

    /// One manager iteration (the body of the paper's §2.1 manager loop,
    /// minus the wait and the pacing/deadlock policy — see [`MgrVerdict`]).
    /// Both schedulers call this (through [`Engine::manager_body`]): the
    /// worker pool when a change flag is up, the deterministic scheduler
    /// when the interleaver picks the manager task.
    pub(crate) fn manager_iter(&mut self, until: Option<u64>, st: &mut MgrState) -> MgrVerdict {
        let obs = self.obs.as_deref();
        let MgrState { clock_cache, drain_scratch, .. } = st;
        let ready_before = match until {
            Some(c) => self.checkpoint_ready(c),
            None => false,
        };
        // Order matters for determinism of ordered schemes: publish
        // global time first, then drain (every event with ts ≤ global
        // is already in its queue by the release/acquire pairing on
        // local time), then process up to the horizon. The refresh
        // consumes the board's change flags; observed slack and the
        // driving-core count below read the refreshed view, and the drain
        // walks the flagged cores only. A core raises its flag after every
        // state, clock or OutQ store, so an unflagged core has an
        // unchanged pair and an empty queue.
        let (g, all_done) = self.board.recompute_global_cached(clock_cache);
        self.engine.global_updates += 1;
        let slack_now = clock_cache.observed_slack(g);
        self.engine.max_observed_slack = self.engine.max_observed_slack.max(slack_now);
        if self.last_sample_g != Some(g) {
            self.last_sample_g = Some(g);
            if let Some(o) = obs {
                o.manager.slack.record(slack_now);
                if o.cfg.violation_sample_interval > 0 && g >= self.next_violation_sample {
                    let v = self.tracker.as_ref().map_or(0, |t| {
                        t.stats.store_past_load.load(Ordering::Relaxed)
                            + t.stats.load_past_store.load(Ordering::Relaxed)
                    });
                    o.record_violation_sample(g, v);
                    self.next_violation_sample = g + o.cfg.violation_sample_interval;
                }
            }
            if let Some(p) = &mut self.slack_profile {
                if p.len() < SLACK_PROFILE_CAP {
                    p.push((g, slack_now));
                } else {
                    self.engine.slack_profile_truncated += 1;
                }
            }
        }
        // Quiescence is observed *before* the drain. A core pushes its
        // events and only then parks, so a core seen parked here (Acquire
        // on its state) has every event it emitted in its queue by the time
        // the drain below reads it. Observed after the drain, a core that
        // pushed and parked in between left the quiescent path to process
        // another core's same-cycle event ahead of its undrained one —
        // out of (ts, core, seq) order, a breach of CC bit-determinism.
        let quiescent = clock_cache.active_count() == 0;
        let mut ingested = 0usize;
        let drain_t0 = obs.map(|o| o.trace.now_us());
        for &c in clock_cache.flagged() {
            let q = &mut self.out_consumers[c];
            loop {
                drain_scratch.clear();
                if q.drain_into(drain_scratch) == 0 {
                    break;
                }
                ingested += drain_scratch.len();
                if let Some(o) = obs {
                    o.manager.drain_batch.record(drain_scratch.len() as u64);
                }
                self.uncore.ingest_batch(c, drain_scratch);
            }
        }
        if ingested > 0 {
            if let (Some(o), Some(t0)) = (obs, drain_t0) {
                o.manager.events_ingested.add(ingested as u64);
                o.trace.span(o.trace.manager_lane(), "drain", t0);
            }
        }
        // When no core is actively driving global time (all blocked in
        // sync calls / parked / finished), advance the processing
        // horizon to the earliest queued event so barrier arrivals can
        // complete and release the waiters.
        let mut g_eff =
            if quiescent { self.uncore.min_pending_ts().map_or(g, |t| g.max(t)) } else { g };
        if let Some(c) = until {
            // The horizon never passes the safe-point: events due
            // after it belong to the next segment (and are carried
            // in the snapshot's GQ).
            g_eff = g_eff.min(c);
        }
        if quiescent {
            // Sync-blocked cores cannot complete the current quantum;
            // process pending events directly so they can be released.
            self.uncore.process_all_upto(g_eff);
        } else {
            self.uncore.process_ready(g_eff);
        }
        // Windows derive from the *true* global time: g_eff is only a
        // processing horizon and may sit on a future event timestamp —
        // deriving windows from it would let cores tick past
        // global + slack, breaking the discipline. With sharded
        // managers and an ordered scheme, windows additionally hold
        // back to the slowest shard's processed frontier so no core
        // outruns an undelivered reply.
        let g_window = if st.ordered_scheme {
            let fmin =
                self.shard_frontiers.iter().map(|f| f.load(Ordering::Acquire)).min().unwrap_or(g);
            // A frontier behind global clamps the window below what the
            // scheme would grant. The lagging shard's pending flag must
            // be raised: the schedulers' signal-gated shard runs would
            // otherwise skip the very iterate that publishes the
            // frontier this window is clamped on.
            if fmin < g {
                for (s, f) in self.shard_frontiers.iter().enumerate() {
                    if f.load(Ordering::Acquire) < g {
                        self.shard_signals[s].signal();
                    }
                }
            }
            g.min(fmin)
        } else {
            g
        };
        let mut w = self.scheme.window(g_window);
        if let Some(c) = until {
            // The core-side limit would clamp anyway; capping the
            // published window spares pointless wake-and-recheck
            // cycles on cores already parked at the safe-point.
            w = w.min(c);
        }
        // Fault injection (see `Engine::inject_window_bug`): a deliberately
        // over-raised window lets cores escape the slack discipline, which
        // the conformance suite must detect. Zero in every real run.
        w = w.saturating_add(self.window_bug_extra);
        let granted = w > self.last_window;
        if granted {
            self.board.raise_all(w);
            self.last_window = w;
        }
        self.uncore.stage.flush_wakeups();

        if all_done {
            return MgrVerdict::Finish;
        }
        if let Some(c) = until {
            if ready_before && ingested == 0 && self.checkpoint_ready(c) {
                st.ready_streak += 1;
                if st.ready_streak >= 2 {
                    return MgrVerdict::CheckpointReady;
                }
            } else {
                st.ready_streak = 0;
            }
        }
        let deadlockable =
            quiescent && !self.board.any_mem_waiting() && self.uncore.min_pending_ts().is_none();
        if let StopCondition::RoiInstructions(limit) = self.cfg.stop {
            if self.roi.committed.load(Ordering::Relaxed) >= limit {
                return MgrVerdict::Finish;
            }
        }
        if g >= self.cfg.max_cycles {
            return MgrVerdict::Finish;
        }
        if self.board.stopping() {
            return MgrVerdict::Finish;
        }
        // What this iteration left for an immediate repeat to do: a
        // quiescent system processes one pending timestamp per iteration,
        // and a converging checkpoint needs a second ready sighting. Cores
        // it woke raised their change flags, which the caller sees on the
        // board.
        let settled = !(quiescent && self.uncore.min_pending_ts().is_some() || st.ready_streak > 0);
        MgrVerdict::Continue { ingested, deadlockable, granted, settled }
    }

    /// One manager body on behalf of a scheduler, booked as one
    /// `manager.iterations` and its time as `busy_ns`.
    pub(crate) fn manager_body(&mut self, until: Option<u64>, st: &mut MgrState) -> MgrVerdict {
        let t = self.obs.as_ref().map(|_| Instant::now());
        let verdict = self.manager_iter(until, st);
        if let (Some(o), Some(t)) = (&self.obs, t) {
            o.manager.iterations.inc();
            o.manager.busy_ns.add(t.elapsed().as_nanos() as u64);
        }
        verdict
    }

    /// One iteration of shard `si`, its time booked as the shard's
    /// `busy_ns`. Returns whether it did anything.
    pub(crate) fn shard_body(&mut self, si: usize) -> bool {
        let t = self.obs.as_ref().map(|_| Instant::now());
        let progressed = self.shards[si].iterate();
        if let (Some(o), Some(t)) = (&self.obs, t) {
            o.shards[si].busy_ns.add(t.elapsed().as_nanos() as u64);
        }
        progressed
    }

    /// The quiescence rule both schedulers call when nothing is runnable:
    /// a manager body, then every shard. A round that moved nothing ends
    /// the run if it is the second in a row to find the system deadlockable
    /// (a workload deadlock), and otherwise fires the virtual timeout
    /// ([`ClockBoard::unpark_all_waiting`]). Returns how the segment ends,
    /// if it does; the scheduler resets `stall` whenever it sees progress.
    pub(crate) fn forced_round(
        &mut self,
        until: Option<u64>,
        st: &mut MgrState,
        stall: &mut Stall,
    ) -> Option<RunOutcome> {
        let verdict = self.manager_body(until, st);
        let mut shard_progress = false;
        for si in 0..self.shards.len() {
            shard_progress |= self.shard_body(si);
        }
        let (ingested, deadlockable) = match verdict {
            MgrVerdict::Finish => return Some(RunOutcome::Finished),
            MgrVerdict::CheckpointReady => return Some(RunOutcome::CheckpointReady),
            MgrVerdict::Continue { ingested, deadlockable, .. } => (ingested, deadlockable),
        };
        if ingested > 0 || shard_progress {
            *stall = Stall::default();
            return None;
        }
        stall.barren_rounds += 1;
        if deadlockable {
            stall.deadlock_rounds += 1;
            return (stall.deadlock_rounds >= 2).then_some(RunOutcome::Finished);
        }
        stall.deadlock_rounds = 0;
        self.board.unpark_all_waiting();
        assert!(
            stall.barren_rounds < LIVELOCK_ROUNDS,
            "scheduler livelocked: no task progressed for {} forced rounds",
            stall.barren_rounds
        );
        None
    }

    /// Run one segment on the worker pool ([`crate::pool`]). With
    /// `until = None` the segment runs to the natural end of the
    /// simulation. With `until = Some(c)` the checkpoint limit caps every
    /// clock at `c` and the segment ends at the safe-point (or earlier, if
    /// the simulation finishes first — the outcome says which).
    ///
    /// `until` must not lie in the past of any core's clock.
    pub fn run_until(&mut self, until: Option<u64>) -> RunOutcome {
        let Some(t0) = self.begin_segment(until) else { return RunOutcome::Finished };
        let outcome = crate::pool::run(self, until);
        self.end_segment(outcome, t0)
    }

    /// Open a segment for either scheduler: set (or lift) the checkpoint
    /// limit and lower the stop flag. `None` when the simulation is
    /// already over; else the segment's start, for [`Engine::end_segment`].
    pub(crate) fn begin_segment(&mut self, until: Option<u64>) -> Option<Instant> {
        if self.finished {
            return None;
        }
        if let Some(c) = until {
            assert!(
                self.cores.iter().all(|core| core.local() <= c),
                "checkpoint cycle {c} is in the past of a core clock"
            );
            self.board.set_checkpoint_limit(c);
        } else {
            self.board.clear_checkpoint_limit();
        }
        self.board.reset_stop();
        Some(Instant::now())
    }

    /// Close a segment either scheduler ran, however it ended: stop every
    /// core, let each publish its final state, account late events. Only
    /// a finished run gets the `Stop` broadcast and the final drain: a
    /// `Stop` in an InQ would poison `stop_seen` in restored or continued
    /// cores.
    pub(crate) fn end_segment(&mut self, outcome: RunOutcome, t0: Instant) -> RunOutcome {
        self.board.stop_all();
        if outcome == RunOutcome::Finished {
            self.uncore.broadcast_stop();
        }
        for core in self.cores.iter_mut() {
            if core.finished() {
                self.board.finish(core.id());
            }
            core.publish_obs();
        }
        for sh in self.shards.iter_mut() {
            sh.finish();
        }
        if outcome == RunOutcome::Finished {
            // The final drain: late events (Exit, statistics) are accounted.
            let mut scratch: Vec<OutEvent> = Vec::new();
            for (c, q) in self.out_consumers.iter_mut().enumerate() {
                while q.drain_into(&mut scratch) > 0 {
                    self.uncore.ingest_batch(c, &scratch);
                    scratch.clear();
                }
            }
            self.uncore.process_ready(u64::MAX);
            self.finished = true;
        }
        self.wall += t0.elapsed();
        if self.obs.is_some() {
            self.uncore.publish_obs();
        }
        outcome
    }

    /// Serialize the complete simulated system. Call at a safe-point: a
    /// fresh engine (nothing run yet), after `run_until(Some(c))` returned
    /// [`RunOutcome::CheckpointReady`], or after the simulation finished.
    ///
    /// Unsupported configurations (`record_trace`, which records the slack
    /// profile) return [`SnapError::Unsupported`] — they keep state in
    /// host-side structures this format does not carry.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, SnapError> {
        if self.cfg.record_trace {
            return Err(SnapError::Unsupported(
                "slack-profile (record_trace) runs cannot be snapshotted".into(),
            ));
        }
        // Move every in-flight message into a serializable structure:
        // shards drain and process their queues (sound at a safe-point —
        // every queued event's timestamp is ≤ the checkpoint cycle, and
        // `finish` preserves `(ts, core, seq)` order), then cores drain
        // their InQs, replies included, into their timestamp heaps.
        for sh in self.shards.iter_mut() {
            sh.finish();
        }
        for core in self.cores.iter_mut() {
            core.drain_pending();
        }
        let mut w = Writer::with_capacity(1 << 16);
        self.cfg.save(&mut w);
        self.scheme.save(&mut w);
        w.put_u64(self.board.global());
        w.put_usize(self.cores.len());
        for core in &self.cores {
            w.put_u64(core.local());
        }
        self.mem.save(&mut w);
        // v3: the text length lets resume rebuild the predecode table
        // straight from functional memory (the image holds encoded text).
        w.put_usize(self.text_len);
        match &self.tracker {
            None => w.put_bool(false),
            Some(t) => {
                w.put_bool(true);
                t.save(&mut w);
            }
        }
        w.put_bool(self.roi.active.load(Ordering::Relaxed));
        w.put_u64(self.roi.committed.load(Ordering::Relaxed));
        let mut es = self.engine;
        es.blocks += self.board.blocks();
        es.wakeups += self.board.wakeups();
        es.save(&mut w);
        for core in &self.cores {
            core.save_state(&mut w);
        }
        self.uncore.save_state(&mut w);
        // v6: sharded memory-manager state (count is zero when unsharded).
        w.put_usize(self.shards.len());
        for sh in &self.shards {
            sh.save_state(&mut w);
        }
        match &self.obs {
            None => w.put_bool(false),
            Some(o) => {
                // Ratchet the queue high-water marks into the hub before it
                // is serialized, so the snapshot carries current values.
                self.uncore.publish_obs();
                for core in self.cores.iter_mut() {
                    core.publish_obs();
                }
                w.put_bool(true);
                o.save(&mut w);
            }
        }
        Ok(sk_snap::seal(&w.into_bytes()))
    }

    /// [`Engine::snapshot`] straight to a file (write-then-rename, so a
    /// crash never leaves a torn image under the target name).
    pub fn snapshot_to_file(&mut self, path: &std::path::Path) -> Result<(), SnapError> {
        let bytes = self.snapshot()?; // already sealed
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// [`Engine::resume`] from a snapshot file.
    pub fn resume_from_file(
        path: &std::path::Path,
        scheme_override: Option<Scheme>,
    ) -> Result<Engine, SnapError> {
        let bytes = std::fs::read(path)?;
        Engine::resume(&bytes, scheme_override)
    }

    /// Reconstruct an engine from [`Engine::snapshot`] bytes, optionally
    /// forking onto a different scheme. All validation errors come back as
    /// [`SnapError`]s — a damaged or wrong-version snapshot never panics.
    pub fn resume(bytes: &[u8], scheme_override: Option<Scheme>) -> Result<Engine, SnapError> {
        let payload = sk_snap::open(bytes)?;
        let mut r = Reader::new(payload);
        let cfg = TargetConfig::load(&mut r)?;
        let saved_scheme = Scheme::load(&mut r)?;
        let scheme = scheme_override.unwrap_or(saved_scheme);
        if cfg.record_trace {
            return Err(SnapError::Unsupported(
                "snapshot claims a configuration that cannot be snapshotted".into(),
            ));
        }
        let g = r.get_u64()?;
        let locals = Vec::<u64>::load(&mut r)?;
        if locals.len() != cfg.n_cores {
            return Err(SnapError::Corrupt(format!(
                "{} core clocks for {} cores",
                locals.len(),
                cfg.n_cores
            )));
        }
        // Qualified: FuncMemory's inherent `load(image)` shadows the trait.
        let mem = <FuncMemory as Persist>::load(&mut r)?;
        let text_len = r.get_usize()?;
        // Rebuild the predecode table from the text words in functional
        // memory (the cores only ever read it, so it is image-identical).
        let text = Arc::new(DecodedProgram::from_words(
            (0..text_len).map(|i| mem.read(Program::text_addr(i))),
        ));
        let tracker =
            if r.get_bool()? { Some(Arc::new(ConflictTracker::load(&mut r)?)) } else { None };
        let wants_tracker = cfg.track_workload_violations || cfg.fast_forward_compensation;
        if tracker.is_some() != wants_tracker {
            return Err(SnapError::Corrupt(
                "conflict-tracker presence disagrees with the configuration".into(),
            ));
        }
        let shared = Shared::around(mem, text, tracker, &cfg);
        shared.roi.active.store(r.get_bool()?, Ordering::Relaxed);
        shared.roi.committed.store(r.get_u64()?, Ordering::Relaxed);
        let engine_stats = EngineStats::load(&mut r)?;

        // Fresh queues (empty at a safe-point by construction) and signals
        // around the restored state.
        let mut wiring =
            wire(&cfg, scheme, &shared, || Some(Arc::new(ClockBoard::restored(&locals, g))));
        for (id, (core, &local)) in wiring.cores.iter_mut().zip(&locals).enumerate() {
            core.restore_state(&mut r)?;
            if core.local() != local {
                return Err(SnapError::Corrupt(format!(
                    "core {id} clock {} disagrees with the board clock {}",
                    core.local(),
                    local
                )));
            }
        }
        wiring.uncore.restore_state(&mut r)?;
        // v6: sharded memory-manager state.
        let ns = r.get_usize()?;
        if ns != cfg.mem_shards {
            return Err(SnapError::Corrupt(format!(
                "{ns} shard states for a {}-shard configuration",
                cfg.mem_shards
            )));
        }
        for sh in wiring.shards.iter_mut() {
            sh.restore_state(&mut r)?;
        }
        let obs = if r.get_bool()? {
            let m = Metrics::load(&mut r)?;
            // The engine indexes the hub by core, reply queue and shard.
            let queues = m.manager.inq_high_water.len();
            if m.n_cores() != cfg.n_cores || queues != cfg.n_cores {
                return Err(SnapError::Corrupt(format!(
                    "metrics hub for {} cores ({queues} reply queues) in a {}-core snapshot",
                    m.n_cores(),
                    cfg.n_cores
                )));
            }
            if m.shards.len() < cfg.mem_shards {
                return Err(SnapError::Corrupt(format!(
                    "metrics hub for {} shards in a {}-shard snapshot",
                    m.shards.len(),
                    cfg.mem_shards
                )));
            }
            Some(Arc::new(m))
        } else {
            None
        };
        r.finish()?;
        // A fork onto an eager scheme must not strand events that were
        // queued under the snapshot's ordered discipline.
        wiring.uncore.adopt_queued_for_scheme();

        let mut engine = Engine::from_parts(cfg, scheme, shared, wiring, text_len);
        engine.engine = engine_stats;
        // Re-wire the restored hub through every layer (restore_state
        // rebuilt the uncore's sync table without its obs handle).
        if let Some(o) = obs {
            engine.attach_metrics(o);
        }
        Ok(engine)
    }

    /// Finalize the cores and assemble the run's [`SimReport`].
    pub fn into_report(mut self) -> SimReport {
        self.engine.blocks += self.board.blocks();
        self.engine.wakeups += self.board.wakeups();
        self.engine.events_processed = self.uncore.events_processed
            + self.shards.iter().map(|s| s.events_processed).sum::<u64>();

        let cores: Vec<CoreStats> = self.cores.into_iter().map(|c| c.into_stats()).collect();
        let violations = violation_report(&self.tracker);
        let mut report = assemble_report(
            self.scheme,
            &self.cfg,
            cores,
            &self.uncore,
            self.engine,
            violations,
            self.wall,
        );
        report.slack_profile = self.slack_profile;
        // Merge sharded directory/interconnect statistics.
        for sh in &self.shards {
            report.dir += sh.dir.stats;
            report.bus += sh.dir.bus_stats();
        }
        report
    }
}

/// Run `program` on the parallel engine under `scheme`.
///
/// Where the paper runs one POSIX thread per target core plus a manager
/// thread ("simulation is composed of 9 POSIX threads that simulate an
/// 8-core target CMP"), this runs the same tasks on W = min(host CPUs,
/// cores) worker threads (see [`Engine::run_until`]). With
/// `cfg.mem_shards > 0`, sharded memory managers carry the directory/L2
/// work (the paper's §2.2 "split the manager" suggestion; see
/// `crate::shard`).
pub fn run_parallel(program: &Program, scheme: Scheme, cfg: &TargetConfig) -> SimReport {
    let mut engine = Engine::new(program, scheme, cfg);
    engine.run_until(None);
    engine.into_report()
}
