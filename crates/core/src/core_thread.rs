//! The core thread: one target core + its L1s, driven by the time
//! discipline (paper §2.1–2.2).
//!
//! A [`CoreSim`] owns a CPU timing model, the consumer end of its InQ, the
//! producer end of its OutQ, and the syscall runtime. It exposes a
//! single-cycle [`CoreSim::step_cycle`], used directly by the sequential
//! reference engine (which drives all cores round-robin in one thread),
//! and the non-blocking quantum [`CoreSim::run_step`] both parallel
//! schedulers step a core through.
//!
//! InQ handling follows the paper: "the core thread enquires its InQ in
//! every cycle in order to see if its request has been processed ... the
//! core thread reads out the data field of the entry when its local time
//! becomes equal to the timestamp of the entry." Because eager slack
//! schemes can deliver entries whose timestamps are *not* monotone, the
//! queue is drained into a local min-heap and entries are applied when
//! local time reaches them.

use crate::clock::ClockBoard;
use crate::config::TargetConfig;
use crate::cpu::{CoreHost, CpuCtx, CpuModel, SysOutcome};
use crate::msg::{InKind, InMsg, OutEvent, OutKind, SyncOp};
use crate::spsc::{Consumer, Producer};
use crate::stats::CoreStats;
use crate::violation::ConflictTracker;
use crossbeam::utils::CachePadded;
use sk_isa::{DecodedInstr, DecodedProgram, Syscall};
use sk_mem::{FuncMemory, PageCursor};
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive inert cycles before a core mem-parks. A core's inert
/// streak can never exceed its scheme's slack (its window is at most
/// `global + slack` and global tracks the slowest core), so with a
/// threshold of 24 the conservative schemes (CC, Q10, S10*, S9, S9*) never
/// trigger this path and stay exactly deterministic; only large-slack
/// schemes (S100, SU) use it, where the induced reordering is part of the
/// accepted distortion.
const INERT_PARK_AFTER: u32 = 24;

/// Region-of-interest state shared by all cores and the manager. The two
/// fields sit on lines of their own: every core reads `active` on each
/// committing cycle, while `committed` takes one add per published batch.
#[derive(Debug, Default)]
pub struct RoiState {
    /// Set when the workload signals `RoiBegin`; written once per run.
    pub active: CachePadded<AtomicBool>,
    /// Committed instructions inside the ROI, summed across cores. A core
    /// adds its count at each clock publication (a `run_step` batch, or
    /// each cycle of the sequential engine), so the manager's stop check
    /// sees it no later than the batch that earned it.
    pub committed: CachePadded<AtomicU64>,
}

/// Heap-ordered InQ entry: (timestamp, source ring, per-ring order). The
/// source ring breaks same-timestamp ties deterministically even when
/// multiple managers (coordinator + shards) deliver concurrently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapMsg {
    ts: u64,
    ring: usize,
    arrival: u64,
    msg: InMsg,
}

sk_snap::persist_record!(HeapMsg { ts, ring, arrival, msg });

impl Ord for HeapMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.ring, self.arrival).cmp(&(other.ts, other.ring, other.arrival))
    }
}
impl PartialOrd for HeapMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SysPhase {
    Idle,
    /// Waiting for the manager's SyncReply (the core's clock is suspended
    /// meanwhile and fast-forwarded to the reply timestamp).
    WaitReply {
        op: SyncOp,
    },
}

sk_snap::persist_enum!(SysPhase, "sys phase" { 0 => Idle, 1 => WaitReply { op } });

/// State behind the [`CoreHost`] the CPU model talks to.
struct HostState {
    core_id: usize,
    n_cores: usize,
    tid: u32,
    /// µTLB over the shared functional memory: the common-case access is
    /// one pointer chase with zero shared-state writes.
    mem: PageCursor,
    /// Shared predecoded text segment (fetch fast path).
    text: Arc<DecodedProgram>,
    tracker: Option<Arc<ConflictTracker>>,
    pending_out: Vec<OutKind>,
    sys_phase: SysPhase,
    sync_reply: Option<i64>,
    printed: Vec<i64>,
    roi_begin_seen: bool,
    roi_end_seen: bool,
    stall_request: u64,
}

impl HostState {
    fn build_sync_op(&self, code: Syscall, args: [u64; 4]) -> Option<SyncOp> {
        Some(match code {
            Syscall::InitLock => SyncOp::InitLock { id: args[0] as u32 },
            Syscall::Lock => SyncOp::Lock { id: args[0] as u32 },
            Syscall::Unlock => SyncOp::Unlock { id: args[0] as u32 },
            Syscall::InitBarrier => {
                SyncOp::InitBarrier { id: args[0] as u32, count: args[1] as u32 }
            }
            Syscall::Barrier => SyncOp::BarrierArrive { id: args[0] as u32 },
            Syscall::InitSema => SyncOp::InitSema { id: args[0] as u32, count: args[1] as i64 },
            Syscall::SemaWait => SyncOp::SemaWait { id: args[0] as u32 },
            Syscall::SemaSignal => SyncOp::SemaSignal { id: args[0] as u32 },
            Syscall::Spawn => SyncOp::Spawn { entry: args[0], arg: args[1] },
            Syscall::Cas => SyncOp::Cas { addr: args[0] & !7, expected: args[1], desired: args[2] },
            _ => return None,
        })
    }
}

impl CoreHost for HostState {
    fn load(&mut self, addr: u64, ts: u64) -> u64 {
        if let Some(t) = &self.tracker {
            let r = t.record_load(self.core_id, addr, ts);
            self.stall_request += r.stall;
        }
        self.mem.read(addr)
    }

    fn store(&mut self, addr: u64, val: u64, ts: u64) {
        if let Some(t) = &self.tracker {
            let r = t.record_store(self.core_id, addr, ts);
            self.stall_request += r.stall;
        }
        self.mem.write(addr, val);
    }

    fn fetch_word(&mut self, addr: u64) -> u64 {
        self.mem.read(addr)
    }

    fn decoded(&mut self, pc: u64) -> Option<DecodedInstr> {
        self.text.lookup(pc).copied()
    }

    fn emit(&mut self, kind: OutKind) {
        self.pending_out.push(kind);
    }

    fn sys_start(&mut self, code: u16, args: [u64; 4], now: u64) -> SysOutcome {
        let Some(sc) = Syscall::from_code(code) else {
            // Unknown syscall: tolerate as a no-op (workload bug).
            return SysOutcome::Done(None);
        };
        match sc {
            Syscall::Exit => {
                self.emit(OutKind::Exit { code: args[0] });
                SysOutcome::Exit
            }
            Syscall::PrintInt => {
                self.printed.push(args[0] as i64);
                SysOutcome::Done(None)
            }
            Syscall::PrintFloat => {
                self.printed.push(f64::from_bits(args[0]) as i64);
                SysOutcome::Done(None)
            }
            Syscall::GetTid => SysOutcome::Done(Some(self.tid as u64)),
            Syscall::GetNcores => SysOutcome::Done(Some(self.n_cores as u64)),
            Syscall::ReadCycle => SysOutcome::Done(Some(now)),
            Syscall::RoiBegin => {
                self.roi_begin_seen = true;
                self.emit(OutKind::RoiBegin);
                SysOutcome::Done(None)
            }
            Syscall::RoiEnd => {
                self.roi_end_seen = true;
                self.emit(OutKind::RoiEnd);
                SysOutcome::Done(None)
            }
            _ => {
                let op = self.build_sync_op(sc, args).expect("sync syscall");
                self.sync_reply = None;
                self.sys_phase = SysPhase::WaitReply { op };
                self.emit(OutKind::Sync(op));
                SysOutcome::Pending
            }
        }
    }

    fn sys_poll(&mut self, _now: u64) -> SysOutcome {
        match self.sys_phase {
            SysPhase::Idle => SysOutcome::Done(None),
            SysPhase::WaitReply { op } => {
                let Some(v) = self.sync_reply.take() else {
                    return SysOutcome::Pending;
                };
                if matches!(op, SyncOp::Lock { .. } | SyncOp::SemaWait { .. }) && v != 1 {
                    // Withheld grants always deliver 1; any other value is
                    // a protocol bug.
                    debug_assert_eq!(v, 1, "unexpected sync grant value");
                }
                self.sys_phase = SysPhase::Idle;
                match op {
                    SyncOp::Spawn { .. } | SyncOp::Cas { .. } => SysOutcome::Done(Some(v as u64)),
                    _ => SysOutcome::Done(None),
                }
            }
        }
    }
}

/// Result of one non-blocking scheduling quantum of a core
/// ([`CoreSim::run_step`]). Every variant except `Progressed` is a point
/// where the core cannot go on by itself: the scheduler moves to other
/// work, with any parked state already published on the [`ClockBoard`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Simulated a batch, jumped the clock, or resolved a park/recheck
    /// race; call again.
    Progressed,
    /// Stop flag or `Stop` message observed; the core is done running.
    Stopped,
    /// The workload thread exited (`ClockBoard::finish` already called).
    Finished,
    /// No workload thread and no pending message: the core is `Parked` on
    /// the board and must not step again until unparked.
    Idle,
    /// Blocked in a sync call with no queued reply: `SyncWait` on the
    /// board; resumes when the manager's reply unparks it.
    SyncBlocked,
    /// The scheme window is closed (`local == max_local`): runnable again
    /// once the manager raises the window.
    AtWindow,
    /// Pipeline provably inert with no pending message: `MemWait` on the
    /// board until a message or the virtual timeout resumes it.
    MemBlocked,
}

/// One simulated core: CPU model + queues + syscall runtime.
pub struct CoreSim {
    id: usize,
    cpu: CpuModel,
    /// InQ consumers: index 0 is the coordination manager's queue;
    /// indices 1.. are the memory shards' reply queues (sharded mode).
    inqs: Vec<Consumer<InMsg>>,
    /// OutQ to the coordination manager.
    outq: Producer<OutEvent>,
    /// OutQs to the memory shards (empty in single-manager mode).
    shard_outqs: Vec<Producer<OutEvent>>,
    /// Per-shard dirty-core bitmasks (shared with the shards): set word
    /// `id >> 6`, bit `id & 63` after landing an event in a shard's queue
    /// so its drain scans only active queues (see [`MemShard::iterate`]).
    shard_dirty: Vec<Arc<Vec<std::sync::atomic::AtomicU64>>>,
    /// Wakeup signals for the shards (parallel engine only).
    shard_signals: Vec<Arc<crate::shard::ShardSignal>>,
    /// Shards this cycle's events were routed to (scratch bitmask).
    shards_touched: u64,
    /// Set when an event routed to a shard index ≥ 64 (beyond the bitmask):
    /// the signal loop then signals every shard instead.
    shards_touched_all: bool,
    n_banks: usize,
    heap: BinaryHeap<Reverse<HeapMsg>>,
    /// Reusable InQ drain buffer.
    inq_scratch: Vec<InMsg>,
    /// Coordinator-bound events of the current cycle, published as one
    /// batch (single `Release` store of the queue tail).
    out_scratch: Vec<OutEvent>,
    arrival: u64,
    host: HostState,
    stats: CoreStats,
    seq: u64,
    local: u64,
    stop_seen: bool,
    roi: Arc<RoiState>,
    roi_base_committed: u64,
    roi_frozen: Option<u64>,
    /// ROI instructions committed since the last [`CoreSim::flush_roi`];
    /// zero between batches, hence at every safe-point.
    roi_pending: u64,
    inert_streak: u32,
    /// Max cycles simulated per local-clock publication (run-ahead
    /// batching); 1 for conservative schemes. See [`Scheme::batch_cap`].
    ///
    /// [`Scheme::batch_cap`]: crate::scheme::Scheme::batch_cap
    batch_cap: u64,
    /// Optional telemetry hub; all hot-loop instrumentation sits behind
    /// this one `Option` branch.
    obs: Option<Arc<sk_obs::Metrics>>,
}

impl CoreSim {
    /// Assemble a core.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        cfg: &TargetConfig,
        cpu: CpuModel,
        inq: Consumer<InMsg>,
        outq: Producer<OutEvent>,
        mem: FuncMemory,
        text: Arc<DecodedProgram>,
        tracker: Option<Arc<ConflictTracker>>,
        roi: Arc<RoiState>,
    ) -> Self {
        CoreSim {
            id,
            cpu,
            inqs: vec![inq],
            outq,
            shard_outqs: Vec::new(),
            shard_dirty: Vec::new(),
            shard_signals: Vec::new(),
            shards_touched: 0,
            shards_touched_all: false,
            n_banks: cfg.mem.n_banks,
            heap: BinaryHeap::new(),
            inq_scratch: Vec::new(),
            out_scratch: Vec::new(),
            arrival: 0,
            host: HostState {
                core_id: id,
                n_cores: cfg.n_cores,
                tid: id as u32,
                mem: mem.cursor(),
                text,
                tracker,
                pending_out: Vec::with_capacity(8),
                sys_phase: SysPhase::Idle,
                sync_reply: None,
                printed: vec![],
                roi_begin_seen: false,
                roi_end_seen: false,
                stall_request: 0,
            },
            stats: CoreStats::default(),
            seq: 0,
            local: 0,
            stop_seen: false,
            roi: roi.clone(),
            roi_base_committed: 0,
            roi_frozen: None,
            roi_pending: 0,
            inert_streak: 0,
            batch_cap: 1,
            obs: None,
        }
    }

    /// Set the run-ahead batch cap (cycles simulated between local-clock
    /// publications). The engine derives it from [`Scheme::batch_cap`];
    /// tests may force it to prove batching is invisible.
    ///
    /// [`Scheme::batch_cap`]: crate::scheme::Scheme::batch_cap
    pub fn set_batch_cap(&mut self, cap: u64) {
        self.batch_cap = cap.max(1);
    }

    /// Attach a telemetry hub and start tracking this core's OutQ
    /// high-water mark.
    pub fn set_obs(&mut self, obs: Arc<sk_obs::Metrics>) {
        self.outq.enable_high_water();
        self.obs = Some(obs);
    }

    /// Publish producer-side queue telemetry and the µTLB counters into
    /// the hub (call when the core is quiescent: end of run, or at a
    /// snapshot safe-point).
    pub fn publish_obs(&mut self) {
        if let Some(obs) = &self.obs {
            let c = &obs.cores[self.id];
            c.outq_high_water.raise_to(self.outq.high_water() as u64);
            let (hits, misses) = self.host.mem.take_counters();
            c.utlb_hits.add(hits);
            c.utlb_misses.add(misses);
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Attach sharded memory-manager endpoints (sharded mode).
    pub fn attach_shards(
        &mut self,
        reply_rings: Vec<Consumer<InMsg>>,
        event_rings: Vec<Producer<OutEvent>>,
        signals: Vec<Arc<crate::shard::ShardSignal>>,
        dirty: Vec<Arc<Vec<std::sync::atomic::AtomicU64>>>,
    ) {
        assert_eq!(reply_rings.len(), event_rings.len());
        assert_eq!(dirty.len(), event_rings.len());
        self.inqs.extend(reply_rings);
        self.shard_outqs = event_rings;
        self.shard_signals = signals;
        self.shard_dirty = dirty;
    }

    /// Flag this core's queue as dirty for shard `si` — MUST follow the
    /// queue push (release pairs with the shard's mask-consuming acquire,
    /// so a consumed bit proves the pushed event is visible).
    #[inline]
    fn mark_shard_dirty(&self, si: usize) {
        self.shard_dirty[si][self.id >> 6]
            .fetch_or(1 << (self.id & 63), std::sync::atomic::Ordering::Release);
    }

    /// Deliver one event to shard `si` and flag this core's queue there.
    fn send_to_shard(&mut self, si: usize, ev: OutEvent) {
        if si < 64 {
            self.shards_touched |= 1 << si;
        } else {
            self.shards_touched_all = true;
        }
        self.shard_outqs[si].push(ev);
        self.mark_shard_dirty(si);
    }

    /// Current local time (completed cycles).
    pub fn local(&self) -> u64 {
        self.local
    }

    /// Start the initial workload thread directly (core 0 at init).
    pub fn start_main(&mut self, entry: u64) {
        self.cpu.start_thread(entry, 0, self.id as u32);
    }

    /// Has the workload thread on this core exited?
    pub fn finished(&self) -> bool {
        self.cpu.finished()
    }

    /// Is a workload thread running (started and not exited)?
    pub fn running(&self) -> bool {
        self.cpu.running() && !self.cpu.finished()
    }

    /// Was a `Stop` message received?
    pub fn stopped(&self) -> bool {
        self.stop_seen
    }

    /// Pipeline diagnostic (for stall debugging).
    pub fn debug_state(&self) -> String {
        format!("core {}: local={} {}", self.id, self.local, self.cpu.debug_state())
    }

    /// Is the workload blocked awaiting a sync reply (barrier release,
    /// lock grant/denial, spawn acknowledgement, ...)? Such a core
    /// suspends its clock (see `ClockBoard::sync_park`): waiting consumes
    /// no simulated work, and the reply timestamp tells the core how far
    /// to fast-forward.
    pub fn sync_waiting(&self) -> bool {
        matches!(self.host.sys_phase, SysPhase::WaitReply { .. }) && self.host.sync_reply.is_none()
    }

    /// Timestamp of the earliest queued `SyncReply`, if any (drains the
    /// InQ first). Used to fast-forward a sync-parked clock.
    pub fn earliest_sync_reply_ts(&mut self) -> Option<u64> {
        self.drain_inq();
        self.heap
            .iter()
            .filter(|Reverse(h)| matches!(h.msg.kind, InKind::SyncReply { .. }))
            .map(|Reverse(h)| h.ts)
            .min()
    }

    /// Pull everything out of the InQs into the local timestamp heap. Most
    /// cycles find every InQ empty, which costs one look per queue; a
    /// non-empty one is drained by [`CoreSim::drain_ring`].
    #[inline]
    fn drain_inq(&mut self) {
        for ring in 0..self.inqs.len() {
            if !self.inqs[ring].is_empty() {
                self.drain_ring(ring);
            }
        }
    }

    /// Drain InQ `ring` in batches until a look finds nothing new: one
    /// `Release` store of its head frees each chunk for the producing
    /// manager at once.
    #[cold]
    #[inline(never)]
    fn drain_ring(&mut self, ring: usize) {
        let mut scratch = std::mem::take(&mut self.inq_scratch);
        let q = &mut self.inqs[ring];
        loop {
            scratch.clear();
            if q.drain_into(&mut scratch) == 0 {
                break;
            }
            for &m in &scratch {
                if matches!(m.kind, InKind::Stop) {
                    self.stop_seen = true;
                    continue;
                }
                self.arrival += 1;
                self.heap.push(Reverse(HeapMsg { ts: m.ts, ring, arrival: self.arrival, msg: m }));
            }
        }
        self.inq_scratch = scratch;
    }

    /// Timestamp of the earliest pending InQ message, if any.
    pub fn next_msg_ts(&mut self) -> Option<u64> {
        self.drain_inq();
        self.heap.peek().map(|Reverse(h)| h.ts)
    }

    fn apply_due_msgs(&mut self, now: u64) {
        while let Some(&Reverse(h)) = self.heap.peek() {
            if h.ts > now {
                break;
            }
            self.heap.pop();
            match h.msg.kind {
                InKind::DMemReply { block, granted } => self.cpu.mem_reply(block, granted, h.ts),
                InKind::IMemReply { block } => self.cpu.imem_reply(block, h.ts),
                InKind::SyncReply { value } => self.host.sync_reply = Some(value),
                InKind::Invalidate { block, downgrade } => self.cpu.invalidate(block, downgrade),
                InKind::Start { entry, arg, tid } => {
                    self.host.tid = tid;
                    self.cpu.start_thread(entry, arg, tid);
                }
                InKind::Stop => self.stop_seen = true,
            }
        }
    }

    /// Simulate one cycle labelled `now` (normally `local() + 1`; a larger
    /// gap is allowed for cores that were idle-skipped while no workload
    /// thread was running). Returns the number of OutQ events emitted.
    pub fn step_cycle(&mut self, now: u64) -> u32 {
        debug_assert!(now > self.local);
        self.drain_inq();
        self.apply_due_msgs(now);

        let committed0 = self.stats.committed;
        {
            let mut ctx = CpuCtx { now, host: &mut self.host, stats: &mut self.stats };
            self.cpu.step(&mut ctx);
        }

        // Fast-forward compensation requested by the tracker.
        if self.host.stall_request > 0 {
            self.cpu.add_stall(self.host.stall_request);
            self.host.stall_request = 0;
        }

        // ROI bookkeeping. The cycle that commits RoiBegin itself counts
        // from the post-syscall committed total, so the shared budget
        // counter and the per-core ROI statistic agree exactly. The count
        // stays core-private until the next `flush_roi`.
        let mut roi_floor = committed0;
        if self.host.roi_begin_seen {
            self.host.roi_begin_seen = false;
            self.roi.active.store(true, Ordering::Release);
            self.roi_base_committed = self.stats.committed;
            roi_floor = self.stats.committed;
        }
        if self.host.roi_end_seen {
            self.host.roi_end_seen = false;
            self.roi_frozen = Some(self.stats.committed);
        }
        let committed_delta = self.stats.committed.saturating_sub(roi_floor);
        if committed_delta > 0
            && self.roi.active.load(Ordering::Relaxed)
            && self.roi_frozen.is_none()
        {
            self.roi_pending += committed_delta;
        }

        // Flush emitted events with this cycle's timestamp. Memory events
        // route to their bank's shard when sharded managers are attached;
        // everything else (sync, exit, ROI) goes to the coordinator.
        // Coordinator-bound events are collected and published as one
        // batch — N slot writes, a single `Release` store of the tail.
        let mut events = 0u32;
        self.shards_touched = 0;
        self.shards_touched_all = false;
        debug_assert!(self.out_scratch.is_empty());
        for pi in 0..self.host.pending_out.len() {
            let kind = self.host.pending_out[pi];
            let ev = OutEvent { ts: now, seq: self.seq, kind };
            self.seq += 1;
            events += 1;
            let shard = if self.shard_outqs.is_empty() {
                None
            } else {
                match kind {
                    OutKind::DMem { block, .. } | OutKind::IMem { block } => {
                        Some(crate::shard::shard_of(block, self.n_banks, self.shard_outqs.len()))
                    }
                    _ => None,
                }
            };
            let Some(si) = shard else {
                // The coordinator's RoiBegin handler resets directory
                // statistics; sharded directories need the same reset at the
                // same point in event order, so the marker is broadcast into
                // every shard's stream where it lands at its deterministic
                // (ts, core, seq) position.
                if matches!(kind, OutKind::RoiBegin) {
                    for si in 0..self.shard_outqs.len() {
                        self.send_to_shard(si, ev);
                    }
                }
                self.out_scratch.push(ev);
                continue;
            };
            self.send_to_shard(si, ev);
        }
        self.host.pending_out.clear();
        self.outq.push_batch(&self.out_scratch);
        self.out_scratch.clear();

        self.local = now;
        events
    }

    /// Add the ROI instructions committed since the last flush to the
    /// shared count the manager's stop condition reads. Callers flush
    /// before they publish the clock that covers those cycles.
    #[inline]
    pub(crate) fn flush_roi(&mut self) {
        if self.roi_pending > 0 {
            self.roi.committed.fetch_add(self.roi_pending, Ordering::Relaxed);
            self.roi_pending = 0;
        }
    }

    /// Advance in one step over up to `room` cycles the CPU model proves
    /// only book a stall ([`CpuModel::quiet_cycles`]) before the next queued
    /// message. Returns how many.
    fn skip_quiet(&mut self, room: u64) -> u64 {
        let now = self.local + 1;
        let q = self.cpu.quiet_cycles(now, self.heap.peek().map(|Reverse(h)| h.ts));
        if q == 0 {
            return 0;
        }
        // A late arrival can only end the span sooner; a `Stop` is left to
        // the stepped cycle, which ends the batch on it.
        self.drain_inq();
        let next = self.heap.peek().map_or(u64::MAX, |Reverse(h)| h.ts.saturating_sub(now));
        let k = q.min(room).min(next);
        if k == 0 || self.stop_seen {
            return 0;
        }
        self.cpu.skip_quiet(k, &mut self.stats);
        self.local += k;
        k
    }

    /// Move this core's clock and its board entry forward to `target`
    /// without simulating the cycles in between: the dead time before a
    /// thread starts, a sync wait, or an inert stretch before a message.
    fn jump_to(&mut self, board: &ClockBoard, target: u64) {
        if target > self.local {
            self.local = target;
            board.jump_local(self.id, target);
        }
    }

    /// Finalize without running (sequential engine path, and the parallel
    /// engine once the simulation is truly over): the core's counters.
    pub fn into_stats(mut self) -> CoreStats {
        self.stats.cycles = self.local;
        self.stats.printed = std::mem::take(&mut self.host.printed);
        let end = self.roi_frozen.unwrap_or(self.stats.committed);
        if self.roi.active.load(Ordering::Relaxed) {
            self.stats.roi_committed = end.saturating_sub(self.roi_base_committed);
        }
        self.cpu.flush_cache_stats(&mut self.stats);
        self.stats
    }

    /// Would [`CoreSim::run_step`] answer [`StepOutcome::AtWindow`] right
    /// now without touching anything — no queue, no board state? When this
    /// is true it would, so a scheduler that asks this first may skip the
    /// call. The converse does not hold: a core with no thread started yet,
    /// or one sync-waiting with its reply queued, reaches `AtWindow` only
    /// after draining its InQ (and perhaps jumping its clock), and this
    /// answers false for it, so such a pick is stepped. Everything read
    /// here other than the window and the stop flag is changed only by
    /// this core's own steps.
    pub fn window_closed(&self, board: &ClockBoard) -> bool {
        self.local >= board.max_local(self.id).min(board.checkpoint_limit())
            && !self.stop_seen
            && !board.stopping()
            && self.running()
            && !self.sync_waiting()
    }

    /// One non-blocking scheduling quantum. Anywhere the core cannot go
    /// on, the parked state is published on the board and the matching
    /// [`StepOutcome`] is returned — unless a message arrived since the
    /// core looked ([`ClockBoard::unpark`]'s mail): then it reports
    /// `Progressed` and looks again on its next step. Both backends drive
    /// their cores exclusively through this function, so a CC run is
    /// bit-identical across them by construction.
    pub fn run_step(&mut self, board: &ClockBoard) -> StepOutcome {
        if board.stopping() || self.stop_seen {
            return StepOutcome::Stopped;
        }
        if self.cpu.finished() {
            board.finish(self.id);
            return StepOutcome::Finished;
        }
        // The window is observed once per quantum. The manager raises it
        // concurrently, and a second look further down (for the idle skip,
        // the inert jump) could see a grant the first did not: whether a
        // dead cycle is then stepped or jumped over is invisible to timing
        // but not to `stall_cycles` / `idle_cycles`, which would make a
        // threaded CC fingerprint depend on host scheduling. The
        // cooperative backend never sees the window move inside a quantum,
        // so this is also what keeps the two backends identical.
        let limit = board.max_local(self.id).min(board.checkpoint_limit());
        if !self.cpu.running() {
            // No thread yet: idle-skip toward the first pending message
            // or park until the manager sends one.
            match self.next_msg_ts() {
                Some(ts) => {
                    if ts > self.local + 1 {
                        self.jump_to(board, (ts - 1).min(limit));
                    }
                }
                // A failed park means a message arrived since the look above.
                None if board.park(self.id) => return StepOutcome::Idle,
                None => return StepOutcome::Progressed,
            }
        }
        if self.sync_waiting() {
            // The clock is suspended while waiting at a barrier; it
            // fast-forwards to the release timestamp (paper §3.2.3:
            // idle time must be undetectable by the program). Without
            // this, a barrier waiter under large slack burns simulated
            // cycles as fast as the host allows.
            match self.earliest_sync_reply_ts() {
                Some(r) => {
                    self.jump_to(board, r.saturating_sub(1).min(board.checkpoint_limit()));
                    // Fall through: the next cycle applies the release.
                }
                None if board.sync_park(self.id) => return StepOutcome::SyncBlocked,
                None => return StepOutcome::Progressed,
            }
        }
        if self.local >= limit {
            return StepOutcome::AtWindow;
        }
        // Run-ahead batch: advance up to `batch_cap` cycles inside
        // the open window, publishing the local clock once at the
        // end. InQ messages apply at their exact timestamps and OutQ
        // events keep exact per-cycle stamps; only the publication
        // atomics are amortized, and a provably quiet stall costs one
        // step (on a worker, a message arriving meanwhile applies at
        // the next stepped cycle, as on a slower host). A batch ends
        // early on anything the manager or the park paths must see
        // promptly: emitted events, thread exit/idle, a sync wait,
        // or a stop.
        let budget = (limit - self.local).min(self.batch_cap);
        let c0 = self.stats.committed;
        let i0 = self.stats.issued;
        let f0 = self.stats.fetched;
        let mut batch = 0u64;
        let events = loop {
            // A quiet span changes nothing the checks below read.
            let skipped = if budget > 1 { self.skip_quiet(budget - batch) } else { 0 };
            let events = if skipped > 0 { 0 } else { self.step_cycle(self.local + 1) };
            batch += skipped.max(1);
            if events > 0
                || batch >= budget
                || self.cpu.finished()
                || !self.cpu.running()
                || self.sync_waiting()
                || self.stop_seen
            {
                break events;
            }
        };
        // The clock publication is what tells the manager to look at this
        // core: its OutQ, and the shared ROI instruction count its stop
        // condition reads, flushed here once per batch.
        self.flush_roi();
        board.advance_local(self.id, self.local);
        // A batch that stopped on budget while a fused run is suspended
        // split that run at the slack-window edge: the block never
        // publishes past the window, it resumes in the next batch.
        if batch >= budget && self.cpu.sb_mid_run() {
            if let Some(e) = self.cpu.sb_events() {
                e.exit_window += 1;
            }
        }
        if let Some(obs) = &self.obs {
            let c = &obs.cores[self.id];
            c.cycles.add(batch);
            c.run_batch.record(batch);
            // Slack at publish time: how far this core may still run
            // ahead before hitting its window (`max_local − local`).
            c.slack.record(board.max_local(self.id).saturating_sub(self.local));
            if events > 0 {
                c.out_batch.record(events as u64);
            }
            // Drain superblock telemetry accumulated by the CPU model.
            if let Some(e) = self.cpu.sb_events() {
                if !e.is_empty() {
                    c.sb_exit_branch.add(e.exit_branch);
                    c.sb_exit_miss.add(e.exit_miss);
                    c.sb_exit_sync.add(e.exit_sync);
                    c.sb_exit_syscall.add(e.exit_syscall);
                    c.sb_exit_window.add(e.exit_window);
                    c.sb_exit_fallback.add(e.exit_fallback);
                    for (len, &n) in e.len_counts.iter().enumerate() {
                        if n > 0 {
                            c.sb_block_len.record_n(len as u64, n);
                        }
                    }
                    e.clear();
                }
            }
        }
        if events > 0 {
            if self.shards_touched_all {
                for sig in &self.shard_signals {
                    sig.signal();
                }
            } else {
                let mut touched = self.shards_touched;
                while touched != 0 {
                    let si = touched.trailing_zeros() as usize;
                    touched &= touched - 1;
                    self.shard_signals[si].signal();
                }
            }
        }

        // Inert-cycle suspension: a cycle with no commits, issues,
        // fetches or events changes nothing observable. After a run of
        // them the pipeline is provably waiting for an InQ message, so
        // ticking further only burns host time (and, under large
        // slack, lets the clock run far past pending reply
        // timestamps, distorting timing). Suspend and fast-forward to
        // the next message — the skipped cycles are inert, so the
        // simulated outcome is bit-identical.
        let inert = self.stats.committed == c0
            && self.stats.issued == i0
            && self.stats.fetched == f0
            && events == 0;
        if inert {
            // Every cycle of an inert batch was inert (any activity
            // would have changed the stats or emitted an event).
            self.inert_streak += batch as u32;
        } else {
            self.inert_streak = 0;
        }
        if self.inert_streak >= INERT_PARK_AFTER {
            match self.next_msg_ts() {
                Some(ts) if ts > self.local + 1 => {
                    // Clamp to the window: the skipped cycles are inert
                    // so the outcome is identical either way, but the
                    // clock must not escape the slack discipline (the
                    // laggard's window is its own local + slack).
                    self.jump_to(board, (ts - 1).min(limit));
                    self.inert_streak = 0;
                }
                Some(_) => {
                    // A message is due: the next cycle consumes it.
                    self.inert_streak = 0;
                }
                // Unlike a sync wait, the clock stays visible so global time
                // freezes with us (lockstep preserved). A resumed core ticks
                // another full streak before it parks again; the streak
                // survives a failed park.
                None if board.mem_park(self.id) => {
                    self.inert_streak = 0;
                    return StepOutcome::MemBlocked;
                }
                None => return StepOutcome::Progressed,
            }
        }
        StepOutcome::Progressed
    }

    // ---- snapshot support ----

    /// Drain every InQ into the local timestamp heap (safe-point
    /// preparation: queue contents become part of the serialized heap, so
    /// fresh queues on restore start empty).
    pub fn drain_pending(&mut self) {
        self.drain_inq();
    }

    /// Serialize all dynamic state. Call only at a safe-point between
    /// segments, with the InQs drained ([`CoreSim::drain_pending`]).
    /// Functional memory and the conflict tracker are engine-owned shared
    /// state and are serialized by the engine, not here.
    pub fn save_state(&self, w: &mut Writer) {
        debug_assert_eq!(self.roi_pending, 0, "ROI count not flushed at a safe-point");
        // CPU model blob, length-prefixed so a reader always consumes
        // exactly what the model wrote.
        let mut cw = Writer::new();
        self.cpu.save_state(&mut cw);
        let blob = cw.into_bytes();
        w.put_usize(blob.len());
        w.put_bytes(&blob);

        w.put_u64(self.local);
        w.put_u64(self.seq);
        w.put_u64(self.arrival);
        w.put_bool(self.stop_seen);

        // Pending InQ messages, in deterministic heap order.
        let mut msgs: Vec<HeapMsg> = self.heap.iter().map(|Reverse(h)| *h).collect();
        msgs.sort_unstable();
        msgs.save(w);

        // Syscall runtime.
        w.put_u32(self.host.tid);
        self.host.sys_phase.save(w);
        self.host.sync_reply.save(w);
        self.host.printed.save(w);
        w.put_u64(self.host.stall_request);

        self.stats.save(w);
        w.put_u64(self.roi_base_committed);
        self.roi_frozen.save(w);
        w.put_u32(self.inert_streak);
    }

    /// Restore dynamic state written by [`CoreSim::save_state`] into a
    /// freshly plumbed core (same configuration, fresh queues, CPU model
    /// already constructed). Never panics on corrupt input.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let n = r.get_count(1)?;
        let blob = r.take(n)?;
        let mut cr = Reader::new(blob);
        self.cpu.restore_state(&mut cr)?;
        cr.finish()?;

        self.local = r.get_u64()?;
        self.seq = r.get_u64()?;
        self.arrival = r.get_u64()?;
        self.stop_seen = r.get_bool()?;

        self.heap.clear();
        for h in Vec::<HeapMsg>::load(r)? {
            if h.ring >= self.inqs.len() {
                return Err(SnapError::Corrupt(format!(
                    "heap message from ring {} but only {} rings",
                    h.ring,
                    self.inqs.len()
                )));
            }
            self.heap.push(Reverse(h));
        }

        self.host.tid = r.get_u32()?;
        self.host.sys_phase = SysPhase::load(r)?;
        self.host.sync_reply = Option::<i64>::load(r)?;
        self.host.printed = Vec::load(r)?;
        self.host.stall_request = r.get_u64()?;

        self.stats = CoreStats::load(r)?;
        self.roi_base_committed = r.get_u64()?;
        self.roi_frozen = Option::<u64>::load(r)?;
        self.inert_streak = r.get_u32()?;
        Ok(())
    }
}

#[cfg(test)]
impl CoreSim {
    /// Every queue this core produces into: its OutQ, then its shard links.
    pub(crate) fn producers(&mut self) -> impl Iterator<Item = &mut Producer<OutEvent>> {
        std::iter::once(&mut self.outq).chain(self.shard_outqs.iter_mut())
    }
}
