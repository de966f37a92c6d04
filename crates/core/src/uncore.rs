//! The simulation-manager logic (paper §2.1–2.2, §3).
//!
//! [`Uncore`] is the manager's brain, independent of threading so the
//! parallel engine's manager task and the sequential reference engine
//! drive the *same* code:
//!
//! * consolidates every core's OutQ into the global queue (GQ);
//! * resolves memory events against the directory/L2 and sync events
//!   against the [`SyncTable`];
//! * replies through the per-core InQs;
//! * applies the active scheme's event-ordering discipline: eager
//!   (arrival order), timestamp-ordered with a `ts ≤ global` horizon, or
//!   at-barrier (quantum multiples);
//! * computes each core's window (max local time), including the adaptive
//!   quantum controller extension.

use crate::clock::ClockBoard;
use crate::config::TargetConfig;
use crate::msg::{GlobalEvent, InKind, InMsg, OutEvent, OutKind, SyncOp};
use crate::scheme::{EventOrdering, Scheme};
use crate::spsc::Producer;
use crate::sync::SyncTable;
use sk_mem::l1::ReqKind;
use sk_mem::Directory;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::cmp::Reverse;
use std::sync::Arc;

/// Heap wrapper ordering [`GlobalEvent`]s by (ts, core, seq).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct OrderedEv(GlobalEvent);

impl Ord for OrderedEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}
impl PartialOrd for OrderedEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Adaptive-quantum controller state (extension, after Falcón et al. [8]).
#[derive(Clone, Copy, Debug)]
struct Adaptive {
    min: u64,
    max: u64,
    quantum: u64,
    next_boundary: u64,
    traffic_mark: u64,
}

/// The simulation manager state machine.
pub struct Uncore {
    scheme: Scheme,
    /// Directory + L2 + interconnect model.
    pub dir: Directory,
    /// Table 1 sync objects.
    pub sync: SyncTable,
    ordered: std::collections::BinaryHeap<Reverse<OrderedEv>>,
    inqs: Vec<Producer<InMsg>>,
    /// Cores that received an InQ message since the last wakeup flush: a
    /// flag per core and the flagged cores as a list, so the flush walks
    /// receivers only.
    wake_pending: Vec<bool>,
    wake_list: Vec<usize>,
    /// Cores the last [`Uncore::flush_wakeups`] actually resumed (they
    /// were parked on the board): what the deterministic scheduler must
    /// put back in its runnable set.
    woken: Vec<usize>,
    board: Option<Arc<ClockBoard>>,
    started: Vec<bool>,
    exited: Vec<bool>,
    sync_latency: u64,
    spawn_latency: u64,
    adaptive: Option<Adaptive>,
    /// OutQ events consumed.
    pub events_processed: u64,
    /// Global time at which the region of interest began, if it has.
    pub roi_start: Option<u64>,
    /// Optional telemetry hub (InQ high-water publishing; the SyncTable
    /// holds its own reference for wait-time histograms).
    obs: Option<Arc<sk_obs::Metrics>>,
    /// Functional memory handle for `SyncOp::Cas`: like the Table 1 sync
    /// objects, atomic RMW is emulated outside the simulated machine and
    /// applied when the manager processes the event, so contended CAS
    /// ordering follows the active scheme's event discipline.
    mem: sk_mem::FuncMemory,
}

impl Uncore {
    /// Build the manager state. `board` is `None` for the sequential
    /// engine (no parked threads to wake).
    pub fn new(
        cfg: &TargetConfig,
        scheme: Scheme,
        inqs: Vec<Producer<InMsg>>,
        board: Option<Arc<ClockBoard>>,
        mem: sk_mem::FuncMemory,
    ) -> Self {
        let n = cfg.n_cores;
        assert_eq!(inqs.len(), n);
        let mut started = vec![false; n];
        started[0] = true; // the initial workload thread runs on core 0
        let adaptive = match scheme {
            Scheme::AdaptiveQuantum { min, max } => {
                Some(Adaptive { min, max, quantum: min, next_boundary: min, traffic_mark: 0 })
            }
            _ => None,
        };
        Uncore {
            scheme,
            dir: Directory::new(n, cfg.mem),
            sync: SyncTable::new(),
            ordered: std::collections::BinaryHeap::new(),
            inqs,
            wake_pending: vec![false; n],
            wake_list: Vec::new(),
            woken: Vec::new(),
            board,
            started,
            exited: vec![false; n],
            sync_latency: cfg.mem.critical_latency(),
            spawn_latency: cfg.mem.critical_latency(),
            adaptive,
            events_processed: 0,
            roi_start: None,
            obs: None,
            mem,
        }
    }

    /// Attach a telemetry hub: the reply queues start tracking their
    /// high-water marks and the sync table feeds its wait histograms.
    /// Call again after [`Uncore::restore_state`] (restore replaces the
    /// sync table, dropping its hub reference).
    pub fn set_obs(&mut self, obs: Arc<sk_obs::Metrics>) {
        for p in &mut self.inqs {
            p.enable_high_water();
        }
        self.sync.set_obs(obs.clone());
        self.obs = Some(obs);
    }

    /// Publish producer-side queue telemetry (InQ high-water marks) into
    /// the hub. Call when the manager is quiescent: end of a segment, or
    /// at a snapshot safe-point.
    pub fn publish_obs(&self) {
        if let Some(obs) = &self.obs {
            for (i, p) in self.inqs.iter().enumerate() {
                obs.manager.inq_high_water[i].raise_to(p.high_water() as u64);
            }
        }
    }

    /// Number of workload threads started so far.
    pub fn n_started(&self) -> usize {
        self.started.iter().filter(|&&b| b).count()
    }

    /// Have all started workload threads exited?
    pub fn all_workloads_done(&self) -> bool {
        self.started.iter().zip(&self.exited).all(|(&s, &e)| !s || e)
    }

    fn push_to_core(&mut self, core: usize, msg: InMsg) {
        self.inqs[core].push(msg);
        // Wakeups are deferred to `flush_wakeups` so a burst of messages
        // to one core costs a single unpark (state load + possible
        // lock/notify) instead of one per message.
        if !std::mem::replace(&mut self.wake_pending[core], true) {
            self.wake_list.push(core);
        }
    }

    /// Unpark every core that received an InQ message since the last
    /// flush. The engine calls this once per manager iteration, after all
    /// processing and before it can sleep — a parked core's own
    /// post-park re-check covers the window in between.
    pub fn flush_wakeups(&mut self) {
        self.woken.clear();
        for core in self.wake_list.drain(..) {
            self.wake_pending[core] = false;
            // Sequential engine: no board, no threads to wake.
            if self.board.as_ref().is_some_and(|b| b.unpark(core)) {
                self.woken.push(core);
            }
        }
    }

    /// Cores the last [`Uncore::flush_wakeups`] resumed from a parked
    /// state.
    pub fn woken(&self) -> &[usize] {
        &self.woken
    }

    /// Accept one OutQ event from `core`. Eager schemes process it
    /// immediately (arrival order); ordered schemes queue it.
    pub fn ingest(&mut self, core: usize, ev: OutEvent) {
        match self.scheme.ordering() {
            EventOrdering::Eager => self.process_event(GlobalEvent { core, ev }),
            _ => self.ordered.push(Reverse(OrderedEv(GlobalEvent { core, ev }))),
        }
    }

    /// Accept one queue's worth of OutQ events from `core` (the slice is a
    /// FIFO drain, so arrival order is preserved). Equivalent to calling
    /// [`Uncore::ingest`] per event; ordered schemes bulk-extend the GQ.
    pub fn ingest_batch(&mut self, core: usize, evs: &[OutEvent]) {
        match self.scheme.ordering() {
            EventOrdering::Eager => {
                for &ev in evs {
                    self.process_event(GlobalEvent { core, ev });
                }
            }
            _ => self
                .ordered
                .extend(evs.iter().map(|&ev| Reverse(OrderedEv(GlobalEvent { core, ev })))),
        }
    }

    /// The event-processing horizon for global time `g`: events stamped at
    /// or before it may take effect. `None` means "everything" (eager).
    pub fn horizon(&self, g: u64) -> Option<u64> {
        match self.scheme.ordering() {
            EventOrdering::Eager => None,
            EventOrdering::TimestampOrdered => Some(g),
            EventOrdering::AtBarrier => {
                let q = match self.adaptive {
                    Some(a) => a.quantum,
                    None => match self.scheme {
                        Scheme::Quantum(q) => q,
                        _ => unreachable!("AtBarrier implies a quantum"),
                    },
                };
                // The last completed barrier; events inside the current
                // quantum wait ("requests are not globally visible until
                // the end of each quantum").
                Some((g / q) * q)
            }
        }
    }

    /// Process queued events up to the horizon for global time `g`, in
    /// (ts, core, seq) order. Also steps the adaptive-quantum controller.
    pub fn process_ready(&mut self, g: u64) {
        if let Some(h) = self.horizon(g) {
            while let Some(&Reverse(OrderedEv(ge))) = self.ordered.peek() {
                if ge.ev.ts > h {
                    break;
                }
                self.ordered.pop();
                self.process_event(ge);
            }
        }
        if let Some(mut a) = self.adaptive {
            if g >= a.next_boundary {
                // Re-tune the quantum by coherence traffic in the last one:
                // sharing-heavy phases need fine-grain sync; idle phases
                // can run long quanta.
                let traffic = self.dir.stats.invalidations_out + self.dir.stats.downgrades_out;
                // saturating: an ROI begin may have reset the counters.
                let delta = traffic.saturating_sub(a.traffic_mark);
                a.traffic_mark = traffic;
                a.quantum =
                    if delta > 0 { (a.quantum / 2).max(a.min) } else { (a.quantum * 2).min(a.max) };
                a.next_boundary = g.saturating_add(a.quantum);
                self.adaptive = Some(a);
            }
        }
    }

    /// Process every queued event with `ts ≤ g` in (ts, core, seq) order,
    /// bypassing the at-barrier quantization. Used when no core is
    /// actively driving global time (all are blocked in sync calls):
    /// events inside the current quantum must still complete so the
    /// blocked cores can be released.
    pub fn process_all_upto(&mut self, g: u64) {
        while let Some(&Reverse(OrderedEv(ge))) = self.ordered.peek() {
            if ge.ev.ts > g {
                break;
            }
            self.ordered.pop();
            self.process_event(ge);
        }
    }

    /// The max-local window each core may run to when the global time is
    /// `g`.
    pub fn window(&self, g: u64) -> u64 {
        match self.adaptive {
            Some(a) => a.next_boundary.max(g + 1),
            None => self.scheme.window(g),
        }
    }

    /// Current adaptive quantum (for stats; the static quantum otherwise).
    pub fn current_quantum(&self) -> u64 {
        match (self.adaptive, self.scheme) {
            (Some(a), _) => a.quantum,
            (None, Scheme::Quantum(q)) => q,
            _ => 0,
        }
    }

    fn process_event(&mut self, ge: GlobalEvent) {
        self.events_processed += 1;
        let core = ge.core;
        let ts = ge.ev.ts;
        match ge.ev.kind {
            OutKind::DMem { req, block } => {
                let out = self.dir.handle(core, req, block, ts);
                for inv in &out.invalidations {
                    self.push_to_core(
                        inv.core,
                        InMsg {
                            ts: inv.ts,
                            kind: InKind::Invalidate { block: inv.block, downgrade: inv.downgrade },
                        },
                    );
                }
                if let Some(granted) = out.granted {
                    self.push_to_core(
                        core,
                        InMsg { ts: out.done_ts, kind: InKind::DMemReply { block, granted } },
                    );
                }
            }
            OutKind::IMem { block } => {
                let out = self.dir.handle(core, ReqKind::GetS, block, ts);
                for inv in &out.invalidations {
                    self.push_to_core(
                        inv.core,
                        InMsg {
                            ts: inv.ts,
                            kind: InKind::Invalidate { block: inv.block, downgrade: inv.downgrade },
                        },
                    );
                }
                self.push_to_core(
                    core,
                    InMsg { ts: out.done_ts, kind: InKind::IMemReply { block } },
                );
            }
            OutKind::Sync(SyncOp::Spawn { entry, arg }) => {
                let target = self.started.iter().position(|&s| !s);
                let value = match target {
                    Some(t) => {
                        self.started[t] = true;
                        self.push_to_core(
                            t,
                            InMsg {
                                ts: ts + self.spawn_latency,
                                kind: InKind::Start { entry, arg, tid: t as u32 },
                            },
                        );
                        t as i64
                    }
                    None => -1,
                };
                self.push_to_core(
                    core,
                    InMsg { ts: ts + self.sync_latency, kind: InKind::SyncReply { value } },
                );
            }
            OutKind::Sync(SyncOp::Cas { addr, expected, desired }) => {
                // Applied here — not at the core — so the winner among
                // same-window CAS contenders is decided by the manager's
                // event order (deterministic under ordered schemes,
                // arrival order under eager ones), never by a host race.
                let old = match self.mem.compare_exchange(addr, expected, desired) {
                    Ok(prev) => prev,
                    Err(prev) => prev,
                };
                self.push_to_core(
                    core,
                    InMsg {
                        ts: ts + self.sync_latency,
                        kind: InKind::SyncReply { value: old as i64 },
                    },
                );
            }
            OutKind::Sync(op) => {
                let out = self.sync.apply(core, op, ts);
                if let Some(v) = out.reply {
                    self.push_to_core(
                        core,
                        InMsg { ts: ts + self.sync_latency, kind: InKind::SyncReply { value: v } },
                    );
                }
                for (c, v, req_ts) in out.releases {
                    // Causal grant stamping: a released waiter resumes no
                    // earlier than the releasing event (barrier: the last
                    // arrival; lock/semaphore: the unlock/signal), in every
                    // scheme. Under eager schemes the releasing event may
                    // carry a far-ahead frame — that drag is the honest
                    // cost of slack-distorted hand-offs.
                    let base = req_ts.max(ts);
                    self.push_to_core(
                        c,
                        InMsg {
                            ts: base + self.sync_latency,
                            kind: InKind::SyncReply { value: v },
                        },
                    );
                }
            }
            OutKind::Exit { .. } => {
                self.exited[core] = true;
            }
            OutKind::RoiBegin => {
                self.dir.reset_stats();
                self.sync.stats = Default::default();
                self.roi_start = Some(ts);
            }
            OutKind::RoiEnd => {
                // Statistics freeze is handled core-side; the manager only
                // records that the ROI closed (exec-time accounting).
            }
        }
    }

    /// Broadcast `Stop` to every core (end of simulation).
    pub fn broadcast_stop(&mut self) {
        for core in 0..self.inqs.len() {
            self.push_to_core(core, InMsg { ts: 0, kind: InKind::Stop });
        }
        self.flush_wakeups();
    }

    /// Events still waiting in the GQ (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.ordered.len()
    }

    /// Timestamp of the earliest queued event, if any. Used to advance the
    /// processing horizon when every core's clock is suspended in a sync
    /// call (classic PDES: when all are idle, virtual time jumps to the
    /// next event).
    pub fn min_pending_ts(&self) -> Option<u64> {
        self.ordered.peek().map(|Reverse(OrderedEv(ge))| ge.ev.ts)
    }

    // ---- snapshot support ----

    /// Serialize the manager's dynamic state. Call only at a safe-point:
    /// threads joined, InQs drained into the cores' heaps. Static wiring
    /// (InQ producers, board, latencies) and the directory configuration
    /// come from the snapshot's `TargetConfig` on restore.
    pub fn save_state(&self, w: &mut Writer) {
        self.started.save(w);
        self.exited.save(w);
        // The GQ in deterministic (ts, core, seq) order.
        let mut gq: Vec<GlobalEvent> =
            self.ordered.iter().map(|Reverse(OrderedEv(g))| *g).collect();
        gq.sort_by_key(|g| g.key());
        gq.save(w);
        self.sync.save(w);
        self.dir.save(w);
        match self.adaptive {
            None => w.put_bool(false),
            Some(a) => {
                w.put_bool(true);
                w.put_u64(a.min);
                w.put_u64(a.max);
                w.put_u64(a.quantum);
                w.put_u64(a.next_boundary);
                w.put_u64(a.traffic_mark);
            }
        }
        w.put_u64(self.events_processed);
        self.roi_start.save(w);
    }

    /// Restore state written by [`Uncore::save_state`] into a freshly
    /// built manager (same core count; the scheme may differ when forking
    /// a snapshot, see [`Uncore::adopt_queued_for_scheme`]).
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let n = self.inqs.len();
        let started = Vec::<bool>::load(r)?;
        let exited = Vec::<bool>::load(r)?;
        if started.len() != n || exited.len() != n {
            return Err(SnapError::Corrupt(format!(
                "thread tables sized {}/{} for {n} cores",
                started.len(),
                exited.len()
            )));
        }
        self.started = started;
        self.exited = exited;
        let gq = Vec::<GlobalEvent>::load(r)?;
        self.ordered.clear();
        for ge in gq {
            if ge.core >= n {
                return Err(SnapError::Corrupt(format!("queued event for core {}", ge.core)));
            }
            self.ordered.push(Reverse(OrderedEv(ge)));
        }
        self.sync = SyncTable::load(r)?;
        self.dir = Directory::load(r)?;
        let saved_adaptive = if r.get_bool()? {
            Some(Adaptive {
                min: r.get_u64()?,
                max: r.get_u64()?,
                quantum: r.get_u64()?,
                next_boundary: r.get_u64()?,
                traffic_mark: r.get_u64()?,
            })
        } else {
            None
        };
        // The controller state transfers only onto the same adaptive
        // scheme; a fork onto a different scheme keeps its fresh
        // controller (or none).
        if let (Some(cur), Some(saved)) = (self.adaptive, saved_adaptive) {
            if cur.min == saved.min && cur.max == saved.max {
                self.adaptive = Some(saved);
            }
        }
        self.events_processed = r.get_u64()?;
        self.roi_start = Option::<u64>::load(r)?;
        Ok(())
    }

    /// After restoring under an *eager* scheme (snapshot forking), drain
    /// any events that were queued under the snapshot's ordered scheme:
    /// eager processing never visits the GQ, so they would otherwise be
    /// stranded. Under eager semantics they were due on arrival anyway.
    pub fn adopt_queued_for_scheme(&mut self) {
        if self.scheme.ordering() == EventOrdering::Eager {
            while let Some(Reverse(OrderedEv(ge))) = self.ordered.pop() {
                self.process_event(ge);
            }
        }
    }
}

#[cfg(test)]
impl Uncore {
    /// The cores' InQs, manager side.
    pub(crate) fn producers(&mut self) -> impl Iterator<Item = &mut Producer<InMsg>> {
        self.inqs.iter_mut()
    }
}
