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
//!   at-barrier (quantum multiples).
//!
//! The memory half of that work — the GQ and its horizon rule, the InQ
//! producers with their deferred wake-ups, and `DMem`/`IMem` service
//! against the directory — is the memory-event stage (`crate::memstage`),
//! which every memory shard ([`crate::shard`]) runs too: sharding splits
//! the directory, never the discipline. `Uncore` owns one stage and adds
//! what only the coordinator does: the sync table, thread spawn and exit,
//! CAS, the ROI markers, the quiescent `process_all_upto` and the GQ
//! snapshot.

use crate::clock::ClockBoard;
use crate::config::TargetConfig;
use crate::memstage::MemStage;
use crate::msg::{GlobalEvent, InKind, InMsg, OutEvent, OutKind, SyncOp};
use crate::scheme::{EventOrdering, Scheme};
use crate::spsc::Producer;
use crate::sync::SyncTable;
use sk_mem::Directory;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::sync::Arc;

/// The simulation manager state machine.
pub struct Uncore {
    scheme: Scheme,
    /// Directory + L2 + interconnect model.
    pub dir: Directory,
    /// Table 1 sync objects.
    pub sync: SyncTable,
    /// The GQ and the InQs.
    pub(crate) stage: MemStage,
    started: Vec<bool>,
    exited: Vec<bool>,
    sync_latency: u64,
    spawn_latency: u64,
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
        Uncore {
            scheme,
            dir: Directory::new(n, cfg.mem),
            sync: SyncTable::new(),
            stage: MemStage::new(scheme, inqs, board),
            started,
            exited: vec![false; n],
            sync_latency: cfg.mem.critical_latency(),
            spawn_latency: cfg.mem.critical_latency(),
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
        for p in self.stage.producers() {
            p.enable_high_water();
        }
        self.sync.set_obs(obs.clone());
        self.obs = Some(obs);
    }

    /// Publish producer-side queue telemetry (InQ high-water marks) into
    /// the hub. Call when the manager is quiescent: end of a segment, or
    /// at a snapshot safe-point.
    pub fn publish_obs(&mut self) {
        if let Some(obs) = &self.obs {
            for (i, p) in self.stage.producers().iter().enumerate() {
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

    /// Accept one queue's worth of OutQ events from `core` (the slice is a
    /// FIFO drain, so arrival order is preserved). Eager schemes process
    /// them at once, in arrival order; ordered schemes queue them.
    pub fn ingest_batch(&mut self, core: usize, evs: &[OutEvent]) {
        for &ev in self.stage.ingest(core, evs) {
            self.process_event(GlobalEvent { core, ev });
        }
    }

    /// Process queued events up to the horizon for global time `g`, in
    /// (ts, core, seq) order.
    pub fn process_ready(&mut self, g: u64) {
        if let Some(h) = self.stage.horizon(g) {
            self.process_all_upto(h);
        }
    }

    /// Process every queued event with `ts ≤ g` in (ts, core, seq) order,
    /// bypassing the at-barrier quantization. Used when no core is
    /// actively driving global time (all are blocked in sync calls):
    /// events inside the current quantum must still complete so the
    /// blocked cores can be released.
    pub fn process_all_upto(&mut self, g: u64) {
        while let Some(ge) = self.stage.pop_upto(g) {
            self.process_event(ge);
        }
    }

    fn process_event(&mut self, ge: GlobalEvent) {
        self.events_processed += 1;
        let core = ge.core;
        let ts = ge.ev.ts;
        match ge.ev.kind {
            OutKind::DMem { .. } | OutKind::IMem { .. } => {
                self.stage.serve_mem(&mut self.dir, core, ts, ge.ev.kind)
            }
            OutKind::Sync(SyncOp::Spawn { entry, arg }) => {
                let target = self.started.iter().position(|&s| !s);
                let value = match target {
                    Some(t) => {
                        self.started[t] = true;
                        self.stage.push(
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
                self.stage.push(
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
                self.stage.push(
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
                    self.stage.push(
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
                    self.stage.push(
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
        for core in 0..self.started.len() {
            self.stage.push(core, InMsg { ts: 0, kind: InKind::Stop });
        }
        self.stage.flush_wakeups();
    }

    /// Events still waiting in the GQ (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.stage.queued()
    }

    /// Timestamp of the earliest queued event, if any. Used to advance the
    /// processing horizon when every core's clock is suspended in a sync
    /// call (classic PDES: when all are idle, virtual time jumps to the
    /// next event).
    pub fn min_pending_ts(&self) -> Option<u64> {
        self.stage.min_ts()
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
        self.stage.queued_sorted().save(w);
        self.sync.save(w);
        self.dir.save(w);
        w.put_u64(self.events_processed);
        self.roi_start.save(w);
    }

    /// Restore state written by [`Uncore::save_state`] into a freshly
    /// built manager (same core count; the scheme may differ when forking
    /// a snapshot, see [`Uncore::adopt_queued_for_scheme`]).
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let n = self.started.len();
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
        if let Some(ge) = gq.iter().find(|ge| ge.core >= n) {
            return Err(SnapError::Corrupt(format!("queued event for core {}", ge.core)));
        }
        self.stage.enqueue(gq);
        self.sync = SyncTable::load(r)?;
        self.dir = Directory::load(r)?;
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
            self.process_all_upto(u64::MAX);
        }
    }
}
