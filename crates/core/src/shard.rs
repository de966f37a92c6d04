//! Sharded memory managers (the paper's §2.2 extension).
//!
//! > "If the simulation manager thread ever becomes a bottleneck it is
//! > possible to split the functionality of the manager thread also into
//! > several threads."
//!
//! This module implements that split: the *coordination* manager keeps the
//! clocks, windows, sync objects and thread placement, while the
//! lower-hierarchy memory work (directory + L2 banks) is partitioned over
//! `n` **memory shards** by bank (`shard = bank mod n`), each a task the
//! schedulers run when its signal is up. Each shard
//! owns its banks' directory state and an interconnect channel, consumes
//! per-core SPSC queues of memory events, and produces replies and
//! invalidations on per-core SPSC queues of its own.
//!
//! Ordering: each shard runs the single manager's memory-event stage
//! (`crate::memstage`: the same event queue, horizon rule, reply port and
//! directory service), so within a shard ordered schemes process events
//! in `(ts, core, seq)` order behind the global-time horizon, and the
//! coordinator holds ordered-scheme windows back to the slowest shard's
//! published **frontier** so no core ever ticks past an undelivered
//! reply. The result (asserted by tests): the sharded engine is fully
//! *deterministic* for every conservative scheme at any shard count, and
//! differs in timing from the single manager only through the
//! interconnect model — one occupancy channel per bank group instead of
//! one shared channel (sub-1% on the paper kernels, exactly zero when the
//! shared channel was uncontended). Eager schemes skip the frontier (the
//! paper's semantics have no such coupling) and simply gain manager
//! throughput — which measurably shrinks their host-induced timing error.

use crate::clock::ClockBoard;
use crate::config::TargetConfig;
use crate::memstage::MemStage;
use crate::msg::{GlobalEvent, InMsg, OutEvent, OutKind};
use crate::scheme::Scheme;
use crate::spsc::{Consumer, Producer};
use sk_mem::Directory;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shard's change flag: raised by whatever gives it work (a core's event
/// flush, the coordinator's frontier clamp), consumed by the iteration
/// that does it.
#[derive(Default)]
pub struct ShardSignal {
    pending: AtomicBool,
}

impl ShardSignal {
    /// Notify the shard that it has work.
    pub fn signal(&self) {
        self.pending.store(true, Ordering::Release);
    }

    /// Consume the pending flag: true if a signal arrived since the last
    /// `take`. Both schedulers gate shard iterations on this — an
    /// unsignalled shard has nothing to do, so they skip its O(n_cores)
    /// queue scan. A swap, not a store: it reads the newest signal, so the
    /// work that signal announced is visible to the iteration that follows.
    pub fn take(&self) -> bool {
        self.pending.swap(false, Ordering::Acquire)
    }

    /// Peek the pending flag without consuming it.
    pub fn pending(&self) -> bool {
        self.pending.load(Ordering::Acquire)
    }
}

/// One memory-shard manager: a directory shard plus its queue endpoints.
pub struct MemShard {
    /// Shard index (owns banks where `bank % n_shards == index`).
    pub index: usize,
    /// This shard's banks of the directory + L2 + interconnect model.
    pub(crate) dir: Directory,
    /// The event queue and the reply queues, one per core.
    pub(crate) stage: MemStage,
    /// Event queues, one per core (this shard is the consumer).
    pub from_cores: Vec<Consumer<OutEvent>>,
    /// Dirty-core bitmask (word `c >> 6`, bit `c & 63`): core `c` sets
    /// its bit after landing an event in `from_cores[c]`; `iterate`
    /// swap-consumes the mask and drains only flagged queues, so the
    /// per-iteration cost scales with *active* cores, not `n_cores`.
    /// Soundness of skipping the rest rides on the frontier argument:
    /// any event with `ts <= g` — and its dirty bit — happens-before
    /// the local-clock advance that fed `g`, so reading `g` first makes
    /// the swap see every bit the frontier publication is about to
    /// vouch for.
    dirty: Arc<Vec<AtomicU64>>,
    /// Reusable queue-drain buffer.
    scratch: Vec<OutEvent>,
    board: Arc<ClockBoard>,
    /// Global time through which this shard has processed *and delivered*
    /// every event (its frontier). The coordinator holds ordered-scheme
    /// windows back to the slowest shard frontier, which is what makes
    /// sharded conservative schemes deterministic: no core can tick past
    /// a timestamp whose events are still in flight.
    pub frontier: Arc<AtomicU64>,
    /// Events processed by this shard.
    pub events_processed: u64,
    /// Optional telemetry hub (drain-batch histogram).
    obs: Option<Arc<sk_obs::Metrics>>,
}

impl MemShard {
    /// Assemble a shard.
    pub fn new(
        index: usize,
        cfg: &TargetConfig,
        scheme: Scheme,
        from_cores: Vec<Consumer<OutEvent>>,
        to_cores: Vec<Producer<InMsg>>,
        board: Arc<ClockBoard>,
        dirty: Arc<Vec<AtomicU64>>,
    ) -> Self {
        MemShard {
            index,
            dir: Directory::new(cfg.n_cores, cfg.mem, cfg.track_workload_violations),
            stage: MemStage::new(scheme, to_cores, Some(board.clone())),
            from_cores,
            dirty,
            scratch: Vec::new(),
            board,
            frontier: Arc::new(AtomicU64::new(0)),
            events_processed: 0,
            obs: None,
        }
    }

    /// Attach a telemetry hub (drain-batch sizes land in
    /// `manager.shard_batch`).
    pub fn set_obs(&mut self, obs: Arc<sk_obs::Metrics>) {
        self.obs = Some(obs);
    }

    fn process_event(&mut self, ge: GlobalEvent) {
        self.events_processed += 1;
        let core = ge.core;
        let ts = ge.ev.ts;
        match ge.ev.kind {
            OutKind::DMem { .. } | OutKind::IMem { .. } => {
                self.stage.serve_mem(&mut self.dir, core, ts, ge.ev.kind)
            }
            // Mirror of the coordinator's ROI reset: the core broadcasts the
            // marker into every shard stream, so pre-ROI warm-up traffic
            // vanishes from sharded directory totals exactly as it does from
            // the single manager's.
            OutKind::RoiBegin => self.dir.reset_stats(),
            // Memory shards receive only memory and ROI-marker events.
            _ => unreachable!("non-memory event routed to a shard"),
        }
    }

    /// One iteration: drain queues, process per the scheme discipline.
    /// Returns `true` if any observable work happened (events drained or
    /// processed, frontier advanced) — the schedulers' stall detection
    /// keys off this.
    pub fn iterate(&mut self) -> bool {
        let mut progressed = false;
        let g = self.board.global();
        let events0 = self.events_processed;
        let mut drained = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        // Dirty-mask drain: only queues whose core flagged a push since the
        // last consume. The mask is swapped *after* reading `g` above, so
        // every event the frontier publication below vouches for (ts <= g,
        // hence pushed-and-flagged before its core's clock fed `g`) is
        // covered; bits set after the swap are picked up next iteration
        // and describe events beyond `g`.
        for wi in 0..self.dirty.len() {
            let mut m = self.dirty[wi].swap(0, Ordering::Acquire);
            while m != 0 {
                let c = (wi << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                loop {
                    scratch.clear();
                    if self.from_cores[c].drain_into(&mut scratch) == 0 {
                        break;
                    }
                    drained += scratch.len() as u64;
                    if let Some(obs) = &self.obs {
                        obs.manager.shard_batch.record(scratch.len() as u64);
                        obs.shards[self.index].drain_batch.record(scratch.len() as u64);
                    }
                    for &ev in self.stage.ingest(c, &scratch) {
                        self.process_event(GlobalEvent { core: c, ev });
                    }
                }
            }
        }
        self.scratch = scratch;
        if let Some(h) = self.stage.horizon(g) {
            self.process_upto(h);
        }
        self.stage.flush_wakeups();
        // Publish the processed frontier: every event with ts <= g had
        // arrived before g was computed (cores push before advancing their
        // local clocks) and has now been processed and delivered.
        // The coordinator's ordered-scheme window may be clamped on this
        // very frontier: a shard that ran counts as news to the manager.
        if self.frontier.fetch_max(g, Ordering::Release) < g {
            progressed = true;
        }
        if let Some(obs) = &self.obs {
            let sh = &obs.shards[self.index];
            sh.iterations.add(1);
            sh.events.add(self.events_processed - events0);
            sh.heap_occupancy.record(self.stage.queued() as u64);
            sh.frontier_lag.record(g.saturating_sub(self.frontier.load(Ordering::Relaxed)));
        }
        progressed || drained > 0 || self.events_processed > events0
    }

    /// Drain everything unconditionally (shutdown).
    pub fn finish(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for c in 0..self.from_cores.len() {
            loop {
                scratch.clear();
                if self.from_cores[c].drain_into(&mut scratch) == 0 {
                    break;
                }
                self.stage.enqueue(scratch.iter().map(|&ev| GlobalEvent { core: c, ev }));
            }
        }
        self.scratch = scratch;
        self.process_upto(u64::MAX);
        self.stage.flush_wakeups();
    }

    /// Process every queued event stamped at or before `h`.
    fn process_upto(&mut self, h: u64) {
        while let Some(ge) = self.stage.pop_upto(h) {
            self.process_event(ge);
        }
    }

    // ---- snapshot support ----

    /// Serialize shard-local dynamic state. Call only at a safe-point with
    /// the shard quiescent: [`MemShard::finish`] run (ordered heap empty).
    pub fn save_state(&self, w: &mut sk_snap::Writer) {
        debug_assert!(self.stage.queued() == 0, "shard heap must be drained at a safe-point");
        use sk_snap::Persist;
        w.put_u64(self.frontier.load(Ordering::Acquire));
        w.put_u64(self.events_processed);
        self.dir.save(w);
    }

    /// Restore state written by [`MemShard::save_state`] into a freshly
    /// plumbed shard (same configuration, fresh queues).
    pub fn restore_state(&mut self, r: &mut sk_snap::Reader<'_>) -> Result<(), sk_snap::SnapError> {
        self.frontier.store(r.get_u64()?, Ordering::Release);
        self.events_processed = r.get_u64()?;
        self.dir = crate::uncore::load_directory(r, self.dir.n_cores())?;
        Ok(())
    }
}

/// The shard owning `block` among `n` shards (bank-interleaved).
#[inline]
pub fn shard_of(block: sk_mem::BlockAddr, n_banks: usize, n_shards: usize) -> usize {
    ((block as usize) % n_banks) % n_shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_bank_interleaved() {
        // 8 banks over 2 shards: even banks -> shard 0, odd -> shard 1.
        for block in 0..64u64 {
            let s = shard_of(block, 8, 2);
            assert_eq!(s, (block % 8 % 2) as usize);
        }
    }

    #[test]
    fn signal_is_consumed_once() {
        let sig = ShardSignal::default();
        assert!(!sig.take());
        sig.signal();
        sig.signal();
        assert!(sig.pending());
        assert!(sig.take(), "a raised signal is taken");
        assert!(!sig.pending() && !sig.take(), "and only once");
    }
}
