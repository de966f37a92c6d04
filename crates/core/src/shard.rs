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
//! Ordering: within a shard, timestamp-ordered schemes process events in
//! `(ts, core, seq)` order behind the global-time horizon, exactly like
//! the single manager, and the coordinator holds ordered-scheme windows
//! back to the slowest shard's published **frontier** so no core ever
//! ticks past an undelivered reply. The result (asserted by tests): the
//! sharded engine is fully *deterministic* for every conservative scheme
//! at any shard count, and differs in timing from the single manager only
//! through the interconnect model — one occupancy channel per bank group
//! instead of one shared channel (sub-1% on the paper kernels, exactly
//! zero when the shared channel was uncontended). Eager schemes skip the
//! frontier (the paper's semantics have no such coupling) and simply gain
//! manager throughput — which measurably shrinks their host-induced
//! timing error.

use crate::clock::ClockBoard;
use crate::config::TargetConfig;
use crate::msg::{GlobalEvent, InKind, InMsg, OutEvent, OutKind};
use crate::scheme::{EventOrdering, Scheme};
use crate::spsc::{Consumer, Producer};
use sk_mem::l1::ReqKind;
use sk_mem::Directory;
use std::cmp::Reverse;
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

/// One memory-shard manager: a directory shard plus its queue endpoints.
pub struct MemShard {
    /// Shard index (owns banks where `bank % n_shards == index`).
    pub index: usize,
    scheme: Scheme,
    dir: Directory,
    ordered: std::collections::BinaryHeap<Reverse<OrderedEv>>,
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
    /// Reply queues, one per core (this shard is the producer).
    to_cores: Vec<Producer<InMsg>>,
    /// Cores that received a reply since the last wakeup flush: a flag
    /// per core (one entry per core however many replies it got) and the
    /// flagged cores as a list, so the flush walks receivers only.
    wake_pending: Vec<bool>,
    wake_list: Vec<usize>,
    /// Cores the last iteration's flush actually resumed (they were
    /// parked on the board): what the deterministic scheduler must put
    /// back in its runnable set.
    woken: Vec<usize>,
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
            scheme,
            dir: Directory::new(cfg.n_cores, cfg.mem),
            ordered: Default::default(),
            from_cores,
            dirty,
            to_cores,
            wake_pending: vec![false; cfg.n_cores],
            wake_list: Vec::new(),
            woken: Vec::new(),
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

    fn push_to_core(&mut self, core: usize, msg: InMsg) {
        self.to_cores[core].push(msg);
        // Deferred to `flush_wakeups`: one unpark per core per iteration.
        if !std::mem::replace(&mut self.wake_pending[core], true) {
            self.wake_list.push(core);
        }
    }

    fn flush_wakeups(&mut self) {
        for core in self.wake_list.drain(..) {
            self.wake_pending[core] = false;
            if self.board.unpark(core) {
                self.woken.push(core);
            }
        }
    }

    /// Cores the last [`MemShard::iterate`] resumed from a parked state.
    pub fn woken(&self) -> &[usize] {
        &self.woken
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
        self.woken.clear();
        let g = self.board.global();
        let eager = self.scheme.ordering() == EventOrdering::Eager;
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
                    if self.from_cores[c].drain_into(&mut scratch, usize::MAX) == 0 {
                        break;
                    }
                    drained += scratch.len() as u64;
                    if let Some(obs) = &self.obs {
                        obs.manager.shard_batch.record(scratch.len() as u64);
                        obs.shards[self.index].drain_batch.record(scratch.len() as u64);
                    }
                    if eager {
                        for &ev in &scratch {
                            self.process_event(GlobalEvent { core: c, ev });
                        }
                    } else {
                        self.ordered.extend(
                            scratch
                                .iter()
                                .map(|&ev| Reverse(OrderedEv(GlobalEvent { core: c, ev }))),
                        );
                    }
                }
            }
        }
        self.scratch = scratch;
        let horizon = match self.scheme.ordering() {
            EventOrdering::Eager => None,
            EventOrdering::TimestampOrdered => Some(g),
            EventOrdering::AtBarrier => match self.scheme {
                Scheme::Quantum(q) => Some((g / q) * q),
                _ => Some(g),
            },
        };
        if let Some(h) = horizon {
            while let Some(&Reverse(OrderedEv(ge))) = self.ordered.peek() {
                if ge.ev.ts > h {
                    break;
                }
                self.ordered.pop();
                self.process_event(ge);
            }
        }
        self.flush_wakeups();
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
            sh.heap_occupancy.record(self.ordered.len() as u64);
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
                if self.from_cores[c].drain_into(&mut scratch, usize::MAX) == 0 {
                    break;
                }
                self.ordered.extend(
                    scratch.iter().map(|&ev| Reverse(OrderedEv(GlobalEvent { core: c, ev }))),
                );
            }
        }
        self.scratch = scratch;
        while let Some(Reverse(OrderedEv(ge))) = self.ordered.pop() {
            self.process_event(ge);
        }
        self.flush_wakeups();
    }

    /// This shard's directory statistics.
    pub fn dir_stats(&self) -> sk_mem::directory::DirStats {
        self.dir.stats
    }

    /// This shard's interconnect statistics.
    pub fn bus_stats(&self) -> sk_mem::bus::BusStats {
        self.dir.bus_stats()
    }

    // ---- snapshot support ----

    /// Serialize shard-local dynamic state. Call only at a safe-point with
    /// the shard quiescent: [`MemShard::finish`] run (ordered heap empty).
    pub fn save_state(&self, w: &mut sk_snap::Writer) {
        debug_assert!(self.ordered.is_empty(), "shard heap must be drained at a safe-point");
        use sk_snap::Persist;
        w.put_u64(self.frontier.load(Ordering::Acquire));
        w.put_u64(self.events_processed);
        self.dir.save(w);
    }

    /// Restore state written by [`MemShard::save_state`] into a freshly
    /// plumbed shard (same configuration, fresh queues).
    pub fn restore_state(&mut self, r: &mut sk_snap::Reader<'_>) -> Result<(), sk_snap::SnapError> {
        use sk_snap::Persist;
        self.frontier.store(r.get_u64()?, Ordering::Release);
        self.events_processed = r.get_u64()?;
        self.dir = Directory::load(r)?;
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

    impl MemShard {
        /// The cores' reply queues, shard side.
        pub(crate) fn producers(&mut self) -> impl Iterator<Item = &mut Producer<InMsg>> {
            self.to_cores.iter_mut()
        }
    }

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
