//! Workload-state violation detection (paper §3.2.3, Figure 7).
//!
//! The only way one workload thread affects another is a Store followed by
//! a Load to the same word (a *conflicting pair*). Slack can execute such a
//! pair in simulation-time order while their simulated timestamps say the
//! opposite — the load then returns a different value than a cycle-by-cycle
//! simulation would have produced.
//!
//! [`ConflictTracker`] observes every functional access with its simulated
//! timestamp and counts the two possible inversions:
//!
//! * **store-past-load** — a store executes after a logically *later* load
//!   already read the word (the exact Figure 7 case);
//! * **load-past-store** — a load executes after a logically *later* store
//!   already clobbered the word.
//!
//! It also implements the paper's proposed (but, in SlackSim, unimplemented)
//! **fast-forwarding** compensation: the late access's timestamp is bumped
//! so the pair appears contemporaneous, "emulating a situation where the
//! core idles for some cycles" — the caller receives the adjustment and
//! charges it to the core as idle time.

use parking_lot::Mutex;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 64;

#[derive(Clone, Copy, Debug, Default)]
struct WordHist {
    last_store_ts: u64,
    last_store_core: u32,
    last_load_ts: u64,
    last_load_core: u32,
}

/// Violation counters (all relaxed atomics; read at end of simulation).
#[derive(Debug, Default)]
pub struct ViolationStats {
    /// Stores that executed after a logically later load (Fig. 7).
    pub store_past_load: AtomicU64,
    /// Loads that executed after a logically later store.
    pub load_past_store: AtomicU64,
    /// Fast-forward compensations applied.
    pub compensations: AtomicU64,
    /// Total cycles of fast-forward idle time injected.
    pub compensation_cycles: AtomicU64,
    /// Largest timestamp inversion observed over all violations, in
    /// cycles: how far the late access's timestamp lagged the conflicting
    /// earlier-executed one. Under a bounded-slack scheme this can never
    /// exceed the slack window — the conformance suite pins that bound.
    pub max_inversion: AtomicU64,
}

impl ViolationStats {
    /// Sum of both inversion kinds.
    pub fn total(&self) -> u64 {
        self.store_past_load.load(Ordering::Relaxed) + self.load_past_store.load(Ordering::Relaxed)
    }
}

/// Concurrent word-granular conflict tracker.
pub struct ConflictTracker {
    shards: Vec<Mutex<HashMap<u64, WordHist>>>,
    compensate: bool,
    /// Counters.
    pub stats: ViolationStats,
}

/// Outcome of recording an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recorded {
    /// Timestamp to use for the access (bumped when compensating).
    pub effective_ts: u64,
    /// Cycles of idle time the core must absorb (0 unless compensating).
    pub stall: u64,
    /// Whether this access was an inversion.
    pub violated: bool,
}

impl ConflictTracker {
    /// A tracker; `compensate` enables fast-forwarding.
    pub fn new(compensate: bool) -> Self {
        ConflictTracker {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            compensate,
            stats: ViolationStats::default(),
        }
    }

    #[inline]
    fn shard(&self, addr: u64) -> &Mutex<HashMap<u64, WordHist>> {
        // Word address hashing: spread consecutive words across shards.
        &self.shards[((addr >> 3) as usize) % SHARDS]
    }

    /// Record a store by `core` to word `addr` at simulated time `ts`.
    pub fn record_store(&self, core: usize, addr: u64, ts: u64) -> Recorded {
        let mut shard = self.shard(addr).lock();
        let h = shard.entry(addr).or_default();
        let mut out = Recorded { effective_ts: ts, stall: 0, violated: false };
        if h.last_load_ts > ts && h.last_load_core != core as u32 {
            out.violated = true;
            self.stats.store_past_load.fetch_add(1, Ordering::Relaxed);
            self.stats.max_inversion.fetch_max(h.last_load_ts - ts, Ordering::Relaxed);
            if self.compensate {
                // Fast-forward: the store appears contemporaneous with the
                // logically-latest load that already read the word.
                out.stall = h.last_load_ts - ts;
                out.effective_ts = h.last_load_ts;
                self.stats.compensations.fetch_add(1, Ordering::Relaxed);
                self.stats.compensation_cycles.fetch_add(out.stall, Ordering::Relaxed);
            }
        }
        if out.effective_ts >= h.last_store_ts {
            h.last_store_ts = out.effective_ts;
            h.last_store_core = core as u32;
        }
        out
    }

    /// Record a load by `core` from word `addr` at simulated time `ts`.
    pub fn record_load(&self, core: usize, addr: u64, ts: u64) -> Recorded {
        let mut shard = self.shard(addr).lock();
        let h = shard.entry(addr).or_default();
        let mut out = Recorded { effective_ts: ts, stall: 0, violated: false };
        if h.last_store_ts > ts && h.last_store_core != core as u32 {
            out.violated = true;
            self.stats.load_past_store.fetch_add(1, Ordering::Relaxed);
            self.stats.max_inversion.fetch_max(h.last_store_ts - ts, Ordering::Relaxed);
            if self.compensate {
                out.stall = h.last_store_ts - ts;
                out.effective_ts = h.last_store_ts;
                self.stats.compensations.fetch_add(1, Ordering::Relaxed);
                self.stats.compensation_cycles.fetch_add(out.stall, Ordering::Relaxed);
            }
        }
        if out.effective_ts >= h.last_load_ts {
            h.last_load_ts = out.effective_ts;
            h.last_load_core = core as u32;
        }
        out
    }
}

sk_snap::persist_record!(WordHist { last_store_ts, last_store_core, last_load_ts, last_load_core });

/// Word histories are written globally sorted by address (shards are a
/// host-side lock-striping detail, re-derived on load). Callers must
/// quiesce all simulation threads before saving.
impl Persist for ConflictTracker {
    fn save(&self, w: &mut Writer) {
        w.put_bool(self.compensate);
        w.put_u64(self.stats.store_past_load.load(Ordering::Relaxed));
        w.put_u64(self.stats.load_past_store.load(Ordering::Relaxed));
        w.put_u64(self.stats.compensations.load(Ordering::Relaxed));
        w.put_u64(self.stats.compensation_cycles.load(Ordering::Relaxed));
        w.put_u64(self.stats.max_inversion.load(Ordering::Relaxed));
        let mut words: Vec<(u64, WordHist)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            words.extend(shard.iter().map(|(&addr, &h)| (addr, h)));
        }
        words.sort_unstable_by_key(|&(addr, _)| addr);
        words.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let compensate = r.get_bool()?;
        let t = ConflictTracker::new(compensate);
        t.stats.store_past_load.store(r.get_u64()?, Ordering::Relaxed);
        t.stats.load_past_store.store(r.get_u64()?, Ordering::Relaxed);
        t.stats.compensations.store(r.get_u64()?, Ordering::Relaxed);
        t.stats.compensation_cycles.store(r.get_u64()?, Ordering::Relaxed);
        t.stats.max_inversion.store(r.get_u64()?, Ordering::Relaxed);
        for (addr, h) in Vec::<(u64, WordHist)>::load(r)? {
            t.shard(addr).lock().insert(addr, h);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_conflicting_pair_is_clean() {
        let t = ConflictTracker::new(false);
        assert!(!t.record_store(0, 0x100, 10).violated);
        assert!(!t.record_load(1, 0x100, 20).violated);
        assert_eq!(t.stats.total(), 0);
    }

    #[test]
    fn figure7_store_past_load_detected() {
        // P1 loads M at simulated cycle 4 (executes first); P2 stores M at
        // simulated cycle 2 (executes second): reversed vs cycle-by-cycle.
        let t = ConflictTracker::new(false);
        assert!(!t.record_load(0, 0x100, 4).violated);
        let r = t.record_store(1, 0x100, 2);
        assert!(r.violated);
        assert_eq!(r.stall, 0, "no compensation requested");
        assert_eq!(t.stats.store_past_load.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn load_past_store_detected() {
        let t = ConflictTracker::new(false);
        t.record_store(0, 0x200, 50);
        let r = t.record_load(1, 0x200, 30);
        assert!(r.violated);
        assert_eq!(t.stats.load_past_store.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn same_core_reordering_is_not_a_conflict() {
        // A core never races with itself: its own accesses are pipeline-
        // ordered; timestamps may repeat within a cycle.
        let t = ConflictTracker::new(false);
        t.record_load(2, 0x300, 10);
        assert!(!t.record_store(2, 0x300, 5).violated);
        assert_eq!(t.stats.total(), 0);
    }

    #[test]
    fn fast_forward_bumps_timestamp_and_reports_stall() {
        let t = ConflictTracker::new(true);
        t.record_load(0, 0x100, 12);
        let r = t.record_store(1, 0x100, 9);
        assert!(r.violated);
        assert_eq!(r.effective_ts, 12);
        assert_eq!(r.stall, 3);
        assert_eq!(t.stats.compensations.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats.compensation_cycles.load(Ordering::Relaxed), 3);
        // After compensation, the histories reflect the bumped time: a
        // later load at 12 is contemporaneous, not violated.
        assert!(!t.record_load(0, 0x100, 12).violated);
    }

    #[test]
    fn distinct_words_do_not_interact() {
        let t = ConflictTracker::new(false);
        t.record_load(0, 0x100, 100);
        assert!(!t.record_store(1, 0x108, 1).violated);
        assert_eq!(t.shards.iter().map(|s| s.lock().len()).sum::<usize>(), 2, "words tracked");
    }
}
