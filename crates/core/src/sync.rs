//! Workload synchronization objects (the paper's Table 1 API).
//!
//! Locks, barriers and semaphores are emulated "outside the simulator",
//! exactly as SlackSim emulated them outside SimpleScalar's PISA. The
//! objects live in a table owned by the **manager thread** and are mutated
//! only when the manager processes the corresponding `SyncOp` events from
//! the global queue. Consequently their behaviour is ordered by the active
//! slack scheme: under cycle-by-cycle simulation the acquisition order is
//! deterministic in (timestamp, core) order, while under bounded/unbounded
//! slack it follows arrival order — which is precisely how slack perturbs
//! workload behaviour (§3.2.3).
//!
//! Contended operations queue inside the table: `Lock` and `SemaWait`
//! withhold their replies until the resource is granted (FIFO in
//! processing order, which the active scheme controls — this is exactly
//! how slack perturbs lock-acquisition order, §3.2.3), and
//! `BarrierArrive` withholds replies until the last participant arrives.
//! The waiting core's clock is suspended and fast-forwarded to the grant
//! timestamp, so contended waiting costs simulated time computed in event
//! time rather than host time.

use crate::msg::SyncOp;
use sk_obs::Metrics;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::collections::VecDeque;
use std::sync::Arc;

/// Counters for the synchronization subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Successful lock acquisitions (immediate or queued).
    pub lock_acquisitions: u64,
    /// Lock requests that had to queue behind a holder.
    pub lock_waits: u64,
    /// Barrier episodes completed (all participants released).
    pub barrier_episodes: u64,
    /// Semaphore waits that had to queue.
    pub sema_waits: u64,
    /// Operations on objects that were never initialized (leniently
    /// auto-initialized, but counted as a workload smell).
    pub implicit_inits: u64,
    /// Unlocks by a core that does not hold the lock (workload bug or a
    /// slack-induced reordering; tolerated).
    pub unlock_mismatches: u64,
}

#[derive(Clone, Debug, Default)]
struct LockObj {
    initialized: bool,
    held_by: Option<usize>,
    waiters: std::collections::VecDeque<(usize, u64)>,
}

#[derive(Clone, Debug, Default)]
struct BarrierObj {
    initialized: bool,
    count: u32,
    /// Cores currently waiting, with the timestamp of their arrival event.
    arrived: Vec<(usize, u64)>,
}

#[derive(Clone, Debug, Default)]
struct SemaObj {
    initialized: bool,
    count: i64,
    waiters: std::collections::VecDeque<(usize, u64)>,
}

/// Result of applying one [`SyncOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Immediate reply to the requesting core (`None` for a withheld
    /// reply).
    pub reply: Option<i64>,
    /// Cores to release: `(core, value, request_ts)`. `request_ts` is the
    /// timestamp of the released core's own blocking request, so the
    /// manager can stamp the grant in the *waiter's* time frame under
    /// eager schemes (the paper's self-paced spin semantics, §3.2.1's
    /// temporal-distortion argument) and causally under ordered schemes.
    pub releases: Vec<(usize, i64, u64)>,
}

impl SyncOutcome {
    fn reply(v: i64) -> Self {
        SyncOutcome { reply: Some(v), releases: vec![] }
    }
}

/// The manager-owned table of synchronization objects.
#[derive(Clone, Debug, Default)]
pub struct SyncTable {
    locks: Vec<LockObj>,
    barriers: Vec<BarrierObj>,
    semas: Vec<SemaObj>,
    /// Counters.
    pub stats: SyncStats,
    /// Optional telemetry hub: wait-time histograms are fed as releases
    /// happen. Not persisted — the engine re-attaches after a restore.
    obs: Option<Arc<Metrics>>,
}

fn ensure<T: Default>(v: &mut Vec<T>, id: u32) -> &mut T {
    let id = id as usize;
    if v.len() <= id {
        v.resize_with(id + 1, T::default);
    }
    &mut v[id]
}

impl SyncTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a telemetry hub (wait-time histograms).
    pub fn set_obs(&mut self, obs: Arc<Metrics>) {
        self.obs = Some(obs);
    }

    /// Record how long released waiters were held: simulated cycles from
    /// each waiter's blocking request to the releasing event.
    fn record_waits(&self, barrier: bool, release_ts: u64, releases: &[(usize, i64, u64)]) {
        if let Some(obs) = &self.obs {
            let h = if barrier { &obs.manager.barrier_wait } else { &obs.manager.lock_wait };
            for &(_, _, req_ts) in releases {
                h.record(release_ts.saturating_sub(req_ts));
            }
        }
    }

    /// Apply one operation from `core`, stamped `ts`.
    ///
    /// `Spawn` is not handled here — thread placement belongs to the
    /// engine, which owns core occupancy.
    pub fn apply(&mut self, core: usize, op: SyncOp, ts: u64) -> SyncOutcome {
        let out = self.apply_inner(core, op, ts);
        if !out.releases.is_empty() {
            self.record_waits(matches!(op, SyncOp::BarrierArrive { .. }), ts, &out.releases);
        }
        out
    }

    fn apply_inner(&mut self, core: usize, op: SyncOp, ts: u64) -> SyncOutcome {
        match op {
            SyncOp::InitLock { id } => {
                let l = ensure(&mut self.locks, id);
                *l = LockObj { initialized: true, held_by: None, waiters: Default::default() };
                SyncOutcome::reply(0)
            }
            SyncOp::Lock { id } => {
                let implicit = {
                    let l = ensure(&mut self.locks, id);
                    !l.initialized
                };
                if implicit {
                    self.stats.implicit_inits += 1;
                    self.locks[id as usize].initialized = true;
                }
                let l = &mut self.locks[id as usize];
                if l.held_by.is_none() {
                    l.held_by = Some(core);
                    self.stats.lock_acquisitions += 1;
                    SyncOutcome::reply(1)
                } else {
                    l.waiters.push_back((core, ts));
                    self.stats.lock_waits += 1;
                    SyncOutcome { reply: None, releases: vec![] }
                }
            }
            SyncOp::Unlock { id } => {
                let l = ensure(&mut self.locks, id);
                if l.held_by != Some(core) {
                    self.stats.unlock_mismatches += 1;
                    // Release anyway: a slack-reordered unlock must not
                    // wedge the workload.
                }
                match l.waiters.pop_front() {
                    Some((next, req_ts)) => {
                        l.held_by = Some(next);
                        self.stats.lock_acquisitions += 1;
                        SyncOutcome { reply: Some(0), releases: vec![(next, 1, req_ts)] }
                    }
                    None => {
                        l.held_by = None;
                        SyncOutcome::reply(0)
                    }
                }
            }
            SyncOp::InitBarrier { id, count } => {
                let b = ensure(&mut self.barriers, id);
                *b = BarrierObj { initialized: true, count, arrived: vec![] };
                SyncOutcome::reply(0)
            }
            SyncOp::BarrierArrive { id } => {
                let implicit = {
                    let b = ensure(&mut self.barriers, id);
                    !b.initialized
                };
                if implicit {
                    self.stats.implicit_inits += 1;
                    let b = &mut self.barriers[id as usize];
                    b.initialized = true;
                    b.count = u32::MAX; // an uninitialized barrier never opens
                }
                let b = &mut self.barriers[id as usize];
                debug_assert!(
                    !b.arrived.iter().any(|&(c, _)| c == core),
                    "core {core} arrived twice at barrier {id}"
                );
                b.arrived.push((core, ts));
                if b.arrived.len() as u32 >= b.count {
                    let releases = std::mem::take(&mut b.arrived)
                        .into_iter()
                        .map(|(c, arr_ts)| (c, 1, arr_ts))
                        .collect();
                    self.stats.barrier_episodes += 1;
                    // The last arriver is among `releases`; no direct reply.
                    SyncOutcome { reply: None, releases }
                } else {
                    SyncOutcome { reply: None, releases: vec![] }
                }
            }
            SyncOp::InitSema { id, count } => {
                let s = ensure(&mut self.semas, id);
                *s = SemaObj { initialized: true, count, waiters: Default::default() };
                SyncOutcome::reply(0)
            }
            SyncOp::SemaWait { id } => {
                let implicit = {
                    let s = ensure(&mut self.semas, id);
                    !s.initialized
                };
                if implicit {
                    self.stats.implicit_inits += 1;
                    self.semas[id as usize].initialized = true;
                }
                let s = &mut self.semas[id as usize];
                if s.count > 0 {
                    s.count -= 1;
                    SyncOutcome::reply(1)
                } else {
                    s.waiters.push_back((core, ts));
                    self.stats.sema_waits += 1;
                    SyncOutcome { reply: None, releases: vec![] }
                }
            }
            SyncOp::SemaSignal { id } => {
                let implicit = {
                    let s = ensure(&mut self.semas, id);
                    !s.initialized
                };
                if implicit {
                    self.stats.implicit_inits += 1;
                    self.semas[id as usize].initialized = true;
                }
                let s = &mut self.semas[id as usize];
                match s.waiters.pop_front() {
                    Some((next, req_ts)) => {
                        SyncOutcome { reply: Some(0), releases: vec![(next, 1, req_ts)] }
                    }
                    None => {
                        s.count += 1;
                        SyncOutcome::reply(0)
                    }
                }
            }
            SyncOp::Spawn { .. } => unreachable!("Spawn is handled by the engine"),
            SyncOp::Cas { .. } => unreachable!("Cas is applied by the manager against memory"),
        }
    }
}

fn save_queue(q: &VecDeque<(usize, u64)>, w: &mut Writer) {
    w.put_usize(q.len());
    for &(core, ts) in q {
        w.put_usize(core);
        w.put_u64(ts);
    }
}

fn load_queue(r: &mut Reader<'_>) -> Result<VecDeque<(usize, u64)>, SnapError> {
    let n = r.get_count(16)?;
    let mut q = VecDeque::with_capacity(n);
    for _ in 0..n {
        q.push_back((r.get_usize()?, r.get_u64()?));
    }
    Ok(q)
}

impl Persist for LockObj {
    fn save(&self, w: &mut Writer) {
        w.put_bool(self.initialized);
        self.held_by.save(w);
        save_queue(&self.waiters, w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(LockObj {
            initialized: r.get_bool()?,
            held_by: Option::<usize>::load(r)?,
            waiters: load_queue(r)?,
        })
    }
}

impl Persist for BarrierObj {
    fn save(&self, w: &mut Writer) {
        w.put_bool(self.initialized);
        w.put_u32(self.count);
        w.put_usize(self.arrived.len());
        for &(core, ts) in &self.arrived {
            w.put_usize(core);
            w.put_u64(ts);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let initialized = r.get_bool()?;
        let count = r.get_u32()?;
        let n = r.get_count(16)?;
        let mut arrived = Vec::with_capacity(n);
        for _ in 0..n {
            arrived.push((r.get_usize()?, r.get_u64()?));
        }
        Ok(BarrierObj { initialized, count, arrived })
    }
}

impl Persist for SemaObj {
    fn save(&self, w: &mut Writer) {
        w.put_bool(self.initialized);
        w.put_i64(self.count);
        save_queue(&self.waiters, w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(SemaObj { initialized: r.get_bool()?, count: r.get_i64()?, waiters: load_queue(r)? })
    }
}

impl Persist for SyncStats {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.lock_acquisitions);
        w.put_u64(self.lock_waits);
        w.put_u64(self.barrier_episodes);
        w.put_u64(self.sema_waits);
        w.put_u64(self.implicit_inits);
        w.put_u64(self.unlock_mismatches);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(SyncStats {
            lock_acquisitions: r.get_u64()?,
            lock_waits: r.get_u64()?,
            barrier_episodes: r.get_u64()?,
            sema_waits: r.get_u64()?,
            implicit_inits: r.get_u64()?,
            unlock_mismatches: r.get_u64()?,
        })
    }
}

/// Wait queues (and therefore future grant order) are part of the state:
/// a restored run replays contended grants exactly as the original would.
impl Persist for SyncTable {
    fn save(&self, w: &mut Writer) {
        self.locks.save(w);
        self.barriers.save(w);
        self.semas.save(w);
        self.stats.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(SyncTable {
            locks: Vec::load(r)?,
            barriers: Vec::load(r)?,
            semas: Vec::load(r)?,
            stats: SyncStats::load(r)?,
            obs: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_grants_immediately_when_free() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitLock { id: 0 }, 0);
        assert_eq!(t.apply(1, SyncOp::Lock { id: 0 }, 5).reply, Some(1));
        assert_eq!(t.locks[0].held_by, Some(1));
        assert_eq!(t.stats.lock_acquisitions, 1);
    }

    #[test]
    fn contended_lock_queues_and_grants_on_unlock() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitLock { id: 0 }, 0);
        assert_eq!(t.apply(1, SyncOp::Lock { id: 0 }, 5).reply, Some(1));
        // Core 2 queues: no reply yet.
        let out = t.apply(2, SyncOp::Lock { id: 0 }, 6);
        assert_eq!(out, SyncOutcome { reply: None, releases: vec![] });
        assert_eq!(t.stats.lock_waits, 1);
        // Unlock hands the lock straight to the waiter.
        let out = t.apply(1, SyncOp::Unlock { id: 0 }, 9);
        assert_eq!(out.reply, Some(0));
        assert_eq!(out.releases, vec![(2, 1, 6)]);
        assert_eq!(t.locks[0].held_by, Some(2));
        assert_eq!(t.stats.lock_acquisitions, 2);
        assert_eq!(t.stats.unlock_mismatches, 0);
    }

    #[test]
    fn lock_waiters_are_granted_fifo() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitLock { id: 0 }, 0);
        t.apply(0, SyncOp::Lock { id: 0 }, 1);
        t.apply(1, SyncOp::Lock { id: 0 }, 2);
        t.apply(2, SyncOp::Lock { id: 0 }, 3);
        let out = t.apply(0, SyncOp::Unlock { id: 0 }, 4);
        assert_eq!(out.releases, vec![(1, 1, 2)]);
        let out = t.apply(1, SyncOp::Unlock { id: 0 }, 5);
        assert_eq!(out.releases, vec![(2, 1, 3)]);
        let out = t.apply(2, SyncOp::Unlock { id: 0 }, 6);
        assert!(out.releases.is_empty());
        assert_eq!(t.locks[0].held_by, None);
    }

    #[test]
    fn unlock_by_non_holder_is_counted_but_tolerated() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitLock { id: 3 }, 0);
        t.apply(0, SyncOp::Lock { id: 3 }, 1);
        t.apply(5, SyncOp::Unlock { id: 3 }, 2);
        assert_eq!(t.stats.unlock_mismatches, 1);
        assert_eq!(t.locks[3].held_by, None);
    }

    #[test]
    fn barrier_releases_all_on_last_arrival() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitBarrier { id: 0, count: 3 }, 0);
        assert_eq!(
            t.apply(0, SyncOp::BarrierArrive { id: 0 }, 10),
            SyncOutcome { reply: None, releases: vec![] }
        );
        assert_eq!(
            t.apply(2, SyncOp::BarrierArrive { id: 0 }, 11),
            SyncOutcome { reply: None, releases: vec![] }
        );
        assert_eq!(t.barriers[0].arrived.len(), 2);
        let out = t.apply(1, SyncOp::BarrierArrive { id: 0 }, 15);
        assert_eq!(out.reply, None);
        let mut cores: Vec<usize> = out.releases.iter().map(|&(c, _, _)| c).collect();
        cores.sort_unstable();
        assert_eq!(cores, vec![0, 1, 2]);
        assert_eq!(t.barriers[0].arrived.len(), 0);
        assert_eq!(t.stats.barrier_episodes, 1);
    }

    #[test]
    fn barrier_is_reusable_across_episodes() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitBarrier { id: 1, count: 2 }, 0);
        for episode in 0..3 {
            t.apply(0, SyncOp::BarrierArrive { id: 1 }, episode * 10);
            let out = t.apply(1, SyncOp::BarrierArrive { id: 1 }, episode * 10 + 1);
            assert_eq!(out.releases.len(), 2, "episode {episode}");
        }
        assert_eq!(t.stats.barrier_episodes, 3);
    }

    #[test]
    fn semaphore_counts_and_queues() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitSema { id: 0, count: 2 }, 0);
        assert_eq!(t.apply(0, SyncOp::SemaWait { id: 0 }, 1).reply, Some(1));
        assert_eq!(t.apply(1, SyncOp::SemaWait { id: 0 }, 2).reply, Some(1));
        // Count exhausted: core 2 queues.
        let out = t.apply(2, SyncOp::SemaWait { id: 0 }, 3);
        assert_eq!(out, SyncOutcome { reply: None, releases: vec![] });
        assert_eq!(t.stats.sema_waits, 1);
        // A signal hands the unit straight to the waiter.
        let out = t.apply(0, SyncOp::SemaSignal { id: 0 }, 4);
        assert_eq!(out.releases, vec![(2, 1, 3)]);
        // No waiter: the count accumulates.
        t.apply(0, SyncOp::SemaSignal { id: 0 }, 5);
        assert_eq!(t.apply(3, SyncOp::SemaWait { id: 0 }, 6).reply, Some(1));
    }

    #[test]
    fn implicit_initialization_is_lenient_but_counted() {
        let mut t = SyncTable::new();
        assert_eq!(t.apply(0, SyncOp::Lock { id: 9 }, 0).reply, Some(1));
        t.apply(0, SyncOp::SemaSignal { id: 4 }, 0);
        assert_eq!(t.apply(1, SyncOp::SemaWait { id: 4 }, 1).reply, Some(1));
        assert_eq!(t.stats.implicit_inits, 2);
    }

    #[test]
    fn ids_are_independent_namespaces() {
        let mut t = SyncTable::new();
        t.apply(0, SyncOp::InitLock { id: 0 }, 0);
        t.apply(0, SyncOp::InitSema { id: 0, count: 1 }, 0);
        t.apply(0, SyncOp::Lock { id: 0 }, 1);
        // Same id, different namespace: sema still available.
        assert_eq!(t.apply(1, SyncOp::SemaWait { id: 0 }, 2).reply, Some(1));
    }
}
