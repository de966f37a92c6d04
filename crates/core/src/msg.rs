//! Event-queue message types (the paper's OutQ / InQ / GQ entries, §2.2).
//!
//! "In each entry, a timestamp records the time an event initiates and
//! should take effect. Events are labelled by their event type field."

use sk_mem::l1::ReqKind;
use sk_mem::BlockAddr;

/// Synchronization operations, routed through the manager thread so that
/// their global ordering is governed by the active slack scheme (this is
/// what makes lock-acquisition order sensitive to slack, §3.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncOp {
    /// Initialize lock `id`.
    InitLock { id: u32 },
    /// Acquire lock `id`; the reply (always `1`) is withheld until the
    /// lock is granted, so contended waiting costs simulated time computed
    /// in event time (grant ts − request ts), not host time.
    Lock { id: u32 },
    /// Release lock `id` (granting the oldest queued waiter, if any).
    Unlock { id: u32 },
    /// Initialize barrier `id` with `count` participants.
    InitBarrier { id: u32, count: u32 },
    /// Arrive at barrier `id`; the reply is withheld until all arrive.
    BarrierArrive { id: u32 },
    /// Initialize semaphore `id` with `count`.
    InitSema { id: u32, count: i64 },
    /// P operation; the reply is withheld until a unit is available.
    SemaWait { id: u32 },
    /// V operation.
    SemaSignal { id: u32 },
    /// Spawn a workload thread: reply `value = tid` or -1 if no core free.
    Spawn { entry: u64, arg: u64 },
    /// Atomic compare-and-swap on functional memory: if the word at
    /// `addr` equals `expected`, store `desired`. The reply carries the
    /// observed (pre-swap) value. Applied by the manager when it
    /// processes the event, so contended CAS winners are ordered by the
    /// active slack scheme exactly like lock grants (§3.2.3).
    Cas { addr: u64, expected: u64, desired: u64 },
}

/// An entry in a core's outgoing event queue (OutQ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutEvent {
    /// Simulated cycle at which the event initiates.
    pub ts: u64,
    /// Per-core sequence number; breaks ties deterministically in
    /// timestamp-ordered schemes.
    pub seq: u64,
    /// Payload.
    pub kind: OutKind,
}

/// Payload of an [`OutEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutKind {
    /// A coherence request from the data cache.
    DMem { req: ReqKind, block: BlockAddr },
    /// A coherence request from the instruction cache (always `GetS`).
    IMem { block: BlockAddr },
    /// A synchronization operation.
    Sync(SyncOp),
    /// The workload thread on this core exited (`a0` = exit code).
    Exit { code: u64 },
    /// All workload threads have been created and the region of interest
    /// begins: the manager resets statistics (paper §4.1).
    RoiBegin,
    /// Region of interest ends: the manager freezes statistics.
    RoiEnd,
}

/// An entry in a core's incoming event queue (InQ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InMsg {
    /// Simulated cycle at which the message should take effect ("the core
    /// thread reads out the entry when its local time becomes equal to the
    /// timestamp").
    pub ts: u64,
    /// Payload.
    pub kind: InKind,
}

/// Payload of an [`InMsg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InKind {
    /// Reply to a data-cache miss: install `block` in `granted` state.
    DMemReply { block: BlockAddr, granted: sk_mem::LineState },
    /// Reply to an instruction-cache miss.
    IMemReply { block: BlockAddr },
    /// Reply to a [`SyncOp`]; `value` is operation-specific.
    SyncReply { value: i64 },
    /// Invalidate (or downgrade, if `downgrade`) a block in this L1.
    Invalidate { block: BlockAddr, downgrade: bool },
    /// Begin executing a workload thread at `entry` with argument `arg`.
    Start { entry: u64, arg: u64, tid: u32 },
    /// The simulation is over; the core thread should finish.
    Stop,
}

/// A consolidated event in the manager's global queue (GQ): an OutQ entry
/// plus its originating core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalEvent {
    /// Originating core.
    pub core: usize,
    /// The event.
    pub ev: OutEvent,
}

impl GlobalEvent {
    /// Deterministic processing key: (timestamp, core, per-core sequence).
    pub fn key(&self) -> (u64, usize, u64) {
        (self.ev.ts, self.core, self.ev.seq)
    }
}

sk_snap::persist_enum!(SyncOp, "sync-op" {
    0 => InitLock { id },
    1 => Lock { id },
    2 => Unlock { id },
    3 => InitBarrier { id, count },
    4 => BarrierArrive { id },
    5 => InitSema { id, count },
    6 => SemaWait { id },
    7 => SemaSignal { id },
    8 => Spawn { entry, arg },
    9 => Cas { addr, expected, desired },
});
sk_snap::persist_enum!(OutKind, "out-kind" {
    0 => DMem { req, block },
    1 => IMem { block },
    2 => Sync(op),
    3 => Exit { code },
    4 => RoiBegin,
    5 => RoiEnd,
});
sk_snap::persist_record!(OutEvent { ts, seq, kind });
sk_snap::persist_enum!(InKind, "in-kind" {
    0 => DMemReply { block, granted },
    1 => IMemReply { block },
    2 => SyncReply { value },
    3 => Invalidate { block, downgrade },
    4 => Start { entry, arg, tid },
    5 => Stop,
});
sk_snap::persist_record!(InMsg { ts, kind });
sk_snap::persist_record!(GlobalEvent { core, ev });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_event_key_orders_by_ts_then_core_then_seq() {
        let mk =
            |core, ts, seq| GlobalEvent { core, ev: OutEvent { ts, seq, kind: OutKind::RoiBegin } };
        let mut v = [mk(1, 5, 0), mk(0, 5, 1), mk(0, 5, 0), mk(2, 4, 9)];
        v.sort_by_key(|g| g.key());
        let keys: Vec<_> = v.iter().map(|g| g.key()).collect();
        assert_eq!(keys, vec![(4, 2, 9), (5, 0, 0), (5, 0, 1), (5, 1, 0)]);
    }
}
