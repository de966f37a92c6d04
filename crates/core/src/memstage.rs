//! The memory-event stage the single manager ([`crate::uncore`], whose
//! module doc describes it) and every memory shard ([`crate::shard`])
//! each own one of: the event queue under the scheme's discipline, the
//! reply port, and `DMem`/`IMem` service against a directory.

use crate::clock::ClockBoard;
use crate::msg::{GlobalEvent, InKind, InMsg, OutEvent, OutKind};
use crate::scheme::{EventOrdering, Scheme};
use crate::spsc::Producer;
use sk_mem::l1::ReqKind;
use sk_mem::Directory;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// One event queue and one reply port under one scheme.
pub(crate) struct MemStage {
    scheme: Scheme,
    /// Events waiting for their horizon (ordered schemes, shutdown).
    heap: BinaryHeap<Reverse<OrderedEv>>,
    inqs: Vec<Producer<InMsg>>,
    /// Cores that received an InQ message since the last wakeup flush: a
    /// flag per core and the flagged cores as a list, so the flush walks
    /// receivers only.
    wake_pending: Vec<bool>,
    wake_list: Vec<usize>,
    /// Cores the last [`MemStage::flush_wakeups`] actually resumed (they
    /// were parked on the board): what the deterministic scheduler must
    /// put back in its runnable set.
    woken: Vec<usize>,
    /// `None` for the sequential engine (no parked threads to wake).
    board: Option<Arc<ClockBoard>>,
}

impl MemStage {
    pub(crate) fn new(
        scheme: Scheme,
        inqs: Vec<Producer<InMsg>>,
        board: Option<Arc<ClockBoard>>,
    ) -> Self {
        MemStage {
            scheme,
            heap: BinaryHeap::new(),
            wake_pending: vec![false; inqs.len()],
            inqs,
            wake_list: Vec::new(),
            woken: Vec::new(),
            board,
        }
    }

    // ---- the event queue ----

    /// Take in one FIFO drain of `core`'s queue. Ordered schemes queue
    /// the events and return nothing; eager schemes return them all, for
    /// the caller to process now in arrival order.
    pub(crate) fn ingest<'a>(&mut self, core: usize, evs: &'a [OutEvent]) -> &'a [OutEvent] {
        if self.scheme.ordering() == EventOrdering::Eager {
            return evs;
        }
        self.enqueue(evs.iter().map(|&ev| GlobalEvent { core, ev }));
        &[]
    }

    /// Queue events whatever the scheme (a shutdown drain, a restored GQ).
    pub(crate) fn enqueue(&mut self, evs: impl IntoIterator<Item = GlobalEvent>) {
        self.heap.extend(evs.into_iter().map(|ge| Reverse(OrderedEv(ge))));
    }

    /// The event-processing horizon for global time `g`: events stamped at
    /// or before it may take effect. `None` means "everything" (eager).
    pub(crate) fn horizon(&self, g: u64) -> Option<u64> {
        match self.scheme.ordering() {
            EventOrdering::Eager => None,
            EventOrdering::TimestampOrdered => Some(g),
            EventOrdering::AtBarrier => {
                let Scheme::Quantum(q) = self.scheme else {
                    unreachable!("AtBarrier implies a quantum")
                };
                // The last completed barrier; events inside the current
                // quantum wait ("requests are not globally visible until
                // the end of each quantum").
                Some((g / q) * q)
            }
        }
    }

    /// Take the earliest queued event if it is stamped at or before `h`.
    pub(crate) fn pop_upto(&mut self, h: u64) -> Option<GlobalEvent> {
        let &Reverse(OrderedEv(ge)) = self.heap.peek()?;
        if ge.ev.ts > h {
            return None;
        }
        self.heap.pop();
        Some(ge)
    }

    /// Timestamp of the earliest queued event, if any.
    pub(crate) fn min_ts(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(OrderedEv(ge))| ge.ev.ts)
    }

    /// Number of queued events.
    pub(crate) fn queued(&self) -> usize {
        self.heap.len()
    }

    /// The queued events in (ts, core, seq) order (snapshots).
    pub(crate) fn queued_sorted(&self) -> Vec<GlobalEvent> {
        let mut gq: Vec<GlobalEvent> = self.heap.iter().map(|Reverse(OrderedEv(g))| *g).collect();
        gq.sort_by_key(|g| g.key());
        gq
    }

    // ---- the reply port ----

    /// Send `msg` to `core`'s InQ; its wake-up waits for the next flush.
    pub(crate) fn push(&mut self, core: usize, msg: InMsg) {
        self.inqs[core].push(msg);
        if !std::mem::replace(&mut self.wake_pending[core], true) {
            self.wake_list.push(core);
        }
    }

    /// Unpark every core that received a message since the last flush.
    pub(crate) fn flush_wakeups(&mut self) {
        self.woken.clear();
        for core in self.wake_list.drain(..) {
            self.wake_pending[core] = false;
            if self.board.as_ref().is_some_and(|b| b.unpark(core)) {
                self.woken.push(core);
            }
        }
    }

    /// Cores the last [`MemStage::flush_wakeups`] resumed from a parked
    /// state.
    pub(crate) fn woken(&self) -> &[usize] {
        &self.woken
    }

    /// The cores' InQs, producer side (telemetry and queue audits).
    pub(crate) fn producers(&mut self) -> &mut [Producer<InMsg>] {
        &mut self.inqs
    }

    // ---- directory service ----

    /// Resolve `core`'s `DMem`/`IMem` request stamped `ts` against `dir`:
    /// the invalidations and downgrades it causes go out first, then the
    /// reply (a data reply only when `dir` grants a line).
    pub(crate) fn serve_mem(&mut self, dir: &mut Directory, core: usize, ts: u64, kind: OutKind) {
        let (req, block) = match kind {
            OutKind::DMem { req, block } => (req, block),
            OutKind::IMem { block } => (ReqKind::GetS, block),
            _ => unreachable!("not a memory event"),
        };
        let out = dir.handle(core, req, block, ts);
        for inv in &out.invalidations {
            self.push(
                inv.core,
                InMsg {
                    ts: inv.ts,
                    kind: InKind::Invalidate { block: inv.block, downgrade: inv.downgrade },
                },
            );
        }
        let reply = match kind {
            OutKind::IMem { .. } => Some(InKind::IMemReply { block }),
            _ => out.granted.map(|granted| InKind::DMemReply { block, granted }),
        };
        if let Some(kind) = reply {
            self.push(core, InMsg { ts: out.done_ts, kind });
        }
    }
}
