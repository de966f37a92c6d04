//! Unbounded single-producer / single-consumer queue.
//!
//! The paper's communication structure is strictly SPSC: each core thread's
//! OutQ has the core as producer and the manager as consumer; each InQ has
//! the manager as producer and the core as consumer (§2.2). A dedicated
//! lock-free queue keeps the per-cycle InQ poll ("the core thread enquires
//! its InQ in every cycle") down to one atomic load. A consumer takes what
//! it sees whole ([`Consumer::drain_into`]): the core moves its InQ into a
//! timestamp heap and applies each entry when its local time reaches it,
//! the manager hands each OutQ drain to its event stage.
//!
//! A push never fails. Storage is a chain of fixed-size blocks: the
//! producer links the next block when it fills one, the consumer hands each
//! block it has emptied back through a one-word exchange, and the producer
//! takes from there before it allocates. A queue so owns the blocks its
//! deepest occupancy needed and, once there, allocates nothing.
//!
//! Memory ordering follows the classic Lamport queue, with `tail` and
//! `head` counting the items ever pushed and popped: the producer publishes
//! slot writes and block links with one `Release` store of `tail` per push
//! or non-empty batch; the consumer acquires it, so they happen-before its reads
//! (Rust Atomics and Locks, ch. 5). A block changes hands the same way: the
//! consumer's `Release` on the exchange follows its last read of the block
//! and pairs with the producer's `Acquire` before its first write.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// Slots per block. Most queues stay two to seven entries deep and live in
/// one block; the InQs of a 64-core run reach a few hundred and span
/// several, so the hand-back is exercised by every such run.
const BLOCK: usize = 32;

struct Block<T> {
    slots: [UnsafeCell<MaybeUninit<T>>; BLOCK],
    /// The block after this one: in the queue, or below it on the spare
    /// stack.
    next: AtomicPtr<Block<T>>,
}

impl<T> Block<T> {
    fn alloc() -> *mut Block<T> {
        Box::into_raw(Box::new(Block {
            slots: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// One endpoint's words, on a cache line the other endpoint never writes.
#[repr(align(64))]
struct End<T> {
    /// Items ever pushed (`tail`) or popped (`head`).
    count: AtomicUsize,
    /// The block that holds slot `count % BLOCK`.
    block: AtomicPtr<Block<T>>,
}

struct Queue<T> {
    tail: End<T>, // written by the producer only
    head: End<T>, // written by the consumer only
    /// The exchange: emptied blocks on their way back to the producer,
    /// stacked through `next`. The consumer pushes, the producer pops; with
    /// one popper the stack has no ABA case.
    spare: AtomicPtr<Block<T>>,
}

// SAFETY: the producer alone writes `tail`, the slots from it on and the
// links of the blocks it holds; the consumer alone writes `head` and reads
// slots below `tail`. The Release/Acquire pairs on `tail.count` (publish)
// and `spare` (hand-back) order the two threads' accesses to any one slot,
// and blocks are freed only by `Drop`, after both endpoints are gone.
// `T: Send` because items cross from the producer's thread to the
// consumer's.
unsafe impl<T: Send> Send for Queue<T> {}
unsafe impl<T: Send> Sync for Queue<T> {}

/// Producer endpoint. Not `Clone`: exactly one producer may exist.
pub struct Producer<T> {
    q: Arc<Queue<T>>,
    /// `head` as last loaded; only the high-water mark reads it.
    cached_head: usize,
    /// When set, pushes update `high_water` with the post-push occupancy.
    /// The occupancy is first computed against `cached_head`, which lags
    /// the consumer, so a value that would set a new maximum is recomputed
    /// against a freshly loaded `head` before it counts: the mark is the
    /// true occupancy at that push, and the extra load happens only while
    /// the queue is at or near its deepest yet.
    track_hw: bool,
    high_water: usize,
}

/// Consumer endpoint. Not `Clone`: exactly one consumer may exist.
pub struct Consumer<T> {
    q: Arc<Queue<T>>,
    /// Cached tail, refreshed only when the queue looks empty.
    cached_tail: usize,
}

/// Create an SPSC channel. It starts with one block and grows on demand.
pub fn channel<T>() -> (Producer<T>, Consumer<T>) {
    let first = Block::alloc();
    let end = || End { count: AtomicUsize::new(0), block: AtomicPtr::new(first) };
    let q = Arc::new(Queue { tail: end(), head: end(), spare: AtomicPtr::new(ptr::null_mut()) });
    (
        Producer { q: q.clone(), cached_head: 0, track_hw: false, high_water: 0 },
        Consumer { q, cached_tail: 0 },
    )
}

impl<T> Producer<T> {
    /// Write `value` into the slot `tail` names, linking the next block if
    /// that filled this one. The consumer sees neither until the caller
    /// publishes a tail beyond it.
    #[inline]
    fn write(&mut self, tail: usize, value: T) {
        let q = &*self.q;
        let block = q.tail.block.load(Ordering::Relaxed);
        // SAFETY: `block` is the producer's current block, allocated until
        // `Drop`; the slot is at or past the published tail, so the
        // consumer does not touch it, and no other producer exists.
        unsafe { (*(*block).slots[tail % BLOCK].get()).write(value) };
        if (tail + 1).is_multiple_of(BLOCK) {
            let next = self.take_block();
            // SAFETY: as above; the consumer follows the link only after it
            // has acquired a tail past this block's last slot.
            unsafe { (*block).next.store(next, Ordering::Relaxed) };
            q.tail.block.store(next, Ordering::Relaxed);
        }
    }

    /// The block to fill next: the top of the spare stack, or a new one.
    #[cold]
    fn take_block(&self) -> *mut Block<T> {
        let spare = &self.q.spare;
        let mut top = spare.load(Ordering::Acquire);
        while !top.is_null() {
            // SAFETY: a stacked block stays allocated, and its link
            // unchanged, until it is popped, and only this thread pops.
            let below = unsafe { (*top).next.load(Ordering::Relaxed) };
            match spare.compare_exchange_weak(top, below, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) => {
                    // SAFETY: popped, so this thread owns the block; the
                    // Acquire above follows the consumer's last read of it.
                    unsafe { (*top).next.store(ptr::null_mut(), Ordering::Relaxed) };
                    return top;
                }
                Err(now) => top = now,
            }
        }
        Block::alloc()
    }

    /// Publish every slot written below `tail` with one `Release` store.
    #[inline]
    fn publish(&mut self, tail: usize) {
        self.q.tail.count.store(tail, Ordering::Release);
        if self.track_hw && tail - self.cached_head > self.high_water {
            self.cached_head = self.q.head.count.load(Ordering::Acquire);
            self.high_water = self.high_water.max(tail - self.cached_head);
        }
    }

    /// Enqueue one item.
    pub fn push(&mut self, value: T) {
        let tail = self.q.tail.count.load(Ordering::Relaxed);
        self.write(tail, value);
        self.publish(tail + 1);
    }

    /// Enqueue all of `items`, writing every slot first and then publishing
    /// them with a **single** `Release` store of `tail`.
    ///
    /// The consumer observes either none or all of the batch — per-item
    /// `tail` traffic (and the matching cache-line ping-pong) collapses to
    /// one store per batch, and an empty batch stores nothing.
    pub fn push_batch(&mut self, items: &[T])
    where
        T: Copy,
    {
        if items.is_empty() {
            return;
        }
        let tail = self.q.tail.count.load(Ordering::Relaxed);
        for (i, &v) in items.iter().enumerate() {
            self.write(tail + i, v);
        }
        self.publish(tail + items.len());
    }

    /// Start recording the occupancy high-water mark on this producer.
    pub fn enable_high_water(&mut self) {
        self.track_hw = true;
    }

    /// Highest post-push occupancy seen since [`enable_high_water`]
    /// (0 if tracking was never enabled).
    ///
    /// [`enable_high_water`]: Producer::enable_high_water
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

impl<T> Consumer<T> {
    /// Move the item `head` names out, handing its block back if that
    /// emptied it. The caller publishes a head beyond it.
    #[inline]
    fn read(&mut self, head: usize) -> T {
        let q = &*self.q;
        let block = q.head.block.load(Ordering::Relaxed);
        // SAFETY: the slot was published by the producer's Release store of
        // `tail`, which the caller acquired, and its block stays with the
        // consumer until `head` moves past it. Ownership moves out and the
        // caller advances `head`, so the slot is never read again.
        let value = unsafe { (*(*block).slots[head % BLOCK].get()).assume_init_read() };
        if (head + 1).is_multiple_of(BLOCK) {
            self.hand_back(block);
        }
        value
    }

    /// Leave `block`, whose last slot was just read, for the one after it
    /// and pass it to the producer.
    #[cold]
    fn hand_back(&self, block: *mut Block<T>) {
        let q = &*self.q;
        // SAFETY: the producer linked the next block before it published
        // this one's last slot; the consumer is done with `block`, and the
        // Release below follows its last read of it.
        unsafe {
            q.head.block.store((*block).next.load(Ordering::Relaxed), Ordering::Relaxed);
            let mut top = q.spare.load(Ordering::Relaxed);
            loop {
                (*block).next.store(top, Ordering::Relaxed);
                match q.spare.compare_exchange_weak(
                    top,
                    block,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(now) => top = now,
                }
            }
        }
    }

    /// Move every element visible to this consumer into `out` (appending,
    /// in FIFO order), advancing `head` once with a **single** `Release`
    /// store. Returns the number moved; 0 means the queue was empty.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        let head = self.q.head.count.load(Ordering::Relaxed);
        self.cached_tail = self.q.tail.count.load(Ordering::Acquire);
        let n = self.cached_tail - head;
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            out.push(self.read(head + i));
        }
        self.q.head.count.store(head + n, Ordering::Release);
        n
    }

    /// True if no element is currently visible. The tail is reloaded
    /// only when the cached one says empty.
    pub fn is_empty(&mut self) -> bool {
        let head = self.q.head.count.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.q.tail.count.load(Ordering::Acquire);
        }
        head == self.cached_tail
    }
}

impl<T> Drop for Queue<T> {
    fn drop(&mut self) {
        let first = *self.head.block.get_mut();
        // Drop the items still queued…
        let mut block = first;
        for i in *self.head.count.get_mut()..*self.tail.count.get_mut() {
            // SAFETY: both endpoints are gone; the slots from `head` to
            // `tail` hold items, along the chain that starts at `first`.
            unsafe {
                (*(*block).slots[i % BLOCK].get()).assume_init_drop();
                if (i + 1).is_multiple_of(BLOCK) {
                    block = *(*block).next.get_mut();
                }
            }
        }
        // …then free every block: the chain from the consumer's block to
        // the producer's, and the spares.
        for mut block in [first, *self.spare.get_mut()] {
            while !block.is_null() {
                // SAFETY: every block came from `Block::alloc` and sits in
                // exactly one of the two chains.
                let dead = unsafe { Box::from_raw(block) };
                block = dead.next.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::thread;

    thread_local! {
        /// Blocks freed on this thread (the thread that drops a queue's
        /// second endpoint frees all of its blocks).
        static FREED: Cell<usize> = const { Cell::new(0) };
    }

    impl<T> Drop for Block<T> {
        fn drop(&mut self) {
            FREED.with(|n| n.set(n.get() + 1));
        }
    }

    impl<T> Producer<T> {
        /// Blocks this queue owns. A block is freed only with the queue,
        /// so this is also every block it ever allocated. Only at rest:
        /// it walks the consumer's chain.
        pub(crate) fn blocks(&self) -> usize {
            let len = |mut block: *mut Block<T>| {
                let mut n = 0;
                while !block.is_null() {
                    n += 1;
                    block = unsafe { (*block).next.load(Ordering::Acquire) };
                }
                n
            };
            len(self.q.head.block.load(Ordering::Acquire))
                + len(self.q.spare.load(Ordering::Acquire))
        }
    }

    /// What an engine's queues add up to.
    #[derive(Default)]
    struct Audit {
        queues: usize,
        /// Deepest high-water mark of any queue.
        deepest: usize,
        /// Most blocks owned by any one queue.
        most_blocks: usize,
        /// Heap bytes of all queues: their blocks and their shared words.
        bytes: usize,
    }

    /// Walk every queue of `e`. Armed before a run, each starts recording
    /// its high-water mark; audited after it, none may own more blocks
    /// than that mark needs plus the two a chain carries at its ends.
    fn queues_of(e: &mut crate::engine::Engine, arm: bool) -> Audit {
        fn one<T>(p: &mut Producer<T>, arm: bool, seen: &mut Audit) {
            if arm {
                return p.enable_high_water();
            }
            let (hw, blocks) = (p.high_water(), p.blocks());
            assert!(blocks <= hw.div_ceil(BLOCK) + 2, "{blocks} blocks for a high-water of {hw}");
            // The `Arc` puts its two counts in front of the queue's words.
            let shared = std::alloc::Layout::new::<[usize; 2]>()
                .extend(std::alloc::Layout::new::<Queue<T>>())
                .expect("layout")
                .0
                .pad_to_align();
            seen.queues += 1;
            seen.deepest = seen.deepest.max(hw);
            seen.most_blocks = seen.most_blocks.max(blocks);
            seen.bytes += blocks * std::mem::size_of::<Block<T>>() + shared.size();
        }
        let mut seen = Audit::default();
        for core in e.cores.iter_mut() {
            core.producers().for_each(|p| one(p, arm, &mut seen));
        }
        e.uncore.stage.producers().iter_mut().for_each(|p| one(p, arm, &mut seen));
        for shard in e.shards.iter_mut() {
            shard.stage.producers().iter_mut().for_each(|p| one(p, arm, &mut seen));
        }
        seen
    }

    #[test]
    fn no_engine_queue_owns_more_blocks_than_its_high_water_needs() {
        use crate::{CoreModel, DetEngine, Engine, Scheme, TargetConfig};
        let report = |what: &str, a: &Audit| {
            eprintln!(
                "{what}: {} queues, deepest {}, most blocks {}, {} bytes",
                a.queues, a.deepest, a.most_blocks, a.bytes
            );
        };
        // Threaded, four out-of-order cores, bounded slack.
        let w = sk_kernels::fft::fft(4, 6);
        let mut cfg = TargetConfig::small(4);
        cfg.core.model = CoreModel::OutOfOrder;
        let mut e = Engine::new(&w.program, Scheme::BoundedSlack(10), &cfg);
        queues_of(&mut e, true);
        e.run_until(None);
        let audit = queues_of(&mut e, false);
        report("threaded 4-core S10 FFT", &audit);
        assert_eq!(audit.queues, 8);

        // Deterministic and lockstep: 64 cores on one lock over four
        // shards (640 queues, all shallow; 640 rings of 4096 slots were
        // 104.9 MB), then the deepest InQs of the performance ledger, the
        // 1024-point FFT on eight cores (16 such rings were 2.6 MB).
        let many = {
            let mut cfg = TargetConfig::many_core(64);
            cfg.mem_shards = 4;
            (sk_kernels::micro::lock_sweep(64, 6), cfg, 640, 2 << 20)
        };
        let deep = (sk_kernels::fft::fft(8, 10), TargetConfig::small(8), 16, 100 << 10);
        let mut deepest_seen = 0;
        for (w, cfg, queues, max_bytes) in [many, deep] {
            let engine = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
            let mut det = DetEngine::from_engine(engine, 1);
            queues_of(det.engine_mut(), true);
            det.run();
            let audit = queues_of(det.engine_mut(), false);
            report(&format!("det CC {}", w.name), &audit);
            assert_eq!(audit.queues, queues);
            assert!(audit.bytes <= max_bytes, "{} bytes of queues", audit.bytes);
            deepest_seen = deepest_seen.max(audit.deepest);
        }
        assert!(deepest_seen > 3 * BLOCK, "no queue spans several blocks any more");
    }

    /// Everything the consumer can see, in order.
    fn drain<T>(c: &mut Consumer<T>) -> Vec<T> {
        let mut out = Vec::new();
        c.drain_into(&mut out);
        out
    }

    #[test]
    fn fifo_order_across_blocks() {
        let (mut p, mut c) = channel();
        let n = 3 * BLOCK + 5;
        for i in 0..n {
            p.push(i);
        }
        assert_eq!(drain(&mut c), (0..n).collect::<Vec<_>>());
        assert!(drain(&mut c).is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn steady_state_reuses_blocks() {
        // Never more than three items queued: however many blocks' worth
        // pass through, the queue keeps alternating between the same two.
        let (mut p, mut c) = channel();
        for round in 0..40 * BLOCK {
            for i in 0..3 {
                p.push(round * 10 + i);
            }
            assert_eq!(drain(&mut c), [round * 10, round * 10 + 1, round * 10 + 2]);
        }
        assert_eq!(p.blocks(), 2);
    }

    #[test]
    fn push_batch_publishes_the_whole_slice_at_once() {
        let (mut p, mut c) = channel();
        let items: Vec<usize> = (0..2 * BLOCK + 3).collect();
        p.push_batch(&items[..3]);
        assert_eq!(drain(&mut c), items[..3]);
        p.push_batch(&items[3..]);
        p.push_batch(&[]);
        assert_eq!(drain(&mut c), items[3..]);
    }

    #[test]
    fn an_empty_batch_publishes_nothing() {
        let (mut p, mut c) = channel();
        p.enable_high_water();
        p.push_batch(&[1, 2, 3]);
        let tail = p.q.tail.count.load(Ordering::Relaxed);
        p.push_batch(&[]);
        assert_eq!(p.q.tail.count.load(Ordering::Relaxed), tail);
        assert_eq!(drain(&mut c), [1, 2, 3]);
        p.push_batch(&[]);
        assert!(c.is_empty());
        assert_eq!(p.high_water(), 3);
    }

    #[test]
    fn drain_into_appends() {
        let (mut p, mut c) = channel();
        p.push_batch(&[10, 11, 12]);
        let mut out = vec![99];
        assert_eq!(c.drain_into(&mut out), 3);
        p.push(13);
        assert_eq!(c.drain_into(&mut out), 1);
        assert_eq!(out, vec![99, 10, 11, 12, 13]);
        assert_eq!(c.drain_into(&mut out), 0);
    }

    #[test]
    fn batch_and_single_ops_interleave() {
        let (mut p, mut c) = channel();
        p.push(0);
        p.push_batch(&[1, 2]);
        p.push(3);
        assert_eq!(drain(&mut c), [0, 1, 2, 3]);
        p.push_batch(&[4]);
        p.push(5);
        assert_eq!(drain(&mut c), [4, 5]);
    }

    #[test]
    fn a_handed_back_block_is_refilled_behind_the_head() {
        // Draining past the last slot of the first block hands that block
        // back; the producer takes it at the next block boundary and fills
        // it while the consumer's head still sits in the second block.
        let (mut p, mut c) = channel();
        for i in 0..BLOCK + 1 {
            p.push(i);
        }
        assert_eq!(drain(&mut c), (0..BLOCK + 1).collect::<Vec<_>>());
        for i in 0..2 * BLOCK {
            p.push(1000 + i);
        }
        assert_eq!(p.blocks(), 3, "the handed-back block was not reused");
        assert_eq!(drain(&mut c), (1000..1000 + 2 * BLOCK).collect::<Vec<_>>());
    }

    #[test]
    fn high_water_tracks_only_when_enabled() {
        let (mut p, _c) = channel();
        p.push(1);
        p.push_batch(&[2, 3]);
        assert_eq!(p.high_water(), 0, "disabled producer records nothing");
        p.enable_high_water();
        p.push(4);
        assert_eq!(p.high_water(), 4);
        p.push_batch(&[5, 6]);
        assert_eq!(p.high_water(), 6);
        p.push(7);
        assert_eq!(p.high_water(), 7, "high-water only ratchets upward");
    }

    #[test]
    fn high_water_is_the_occupancy_not_the_traffic() {
        // Many blocks' worth of traffic at depth one, then a burst that
        // starts mid-block and ends two blocks on: the cached head lags by
        // everything drained since it was last loaded, which must not count.
        let (mut p, mut c) = channel();
        p.enable_high_water();
        for i in 0..10 * BLOCK + BLOCK / 2 {
            p.push(i);
            assert_eq!(drain(&mut c), [i]);
        }
        assert_eq!(p.high_water(), 1);
        for i in 0..2 * BLOCK {
            p.push(i);
        }
        assert_eq!(p.high_water(), 2 * BLOCK);

        let (mut p, mut c) = channel();
        p.enable_high_water();
        for i in 0..10 * BLOCK + BLOCK / 2 {
            p.push_batch(&[i]);
            assert_eq!(drain(&mut c), [i]);
        }
        assert_eq!(p.high_water(), 1);
        p.push_batch(&[0; 2 * BLOCK]);
        assert_eq!(p.high_water(), 2 * BLOCK);
    }

    #[test]
    fn drop_frees_every_item_once_and_every_block() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Items over two blocks, some already drained, one block handed
        // back and lying on the spare stack.
        let (mut p, mut c) = channel();
        let drained = 2 * BLOCK + 5;
        for _ in 0..drained {
            p.push(D);
        }
        assert_eq!(drain(&mut c).len(), drained);
        assert_eq!(DROPS.load(Ordering::Relaxed), drained);
        let pushed = drained + BLOCK + 3;
        for _ in drained..pushed {
            p.push(D);
        }
        let owned = p.blocks();
        assert_eq!(owned, 3);
        assert!(!p.q.spare.load(Ordering::Relaxed).is_null(), "no block on the spare stack");
        let freed = FREED.with(Cell::get);
        drop(c);
        drop(p);
        assert_eq!(DROPS.load(Ordering::Relaxed), pushed, "every item dropped exactly once");
        assert_eq!(FREED.with(Cell::get) - freed, owned, "every block freed");
    }

    #[test]
    fn cross_thread_stream() {
        let (mut p, mut c) = channel();
        let n = 100_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                p.push(i);
            }
        });
        let mut expected = 0;
        let mut out = Vec::new();
        while expected < n {
            out.clear();
            if c.drain_into(&mut out) == 0 {
                thread::yield_now();
            }
            for &v in &out {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    /// A million items in random bursts of up to ten blocks, mixing `push`
    /// and `push_batch`, against a consumer that drains and now and then
    /// sleeps so the queue runs deep. FIFO order end to end; the blocks
    /// the queue ends up owning stay within what its deepest occupancy
    /// needed, i.e. the hand-back works. (The mark is taken when a burst
    /// is published, the blocks when it is written, and the consumer
    /// drains in between: hence one burst of slack.)
    #[test]
    fn cross_thread_burst_stress() {
        const N: u64 = 1 << 20;
        const MAX_BURST: usize = 10 * BLOCK;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut bursts = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut p, mut c) = channel::<u64>();
        p.enable_high_water();
        // The test's own flow control (the queue has none): the producer
        // pauses when it is far ahead, so the depth rises and falls many
        // times instead of once.
        let consumed = Arc::new(AtomicUsize::new(0));
        let seen = consumed.clone();
        let producer = thread::spawn(move || {
            let mut sent = 0u64;
            let mut chunk = Vec::new();
            while sent < N {
                while sent - seen.load(Ordering::Relaxed) as u64 > 64 * BLOCK as u64 {
                    thread::yield_now();
                }
                let r = bursts();
                let len = (1 + r % MAX_BURST as u64).min(N - sent);
                if r & (1 << 40) == 0 {
                    chunk.clear();
                    chunk.extend(sent..sent + len);
                    p.push_batch(&chunk);
                } else {
                    (sent..sent + len).for_each(|v| p.push(v));
                }
                sent += len;
            }
            p
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        let mut polls = 0u64;
        while expected < N {
            polls += 1;
            if polls.is_multiple_of(4096) {
                thread::sleep(std::time::Duration::from_micros(200));
            }
            out.clear();
            if c.drain_into(&mut out) == 0 {
                thread::yield_now();
            }
            for &v in &out {
                assert_eq!(v, expected);
                expected += 1;
            }
            consumed.store(expected as usize, Ordering::Relaxed);
        }
        let p = producer.join().unwrap();
        assert!(c.is_empty());
        let (blocks, hw) = (p.blocks(), p.high_water());
        eprintln!("burst stress: high-water {hw}, {blocks} blocks owned");
        let bound = (hw + MAX_BURST).div_ceil(BLOCK) + 2;
        assert!(blocks <= bound, "{blocks} blocks for a high-water of {hw}");
    }
}
