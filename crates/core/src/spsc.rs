//! Bounded single-producer / single-consumer ring with consumer-side peek.
//!
//! The paper's communication structure is strictly SPSC: each core thread's
//! OutQ has the core as producer and the manager as consumer; each InQ has
//! the manager as producer and the core as consumer (§2.2). A dedicated
//! lock-free ring keeps the per-cycle InQ poll ("the core thread enquires
//! its InQ in every cycle") down to one atomic load, and `peek` lets the
//! consumer inspect a timestamped entry without committing to pop it — the
//! core leaves future-stamped replies queued until its local time reaches
//! them.
//!
//! Memory ordering follows the classic Lamport queue: the producer
//! publishes with a `Release` store of `tail`; the consumer acquires it, so
//! the slot write happens-before the read (Rust Atomics and Locks, ch. 5).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    head: AtomicUsize, // next index to pop (owned by consumer)
    tail: AtomicUsize, // next index to push (owned by producer)
}

// Safety: only one producer touches `tail`/writes slots, only one consumer
// touches `head`/reads slots; the Release/Acquire pair on `tail` (push) and
// `head` (pop) orders the slot accesses.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Producer endpoint. Not `Clone`: exactly one producer may exist.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Cached head, refreshed only when the ring looks full.
    cached_head: usize,
    /// When set, successful pushes update `high_water` with the post-push
    /// occupancy. The occupancy is first computed against `cached_head`,
    /// which may lag the consumer by up to a whole ring (it is refreshed
    /// only when the ring looks full), so a value that would set a new
    /// maximum is recomputed against a freshly loaded `head` before it
    /// counts: the mark is the true occupancy at that push, and the extra
    /// load happens only while the ring is at or near its deepest yet.
    track_hw: bool,
    high_water: usize,
}

/// Consumer endpoint. Not `Clone`: exactly one consumer may exist.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached tail, refreshed only when the ring looks empty.
    cached_tail: usize,
}

/// Create a bounded SPSC channel holding at most `capacity` items.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0);
    let buf: Vec<UnsafeCell<MaybeUninit<T>>> =
        (0..capacity + 1).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let ring = Arc::new(Ring {
        buf: buf.into_boxed_slice(),
        capacity: capacity + 1, // one slot sacrificed to distinguish full/empty
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer { ring: ring.clone(), cached_head: 0, track_hw: false, high_water: 0 },
        Consumer { ring, cached_tail: 0 },
    )
}

impl<T> Producer<T> {
    /// Try to enqueue; returns the value back if the ring is full.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let next = if tail + 1 == ring.capacity { 0 } else { tail + 1 };
        if next == self.cached_head {
            self.cached_head = ring.head.load(Ordering::Acquire);
            if next == self.cached_head {
                return Err(value);
            }
        }
        // Safety: slot `tail` is not visible to the consumer until the
        // Release store below, and no other producer exists.
        unsafe { (*ring.buf[tail].get()).write(value) };
        ring.tail.store(next, Ordering::Release);
        if self.track_hw {
            self.note_occupancy(next);
        }
        Ok(())
    }

    /// Ratchet the high-water mark after a push left the tail at `tail`.
    fn note_occupancy(&mut self, tail: usize) {
        let ring = &*self.ring;
        let used = |head: usize| {
            if tail >= head {
                tail - head
            } else {
                tail + ring.capacity - head
            }
        };
        if used(self.cached_head) > self.high_water {
            self.cached_head = ring.head.load(Ordering::Acquire);
            self.high_water = self.high_water.max(used(self.cached_head));
        }
    }

    /// Enqueue as many leading items of `items` as currently fit, writing
    /// every slot first and then publishing them all with a **single**
    /// `Release` store of `tail`. Returns the number enqueued (a prefix of
    /// `items`); 0 means the ring was full.
    ///
    /// The consumer observes either none or all of the batch — per-item
    /// `tail` traffic (and the matching cache-line ping-pong) collapses to
    /// one store per batch.
    pub fn push_batch(&mut self, items: &[T]) -> usize
    where
        T: Copy,
    {
        let ring = &*self.ring;
        let cap = ring.capacity;
        let tail = ring.tail.load(Ordering::Relaxed);
        let free_from = |head: usize| {
            let used = if tail >= head { tail - head } else { tail + cap - head };
            cap - 1 - used
        };
        let mut free = free_from(self.cached_head);
        if free < items.len() {
            self.cached_head = ring.head.load(Ordering::Acquire);
            free = free_from(self.cached_head);
        }
        let n = items.len().min(free);
        if n == 0 {
            return 0;
        }
        let mut idx = tail;
        for &v in &items[..n] {
            // Safety: the `n` slots starting at `tail` are free (checked
            // above) and invisible to the consumer until the Release store
            // below; no other producer exists.
            unsafe { (*ring.buf[idx].get()).write(v) };
            idx = if idx + 1 == cap { 0 } else { idx + 1 };
        }
        ring.tail.store(idx, Ordering::Release);
        if self.track_hw {
            self.note_occupancy(idx);
        }
        n
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

    /// Number of free slots (approximate from the producer's view).
    pub fn free_slots(&self) -> usize {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Acquire);
        let tail = ring.tail.load(Ordering::Relaxed);
        let used = if tail >= head { tail - head } else { tail + ring.capacity - head };
        ring.capacity - 1 - used
    }
}

impl<T> Consumer<T> {
    #[inline]
    fn nonempty(&mut self) -> bool {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = ring.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return false;
            }
        }
        true
    }

    /// Look at the oldest element without removing it.
    pub fn peek(&mut self) -> Option<&T> {
        if !self.nonempty() {
            return None;
        }
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        // Safety: the slot was published by the producer's Release store,
        // observed by the Acquire load in `nonempty`, and will not be
        // overwritten until we advance `head`.
        Some(unsafe { (*ring.buf[head].get()).assume_init_ref() })
    }

    /// Remove and return the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        if !self.nonempty() {
            return None;
        }
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        // Safety: as in `peek`; ownership moves out and `head` advances so
        // the slot is never read again.
        let value = unsafe { (*ring.buf[head].get()).assume_init_read() };
        let next = if head + 1 == ring.capacity { 0 } else { head + 1 };
        ring.head.store(next, Ordering::Release);
        Some(value)
    }

    /// Move up to `max` of the oldest elements into `out` (appending, in
    /// FIFO order), advancing `head` once with a **single** `Release`
    /// store. Returns the number moved; 0 means the ring was empty.
    ///
    /// The mirror of [`Producer::push_batch`]: the producer observes the
    /// freed slots all at once, so per-item `head` traffic collapses to
    /// one store per drain.
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let ring = &*self.ring;
        let cap = ring.capacity;
        let head = ring.head.load(Ordering::Relaxed);
        let mut tail = self.cached_tail;
        let mut avail = if tail >= head { tail - head } else { tail + cap - head };
        if avail < max {
            tail = ring.tail.load(Ordering::Acquire);
            self.cached_tail = tail;
            avail = if tail >= head { tail - head } else { tail + cap - head };
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        let mut idx = head;
        for _ in 0..n {
            // Safety: slots up to the Acquire-observed `tail` were
            // published by the producer's Release store; ownership moves
            // out and `head` advances past each slot exactly once.
            out.push(unsafe { (*ring.buf[idx].get()).assume_init_read() });
            idx = if idx + 1 == cap { 0 } else { idx + 1 };
        }
        ring.head.store(idx, Ordering::Release);
        n
    }

    /// True if no element is currently visible.
    pub fn is_empty(&mut self) -> bool {
        !self.nonempty()
    }

    /// Number of elements currently visible to this consumer (refreshes
    /// the cached tail). The producer may append concurrently, so the
    /// count is a lower bound the moment it returns; in the deterministic
    /// backend (no concurrency) it is exact, and its scheduler uses it to
    /// tell a drained ring from one with undelivered work.
    pub fn len(&mut self) -> usize {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        self.cached_tail = ring.tail.load(Ordering::Acquire);
        let tail = self.cached_tail;
        if tail >= head {
            tail - head
        } else {
            tail + ring.capacity - head
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drop any items still in the queue.
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            unsafe { (*self.buf[head].get()).assume_init_drop() };
            head = if head + 1 == self.capacity { 0 } else { head + 1 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let (mut p, mut c) = channel(4);
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert!(p.try_push(99).is_err(), "ring full at capacity");
        for i in 0..4 {
            assert_eq!(c.peek(), Some(&i));
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut p, mut c) = channel(2);
        p.try_push(7).unwrap();
        assert_eq!(c.peek(), Some(&7));
        assert_eq!(c.peek(), Some(&7));
        assert_eq!(c.pop(), Some(7));
        assert!(c.is_empty());
    }

    #[test]
    fn wraps_around() {
        let (mut p, mut c) = channel(3);
        for round in 0..10 {
            for i in 0..3 {
                p.try_push(round * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(c.pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn free_slots_reporting() {
        let (mut p, mut c) = channel(4);
        assert_eq!(p.free_slots(), 4);
        p.try_push(1).unwrap();
        assert_eq!(p.free_slots(), 3);
        c.pop();
        assert_eq!(p.free_slots(), 4);
    }

    #[test]
    fn push_batch_publishes_prefix() {
        let (mut p, mut c) = channel(4);
        assert_eq!(p.push_batch(&[1, 2, 3]), 3);
        // Only one slot left: the batch is truncated to the free prefix.
        assert_eq!(p.push_batch(&[4, 5, 6]), 1);
        assert_eq!(p.push_batch(&[9]), 0, "full ring pushes nothing");
        for i in 1..=4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn drain_into_respects_max_and_appends() {
        let (mut p, mut c) = channel(8);
        assert_eq!(p.push_batch(&[10, 11, 12, 13, 14]), 5);
        let mut out = vec![99];
        assert_eq!(c.drain_into(&mut out, 2), 2);
        assert_eq!(out, vec![99, 10, 11]);
        assert_eq!(c.drain_into(&mut out, usize::MAX), 3);
        assert_eq!(out, vec![99, 10, 11, 12, 13, 14]);
        assert_eq!(c.drain_into(&mut out, usize::MAX), 0);
    }

    #[test]
    fn batch_ops_wrap_around() {
        let (mut p, mut c) = channel(3);
        let mut out = Vec::new();
        for round in 0..10 {
            let vals = [round * 10, round * 10 + 1, round * 10 + 2];
            assert_eq!(p.push_batch(&vals), 3);
            out.clear();
            assert_eq!(c.drain_into(&mut out, usize::MAX), 3);
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn batch_and_single_ops_interleave() {
        let (mut p, mut c) = channel(5);
        p.try_push(0).unwrap();
        assert_eq!(p.push_batch(&[1, 2]), 2);
        assert_eq!(c.pop(), Some(0));
        let mut out = Vec::new();
        assert_eq!(c.drain_into(&mut out, 1), 1);
        assert_eq!(out, vec![1]);
        p.try_push(3).unwrap();
        assert_eq!(c.peek(), Some(&2));
        out.clear();
        assert_eq!(c.drain_into(&mut out, usize::MAX), 2);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn cross_thread_batch_stream() {
        let (mut p, mut c) = channel(16);
        let n = 100_000u64;
        let producer = thread::spawn(move || {
            let mut next = 0u64;
            while next < n {
                let hi = (next + 7).min(n);
                let chunk: Vec<u64> = (next..hi).collect();
                let mut sent = 0;
                while sent < chunk.len() {
                    let k = p.push_batch(&chunk[sent..]);
                    if k == 0 {
                        thread::yield_now();
                    }
                    sent += k;
                }
                next = hi;
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        while expected < n {
            out.clear();
            if c.drain_into(&mut out, usize::MAX) == 0 {
                thread::yield_now();
                continue;
            }
            for &v in &out {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_stream() {
        let (mut p, mut c) = channel(16);
        let n = 100_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                let mut v = i;
                loop {
                    match p.try_push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < n {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn high_water_tracks_only_when_enabled() {
        let (mut p, _c) = channel(8);
        p.try_push(1).unwrap();
        assert_eq!(p.push_batch(&[2, 3]), 2);
        assert_eq!(p.high_water(), 0, "disabled producer records nothing");
        p.enable_high_water();
        p.try_push(4).unwrap();
        assert_eq!(p.high_water(), 4);
        assert_eq!(p.push_batch(&[5, 6]), 2);
        assert_eq!(p.high_water(), 6);
        p.try_push(7).unwrap();
        assert_eq!(p.high_water(), 7, "high-water only ratchets upward");
    }

    #[test]
    fn high_water_is_the_occupancy_not_the_capacity() {
        // A run longer than the ring: the cached head lags by up to a whole
        // ring, which used to read as "the ring filled up".
        let (mut p, mut c) = channel(4096);
        p.enable_high_water();
        for i in 0..10_000u32 {
            p.try_push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(p.high_water(), 1);
        for i in 0..7 {
            p.try_push(i).unwrap();
        }
        assert_eq!(p.high_water(), 7);

        let (mut p, mut c) = channel(4096);
        p.enable_high_water();
        let mut out = Vec::new();
        for i in 0..10_000u32 {
            assert_eq!(p.push_batch(&[i]), 1);
            out.clear();
            assert_eq!(c.drain_into(&mut out, usize::MAX), 1);
        }
        assert_eq!(p.high_water(), 1);
        assert_eq!(p.push_batch(&[0; 7]), 7);
        assert_eq!(p.high_water(), 7);
    }

    #[test]
    fn drops_unconsumed_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut p, c) = channel(8);
        for _ in 0..5 {
            p.try_push(D).unwrap();
        }
        drop(c);
        drop(p);
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }
}
