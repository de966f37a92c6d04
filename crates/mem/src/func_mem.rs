//! Functional backing memory.
//!
//! One flat 64-bit word address space shared by all simulation threads.
//! Storage is a lock-free two-level radix page table: an `AtomicPtr`
//! directory of leaf tables, each leaf an `AtomicPtr` array of 32 KiB
//! pages of `AtomicU64` words. Pages are allocated once (install races
//! resolve by compare-exchange; the loser frees its allocation) and are
//! **never freed mid-run**, so a page pointer observed once stays valid
//! for the lifetime of the memory — that is what makes the per-core
//! single-entry page cache ([`PageCursor`], the "µTLB") sound. Addresses
//! beyond the radix coverage (≥ 512 GiB — wrong-path loads can compute
//! arbitrary addresses) fall back to a lock-free CAS-push overflow list.
//!
//! All word accesses use `Relaxed` ordering: the *simulated* machine's
//! ordering comes from simulated timestamps, not from host-memory
//! ordering, and any host-level race on a word is by construction also a
//! simulated-time race that the slack framework is allowed to order
//! arbitrarily (paper §3.2). Table pointers use acquire/release so a
//! thread that sees a page pointer also sees its (zeroed) allocation.

use sk_snap::{Persist, Reader, SnapError, Writer};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Words per page (32 KiB pages).
const PAGE_WORDS: usize = 4096;
const PAGE_SHIFT: u32 = 12 + 3; // 4096 words * 8 bytes

/// Leaf-level fanout: pages per leaf table.
const L2_BITS: u32 = 12;
const L2_ENTRIES: usize = 1 << L2_BITS;
/// Directory fanout: leaf tables in the root directory.
const L1_BITS: u32 = 12;
const L1_ENTRIES: usize = 1 << L1_BITS;
/// Page numbers below this live in the radix table (2^24 pages = 512 GiB
/// of address space); the rest go to the overflow list.
const RADIX_PAGES: u64 = 1 << (L1_BITS + L2_BITS);

type PageWords = [AtomicU64; PAGE_WORDS];
type Leaf = [AtomicPtr<PageWords>; L2_ENTRIES];

fn new_page() -> Box<PageWords> {
    // AtomicU64 is not Copy; build via iterator into a boxed slice then
    // convert. Zero-initialised.
    let v: Vec<AtomicU64> = (0..PAGE_WORDS).map(|_| AtomicU64::new(0)).collect();
    v.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!())
}

fn new_leaf() -> Box<Leaf> {
    let v: Vec<AtomicPtr<PageWords>> =
        (0..L2_ENTRIES).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
    v.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!())
}

/// One high-address page outside the radix coverage. Nodes are CAS-pushed
/// onto a singly-linked list and never removed.
struct OverflowNode {
    page_no: u64,
    words: Box<PageWords>,
    next: *mut OverflowNode,
}

/// The shared functional memory of the simulated machine.
///
/// Cloning is cheap (`Arc` inside); clones view the same memory.
#[derive(Clone, Default)]
pub struct FuncMemory {
    inner: Arc<Inner>,
}

struct Inner {
    /// Root directory of the radix table. Slots start null and are filled
    /// with leaked `Box<Leaf>` pointers on first touch.
    dir: Box<[AtomicPtr<Leaf>]>,
    /// Head of the overflow list for page numbers ≥ [`RADIX_PAGES`].
    overflow: AtomicPtr<OverflowNode>,
    /// Pages materialized so far (radix + overflow).
    resident: AtomicUsize,
}

impl Default for Inner {
    fn default() -> Self {
        let dir: Vec<AtomicPtr<Leaf>> =
            (0..L1_ENTRIES).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Inner {
            dir: dir.into_boxed_slice(),
            overflow: AtomicPtr::new(ptr::null_mut()),
            resident: AtomicUsize::new(0),
        }
    }
}

// Inner holds raw pointers to heap allocations it owns. All mutation of
// the pointer graph is append-only through atomics, word access is
// atomic, and nothing is freed before Drop — safe to share across threads.
unsafe impl Send for Inner {}
unsafe impl Sync for Inner {}

impl Drop for Inner {
    fn drop(&mut self) {
        for slot in self.dir.iter() {
            let leaf = slot.load(Ordering::Relaxed);
            if leaf.is_null() {
                continue;
            }
            let leaf = unsafe { Box::from_raw(leaf) };
            for pslot in leaf.iter() {
                let page = pslot.load(Ordering::Relaxed);
                if !page.is_null() {
                    drop(unsafe { Box::from_raw(page) });
                }
            }
        }
        let mut node = self.overflow.load(Ordering::Relaxed);
        while !node.is_null() {
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
        }
    }
}

impl Inner {
    /// Resident page for `pno`, without materializing anything.
    #[inline]
    fn lookup(&self, pno: u64) -> Option<&PageWords> {
        if pno < RADIX_PAGES {
            let leaf = self.dir[(pno >> L2_BITS) as usize].load(Ordering::Acquire);
            if leaf.is_null() {
                return None;
            }
            let page = unsafe { &*leaf }[(pno as usize) & (L2_ENTRIES - 1)].load(Ordering::Acquire);
            if page.is_null() {
                None
            } else {
                Some(unsafe { &*page })
            }
        } else {
            self.overflow_find(self.overflow.load(Ordering::Acquire), pno)
        }
    }

    /// The page `pno` among the overflow nodes reachable from `node`, a
    /// value the list head held (nodes are never removed).
    #[inline(never)]
    fn overflow_find(&self, mut node: *mut OverflowNode, pno: u64) -> Option<&PageWords> {
        while !node.is_null() {
            let n = unsafe { &*node };
            if n.page_no == pno {
                return Some(&n.words);
            }
            node = n.next;
        }
        None
    }

    /// Resident page for `pno`, creating it (and its leaf) if absent.
    fn materialize(&self, pno: u64) -> &PageWords {
        if pno >= RADIX_PAGES {
            return self.overflow_materialize(pno);
        }
        let slot = &self.dir[(pno >> L2_BITS) as usize];
        let mut leaf = slot.load(Ordering::Acquire);
        if leaf.is_null() {
            let fresh = Box::into_raw(new_leaf());
            match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => leaf = fresh,
                Err(current) => {
                    drop(unsafe { Box::from_raw(fresh) });
                    leaf = current;
                }
            }
        }
        let pslot = &unsafe { &*leaf }[(pno as usize) & (L2_ENTRIES - 1)];
        let mut page = pslot.load(Ordering::Acquire);
        if page.is_null() {
            let fresh = Box::into_raw(new_page());
            match pslot.compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.resident.fetch_add(1, Ordering::Relaxed);
                    page = fresh;
                }
                Err(current) => {
                    drop(unsafe { Box::from_raw(fresh) });
                    page = current;
                }
            }
        }
        unsafe { &*page }
    }

    #[inline(never)]
    fn overflow_materialize(&self, pno: u64) -> &PageWords {
        loop {
            // One load of the head per attempt: the scan covers exactly the
            // list the CAS then extends, so a node another thread published
            // for this page after the scan began fails the CAS instead of
            // being shadowed by a second node for the same page.
            let head = self.overflow.load(Ordering::Acquire);
            if let Some(p) = self.overflow_find(head, pno) {
                return p;
            }
            let fresh = Box::into_raw(Box::new(OverflowNode {
                page_no: pno,
                words: new_page(),
                next: head,
            }));
            match self.overflow.compare_exchange(head, fresh, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.resident.fetch_add(1, Ordering::Relaxed);
                    return &unsafe { &*fresh }.words;
                }
                Err(_) => drop(unsafe { Box::from_raw(fresh) }),
            }
        }
    }

    /// Every resident page, ascending by page number. Radix order is
    /// naturally ascending; overflow page numbers all sort after it.
    fn pages_sorted(&self) -> Vec<(u64, &PageWords)> {
        let mut out = Vec::new();
        for (d, slot) in self.dir.iter().enumerate() {
            let leaf = slot.load(Ordering::Acquire);
            if leaf.is_null() {
                continue;
            }
            for (l, pslot) in unsafe { &*leaf }.iter().enumerate() {
                let page = pslot.load(Ordering::Acquire);
                if !page.is_null() {
                    let pno = ((d as u64) << L2_BITS) | l as u64;
                    out.push((pno, unsafe { &*page }));
                }
            }
        }
        let mut high: Vec<(u64, &PageWords)> = Vec::new();
        let mut node = self.overflow.load(Ordering::Acquire);
        while !node.is_null() {
            let n = unsafe { &*node };
            high.push((n.page_no, &n.words));
            node = n.next;
        }
        high.sort_unstable_by_key(|&(pno, _)| pno);
        out.extend(high);
        out
    }
}

/// A raw handle to one resident page, used by [`PageCursor`].
///
/// Valid for as long as the owning [`FuncMemory`] (any clone) is alive:
/// pages are never freed mid-run. Holders must keep such a clone.
#[derive(Clone, Copy)]
struct PageHandle {
    words: *const PageWords,
}

// The pointee is an array of atomics owned by a live Inner.
unsafe impl Send for PageHandle {}

impl FuncMemory {
    /// New empty memory (all words read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        debug_assert_eq!(addr % 8, 0, "unaligned word access at {addr:#x}");
        (addr >> PAGE_SHIFT, ((addr >> 3) as usize) & (PAGE_WORDS - 1))
    }

    /// Read the word at byte address `addr` (must be 8-byte aligned).
    /// Untouched memory reads as zero (and stays unmaterialized).
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let (pno, idx) = Self::split(addr);
        match self.inner.lookup(pno) {
            Some(p) => p[idx].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Write the word at byte address `addr` (must be 8-byte aligned).
    #[inline]
    pub fn write(&self, addr: u64, value: u64) {
        let (pno, idx) = Self::split(addr);
        self.inner.materialize(pno)[idx].store(value, Ordering::Relaxed);
    }

    /// Atomic fetch-add on a word, returning the previous value. Used by
    /// the sync-primitive emulation.
    #[inline]
    pub fn fetch_add(&self, addr: u64, delta: u64) -> u64 {
        let (pno, idx) = Self::split(addr);
        self.inner.materialize(pno)[idx].fetch_add(delta, Ordering::Relaxed)
    }

    /// Atomic compare-exchange on a word; returns `Ok(prev)` on success.
    #[inline]
    pub fn compare_exchange(&self, addr: u64, expect: u64, new: u64) -> Result<u64, u64> {
        let (pno, idx) = Self::split(addr);
        self.inner.materialize(pno)[idx].compare_exchange(
            expect,
            new,
            Ordering::Relaxed,
            Ordering::Relaxed,
        )
    }

    /// Load a program image (or any `(addr, word)` iterator).
    pub fn load<I: IntoIterator<Item = (u64, u64)>>(&self, image: I) {
        for (addr, word) in image {
            self.write(addr, word);
        }
    }

    /// Number of pages materialized so far (for tests/diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.inner.resident.load(Ordering::Relaxed)
    }

    /// A fresh single-entry page cache over this memory.
    pub fn cursor(&self) -> PageCursor {
        PageCursor {
            mem: self.clone(),
            page_no: u64::MAX, // no valid page number reaches 2^49
            page: None,
            hits: 0,
            misses: 0,
        }
    }
}

/// Single-entry page cache — the per-core "µTLB".
///
/// Caches the page pointer of the last touched page so that the common
/// case (consecutive accesses within one 32 KiB page) is a single pointer
/// chase with zero shared-state writes. Soundness rests on the table's
/// no-free guarantee: a cached pointer can go stale in *coverage* (other
/// cores may install more pages) but never dangle, and word storage is
/// shared atomics, so hits always observe current data.
///
/// Absent pages are deliberately **not** cached on the read path: another
/// core may materialize the page later, and a cached "absent" would keep
/// returning stale zeros.
pub struct PageCursor {
    /// Keeps the page table (and thus the cached pointer) alive.
    mem: FuncMemory,
    page_no: u64,
    page: Option<PageHandle>,
    /// Accesses served by the cached page pointer.
    pub hits: u64,
    /// Accesses that re-walked the page table (including reads of
    /// unmapped addresses, which stay uncached).
    pub misses: u64,
}

impl PageCursor {
    /// Read the word at `addr`; untouched memory reads as zero.
    #[inline]
    pub fn read(&mut self, addr: u64) -> u64 {
        let (pno, idx) = FuncMemory::split(addr);
        if let Some(h) = self.page {
            if self.page_no == pno {
                self.hits += 1;
                return unsafe { &*h.words }[idx].load(Ordering::Relaxed);
            }
        }
        self.misses += 1;
        match self.mem.inner.lookup(pno) {
            Some(p) => {
                self.page_no = pno;
                self.page = Some(PageHandle { words: p });
                p[idx].load(Ordering::Relaxed)
            }
            None => 0,
        }
    }

    /// Write the word at `addr`, materializing its page if needed.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let (pno, idx) = FuncMemory::split(addr);
        if let Some(h) = self.page {
            if self.page_no == pno {
                self.hits += 1;
                (unsafe { &*h.words })[idx].store(value, Ordering::Relaxed);
                return;
            }
        }
        self.misses += 1;
        let p = self.mem.inner.materialize(pno);
        self.page_no = pno;
        self.page = Some(PageHandle { words: p });
        p[idx].store(value, Ordering::Relaxed);
    }

    /// The underlying memory.
    pub fn memory(&self) -> &FuncMemory {
        &self.mem
    }

    /// Take and reset the hit/miss counters (for telemetry flushes).
    pub fn take_counters(&mut self) -> (u64, u64) {
        let c = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        c
    }
}

/// Snapshots store pages in sorted page-number order, each as a sparse
/// list of `(word index, value)` pairs; all-zero pages are elided (they
/// are indistinguishable from unmapped memory). Callers must quiesce all
/// simulation threads before saving — the Relaxed word loads are only
/// meaningful when nobody is concurrently writing. The byte format is
/// unchanged from the mutex-and-hashmap table this replaced.
impl Persist for FuncMemory {
    fn save(&self, w: &mut Writer) {
        let mut nonzero: Vec<(u64, Vec<(u16, u64)>)> = Vec::new();
        for (pno, page) in self.inner.pages_sorted() {
            let words: Vec<(u16, u64)> = page
                .iter()
                .enumerate()
                .filter_map(|(i, word)| {
                    let v = word.load(Ordering::Relaxed);
                    (v != 0).then_some((i as u16, v))
                })
                .collect();
            if !words.is_empty() {
                nonzero.push((pno, words));
            }
        }
        w.put_usize(nonzero.len());
        for (pno, words) in nonzero {
            w.put_u64(pno);
            w.put_usize(words.len());
            for (idx, v) in words {
                w.put_u16(idx);
                w.put_u64(v);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mem = FuncMemory::new();
        let n_pages = r.get_count(9)?;
        for _ in 0..n_pages {
            let pno = r.get_u64()?;
            let page = mem.inner.materialize(pno);
            let n_words = r.get_count(10)?;
            for _ in 0..n_words {
                let idx = r.get_u16()? as usize;
                let v = r.get_u64()?;
                if idx >= PAGE_WORDS {
                    return Err(SnapError::Corrupt(format!("word index {idx}")));
                }
                page[idx].store(v, Ordering::Relaxed);
            }
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn zero_initialised_and_writable() {
        let m = FuncMemory::new();
        assert_eq!(m.read(0x1000), 0);
        m.write(0x1000, 42);
        assert_eq!(m.read(0x1000), 42);
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn pages_are_sparse() {
        let m = FuncMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0, 1);
        m.write(1 << 40, 2); // far away: overflow-list territory
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(1 << 40), 2);
        // Reading unmapped memory must not materialize pages.
        assert_eq!(m.read(1 << 41), 0);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn radix_and_overflow_boundary() {
        let m = FuncMemory::new();
        let last_radix = (RADIX_PAGES - 1) << PAGE_SHIFT;
        let first_over = RADIX_PAGES << PAGE_SHIFT;
        m.write(last_radix, 11);
        m.write(first_over, 22);
        m.write(!7u64, 33); // the very last aligned word
        assert_eq!(m.read(last_radix), 11);
        assert_eq!(m.read(first_over), 22);
        assert_eq!(m.read(!7u64), 33);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn fetch_add_and_cas() {
        let m = FuncMemory::new();
        assert_eq!(m.fetch_add(0x10, 5), 0);
        assert_eq!(m.fetch_add(0x10, 5), 5);
        assert_eq!(m.read(0x10), 10);
        assert_eq!(m.compare_exchange(0x10, 10, 11), Ok(10));
        assert_eq!(m.compare_exchange(0x10, 10, 12), Err(11));
    }

    #[test]
    fn clones_share_storage() {
        let m = FuncMemory::new();
        let m2 = m.clone();
        m.write(0x100, 7);
        assert_eq!(m2.read(0x100), 7);
    }

    #[test]
    fn load_image() {
        let m = FuncMemory::new();
        m.load(vec![(0x1000, 1), (0x1008, 2), (0x100000, 3)]);
        assert_eq!(m.read(0x1000), 1);
        assert_eq!(m.read(0x1008), 2);
        assert_eq!(m.read(0x100000), 3);
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let m = FuncMemory::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        m.fetch_add(0x40, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.read(0x40), 4000);
    }

    #[test]
    fn concurrent_page_install_no_duplicates() {
        // All threads race to install the same fresh pages (same leaf,
        // same overflow page number); every write must land in the one
        // surviving page and the resident count must stay exact.
        let m = FuncMemory::new();
        let addrs: Vec<u64> =
            (0..16).map(|i| i * (1 << PAGE_SHIFT)).chain([1 << 45, 1 << 50]).collect();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                let addrs = addrs.clone();
                thread::spawn(move || {
                    for &a in &addrs {
                        m.fetch_add(a + 8 * t, 1);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(m.resident_pages(), addrs.len());
        for &a in &addrs {
            for t in 0..4 {
                assert_eq!(m.read(a + 8 * t), 1, "lost write at {a:#x}+{t}");
            }
        }
    }

    #[test]
    fn many_threads_install_one_overflow_page_exactly_once() {
        // Every round, all threads leave a barrier together and write
        // their own word of one never-touched overflow page. A second node
        // for the page shows twice: the resident count runs ahead of the
        // rounds, and the write that landed in the shadowed node is lost.
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 3000;
        let m = FuncMemory::new();
        let page = |round: u64| (RADIX_PAGES + round) << PAGE_SHIFT;
        let barrier = std::sync::Barrier::new(THREADS as usize);
        thread::scope(|s| {
            for t in 0..THREADS {
                let (m, barrier) = (m.clone(), &barrier);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        m.write(page(round) + 8 * t, t + 1);
                    }
                });
            }
        });
        assert_eq!(m.resident_pages() as u64, ROUNDS, "a page was installed twice");
        for round in 0..ROUNDS {
            for t in 0..THREADS {
                assert_eq!(m.read(page(round) + 8 * t), t + 1, "lost write, round {round}");
            }
        }
    }

    #[test]
    fn cursor_reads_and_writes() {
        let m = FuncMemory::new();
        let mut c = m.cursor();
        c.write(0x1000, 5);
        assert_eq!(c.read(0x1000), 5);
        assert_eq!(c.read(0x1008), 0); // same page, still a hit
        assert_eq!((c.hits, c.misses), (2, 1));
        // Cross-page access misses once, then hits.
        c.write(1 << 20, 9);
        assert_eq!(c.read(1 << 20), 9);
        assert_eq!((c.hits, c.misses), (3, 2));
        // The cursor and the plain API see the same storage.
        assert_eq!(m.read(0x1000), 5);
    }

    #[test]
    fn cursor_does_not_cache_absent_pages() {
        let m = FuncMemory::new();
        let mut c = m.cursor();
        assert_eq!(c.read(0x5000_0000), 0);
        assert_eq!(m.resident_pages(), 0, "cursor read materialized a page");
        // Another handle materializes the page; the cursor must see it.
        m.write(0x5000_0000, 77);
        assert_eq!(c.read(0x5000_0000), 77);
    }

    #[test]
    fn cursor_sees_remote_writes_on_cached_page() {
        let m = FuncMemory::new();
        let mut c = m.cursor();
        c.write(0x2000, 1); // caches the page
        m.write(0x2008, 2); // remote write through another handle
        assert_eq!(c.read(0x2008), 2, "stale data behind the µTLB");
    }

    #[test]
    fn persist_round_trip_with_overflow() {
        let m = FuncMemory::new();
        m.write(0x0, 1);
        m.write(0x1000, 2);
        m.write(1 << 44, 3);
        m.write(1 << 50, 4);
        let mut w = Writer::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let m2 = <FuncMemory as Persist>::load(&mut r).unwrap();
        r.finish().unwrap();
        for a in [0x0, 0x1000, 1 << 44, 1 << 50] {
            assert_eq!(m.read(a), m2.read(a));
        }
        // Determinism: identical logical state dumps byte-identically.
        let mut w2 = Writer::new();
        m2.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    #[cfg(debug_assertions)]
    fn unaligned_access_panics_in_debug() {
        FuncMemory::new().read(3);
    }
}
