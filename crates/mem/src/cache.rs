//! Generic set-associative tag array with true-LRU replacement.
//!
//! Used for the L1 I/D caches (with MESI line states) and the L2 banks
//! (with a simple valid bit). The array stores only tags and a per-line
//! state `S`; data lives in [`crate::FuncMemory`].

use crate::{BlockAddr, BLOCK_BYTES};
use sk_snap::{Persist, Reader, SnapError, Writer};

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Block size in bytes (must equal the global [`BLOCK_BYTES`] for
    /// coherence to line up; asserted).
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        let blocks = (self.size_bytes / self.block_bytes) as usize;
        assert!(blocks >= self.assoc, "cache smaller than one set");
        let sets = blocks / self.assoc;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        sets
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in \[0,1\]; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Line<S> {
    tag: u64,
    state: Option<S>,
    /// LRU ordinal: larger = more recently used.
    lru: u64,
}

/// A set-associative tag array holding one `S` per resident block.
#[derive(Clone, Debug)]
pub struct Cache<S> {
    cfg: CacheConfig,
    sets: Vec<Vec<Line<S>>>,
    set_mask: u64,
    /// `log2` of the set count: the tag is the block address shifted by
    /// it. Derived from the geometry, never serialized.
    set_bits: u32,
    tick: u64,
    /// Counters, updated by [`Cache::lookup`] and [`Cache::fill`].
    pub stats: CacheStats,
}

impl<S: Copy> Cache<S> {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        assert_eq!(cfg.block_bytes, BLOCK_BYTES, "block size must match the coherence unit");
        let num_sets = cfg.num_sets();
        let sets = (0..num_sets)
            .map(|_| (0..cfg.assoc).map(|_| Line { tag: 0, state: None, lru: 0 }).collect())
            .collect();
        Cache::around(cfg, sets, 0, CacheStats::default())
    }

    /// A cache over `sets` (`num_sets` of them, a power of two), with the
    /// mask and shift derived from their count.
    fn around(cfg: CacheConfig, sets: Vec<Vec<Line<S>>>, tick: u64, stats: CacheStats) -> Self {
        let num_sets = sets.len();
        debug_assert!(num_sets.is_power_of_two());
        Cache {
            cfg,
            sets,
            set_mask: (num_sets - 1) as u64,
            set_bits: num_sets.trailing_zeros(),
            tick,
            stats,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, block: BlockAddr) -> u64 {
        block >> self.set_bits
    }

    /// Look up a block, updating LRU and hit/miss counters. Returns the
    /// line state if present.
    pub fn lookup(&mut self, block: BlockAddr) -> Option<S> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        self.tick += 1;
        let tick = self.tick;
        for line in &mut self.sets[set] {
            if line.state.is_some() && line.tag == tag {
                line.lru = tick;
                self.stats.hits += 1;
                return line.state;
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Inspect a block without touching LRU or counters.
    pub fn peek(&self, block: BlockAddr) -> Option<S> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        self.sets[set].iter().find(|l| l.state.is_some() && l.tag == tag).and_then(|l| l.state)
    }

    /// Overwrite the state of a resident block; returns false if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: S) -> bool {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        for line in &mut self.sets[set] {
            if line.state.is_some() && line.tag == tag {
                line.state = Some(state);
                return true;
            }
        }
        false
    }

    /// Insert a block with `state`, evicting the LRU line if the set is
    /// full. Returns the evicted `(block, state)` if a valid line was
    /// displaced.
    pub fn fill(&mut self, block: BlockAddr, state: S) -> Option<(BlockAddr, S)> {
        let set_idx = self.set_of(block);
        let tag = self.tag_of(block);
        let nsets = self.set_mask + 1;
        self.tick += 1;
        let tick = self.tick;

        // Refill of a resident block just updates state.
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.state.is_some() && l.tag == tag) {
            line.state = Some(state);
            line.lru = tick;
            return None;
        }
        // Prefer an invalid way.
        if let Some(line) = set.iter_mut().find(|l| l.state.is_none()) {
            *line = Line { tag, state: Some(state), lru: tick };
            return None;
        }
        // Evict true-LRU.
        let victim = set.iter_mut().min_by_key(|l| l.lru).expect("associativity >= 1");
        let old_block = victim.tag * nsets + set_idx as u64;
        let old_state = victim.state.take().expect("victim was valid");
        *victim = Line { tag, state: Some(state), lru: tick };
        self.stats.evictions += 1;
        Some((old_block, old_state))
    }

    /// Remove a block (coherence invalidation); returns its state if it was
    /// resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<S> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        for line in &mut self.sets[set] {
            if line.state.is_some() && line.tag == tag {
                return line.state.take();
            }
        }
        None
    }

    /// Iterate over all resident blocks (diagnostics / invariant checks).
    pub fn resident(&self) -> impl Iterator<Item = (BlockAddr, S)> + '_ {
        let nsets = self.set_mask + 1;
        self.sets.iter().enumerate().flat_map(move |(si, set)| {
            set.iter().filter_map(move |l| l.state.map(|s| (l.tag * nsets + si as u64, s)))
        })
    }
}

impl CacheConfig {
    /// The checks [`CacheConfig::num_sets`] enforces by assertion, as a
    /// `Result` — used when decoding geometry from untrusted snapshot bytes.
    fn validated_num_sets(&self) -> Result<usize, SnapError> {
        if self.block_bytes != BLOCK_BYTES {
            return Err(SnapError::Corrupt(format!("cache block size {}", self.block_bytes)));
        }
        if self.assoc == 0 || self.size_bytes == 0 {
            return Err(SnapError::Corrupt("zero cache geometry".into()));
        }
        let blocks = (self.size_bytes / self.block_bytes) as usize;
        if blocks < self.assoc {
            return Err(SnapError::Corrupt("cache smaller than one set".into()));
        }
        let sets = blocks / self.assoc;
        if !sets.is_power_of_two() {
            return Err(SnapError::Corrupt(format!("set count {sets} not a power of two")));
        }
        Ok(sets)
    }
}

impl Persist for CacheConfig {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.size_bytes);
        w.put_usize(self.assoc);
        w.put_u64(self.block_bytes);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = CacheConfig {
            size_bytes: r.get_u64()?,
            assoc: r.get_usize()?,
            block_bytes: r.get_u64()?,
        };
        cfg.validated_num_sets()?;
        Ok(cfg)
    }
}

impl Persist for CacheStats {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(CacheStats { hits: r.get_u64()?, misses: r.get_u64()?, evictions: r.get_u64()? })
    }
}

impl<S: Persist + Copy> Persist for Cache<S> {
    fn save(&self, w: &mut Writer) {
        self.cfg.save(w);
        w.put_u64(self.tick);
        self.stats.save(w);
        for set in &self.sets {
            for line in set {
                w.put_u64(line.tag);
                line.state.save(w);
                w.put_u64(line.lru);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = CacheConfig::load(r)?;
        let num_sets = cfg.validated_num_sets()?;
        let tick = r.get_u64()?;
        let stats = CacheStats::load(r)?;
        let mut sets = Vec::with_capacity(num_sets);
        for _ in 0..num_sets {
            let mut set = Vec::with_capacity(cfg.assoc);
            for _ in 0..cfg.assoc {
                let tag = r.get_u64()?;
                let state = Option::<S>::load(r)?;
                let lru = r.get_u64()?;
                set.push(Line { tag, state, lru });
            }
            sets.push(set);
        }
        Ok(Cache::around(cfg, sets, tick, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache<u8> {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig { size_bytes: 512, assoc: 2, block_bytes: 64 })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(5), None);
        assert_eq!(c.fill(5, 1), None);
        assert_eq!(c.lookup(5), Some(1));
        assert_eq!(c.stats, CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // blocks 0, 4, 8 map to set 0 (4 sets).
        c.fill(0, 10);
        c.fill(4, 11);
        c.lookup(0); // 0 now MRU, 4 is LRU
        let evicted = c.fill(8, 12);
        assert_eq!(evicted, Some((4, 11)));
        assert_eq!(c.peek(0), Some(10));
        assert_eq!(c.peek(8), Some(12));
        assert_eq!(c.peek(4), None);
    }

    #[test]
    fn refill_updates_state_without_eviction() {
        let mut c = tiny();
        c.fill(3, 1);
        assert_eq!(c.fill(3, 2), None);
        assert_eq!(c.peek(3), Some(2));
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = tiny();
        c.fill(0, 1);
        c.fill(4, 2);
        assert_eq!(c.invalidate(0), Some(1));
        assert_eq!(c.invalidate(0), None);
        // Set has a free way again: no eviction on next fill.
        assert_eq!(c.fill(8, 3), None);
    }

    #[test]
    fn set_state_only_when_resident() {
        let mut c = tiny();
        assert!(!c.set_state(7, 9));
        c.fill(7, 1);
        assert!(c.set_state(7, 9));
        assert_eq!(c.peek(7), Some(9));
    }

    #[test]
    fn resident_reconstructs_block_addresses() {
        let mut c = tiny();
        // 4 sets x 2 ways: 0,4 -> set 0; 1,5 -> set 1; 2 -> set 2; 3 -> set 3.
        for b in [0u64, 1, 2, 3, 4, 5] {
            assert_eq!(c.fill(b, b as u8), None, "no set overflows");
        }
        let mut blocks: Vec<_> = c.resident().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        for b in 0..8u64 {
            assert_eq!(c.fill(b, b as u8), None, "filling block {b}");
        }
        for b in 0..8u64 {
            assert_eq!(c.peek(b), Some(b as u8));
        }
    }

    /// The tag/set split round-trips for every geometry the simulator can
    /// build: a filled block comes back whole from `peek` and `resident`,
    /// and a fill into a full set displaces exactly the least recently
    /// filled block, reported under its own address.
    #[test]
    fn tag_set_split_round_trips() {
        use std::collections::VecDeque;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for set_bits in 0..=10u32 {
            let nsets = 1u64 << set_bits;
            for assoc in [1usize, 2, 4, 8] {
                let size_bytes = nsets * assoc as u64 * BLOCK_BYTES;
                let cfg = CacheConfig { size_bytes, assoc, block_bytes: BLOCK_BYTES };
                let mut c = Cache::<u32>::new(cfg);
                assert_eq!(c.config().num_sets() as u64, nsets);
                // Per set, the resident blocks oldest first (fills only, so
                // fill order is LRU order).
                let mut model: Vec<VecDeque<(BlockAddr, u32)>> =
                    (0..nsets).map(|_| VecDeque::new()).collect();
                for i in 0..(3 * nsets as u32 * assoc as u32) {
                    // Tags up to 40 bits, so a wrong shift loses high bits.
                    let block = next() >> 24;
                    let set = (block & (nsets - 1)) as usize;
                    if model[set].iter().any(|&(b, _)| b == block) {
                        continue;
                    }
                    let evicted = c.fill(block, i);
                    let expect =
                        if model[set].len() == assoc { model[set].pop_front() } else { None };
                    assert_eq!(evicted, expect, "{nsets} sets x {assoc} ways, block {block:#x}");
                    model[set].push_back((block, i));
                    assert_eq!(c.peek(block), Some(i));
                }
                let mut want: Vec<_> = model.iter().flatten().copied().collect();
                let mut got: Vec<_> = c.resident().collect();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "{nsets} sets x {assoc} ways");
                for &(block, state) in &want {
                    assert_eq!(c.peek(block), Some(state));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Cache::<u8>::new(CacheConfig { size_bytes: 3 * 64, assoc: 1, block_bytes: 64 });
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        c.lookup(0);
        c.fill(0, 1);
        c.lookup(0);
        assert_eq!(c.stats.miss_rate(), 0.5);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
