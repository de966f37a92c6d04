//! Property test: the set-associative tag array (`sk_mem::Cache`, one
//! flat set-major line array) against a few-line reference true-LRU
//! model, on random streams of every operation, at every associativity
//! the targets use. Both must agree on each return value, on the
//! counters and on the resident set, and a snapshot of the array must
//! survive save → load → save byte for byte.

use proptest::prelude::*;
use sk_core::snap::{Persist, Reader, Writer};
use sk_mem::{BlockAddr, Cache, CacheConfig, CacheStats, BLOCK_BYTES};

/// The reference: each set's resident blocks, least recently used first.
struct Model {
    sets: Vec<Vec<(BlockAddr, u8)>>,
    assoc: usize,
    stats: CacheStats,
}

impl Model {
    fn set(&mut self, block: BlockAddr) -> &mut Vec<(BlockAddr, u8)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block % n) as usize]
    }

    fn pos(&mut self, block: BlockAddr) -> Option<usize> {
        self.set(block).iter().position(|&(b, _)| b == block)
    }

    /// Move the entry at `at` to the most recently used end.
    fn touch(&mut self, block: BlockAddr, at: usize) -> u8 {
        let set = self.set(block);
        let e = set.remove(at);
        set.push(e);
        e.1
    }

    fn lookup(&mut self, block: BlockAddr) -> Option<u8> {
        match self.pos(block) {
            Some(at) => {
                self.stats.hits += 1;
                Some(self.touch(block, at))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&mut self, block: BlockAddr) -> Option<u8> {
        self.pos(block).map(|at| self.set(block)[at].1)
    }

    fn set_state(&mut self, block: BlockAddr, state: u8) -> bool {
        let at = self.pos(block);
        at.map(|at| self.set(block)[at].1 = state).is_some()
    }

    fn fill(&mut self, block: BlockAddr, state: u8) -> Option<(BlockAddr, u8)> {
        if let Some(at) = self.pos(block) {
            self.touch(block, at);
            self.set(block).last_mut().unwrap().1 = state;
            return None;
        }
        let assoc = self.assoc;
        let set = self.set(block);
        let victim = (set.len() == assoc).then(|| set.remove(0));
        set.push((block, state));
        self.stats.evictions += victim.is_some() as u64;
        victim
    }

    fn invalidate(&mut self, block: BlockAddr) -> Option<u8> {
        let at = self.pos(block)?;
        Some(self.set(block).remove(at).1)
    }

    fn resident(&self) -> Vec<(BlockAddr, u8)> {
        let mut all: Vec<_> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

fn saved(c: &Cache<u8>) -> Vec<u8> {
    let mut w = Writer::new();
    c.save(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_tag_array_is_true_lru(
        assoc_log in 0u32..4,
        set_bits in 0u32..4,
        // (operation, block index, far-tag flag, state)
        ops in proptest::collection::vec((0u8..5, 0u64..48, any::<bool>(), any::<u8>()), 1..400),
    ) {
        let assoc = 1usize << assoc_log;
        let nsets = 1u64 << set_bits;
        let cfg = CacheConfig {
            size_bytes: nsets * assoc as u64 * BLOCK_BYTES,
            assoc,
            block_bytes: BLOCK_BYTES,
        };
        let mut cache = Cache::<u8>::new(cfg);
        let mut model = Model {
            sets: vec![Vec::new(); nsets as usize],
            assoc,
            stats: CacheStats::default(),
        };
        for (i, &(op, idx, far, state)) in ops.iter().enumerate() {
            // Far tags keep the high bits of the block address in play.
            let block = idx + if far { 0x3_0000_0000 } else { 0 };
            match op {
                0 => prop_assert_eq!(cache.lookup(block), model.lookup(block), "op {}", i),
                1 => prop_assert_eq!(cache.peek(block), model.peek(block), "op {}", i),
                2 => prop_assert_eq!(
                    cache.set_state(block, state),
                    model.set_state(block, state),
                    "op {}",
                    i
                ),
                3 => prop_assert_eq!(cache.fill(block, state), model.fill(block, state), "op {}", i),
                _ => prop_assert_eq!(cache.invalidate(block), model.invalidate(block), "op {}", i),
            }
            prop_assert_eq!(cache.stats, model.stats, "op {}", i);
        }
        let mut resident: Vec<_> = cache.resident().collect();
        resident.sort_unstable();
        prop_assert_eq!(resident, model.resident());

        let bytes = saved(&cache);
        let mut r = Reader::new(&bytes);
        let loaded = Cache::<u8>::load(&mut r).expect("a saved cache loads");
        prop_assert!(r.is_empty(), "load left {} bytes", r.remaining());
        prop_assert_eq!(saved(&loaded), bytes);
        prop_assert_eq!(loaded.stats, cache.stats);
    }
}
