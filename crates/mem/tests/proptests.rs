//! Property tests for the memory-system models.

use proptest::prelude::*;
use sk_mem::l1::ReqKind;
use sk_mem::{
    BusModel, Cache, CacheConfig, Directory, FuncMemory, L1Cache, L1Outcome, LineState, MemConfig,
};
use sk_snap::{Persist, Reader, Writer};
use std::collections::{BTreeMap, HashMap};

/// The functional memory's on-disk page layout, pinned here on purpose:
/// 4096-word (32 KiB) pages, so `addr >> 15` is the page number. If the
/// layout changes, these tests must fail until the reference encoder is
/// updated in lockstep with the snapshot format version.
const REF_PAGE_WORDS: u64 = 4096;
const REF_PAGE_SHIFT: u32 = 15;

/// Re-encode the final memory image exactly the way `FuncMemory::save`
/// does: sorted page numbers, each page as a sparse ascending list of
/// `(u16 word index, u64 value)` pairs, all-zero pages elided.
fn reference_dump(words: &BTreeMap<u64, u64>) -> Vec<u8> {
    let mut pages: BTreeMap<u64, BTreeMap<u16, u64>> = BTreeMap::new();
    for (&addr, &v) in words {
        if v != 0 {
            let idx = ((addr >> 3) % REF_PAGE_WORDS) as u16;
            pages.entry(addr >> REF_PAGE_SHIFT).or_default().insert(idx, v);
        }
    }
    let mut w = Writer::new();
    w.put_usize(pages.len());
    for (pno, page) in pages {
        w.put_u64(pno);
        w.put_usize(page.len());
        for (idx, v) in page {
            w.put_u16(idx);
            w.put_u64(v);
        }
    }
    w.into_bytes()
}

/// Page numbers chosen to exercise both radix levels and the overflow
/// list (pnos at and beyond the 24-bit radix capacity).
const PNOS: [u64; 10] = [0, 1, 2, 3, 5, 8, 13, 1 << 24, (1 << 24) + 7, 1 << 30];

proptest! {
    /// The set-associative cache behaves exactly like a per-set LRU-list
    /// reference model.
    #[test]
    fn cache_matches_lru_reference(ops in proptest::collection::vec((any::<bool>(), 0u64..64), 1..400)) {
        let cfg = CacheConfig { size_bytes: 1024, assoc: 2, block_bytes: 64 }; // 8 sets x 2
        let mut cache: Cache<u8> = Cache::new(cfg);
        // reference: per-set vec of blocks, most-recent last
        let sets = cfg.num_sets() as u64;
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();

        for (is_fill, block) in ops {
            let set = block % sets;
            let entry = model.entry(set).or_default();
            if is_fill {
                let evicted = cache.fill(block, 7);
                if let Some(pos) = entry.iter().position(|&b| b == block) {
                    entry.remove(pos);
                    entry.push(block);
                    prop_assert_eq!(evicted, None, "refill must not evict");
                } else {
                    entry.push(block);
                    if entry.len() > cfg.assoc {
                        let victim = entry.remove(0);
                        prop_assert_eq!(evicted, Some((victim, 7)));
                    } else {
                        prop_assert_eq!(evicted, None);
                    }
                }
            } else {
                let hit = cache.lookup(block).is_some();
                let model_hit = entry.contains(&block);
                prop_assert_eq!(hit, model_hit, "hit/miss divergence on block {}", block);
                if model_hit {
                    let pos = entry.iter().position(|&b| b == block).unwrap();
                    entry.remove(pos);
                    entry.push(block);
                }
            }
        }
    }

    /// Directory invariants under arbitrary request streams: at most one
    /// exclusive holder; a GetM leaves exactly the writer; invalidations
    /// are never sent to the requester; replies never precede requests.
    #[test]
    fn directory_state_machine_is_legal(
        reqs in proptest::collection::vec((0usize..4, 0u8..5, 0u64..8), 1..300)
    ) {
        let mut dir = Directory::new(4, MemConfig::paper_8core(), false);
        let mut ts = 0u64;
        for (core, kind, block) in reqs {
            ts += 7;
            let kind = match kind {
                0 => ReqKind::GetS,
                1 => ReqKind::GetM,
                2 => ReqKind::Upgrade,
                3 => ReqKind::PutS,
                _ => ReqKind::PutM,
            };
            let out = dir.handle(core, kind, block, ts);
            prop_assert!(out.done_ts >= ts, "reply precedes request");
            for inv in &out.invalidations {
                prop_assert_ne!(inv.core, core, "invalidated the requester");
                prop_assert!(inv.ts >= ts);
            }
            let holders = dir.holders(block);
            prop_assert!(holders.len() <= 4);
            match kind {
                ReqKind::GetM | ReqKind::Upgrade => {
                    prop_assert_eq!(holders, vec![core], "writer must be sole holder");
                }
                ReqKind::GetS => {
                    prop_assert!(holders.contains(&core), "reader must hold the block");
                }
                _ => {}
            }
        }
    }

    /// Bus grants never regress for monotone request streams, and
    /// never overlap in simulation order.
    #[test]
    fn bus_is_causal_for_monotone_requests(gaps in proptest::collection::vec(0u64..5, 1..200)) {
        let mut bus = BusModel::new(2, true);
        let mut ts = 0;
        let mut last_grant = 0;
        for g in gaps {
            ts += g;
            let grant = bus.acquire(ts);
            prop_assert!(grant >= ts, "grant precedes request");
            if last_grant > 0 {
                prop_assert!(grant >= last_grant + 2, "occupancy violated");
            }
            last_grant = grant;
        }
        prop_assert_eq!(bus.stats.inversions, 0, "monotone stream has no inversions");
    }

    /// L1 state machine: writes only hit in M (or E with silent upgrade),
    /// and an invalidation always leaves the line absent.
    #[test]
    fn l1_states_are_consistent(ops in proptest::collection::vec((0u8..4, 0u64..32), 1..300)) {
        let mut l1 = L1Cache::new(CacheConfig { size_bytes: 1024, assoc: 2, block_bytes: 64 });
        for (op, block) in ops {
            match op {
                0 => {
                    if l1.read(block) == L1Outcome::Hit {
                        prop_assert!(l1.state(block).is_some());
                    } else {
                        l1.fill(block, LineState::Shared);
                    }
                }
                1 => {
                    match l1.write(block) {
                        L1Outcome::Hit => {
                            prop_assert_eq!(l1.state(block), Some(LineState::Modified));
                        }
                        L1Outcome::MissUpgrade => {
                            prop_assert_eq!(l1.state(block), Some(LineState::Shared));
                            l1.fill(block, LineState::Modified);
                        }
                        _ => {
                            l1.fill(block, LineState::Modified);
                        }
                    }
                }
                2 => {
                    l1.apply_invalidate(block);
                    prop_assert_eq!(l1.state(block), None);
                }
                _ => {
                    l1.apply_downgrade(block);
                    if let Some(s) = l1.state(block) {
                        prop_assert_eq!(s, LineState::Shared);
                    }
                }
            }
        }
    }

    /// A `FuncMemory` populated concurrently from four threads dumps
    /// byte-identically to the reference encoder over the same final
    /// image, and round-trips through `Persist` to an identical dump.
    /// This pins both the lock-free page table's visibility (writes
    /// published before `join` are seen by `save`) and the snapshot
    /// byte format.
    #[test]
    fn concurrent_page_table_dump_matches_reference(
        ops in proptest::collection::vec(
            (0usize..PNOS.len(), 0u64..4096, prop_oneof![Just(0u64), any::<u64>()]),
            1..200,
        )
    ) {
        // Dedupe by address (last write wins) so splitting the writes
        // across threads cannot race on the same word.
        let mut image: BTreeMap<u64, u64> = BTreeMap::new();
        for (psel, idx, v) in ops {
            let addr = (PNOS[psel] << REF_PAGE_SHIFT) | (idx << 3);
            image.insert(addr, v);
        }

        let mem = FuncMemory::new();
        let entries: Vec<(u64, u64)> = image.iter().map(|(&a, &v)| (a, v)).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let mem = mem.clone();
                let entries = &entries;
                s.spawn(move || {
                    for (a, v) in entries.iter().skip(t).step_by(4) {
                        mem.write(*a, *v);
                    }
                });
            }
        });

        let mut w = Writer::new();
        mem.save(&mut w);
        let dump = w.into_bytes();
        prop_assert_eq!(&dump, &reference_dump(&image), "dump diverges from reference");

        // Round-trip: the loaded copy reads back every word and
        // re-encodes to the same bytes.
        let mut r = Reader::new(&dump);
        let back = <FuncMemory as Persist>::load(&mut r).unwrap();
        r.finish().unwrap();
        for (&a, &v) in &image {
            prop_assert_eq!(back.read(a), v, "readback mismatch at {:#x}", a);
        }
        let mut w2 = Writer::new();
        back.save(&mut w2);
        prop_assert_eq!(w2.into_bytes(), dump, "round-trip dump not identical");
    }
}
