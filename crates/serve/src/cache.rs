//! Served-result memo: a bounded LRU map from (memo key, scheme) to the
//! finished [`SchemeResult`].
//!
//! A served run is a pure function of its spec: every run is on the det
//! scheduler with the fixed `worker::DET_SEED`, and [`MemoKey`] digests
//! the program image and the target config (plus a scenario's content
//! hash, see `JobSpec::memo_key`). So a repeat (key, scheme)
//! need not run at all: the memo hands back what the first run computed,
//! bit for bit. An entry is stored in the form a hit serves it —
//! `cache_hit: true`, `wall_ms: 0`, because nothing ran for that job —
//! and every other field is the computed run's.
//!
//! Eviction scans for the oldest stamp: O(entries), a few microseconds
//! at the default bound, paid once per computed scheme.

use crate::job::SchemeResult;
use sk_core::Scheme;
use sk_snap::fnv1a64;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// The content address of what a job simulates: independent digests of
/// the program image and the target configuration. The scheme is not
/// part of it; [`ResultKey`] pairs the key with each scheme. The memo
/// lives only as long as its process, so nothing versions the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Digest of the program bytes (text/data image + entry point).
    pub program: u64,
    /// Digest of the serialized target configuration.
    pub config: u64,
}

impl MemoKey {
    /// Key for `program_bytes` (a canonical serialization of the program)
    /// under `config_bytes` (a canonical serialization of the target
    /// configuration, e.g. `TargetConfig::save` output).
    pub fn new(program_bytes: &[u8], config_bytes: &[u8]) -> MemoKey {
        MemoKey { program: fnv1a64(program_bytes), config: fnv1a64(config_bytes) }
    }
}

/// What a result is memoized under.
pub type ResultKey = (MemoKey, Scheme);

#[derive(Debug, Default)]
struct Inner {
    /// Each entry with the logical clock stamp of its last hit or insert.
    map: HashMap<ResultKey, (SchemeResult, u64)>,
    clock: u64,
    evictions: u64,
}

/// Thread-safe result memo.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    max_entries: usize,
}

impl ResultCache {
    pub fn new(max_entries: usize) -> Self {
        ResultCache { inner: Mutex::new(Inner::default()), max_entries: max_entries.max(1) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Every update leaves the map whole; a poisoned lock is a bug.
        self.inner.lock().expect("no thread panics holding the result memo")
    }

    /// The memoized result, refreshing its LRU stamp on hit.
    pub fn get(&self, key: &ResultKey) -> Option<SchemeResult> {
        let mut g = self.lock();
        g.clock += 1;
        let clock = g.clock;
        g.map.get_mut(key).map(|(r, stamp)| {
            *stamp = clock;
            r.clone()
        })
    }

    /// Memoize a finished run (or refresh its entry), evicting the
    /// least-recently-used entry if the memo is full.
    pub fn insert(&self, key: ResultKey, computed: &SchemeResult) {
        let served = SchemeResult { cache_hit: true, wall_ms: 0, ..computed.clone() };
        let mut g = self.lock();
        g.clock += 1;
        let clock = g.clock;
        if g.map.len() >= self.max_entries && !g.map.contains_key(&key) {
            if let Some(oldest) = g.map.iter().min_by_key(|(_, (_, s))| *s).map(|(k, _)| *k) {
                g.map.remove(&oldest);
                g.evictions += 1;
            }
        }
        g.map.insert(key, (served, clock));
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total LRU evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> ResultKey {
        (MemoKey::new(&[n], &[0]), Scheme::CycleByCycle)
    }

    fn result(exec_cycles: u64) -> SchemeResult {
        SchemeResult {
            scheme: "CC".into(),
            exec_cycles,
            fingerprint: format!("{exec_cycles:016x}"),
            output_ok: true,
            cache_hit: false,
            deterministic: true,
            wall_ms: 7,
            kips: 1.5,
        }
    }

    #[test]
    fn hit_refreshes_lru_and_eviction_takes_the_coldest() {
        let c = ResultCache::new(2);
        c.insert(key(1), &result(1));
        c.insert(key(2), &result(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), &result(3));
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn the_bound_holds_and_a_refresh_evicts_nothing() {
        let c = ResultCache::new(3);
        for n in 0..10 {
            c.insert(key(n), &result(n.into()));
            assert!(c.len() <= 3);
        }
        assert_eq!(c.evictions(), 7);
        // Re-inserting a present key replaces it in place.
        c.insert(key(9), &result(99));
        assert_eq!((c.len(), c.evictions()), (3, 7));
        assert_eq!(c.get(&key(9)).unwrap().exec_cycles, 99);
    }

    #[test]
    fn a_hit_serves_the_computed_result_with_nothing_run() {
        let c = ResultCache::new(4);
        let computed = result(42);
        c.insert(key(7), &computed);
        let hit = c.get(&key(7)).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.wall_ms, 0);
        assert_eq!(SchemeResult { cache_hit: false, wall_ms: 7, ..hit }, computed);
    }

    #[test]
    fn the_scheme_is_part_of_the_key() {
        let c = ResultCache::new(4);
        c.insert(key(1), &result(1));
        assert!(c.get(&(key(1).0, Scheme::BoundedSlack(10))).is_none());
        assert!(c.get(&key(2)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn memo_keys_separate_program_and_config() {
        let k = MemoKey::new(b"prog", b"cfg");
        assert_eq!(k, MemoKey::new(b"prog", b"cfg"));
        assert_ne!(k.program, MemoKey::new(b"prog2", b"cfg").program);
        assert_eq!(k.config, MemoKey::new(b"prog2", b"cfg").config);
        assert_ne!(k.config, MemoKey::new(b"prog", b"cfg2").config);
        // Swapping the two inputs must not collide: the digests live in
        // separate fields.
        assert_ne!(k, MemoKey::new(b"cfg", b"prog"));
    }
}
