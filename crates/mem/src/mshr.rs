//! Miss Status Holding Registers.
//!
//! The paper's target cores are 4-way out-of-order with non-blocking L1
//! caches: multiple misses can be outstanding, and secondary misses to a
//! block already being fetched merge into the existing entry instead of
//! issuing duplicate requests to the manager thread.

use crate::BlockAddr;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::collections::HashMap;

/// Result of trying to allocate an MSHR for a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrAlloc {
    /// First miss to this block: send a request to the manager.
    Primary,
    /// The block is already in flight: no new request, waiter queued.
    Secondary,
    /// All MSHRs busy: the pipeline must stall and retry.
    Full,
}

/// A file of MSHRs tracking outstanding block fetches.
///
/// `T` is the waiter token (the core model uses load/store-queue ids).
#[derive(Clone, Debug)]
pub struct MshrFile<T> {
    capacity: usize,
    entries: HashMap<BlockAddr, Vec<T>>,
    /// Peak simultaneous occupancy (diagnostics).
    pub peak: usize,
    /// Secondary misses merged.
    pub merged: u64,
}

impl<T> MshrFile<T> {
    /// A file with `capacity` simultaneous outstanding blocks.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MshrFile { capacity, entries: HashMap::with_capacity(capacity), peak: 0, merged: 0 }
    }

    /// Try to record a miss on `block` with `waiter`.
    pub fn allocate(&mut self, block: BlockAddr, waiter: T) -> MshrAlloc {
        if let Some(ws) = self.entries.get_mut(&block) {
            ws.push(waiter);
            self.merged += 1;
            return MshrAlloc::Secondary;
        }
        if self.entries.len() == self.capacity {
            return MshrAlloc::Full;
        }
        self.entries.insert(block, vec![waiter]);
        self.peak = self.peak.max(self.entries.len());
        MshrAlloc::Primary
    }

    /// The fetch for `block` completed: release its entry and return the
    /// waiters, in allocation order.
    pub fn complete(&mut self, block: BlockAddr) -> Vec<T> {
        self.entries.remove(&block).unwrap_or_default()
    }

    /// Is a fetch for `block` outstanding?
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.contains_key(&block)
    }

    /// Number of outstanding blocks.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// True when no fetches are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over outstanding blocks and their waiters (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&BlockAddr, &Vec<T>)> {
        self.entries.iter()
    }
}

impl<T: Persist> Persist for MshrFile<T> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.capacity);
        w.put_usize(self.peak);
        w.put_u64(self.merged);
        // Deterministic order: sort outstanding blocks (waiter order within
        // a block is allocation order and is preserved as-is).
        let mut blocks: Vec<&BlockAddr> = self.entries.keys().collect();
        blocks.sort_unstable();
        w.put_usize(blocks.len());
        for b in blocks {
            w.put_u64(*b);
            self.entries[b].save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let capacity = r.get_usize()?;
        if capacity == 0 {
            return Err(SnapError::Corrupt("mshr capacity 0".into()));
        }
        let peak = r.get_usize()?;
        let merged = r.get_u64()?;
        let n = r.get_count(9)?;
        if n > capacity {
            return Err(SnapError::Corrupt(format!("{n} mshr entries exceed capacity")));
        }
        // Sized by the entries present, not by `capacity`: that field is
        // unvalidated input and must not drive an allocation.
        let mut entries = HashMap::with_capacity(n);
        for _ in 0..n {
            let block = r.get_u64()?;
            let waiters = Vec::<T>::load(r)?;
            entries.insert(block, waiters);
        }
        Ok(MshrFile { capacity, entries, peak, merged })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_secondary_full() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(1, 'a'), MshrAlloc::Primary);
        assert_eq!(m.allocate(1, 'b'), MshrAlloc::Secondary);
        assert_eq!(m.allocate(2, 'c'), MshrAlloc::Primary);
        assert_eq!(m.allocate(3, 'd'), MshrAlloc::Full);
        // A secondary miss to an in-flight block merges even when full.
        assert_eq!(m.allocate(2, 'e'), MshrAlloc::Secondary);
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.merged, 2);
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut m = MshrFile::new(4);
        m.allocate(7, 1);
        m.allocate(7, 2);
        m.allocate(7, 3);
        assert_eq!(m.complete(7), vec![1, 2, 3]);
        assert!(!m.contains(7));
        assert!(m.is_empty());
        assert_eq!(m.complete(7), Vec::<i32>::new());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MshrFile::new(3);
        m.allocate(1, ());
        m.allocate(2, ());
        m.complete(1);
        m.allocate(3, ());
        assert_eq!(m.peak, 2);
    }
}
