//! Directory MESI + banked NUCA L2 + DRAM: the manager-side memory model.
//!
//! This is the "lower level cache hierarchy" the paper's simulation manager
//! thread owns (§2.1). It receives coherence requests consolidated from
//! every core's OutQ, resolves them against a full-map directory and the
//! banked L2 tags, and answers with a completion timestamp plus any
//! invalidation/downgrade messages to be delivered to other cores' InQs.
//!
//! The directory's own bookkeeping is authoritative: it tracks exactly what
//! it granted, and cores notify evictions (PutS/PutM), so no ack round-trip
//! is needed for state correctness. Third-hop latencies are folded into the
//! requester's completion time (see DESIGN.md §4 for this documented
//! deviation from an acked protocol).
//!
//! When violation tracking is on, the directory counts *transition
//! inversions*: a request for a block carrying an older timestamp than a
//! previously processed request for the same block. That is precisely the
//! Figure 5/6 "simulated system state" distortion of the paper — the
//! directory walks a different (but internally consistent) state sequence
//! than a cycle-by-cycle simulation would.

use crate::bus::BusModel;
use crate::cache::Cache;
use crate::config::MemConfig;
use crate::l1::ReqKind;
use crate::BlockAddr;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::collections::HashMap;

/// Most cores a directory can track presence for (the sharer set is a
/// fixed 4-word bitmap; owner ids must fit a byte).
pub const MAX_DIR_CORES: usize = 256;

/// A fixed-width presence bitmap over up to [`MAX_DIR_CORES`] cores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreSet([u64; 4]);

impl CoreSet {
    /// The empty set.
    pub fn empty() -> Self {
        CoreSet::default()
    }

    /// The singleton set `{core}`.
    pub fn one(core: usize) -> Self {
        let mut s = CoreSet::default();
        s.insert(core);
        s
    }

    /// Insert `core`.
    #[inline]
    pub fn insert(&mut self, core: usize) {
        self.0[core / 64] |= 1u64 << (core % 64);
    }

    /// Remove `core`.
    #[inline]
    pub fn remove(&mut self, core: usize) {
        self.0[core / 64] &= !(1u64 << (core % 64));
    }

    /// Is `core` present?
    #[inline]
    pub fn contains(&self, core: usize) -> bool {
        self.0[core / 64] & (1u64 << (core % 64)) != 0
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

impl Persist for CoreSet {
    fn save(&self, w: &mut Writer) {
        for word in self.0 {
            w.put_u64(word);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.get_u64()?;
        }
        Ok(CoreSet(s))
    }
}

/// Directory entry (absence from the map = Uncached).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DirEntry {
    /// Read-only copies at the cores whose bits are set.
    Shared { sharers: CoreSet },
    /// A single core holds the block E or M.
    Exclusive { owner: u8 },
}

/// An invalidation or downgrade the manager must deliver to a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidateMsg {
    /// Destination core.
    pub core: usize,
    /// Block to act on.
    pub block: BlockAddr,
    /// Simulated delivery time.
    pub ts: u64,
    /// If true, E/M→S (keep a shared copy); else full invalidation.
    pub downgrade: bool,
}

/// Result of the directory processing one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirOutcome {
    /// When the reply reaches the requesting core (its InQ timestamp).
    pub done_ts: u64,
    /// State the requester installs the line in (None for Put* notices).
    pub granted: Option<crate::l1::LineState>,
    /// Messages for other cores.
    pub invalidations: Vec<InvalidateMsg>,
    /// Whether the L2 hit (false = DRAM fetch happened).
    pub l2_hit: bool,
}

/// Counters for the lower hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// GetS requests processed.
    pub gets: u64,
    /// GetM requests processed.
    pub getm: u64,
    /// Upgrade requests processed.
    pub upgrades: u64,
    /// Eviction notices processed.
    pub puts: u64,
    /// Invalidation messages sent.
    pub invalidations_out: u64,
    /// Downgrade messages sent.
    pub downgrades_out: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM fetches).
    pub l2_misses: u64,
    /// Writebacks received (PutM).
    pub writebacks: u64,
    /// Per-block timestamp inversions observed (system-state distortions,
    /// paper Fig. 5/6). Counted only with tracking enabled.
    pub transition_inversions: u64,
}

/// Field-wise sum (directory shards into one total).
impl std::ops::AddAssign for DirStats {
    fn add_assign(&mut self, o: DirStats) {
        self.gets += o.gets;
        self.getm += o.getm;
        self.upgrades += o.upgrades;
        self.puts += o.puts;
        self.invalidations_out += o.invalidations_out;
        self.downgrades_out += o.downgrades_out;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.writebacks += o.writebacks;
        self.transition_inversions += o.transition_inversions;
    }
}

/// The directory + L2 model. Single-owner (the manager thread).
pub struct Directory {
    cfg: MemConfig,
    n_cores: usize,
    entries: HashMap<BlockAddr, DirEntry>,
    banks: Vec<Cache<()>>,
    /// One occupancy channel per bank. Per-bank channels make the timing a
    /// pure function of each bank's own request subsequence, so partitioning
    /// banks across memory shards leaves every completion timestamp
    /// bit-identical to the single-manager run.
    buses: Vec<BusModel>,
    last_ts: HashMap<BlockAddr, u64>,
    /// Counters.
    pub stats: DirStats,
}

impl Directory {
    /// A directory for `n_cores` cores with the given memory config.
    pub fn new(n_cores: usize, cfg: MemConfig) -> Self {
        assert!(n_cores <= MAX_DIR_CORES, "presence bitmap covers {MAX_DIR_CORES} cores");
        let banks = (0..cfg.n_banks).map(|_| Cache::new(cfg.l2_bank)).collect();
        let buses = (0..cfg.n_banks)
            .map(|_| BusModel::new(cfg.bus_occupancy, cfg.track_violations))
            .collect();
        Directory {
            n_cores,
            entries: HashMap::new(),
            banks,
            buses,
            last_ts: HashMap::new(),
            stats: DirStats::default(),
            cfg,
        }
    }

    /// Interconnect statistics, aggregated over all per-bank channels.
    pub fn bus_stats(&self) -> crate::bus::BusStats {
        let mut total = crate::bus::BusStats::default();
        for b in &self.buses {
            total += b.stats;
        }
        total
    }

    /// Zero all counters (region-of-interest begin). Coherence and cache
    /// state are preserved — only statistics reset.
    pub fn reset_stats(&mut self) {
        self.stats = DirStats::default();
        for bus in &mut self.buses {
            bus.stats = crate::bus::BusStats::default();
        }
        for b in &mut self.banks {
            b.stats = crate::cache::CacheStats::default();
        }
    }

    fn note_ts(&mut self, block: BlockAddr, ts: u64) {
        if !self.cfg.track_violations {
            return;
        }
        let last = self.last_ts.entry(block).or_insert(0);
        if ts < *last {
            self.stats.transition_inversions += 1;
        } else {
            *last = ts;
        }
    }

    /// Look up the L2 bank for `block`; on miss, fill it (possibly evicting
    /// silently — the L2 is not inclusive of L1s, see module docs).
    fn l2_access(&mut self, block: BlockAddr) -> bool {
        let bank = self.cfg.bank_of(block);
        if self.banks[bank].lookup(block).is_some() {
            self.stats.l2_hits += 1;
            true
        } else {
            self.stats.l2_misses += 1;
            self.banks[bank].fill(block, ());
            false
        }
    }

    /// Process one coherence request from `core` for `block`, stamped at
    /// simulated time `ts`.
    ///
    /// `Put*` notices return immediately (no reply is sent to the core).
    pub fn handle(&mut self, core: usize, kind: ReqKind, block: BlockAddr, ts: u64) -> DirOutcome {
        use crate::l1::LineState;
        assert!(core < self.n_cores, "core {core} out of range");
        self.note_ts(block, ts);

        match kind {
            ReqKind::PutS => {
                self.stats.puts += 1;
                if let Some(DirEntry::Shared { sharers }) = self.entries.get(&block).copied() {
                    let mut rest = sharers;
                    rest.remove(core);
                    if rest.is_empty() {
                        self.entries.remove(&block);
                    } else {
                        self.entries.insert(block, DirEntry::Shared { sharers: rest });
                    }
                } else if self.entries.get(&block)
                    == Some(&DirEntry::Exclusive { owner: core as u8 })
                {
                    self.entries.remove(&block);
                }
                return DirOutcome {
                    done_ts: ts,
                    granted: None,
                    invalidations: vec![],
                    l2_hit: true,
                };
            }
            ReqKind::PutM => {
                self.stats.puts += 1;
                self.stats.writebacks += 1;
                if self.entries.get(&block) == Some(&DirEntry::Exclusive { owner: core as u8 }) {
                    self.entries.remove(&block);
                }
                // The writeback installs the block in the L2.
                let bank = self.cfg.bank_of(block);
                self.banks[bank].fill(block, ());
                return DirOutcome {
                    done_ts: ts,
                    granted: None,
                    invalidations: vec![],
                    l2_hit: true,
                };
            }
            _ => {}
        }

        // Demand request: occupies the bank's interconnect channel, then the
        // bank itself.
        let bank = self.cfg.bank_of(block);
        let start = self.buses[bank].acquire(ts);
        let mut done = start + self.cfg.l2_hit_latency(core, block);
        let mut invalidations = Vec::new();
        // Time at which the directory has looked the block up and can emit
        // coherence messages to third parties.
        let dir_ts = start + self.cfg.hop_lat + self.cfg.l2_bank_lat;

        let l2_hit = match kind {
            ReqKind::GetS | ReqKind::GetM => {
                let hit = self.l2_access(block);
                if !hit {
                    done += self.cfg.dram_lat;
                }
                hit
            }
            // Upgrade moves no data.
            _ => true,
        };

        let granted = match kind {
            ReqKind::GetS => {
                self.stats.gets += 1;
                match self.entries.get(&block).copied() {
                    None => {
                        self.entries.insert(block, DirEntry::Exclusive { owner: core as u8 });
                        Some(LineState::Exclusive)
                    }
                    Some(DirEntry::Shared { mut sharers }) => {
                        sharers.insert(core);
                        self.entries.insert(block, DirEntry::Shared { sharers });
                        Some(LineState::Shared)
                    }
                    Some(DirEntry::Exclusive { owner }) => {
                        if owner as usize == core {
                            // Core lost the line silently? Cannot happen with
                            // eviction notices; re-grant exclusivity.
                            Some(LineState::Exclusive)
                        } else {
                            // 3-hop: downgrade the owner, fold the extra hops
                            // into the requester's completion.
                            invalidations.push(InvalidateMsg {
                                core: owner as usize,
                                block,
                                ts: dir_ts + self.cfg.hop_lat,
                                downgrade: true,
                            });
                            self.stats.downgrades_out += 1;
                            done += 2 * self.cfg.hop_lat;
                            let mut sharers = CoreSet::one(core);
                            sharers.insert(owner as usize);
                            self.entries.insert(block, DirEntry::Shared { sharers });
                            Some(LineState::Shared)
                        }
                    }
                }
            }
            ReqKind::GetM | ReqKind::Upgrade => {
                if kind == ReqKind::GetM {
                    self.stats.getm += 1;
                } else {
                    self.stats.upgrades += 1;
                }
                match self.entries.get(&block).copied() {
                    None => {}
                    Some(DirEntry::Shared { sharers }) => {
                        let mut others = sharers;
                        others.remove(core);
                        for c in others.iter() {
                            invalidations.push(InvalidateMsg {
                                core: c,
                                block,
                                ts: dir_ts + self.cfg.hop_lat,
                                downgrade: false,
                            });
                            self.stats.invalidations_out += 1;
                        }
                        if !others.is_empty() {
                            done += 2 * self.cfg.hop_lat;
                        }
                    }
                    Some(DirEntry::Exclusive { owner }) if owner as usize != core => {
                        invalidations.push(InvalidateMsg {
                            core: owner as usize,
                            block,
                            ts: dir_ts + self.cfg.hop_lat,
                            downgrade: false,
                        });
                        self.stats.invalidations_out += 1;
                        done += 2 * self.cfg.hop_lat;
                    }
                    Some(DirEntry::Exclusive { .. }) => {}
                }
                self.entries.insert(block, DirEntry::Exclusive { owner: core as u8 });
                Some(LineState::Modified)
            }
            ReqKind::PutS | ReqKind::PutM => unreachable!("handled above"),
        };

        DirOutcome { done_ts: done, granted, invalidations, l2_hit }
    }

    /// Presence check used by tests and invariant assertions: the set of
    /// cores the directory believes hold `block`.
    pub fn holders(&self, block: BlockAddr) -> Vec<usize> {
        match self.entries.get(&block) {
            None => vec![],
            Some(DirEntry::Exclusive { owner }) => vec![*owner as usize],
            Some(DirEntry::Shared { sharers }) => sharers.iter().collect(),
        }
    }
}

impl Persist for DirEntry {
    fn save(&self, w: &mut Writer) {
        match self {
            DirEntry::Shared { sharers } => {
                w.put_u8(0);
                sharers.save(w);
            }
            DirEntry::Exclusive { owner } => {
                w.put_u8(1);
                w.put_u8(*owner);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(DirEntry::Shared { sharers: CoreSet::load(r)? }),
            1 => Ok(DirEntry::Exclusive { owner: r.get_u8()? }),
            b => Err(SnapError::Corrupt(format!("dir entry tag {b}"))),
        }
    }
}

impl Persist for DirStats {
    fn save(&self, w: &mut Writer) {
        for v in [
            self.gets,
            self.getm,
            self.upgrades,
            self.puts,
            self.invalidations_out,
            self.downgrades_out,
            self.l2_hits,
            self.l2_misses,
            self.writebacks,
            self.transition_inversions,
        ] {
            w.put_u64(v);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(DirStats {
            gets: r.get_u64()?,
            getm: r.get_u64()?,
            upgrades: r.get_u64()?,
            puts: r.get_u64()?,
            invalidations_out: r.get_u64()?,
            downgrades_out: r.get_u64()?,
            l2_hits: r.get_u64()?,
            l2_misses: r.get_u64()?,
            writebacks: r.get_u64()?,
            transition_inversions: r.get_u64()?,
        })
    }
}

impl Persist for Directory {
    fn save(&self, w: &mut Writer) {
        self.cfg.save(w);
        w.put_usize(self.n_cores);
        // HashMaps are emitted in sorted key order for byte determinism.
        let mut blocks: Vec<&BlockAddr> = self.entries.keys().collect();
        blocks.sort_unstable();
        w.put_usize(blocks.len());
        for b in blocks {
            w.put_u64(*b);
            self.entries[b].save(w);
        }
        self.banks.save(w);
        self.buses.save(w);
        let mut ts_blocks: Vec<&BlockAddr> = self.last_ts.keys().collect();
        ts_blocks.sort_unstable();
        w.put_usize(ts_blocks.len());
        for b in ts_blocks {
            w.put_u64(*b);
            w.put_u64(self.last_ts[b]);
        }
        self.stats.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = MemConfig::load(r)?;
        let n_cores = r.get_usize()?;
        if n_cores == 0 || n_cores > MAX_DIR_CORES {
            return Err(SnapError::Corrupt(format!("directory n_cores {n_cores}")));
        }
        let n = r.get_count(9)?;
        let mut entries = HashMap::with_capacity(n);
        for _ in 0..n {
            let block = r.get_u64()?;
            entries.insert(block, DirEntry::load(r)?);
        }
        let banks = Vec::<Cache<()>>::load(r)?;
        if banks.len() != cfg.n_banks {
            return Err(SnapError::Corrupt(format!(
                "{} banks but config says {}",
                banks.len(),
                cfg.n_banks
            )));
        }
        let buses = Vec::<BusModel>::load(r)?;
        if buses.len() != cfg.n_banks {
            return Err(SnapError::Corrupt(format!(
                "{} interconnect channels but config says {} banks",
                buses.len(),
                cfg.n_banks
            )));
        }
        let n = r.get_count(16)?;
        let mut last_ts = HashMap::with_capacity(n);
        for _ in 0..n {
            let block = r.get_u64()?;
            last_ts.insert(block, r.get_u64()?);
        }
        let stats = DirStats::load(r)?;
        Ok(Directory { cfg, n_cores, entries, banks, buses, last_ts, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1::LineState;

    fn dir() -> Directory {
        let mut cfg = MemConfig::paper_8core();
        cfg.track_violations = true;
        Directory::new(8, cfg)
    }

    #[test]
    fn cold_gets_grants_exclusive() {
        let mut d = dir();
        let out = d.handle(0, ReqKind::GetS, 0, 100);
        assert_eq!(out.granted, Some(LineState::Exclusive));
        assert!(!out.l2_hit, "cold block misses L2");
        assert_eq!(out.done_ts, 100 + 10 + 100); // unloaded + DRAM
        assert_eq!(d.holders(0), vec![0]);
    }

    #[test]
    fn second_reader_gets_shared_with_downgrade() {
        let mut d = dir();
        d.handle(0, ReqKind::GetS, 0, 100);
        let out = d.handle(1, ReqKind::GetS, 0, 300);
        assert_eq!(out.granted, Some(LineState::Shared));
        assert!(out.l2_hit, "second access hits L2");
        assert_eq!(out.invalidations.len(), 1);
        let inv = out.invalidations[0];
        assert_eq!(inv.core, 0);
        assert!(inv.downgrade);
        assert!(inv.ts > 300);
        let mut h = d.holders(0);
        h.sort_unstable();
        assert_eq!(h, vec![0, 1]);
        // 3-hop penalty and NUCA distance for core 1 to bank 0.
        assert_eq!(out.done_ts, 300 + 10 + 1 + 4);
    }

    #[test]
    fn writer_invalidates_all_sharers() {
        let mut d = dir();
        d.handle(0, ReqKind::GetS, 8, 0); // bank 0, core 0
        d.handle(1, ReqKind::GetS, 8, 50);
        d.handle(2, ReqKind::GetS, 8, 100);
        let out = d.handle(3, ReqKind::GetM, 8, 200);
        assert_eq!(out.granted, Some(LineState::Modified));
        let mut invalidated: Vec<usize> = out.invalidations.iter().map(|m| m.core).collect();
        invalidated.sort_unstable();
        assert_eq!(invalidated, vec![0, 1, 2]);
        assert!(out.invalidations.iter().all(|m| !m.downgrade));
        assert_eq!(d.holders(8), vec![3]);
    }

    #[test]
    fn upgrade_from_sole_sharer_sends_no_invalidations() {
        let mut d = dir();
        d.handle(0, ReqKind::GetS, 1, 0);
        d.handle(1, ReqKind::GetS, 1, 10); // now shared {0,1}
        d.handle(1, ReqKind::PutS, 1, 20); // core 1 evicts
        let out = d.handle(0, ReqKind::Upgrade, 1, 30);
        assert!(out.invalidations.is_empty());
        assert_eq!(d.holders(1), vec![0]);
    }

    #[test]
    fn putm_writes_back_and_clears_owner() {
        let mut d = dir();
        d.handle(0, ReqKind::GetM, 2, 0);
        let out = d.handle(0, ReqKind::PutM, 2, 100);
        assert_eq!(out.granted, None);
        assert_eq!(d.holders(2), Vec::<usize>::new());
        assert_eq!(d.stats.writebacks, 1);
        // The writeback installed the block: next GetS hits L2.
        let out = d.handle(1, ReqKind::GetS, 2, 200);
        assert!(out.l2_hit);
        assert_eq!(out.granted, Some(LineState::Exclusive));
    }

    #[test]
    fn put_from_stale_owner_is_ignored() {
        let mut d = dir();
        d.handle(0, ReqKind::GetM, 3, 0);
        d.handle(1, ReqKind::GetM, 3, 10); // ownership moved to 1
        d.handle(0, ReqKind::PutM, 3, 20); // stale notice from 0
        assert_eq!(d.holders(3), vec![1]);
    }

    #[test]
    fn transition_inversions_counted() {
        let mut d = dir();
        d.handle(0, ReqKind::GetS, 4, 100);
        d.handle(1, ReqKind::GetS, 4, 50); // older timestamp arrives later
        assert_eq!(d.stats.transition_inversions, 1);
        // Different block: independent ordering.
        d.handle(2, ReqKind::GetS, 5, 10);
        assert_eq!(d.stats.transition_inversions, 1);
    }

    #[test]
    fn upgrade_after_racing_invalidation_still_grants_m() {
        // Under slack, core 0's Upgrade can arrive after core 1 already
        // took the block to M. The directory must still converge.
        let mut d = dir();
        d.handle(0, ReqKind::GetS, 6, 0);
        d.handle(1, ReqKind::GetM, 6, 5); // invalidates 0
        let out = d.handle(0, ReqKind::Upgrade, 6, 10);
        assert_eq!(out.granted, Some(LineState::Modified));
        assert_eq!(out.invalidations.len(), 1);
        assert_eq!(out.invalidations[0].core, 1);
        assert_eq!(d.holders(6), vec![0]);
    }

    #[test]
    fn l2_miss_costs_dram_latency() {
        let mut d = dir();
        let cold = d.handle(0, ReqKind::GetS, 16, 0); // bank 0 (16 % 8)
        d.handle(0, ReqKind::PutS, 16, 50);
        let warm = d.handle(0, ReqKind::GetS, 16, 1000);
        assert_eq!(cold.done_ts, (warm.done_ts - 1000) + 100);
    }
}
