//! Memory-system configuration.

use crate::cache::CacheConfig;
use sk_snap::{Persist, Reader, SnapError, Writer};

/// Full memory-hierarchy configuration of the target CMP.
///
/// [`MemConfig::paper_8core`] reproduces §4.1 of the paper: 16 KB I/D L1s,
/// a 256 KB shared L2 in 8 NUCA banks, directory MESI, and a 10-cycle
/// unloaded L2 hit — the paper's *critical latency*, from which the Q10 /
/// S9 / S10* scheme parameters derive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemConfig {
    /// L1 instruction cache geometry (per core).
    pub l1i: CacheConfig,
    /// L1 data cache geometry (per core).
    pub l1d: CacheConfig,
    /// Geometry of one L2 bank.
    pub l2_bank: CacheConfig,
    /// Number of L2 banks (NUCA).
    pub n_banks: usize,
    /// One interconnect hop (request or reply), cycles.
    pub hop_lat: u64,
    /// L2 bank access time at NUCA distance 0, cycles.
    pub l2_bank_lat: u64,
    /// Extra cycles per unit of ring distance between core and bank.
    pub nuca_step: u64,
    /// DRAM access latency on L2 miss, cycles.
    pub dram_lat: u64,
    /// Cycles a request occupies the shared interconnect.
    pub bus_occupancy: u64,
    /// MSHRs per L1 data cache.
    pub mshrs: usize,
    /// L1 hit latency (load-to-use), cycles.
    pub l1_hit_lat: u64,
    /// Track simulated-time inversions (bus + directory violations).
    pub track_violations: bool,
}

impl MemConfig {
    /// The target configuration used throughout the paper's evaluation.
    pub fn paper_8core() -> Self {
        MemConfig {
            l1i: CacheConfig { size_bytes: 16 * 1024, assoc: 2, block_bytes: 64 },
            l1d: CacheConfig { size_bytes: 16 * 1024, assoc: 2, block_bytes: 64 },
            // 256 KB shared L2 split into 8 banks of 32 KB, 8-way.
            l2_bank: CacheConfig { size_bytes: 32 * 1024, assoc: 8, block_bytes: 64 },
            n_banks: 8,
            hop_lat: 2,
            l2_bank_lat: 6,
            nuca_step: 1,
            dram_lat: 100,
            bus_occupancy: 1,
            mshrs: 8,
            l1_hit_lat: 1,
            track_violations: false,
        }
    }

    /// A many-core scale-out of the paper geometry: same per-bank latencies
    /// and L1 sizes, but one NUCA bank (and interconnect channel) per core,
    /// so bank parallelism — and thus shardability — grows with the machine.
    /// `n_cores` must be a power of two so block interleaving stays uniform.
    pub fn many_core(n_cores: usize) -> Self {
        assert!(n_cores.is_power_of_two(), "many_core wants a power-of-two core count");
        MemConfig { n_banks: n_cores, ..Self::paper_8core() }
    }

    /// Unloaded L2 hit latency at NUCA distance 0: request hop + bank +
    /// reply hop. This is the paper's **critical latency** (10 cycles for
    /// the paper configuration).
    pub fn critical_latency(&self) -> u64 {
        2 * self.hop_lat + self.l2_bank_lat
    }

    /// The NUCA bank holding `block` (static block interleaving).
    #[inline]
    pub fn bank_of(&self, block: crate::BlockAddr) -> usize {
        (block as usize) % self.n_banks
    }

    /// Ring distance between a core and a bank (cores and banks are
    /// interleaved on a ring of `n_banks` stops).
    #[inline]
    pub fn ring_distance(&self, core: usize, bank: usize) -> u64 {
        let n = self.n_banks;
        let c = core % n;
        let d = c.abs_diff(bank);
        d.min(n - d) as u64
    }

    /// Total unloaded latency of an L2 hit from `core` to the bank of
    /// `block`.
    pub fn l2_hit_latency(&self, core: usize, block: crate::BlockAddr) -> u64 {
        let bank = self.bank_of(block);
        2 * self.hop_lat + self.l2_bank_lat + self.nuca_step * self.ring_distance(core, bank)
    }
}

impl Persist for MemConfig {
    fn save(&self, w: &mut Writer) {
        self.l1i.save(w);
        self.l1d.save(w);
        self.l2_bank.save(w);
        w.put_usize(self.n_banks);
        w.put_u64(self.hop_lat);
        w.put_u64(self.l2_bank_lat);
        w.put_u64(self.nuca_step);
        w.put_u64(self.dram_lat);
        w.put_u64(self.bus_occupancy);
        w.put_usize(self.mshrs);
        w.put_u64(self.l1_hit_lat);
        w.put_bool(self.track_violations);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = MemConfig {
            l1i: CacheConfig::load(r)?,
            l1d: CacheConfig::load(r)?,
            l2_bank: CacheConfig::load(r)?,
            n_banks: r.get_usize()?,
            hop_lat: r.get_u64()?,
            l2_bank_lat: r.get_u64()?,
            nuca_step: r.get_u64()?,
            dram_lat: r.get_u64()?,
            bus_occupancy: r.get_u64()?,
            mshrs: r.get_usize()?,
            l1_hit_lat: r.get_u64()?,
            track_violations: r.get_bool()?,
        };
        if cfg.n_banks == 0 {
            return Err(SnapError::Corrupt("n_banks 0".into()));
        }
        Ok(cfg)
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::paper_8core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_critical_latency_is_ten() {
        assert_eq!(MemConfig::paper_8core().critical_latency(), 10);
    }

    #[test]
    fn nuca_latency_grows_with_distance() {
        let c = MemConfig::paper_8core();
        // Block 0 lives in bank 0.
        assert_eq!(c.l2_hit_latency(0, 0), 10);
        assert_eq!(c.l2_hit_latency(1, 0), 11);
        assert_eq!(c.l2_hit_latency(4, 0), 14);
        // Ring wraps: core 7 is one stop from bank 0.
        assert_eq!(c.l2_hit_latency(7, 0), 11);
    }

    #[test]
    fn banks_interleave_by_block() {
        let c = MemConfig::paper_8core();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(7), 7);
        assert_eq!(c.bank_of(8), 0);
    }

    #[test]
    fn capacity_adds_up_to_256k() {
        let c = MemConfig::paper_8core();
        assert_eq!(c.l2_bank.size_bytes * c.n_banks as u64, 256 * 1024);
    }

    #[test]
    fn many_core_scales_banks_with_cores() {
        for n in [64, 128, 256] {
            let c = MemConfig::many_core(n);
            assert_eq!(c.n_banks, n);
            assert_eq!(c.critical_latency(), 10, "critical latency is geometry-independent");
        }
    }
}
