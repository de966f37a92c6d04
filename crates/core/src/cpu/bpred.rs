//! Bimodal branch predictor (2-bit saturating counters).

use sk_snap::{Persist, Reader, SnapError, Writer};

/// A classic 2-bit-counter direction predictor indexed by PC.
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u64,
    /// Predictions made.
    pub lookups: u64,
    /// Updates that disagreed with the prediction the table would have
    /// made at update time (training-time mispredicts, diagnostics only).
    pub disagreements: u64,
}

impl Bimodal {
    /// A predictor with `entries` counters (power of two), initialized
    /// weakly-taken.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "predictor size must be a power of two");
        Bimodal {
            table: vec![2; entries],
            mask: (entries - 1) as u64,
            lookups: 0,
            disagreements: 0,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Instructions are 8 bytes apart; drop the offset bits.
        ((pc >> 3) & self.mask) as usize
    }

    /// Predict the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        self.table[self.index(pc)] >= 2
    }

    /// Train with the resolved direction.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.table[i];
        if (*c >= 2) != taken {
            self.disagreements += 1;
        }
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

impl Persist for Bimodal {
    fn save(&self, w: &mut Writer) {
        self.table.save(w);
        w.put_u64(self.lookups);
        w.put_u64(self.disagreements);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let table = Vec::<u8>::load(r)?;
        if !table.len().is_power_of_two() {
            return Err(SnapError::Corrupt(format!("bpred table size {}", table.len())));
        }
        if let Some(c) = table.iter().find(|&&c| c > 3) {
            return Err(SnapError::Corrupt(format!("bpred counter {c}")));
        }
        Ok(Bimodal {
            mask: (table.len() - 1) as u64,
            table,
            lookups: r.get_u64()?,
            disagreements: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Bimodal::new(16);
        let pc = 0x1000;
        for _ in 0..4 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
        for _ in 0..4 {
            p.update(pc, false);
        }
        assert!(!p.predict(pc));
    }

    #[test]
    fn counters_saturate() {
        let mut p = Bimodal::new(8);
        let pc = 0x2000;
        for _ in 0..100 {
            p.update(pc, true);
        }
        // One not-taken does not flip a saturated counter.
        p.update(pc, false);
        assert!(p.predict(pc));
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = Bimodal::new(1024);
        p.update(0x1000, true);
        p.update(0x1000, true);
        p.update(0x1008, false);
        p.update(0x1008, false);
        assert!(p.predict(0x1000));
        assert!(!p.predict(0x1008));
    }

    #[test]
    fn aliasing_wraps_modulo_table() {
        let mut p = Bimodal::new(4);
        // pcs 0x0 and 0x20 (indices 0 and 4 -> both 0 with mask 3)
        for _ in 0..3 {
            p.update(0x0, false);
        }
        assert!(!p.predict(0x20), "aliased slot shares state");
    }
}
