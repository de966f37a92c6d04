//! Seedable pick source for the cooperative scheduler.

use sk_snap::hash::Fnv64;

/// SplitMix64: tiny, fast, platform-independent PRNG with full 64-bit
/// state. Used instead of anything from `std` because determinism across
/// processes is load-bearing (std's hasher is per-process seeded).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` via rejection-free Lemire reduction. `n`
    /// must be non-zero.
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // 128-bit multiply keeps the distribution uniform enough for
        // schedule exploration without a rejection loop (bias < 2^-64·n).
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }
}

/// Test-only override consulted before the RNG; lets a test inject a
/// specific (possibly buggy) decision pattern without threading a trait
/// object through the scheduler.
pub type PickHook = Box<dyn FnMut(u64, usize) -> Option<usize> + Send>;

/// Maps `(seed, decision index, n_runnable)` to "which runnable task steps
/// next". Also keeps a running FNV-1a hash of its decisions so two runs can
/// be compared for bit-identical scheduling without storing the full log.
pub struct Interleaver {
    seed: u64,
    rng: SplitMix64,
    picks: u64,
    decision_hash: Fnv64,
    hook: Option<PickHook>,
}

impl Interleaver {
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            // Splitting the seed once avoids the weak low-entropy start
            // SplitMix64 has for tiny seeds like 0 and 1.
            rng: SplitMix64::new(seed ^ 0x6a09_e667_f3bc_c908),
            picks: 0,
            decision_hash: Fnv64::new(),
            hook: None,
        }
    }

    /// Seed this interleaver was built from (the replay key).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of decisions made so far.
    pub fn picks(&self) -> u64 {
        self.picks
    }

    /// Running hash over `(decision index, n, choice)` triples; equal
    /// hashes + equal counts ⇒ identical schedules. Word-granular FNV-1a
    /// from `sk_snap::hash` — only compared within a process, never
    /// persisted, so the hash algorithm is free to evolve with sk-snap.
    pub fn decision_hash(&self) -> u64 {
        self.decision_hash.value()
    }

    /// Install a test-only override consulted before the RNG. Returning
    /// `None` defers to the RNG.
    pub fn set_pick_hook(&mut self, hook: PickHook) {
        self.hook = Some(hook);
    }

    /// Choose one of `n` runnable tasks. `n` must be non-zero.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick() from an empty runnable set");
        let idx = self.picks;
        let choice = self.hook.as_mut().and_then(|h| h(idx, n));
        let c = match choice {
            Some(c) => c.min(n - 1),
            None => self.rng.next_below(n),
        };
        self.picks += 1;
        for word in [idx, n as u64, c as u64] {
            self.decision_hash.write_u64(word);
        }
        c
    }
}

impl std::fmt::Debug for Interleaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleaver")
            .field("seed", &self.seed)
            .field("picks", &self.picks)
            .field("decision_hash", &self.decision_hash.value())
            .field("hooked", &self.hook.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values pin the algorithm: changing the RNG silently
        // would invalidate every committed regression seed.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut r = SplitMix64::new(42);
        assert_eq!(r.next_u64(), 0xbdd7_3226_2feb_6e95);
    }

    #[test]
    fn next_below_is_in_range() {
        let mut r = SplitMix64::new(7);
        for n in 1..40usize {
            for _ in 0..64 {
                assert!(r.next_below(n) < n);
            }
        }
    }

    #[test]
    fn same_seed_same_picks() {
        let mut a = Interleaver::from_seed(123);
        let mut b = Interleaver::from_seed(123);
        for n in [3usize, 1, 7, 2, 9, 4, 4, 4, 16] {
            assert_eq!(a.pick(n), b.pick(n));
        }
        assert_eq!(a.decision_hash(), b.decision_hash());
        assert_eq!(a.picks(), 9);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Interleaver::from_seed(1);
        let mut b = Interleaver::from_seed(2);
        let same = (0..64).filter(|_| a.pick(16) == b.pick(16)).count();
        assert!(same < 64, "seeds 1 and 2 produced identical schedules");
        assert_ne!(a.decision_hash(), b.decision_hash());
    }

    #[test]
    fn pick_hook_overrides_and_defers() {
        let mut a = Interleaver::from_seed(3);
        a.set_pick_hook(Box::new(|idx, _n| if idx % 2 == 0 { Some(0) } else { None }));
        assert_eq!(a.pick(9), 0);
        let odd = a.pick(9); // deferred to RNG, any legal value
        assert!(odd < 9);
        assert_eq!(a.pick(9), 0);
    }
}
