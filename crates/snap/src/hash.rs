//! Stable content hashing for snapshots and caches.
//!
//! One FNV-1a-64 implementation serves every digest in the workspace: the
//! container checksum ([`crate::seal`]/[`crate::open`]), the interleaver's
//! decision hash in `sk-det`, and the result-memo keys of the job server
//! (`sk-serve`). The digest is *stable*: it is part of the on-disk
//! container format and of persisted schedule files, so the constants
//! here must never change.
//!
//! Two granularities are offered, and they are deliberately distinct:
//!
//! * [`fnv1a64`] / [`Fnv64::write`] — canonical byte-at-a-time FNV-1a,
//!   used for checksums over serialized byte streams.
//! * [`Fnv64::write_u64`] — a word-granular variant (one xor-multiply per
//!   64-bit word) used where the input is a stream of words and per-byte
//!   mixing would cost more than it buys (the interleaver hashes one word
//!   per scheduling decision). Word hashes and byte hashes of the same
//!   data are *not* equal; never mix the two for one digest.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte slice. Not cryptographic — it guards against
/// accidental corruption (truncation, bit rot, concurrent writes) and
/// provides well-distributed cache keys; it offers no collision resistance
/// against an adversary crafting inputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// A streaming FNV-1a-64 hasher.
///
/// Feed bytes with [`Fnv64::write`] or whole words with
/// [`Fnv64::write_u64`] (word-granular — see the module docs), read the
/// running digest at any point with [`Fnv64::value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Mix in bytes, one at a time (canonical FNV-1a).
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Mix in one 64-bit word with a single xor-multiply round
    /// (word-granular variant; not equal to hashing the word's bytes).
    pub fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// The running digest.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest (alias of [`Fnv64::value`] for hasher-style call sites).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"deter");
        h.write(b"minism");
        assert_eq!(h.finish(), fnv1a64(b"determinism"));
    }

    #[test]
    fn word_granular_is_one_round_per_word() {
        let mut h = Fnv64::new();
        h.write_u64(7);
        h.write_u64(9);
        let mut expect = FNV_OFFSET;
        expect = (expect ^ 7).wrapping_mul(FNV_PRIME);
        expect = (expect ^ 9).wrapping_mul(FNV_PRIME);
        assert_eq!(h.value(), expect);
        // ... and differs from byte-at-a-time hashing of the same words.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        assert_ne!(h.value(), fnv1a64(&bytes));
    }
}
