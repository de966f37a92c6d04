//! sk-snap: the snapshot container and codec for SlackSim checkpoints.
//!
//! A snapshot is an opaque payload wrapped in a small framed container:
//!
//! ```text
//! +--------------+----------------+------------------+--------------+------------------+
//! | magic (8 B)  | version (4 B)  | payload len (8B) | payload (..) | checksum (8 B)   |
//! +--------------+----------------+------------------+--------------+------------------+
//! ```
//!
//! All integers are little-endian. The checksum is FNV-1a-64 over
//! `magic || version || len || payload`, so any bit flip in the header or
//! body is detected. The format is hand-rolled (no serde — external deps
//! are vendored shims in this workspace) and every read is bounds-checked:
//! a corrupted or truncated file produces a [`SnapError`], never a panic
//! and never undefined behaviour.
//!
//! Component state is encoded through the [`Persist`] trait: a pair of
//! `save`/`load` hooks over a byte [`Writer`]/[`Reader`]. Determinism
//! matters more than compactness here — callers are expected to emit
//! map-like state in sorted key order so that two snapshots of identical
//! simulated state are byte-identical.

use std::fmt;

pub mod hash;
pub use hash::{fnv1a64, Fnv64, SnapshotKey};

/// First eight bytes of every snapshot file: "SKSNAP" + two version-era
/// padding bytes. Changing this invalidates all existing snapshots.
pub const MAGIC: [u8; 8] = *b"SKSNAP\x00\x01";

/// Bumped whenever the payload layout changes incompatibly.
/// v2: engine snapshots append an optional telemetry-hub blob (sk-obs).
/// v3: engine snapshots carry the text-segment length (predecode table
/// rebuild on resume) and per-core µTLB / run-batch telemetry fields.
/// v4: `TargetConfig` carries the superblock-dispatch flag and per-core
/// telemetry gains the superblock counters (the superblock table itself
/// is derived and rebuilt on resume, never serialized).
/// v5: engine snapshots carry the closed-loop slack-controller state (the
/// `A<b>` scheme), engine stats gain the controller decision counters, and
/// manager telemetry gains the decision counters plus the window-trajectory
/// histogram.
/// v6: sharded clock domains — engine snapshots carry per-shard state
/// (frontier, applied grant, directory shard), directory sharer sets
/// widen to 256-core bitmaps, the interconnect serializes one occupancy
/// channel per bank, manager telemetry gains `busy_ns`, and the hub
/// carries per-shard telemetry blocks.
/// v7: the out-of-order core persists its ROB by dispatch sequence number
/// (head sequence number, sources and rename maps as sequence numbers, one
/// result word, MSHR load waiters as `(id, seq)`); `lsq_used` and every
/// scheduling index are derived and no longer written.
/// v8: `TargetConfig` no longer carries a queue capacity (the SPSC queues
/// are unbounded); the word is gone from the stream, not zeroed.
/// v9: a shard no longer carries its applied window grant (the manager
/// raises every window itself); the word is gone from the stream.
/// v10: the adaptive schemes are gone: scheme tags 6 and 7 are corrupt,
/// the manager and engine no longer carry controller state (each lost
/// its presence flag), and engine stats lose the final quantum and the
/// four controller counters; the words are gone from the stream, not
/// zeroed.
/// v11: `CoreConfig` loses the spin interval nothing read and each core
/// its syscall retry word nothing wrote (the count lives in its
/// statistics); scheme tag 2, written only by v10 and older, is corrupt.
pub const FORMAT_VERSION: u32 = 11;

const HEADER_LEN: usize = 8 + 4 + 8;
const CHECKSUM_LEN: usize = 8;

/// Errors produced while sealing or opening a snapshot container, or while
/// decoding a payload. All decode paths return these instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the expected number of bytes could be read.
    UnexpectedEof { wanted: usize, have: usize },
    /// The leading magic bytes do not identify a SlackSim snapshot.
    BadMagic,
    /// The container was written by an incompatible format version.
    BadVersion { found: u32, expected: u32 },
    /// The stored FNV-1a checksum does not match the recomputed one.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Bytes remain after the payload a decoder claimed to fully consume.
    TrailingBytes { remaining: usize },
    /// A decoded value is structurally invalid (bad tag, impossible count).
    Corrupt(String),
    /// The simulation state cannot be snapshotted (unsupported feature
    /// combination), or a snapshot targets a configuration this build
    /// cannot restore.
    Unsupported(String),
    /// Underlying file I/O failed.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { wanted, have } => {
                write!(f, "unexpected end of snapshot: wanted {wanted} bytes, {have} available")
            }
            SnapError::BadMagic => write!(f, "not a SlackSim snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format version {found} unsupported (expected {expected})")
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): file is corrupted"
            ),
            SnapError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes after payload")
            }
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot payload: {what}"),
            SnapError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
            SnapError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e.to_string())
    }
}

/// Append-only little-endian byte sink used by [`Persist::save`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are stored by bit pattern so NaN payloads survive round-trips.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// `usize` is always widened to u64 on disk so snapshots are portable
    /// across pointer widths.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source used by [`Persist::load`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Decoders call this after consuming a payload they expect to own
    /// entirely; leftovers indicate a corrupted or mis-versioned stream.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof { wanted: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Length-prefixed counts are validated against the bytes actually
    /// remaining (each element needs ≥ `min_elem_bytes`), so a corrupted
    /// length cannot trigger a huge allocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "count {n} needs at least {floor} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let n = self.get_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("invalid utf-8 string".into()))
    }
}

/// Bidirectional codec for a piece of simulator state.
///
/// Implementations must be deterministic: saving the same logical state
/// twice yields byte-identical output (sort any hash-map iteration), and
/// `load(save(x)) == x` bit-for-bit.
pub trait Persist: Sized {
    fn save(&self, w: &mut Writer);
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

macro_rules! persist_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl Persist for $t {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

persist_prim!(u8, put_u8, get_u8);
persist_prim!(u16, put_u16, get_u16);
persist_prim!(u32, put_u32, get_u32);
persist_prim!(u64, put_u64, get_u64);
persist_prim!(i64, put_i64, get_i64);
persist_prim!(f64, put_f64, get_f64);
persist_prim!(bool, put_bool, get_bool);
persist_prim!(usize, put_usize, get_usize);

impl Persist for () {
    fn save(&self, _w: &mut Writer) {}
    fn load(_r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapError::Corrupt(format!("option tag {b}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.get_count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Wrap a payload in the versioned, checksummed container frame.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validate a container frame and return a view of the payload.
///
/// Checks, in order: minimum size, magic, version, declared length vs.
/// actual bytes, checksum. Every failure is a typed [`SnapError`].
pub fn open(bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapError::UnexpectedEof {
            wanted: HEADER_LEN + CHECKSUM_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapError::BadVersion { found: version, expected: FORMAT_VERSION });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let len = usize::try_from(len)
        .map_err(|_| SnapError::Corrupt(format!("payload length overflow: {len}")))?;
    let expected_total = HEADER_LEN
        .checked_add(len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or_else(|| SnapError::Corrupt(format!("payload length overflow: {len}")))?;
    if bytes.len() < expected_total {
        return Err(SnapError::UnexpectedEof { wanted: expected_total, have: bytes.len() });
    }
    if bytes.len() > expected_total {
        return Err(SnapError::TrailingBytes { remaining: bytes.len() - expected_total });
    }
    let body_end = HEADER_LEN + len;
    let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
    let computed = fnv1a64(&bytes[..body_end]);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        0xdeadbeef_u32.save(&mut w);
        u64::MAX.save(&mut w);
        (-42_i64).save(&mut w);
        true.save(&mut w);
        f64::NEG_INFINITY.save(&mut w);
        "hello snapshot".to_string().save(&mut w);
        Some(7_u64).save(&mut w);
        Option::<u64>::None.save(&mut w);
        vec![1_u64, 2, 3].save(&mut w);
        (3_u64, 4_i64).save(&mut w);

        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u32::load(&mut r).unwrap(), 0xdeadbeef);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::load(&mut r).unwrap(), -42);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(f64::load(&mut r).unwrap(), f64::NEG_INFINITY);
        assert_eq!(String::load(&mut r).unwrap(), "hello snapshot");
        assert_eq!(Option::<u64>::load(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<u64>::load(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(<(u64, i64)>::load(&mut r).unwrap(), (3, 4));
        r.finish().unwrap();
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = Writer::new();
        weird.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(f64::load(&mut r).unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn container_round_trip() {
        let payload = b"some simulator state";
        let framed = seal(payload);
        assert_eq!(open(&framed).unwrap(), payload);
    }

    #[test]
    fn empty_payload_ok() {
        let framed = seal(&[]);
        assert_eq!(open(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut framed = seal(b"x");
        framed[0] ^= 0xff;
        assert!(matches!(open(&framed), Err(SnapError::BadMagic)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut framed = seal(b"x");
        framed[8] = 99;
        // Version check fires before checksum so the error is actionable.
        assert!(matches!(
            open(&framed),
            Err(SnapError::BadVersion { found: 99, expected: FORMAT_VERSION })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = seal(b"determinism or bust");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(open(&bad).is_err(), "flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error() {
        let framed = seal(b"abcdefgh");
        for n in 0..framed.len() {
            assert!(open(&framed[..n]).is_err(), "truncation to {n} bytes accepted");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut framed = seal(b"abc");
        framed.push(0);
        assert!(matches!(open(&framed), Err(SnapError::TrailingBytes { remaining: 1 })));
    }

    #[test]
    fn huge_declared_length_does_not_allocate() {
        // Declared payload length far beyond the actual bytes must fail
        // cleanly (and get_count must refuse oversized element counts).
        let mut framed = seal(b"abc");
        framed[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(open(&framed).is_err());

        let mut w = Writer::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u64>::load(&mut r).is_err());
    }

    #[test]
    fn corrupt_tags_are_errors_not_panics() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(Option::<u64>::load(&mut r), Err(SnapError::Corrupt(_))));
        let mut r = Reader::new(&[2]);
        assert!(matches!(bool::load(&mut r), Err(SnapError::Corrupt(_))));
    }
}
