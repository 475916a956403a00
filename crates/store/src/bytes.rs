//! Little-endian byte codec and FNV-1a checksums.
//!
//! Every on-disk structure in this crate — snapshot sections and WAL
//! records — is built from the same three primitives: fixed-width
//! little-endian integers, `u64`-length-prefixed byte strings, and an
//! FNV-1a checksum over the framed bytes. `facet-core`'s persistence
//! layer uses the same codec for its section payloads, so one decoder
//! discipline (never index past the buffer, surface `None` instead of
//! panicking) covers the whole format.

/// FNV-1a over a byte slice: the checksum primitive of the snapshot and
/// WAL formats. Same constants as `facet_textkit::Fnv1a`, which this
/// crate does not import — cheap, deterministic, and plenty for
/// detecting the corruption the fault injector produces (bit flips,
/// truncation, short writes), which is accidental, not adversarial.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_parts(&[bytes])
}

/// [`fnv1a`] over the concatenation of `parts`, hashed in place.
pub(crate) fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::new();
    for part in parts {
        h.write(part);
    }
    h.finish()
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running [`fnv1a`] state, for checksums over bytes that arrive in
/// pieces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Advance this state and `other` over the same `bytes` in one loop.
    /// Each byte is one multiply per state, and the two multiply chains
    /// do not depend on each other, so the pair costs about what one
    /// state costs alone.
    pub(crate) fn write_both(&mut self, other: &mut Fnv1a, bytes: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for &byte in bytes {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        (self.0, other.0) = (a, b);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// An append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes with no framing.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Append a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian decoder. Every method returns `None`
/// instead of panicking when the buffer is exhausted or a length prefix
/// overruns it — corrupt input is an expected case here, not a bug.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the buffer is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    /// Consume an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Consume a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u64()?;
        let len = usize::try_from(len).ok()?;
        self.take(len)
    }

    /// Consume a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_bounds() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.25);
        w.str("snapshot");
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f64(), Some(-0.25));
        assert_eq!(r.str(), Some("snapshot"));
        assert_eq!(r.bytes(), Some(&[1u8, 2, 3][..]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None, "reads past the end are None, not panics");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // length prefix far past the buffer
        w.raw(b"xy");
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.bytes(), None);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(fnv1a(b"hello world"), fnv1a(&flipped));
    }
}
