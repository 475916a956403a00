//! Little-endian byte codec and word-wise checksums.
//!
//! Every on-disk structure in this crate — snapshot sections and WAL
//! records — is built from the same three primitives: fixed-width
//! little-endian integers, `u64`-length-prefixed byte strings, and a
//! word-wise checksum over the framed bytes. `facet-core`'s persistence
//! layer uses the same codec for its section payloads, so one decoder
//! discipline (never index past the buffer, surface `None` instead of
//! panicking) covers the whole format.

/// Starting state of every [`Checksum`].
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd, so multiplying by it is a bijection of the state.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fold one word into `state`: xor, multiply by an odd constant, rotate,
/// and multiply again. Each step is a bijection of the state, so two
/// inputs that differ in exactly one word always end in different sums.
/// The rotation brings the product's high bits down and the second
/// multiply spreads them upward again, so the state difference one
/// word's error leaves depends on the data: with one multiply, a flip of
/// the top bit always left the same one-bit difference (the top bit, or
/// where the rotation put it), which a flip of that bit in the next word
/// cancels.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word)
        .wrapping_mul(MULTIPLIER)
        .rotate_left(29)
        .wrapping_mul(MULTIPLIER)
}

/// [`Checksum`] over one byte slice.
#[cfg(test)]
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.write(bytes);
    sum.finish()
}

/// The checksum of the snapshot and WAL formats, over bytes that may
/// arrive in pieces. It reads the input as little-endian `u64` words,
/// pads the last partial word with zero bytes and folds the byte length
/// in at [`Checksum::finish`], so the sum depends only on the bytes,
/// not on how they were split across [`Checksum::write`] calls. Two
/// multiplies per eight bytes: cheap, deterministic, and plenty for
/// detecting the corruption the fault injector produces (bit flips,
/// truncation, short writes), which is accidental, not adversarial.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checksum {
    state: u64,
    /// The bytes of the current partial word, in its low bytes.
    partial: u64,
    /// Bytes written so far.
    len: u64,
}

impl Checksum {
    /// A checksum over no bytes yet.
    pub(crate) fn new() -> Self {
        Self {
            state: SEED,
            partial: 0,
            len: 0,
        }
    }

    /// Append `bytes` to the input.
    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        let filled = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if filled > 0 {
            let take = bytes.len().min(8 - filled);
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.partial |= u64::from(b) << (8 * (filled + i));
            }
            if filled + take < 8 {
                return;
            }
            self.state = mix(self.state, self.partial);
            self.partial = 0;
            bytes = &bytes[take..];
        }
        let (words, rest) = bytes.as_chunks::<8>();
        self.state = words
            .iter()
            .fold(self.state, |state, w| mix(state, u64::from_le_bytes(*w)));
        for (i, &b) in rest.iter().enumerate() {
            self.partial |= u64::from(b) << (8 * i);
        }
    }

    /// The sum of every byte written: the padded last word, if any, then
    /// the byte length.
    pub(crate) fn finish(self) -> u64 {
        let state = if self.len.is_multiple_of(8) {
            self.state
        } else {
            mix(self.state, self.partial)
        };
        mix(state, self.len)
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
    fn checksum_is_input_sensitive() {
        assert_ne!(checksum(b""), checksum(&[0]), "the length is folded in");
        assert_ne!(checksum(b"a"), checksum(b"b"));
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(checksum(b"hello world"), checksum(&flipped));
    }

    /// Property: however the input is cut into `write` calls, the sum is
    /// the one-call sum. Random inputs up to 300 bytes, each cut at up to
    /// eight random points (empty pieces included).
    #[test]
    fn any_split_gives_the_same_sum() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..2000 {
            let len = next(301) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
            let mut cuts: Vec<usize> = (0..next(9))
                .map(|_| next(len as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            let mut sum = Checksum::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                sum.write(&bytes[from..cut]);
                from = cut;
            }
            assert_eq!(sum.finish(), checksum(&bytes), "{len} bytes");
        }
    }

    /// A flip of the top bit of one word leaves a bare xor-multiply
    /// state different in its top bit only, so the same flip in the next
    /// word would cancel it, and a rotation alone would only move the
    /// cancelling bit. Here every flip of one bit, and every flip of two
    /// bits, anywhere in three words changes the sum, over several fills.
    #[test]
    fn one_and_two_bit_flips_change_the_sum() {
        for fill in [0x00u8, 0x5a, 0xff, 0x80] {
            let bytes = [fill; 24];
            let sum = checksum(&bytes);
            let flip = |bits: &[usize]| {
                let mut flipped = bytes;
                for &bit in bits {
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
                checksum(&flipped)
            };
            for i in 0..bytes.len() * 8 {
                assert_ne!(flip(&[i]), sum, "fill {fill:#x}, bit {i}");
                for j in i + 1..bytes.len() * 8 {
                    assert_ne!(flip(&[i, j]), sum, "fill {fill:#x}, bits {i} and {j}");
                }
            }
        }
    }
}
