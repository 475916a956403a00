#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-textkit
//!
//! Text-processing substrate for the facet-hierarchy extraction system.
//!
//! The paper ("Automatic Extraction of Useful Facet Hierarchies from Text
//! Databases", Dakka & Ipeirotis, ICDE 2008) operates on *terms*: single
//! words and multi-word phrases extracted from news articles. This crate
//! provides everything needed to go from raw text to term statistics:
//!
//! * [`tokenize`] — a deterministic word/sentence tokenizer,
//! * [`lower`] — a text's words lowercased into one buffer, so a
//!   dictionary scan's multi-word keys are slices ([`LowerWords`]), and
//!   the first-word bit filter those scans test before they probe
//!   ([`WordFilter`]),
//! * [`stem`] — a full Porter stemmer,
//! * [`lowercase`] — the one case fold of every term, key and query,
//! * [`stopwords`] — a standard English stopword list and the counted-word
//!   rule ([`is_counted_word`]),
//! * [`phrase`] — n-gram and capitalized-phrase iterators,
//! * [`vocab`] — the arena-backed vocabulary mapping terms to dense
//!   [`TermId`]s ([`Vocabulary`], its [`FrozenVocabulary`] snapshots,
//!   dense [`SymTable`] maps),
//! * [`rows`] — append-only per-document term rows in `Arc`-shared
//!   chunks ([`RowStore`]),
//! * [`zipf`] — Zipfian samplers used by the synthetic corpus generators,
//! * [`Fnv1a`] — the streaming FNV-1a hash behind the snapshot digest,
//!   query signatures and fault schedules.
//!
//! Everything here is written from scratch with no external NLP
//! dependencies, so the whole reproduction is self-contained.

pub mod lower;
pub mod phrase;
pub mod rows;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;
pub mod zipf;

pub use lower::{LowerWords, WordFilter};
pub use phrase::{ngrams, proper_noun_phrases};
pub use rows::RowStore;
pub use stem::porter_stem;
pub use stopwords::{is_counted_word, is_stopword};
pub use tokenize::{sentences, tokens, Token, TokenKind, Tokens};
pub use vocab::{FrozenVocabulary, InternStats, SymTable, TermId, Vocabulary};
pub use zipf::Zipf;

/// Streaming 64-bit FNV-1a: deterministic across processes and runs,
/// unlike `std`'s seeded `RandomState`. Feeding bytes in pieces hashes
/// exactly as feeding their concatenation.
///
/// ```
/// use facet_textkit::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"facet ").write(b"terms");
/// assert_eq!(h.finish(), Fnv1a::new().write(b"facet terms").finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The hash of no bytes (the 64-bit FNV offset basis).
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feed `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The first 8 bytes of `bytes` as one little-endian `u64`, zero-padded.
#[inline]
pub(crate) fn pack8(bytes: &[u8]) -> u64 {
    // Two overlapping loads cover 2..=8 bytes without a copy loop: the
    // bytes they share are equal, so or-ing them is exact.
    let n = bytes.len().min(8);
    let load = |at: usize, width: usize| {
        bytes[at..at + width]
            .iter()
            .rev()
            .fold(0u64, |v, &b| v << 8 | u64::from(b))
    };
    match n {
        0 => 0,
        1 => u64::from(bytes[0]),
        2..=3 => load(0, 2) | load(n - 2, 2) << (8 * (n - 2)),
        4..=7 => load(0, 4) | load(n - 4, 4) << (8 * (n - 4)),
        _ => load(0, 8),
    }
}

/// A well-mixed 64-bit key of a word from its [`pack8`] bytes and its
/// length (Fibonacci hashing: the top bits depend on every input bit).
/// Words that share their first 8 bytes and their length share a key.
#[inline]
pub(crate) fn word_key(packed: u64, len: usize) -> u64 {
    (packed ^ ((len as u64) << 56)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Lowercase `text` char by char through [`char::to_lowercase`]: the one
/// case fold every term, dictionary key and query goes through.
///
/// Unlike [`str::to_lowercase`], a capital sigma always folds to `σ`,
/// never to the word-final `ς`, so a word folds the same alone and inside
/// a phrase.
///
/// ```
/// use facet_textkit::lowercase;
/// assert_eq!(lowercase("G8 Summit"), "g8 summit");
/// assert_eq!(lowercase("ΟΔΟΣ"), "οδοσ");
/// ```
pub fn lowercase(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    lowercase_into(text, &mut out);
    out
}

/// [`lowercase`] appended to `out`, keeping what `out` held before. ASCII
/// input is copied and lowercased in place.
pub fn lowercase_into(text: &str, out: &mut String) {
    if text.is_ascii() {
        let start = out.len();
        out.push_str(text);
        out[start..].make_ascii_lowercase();
    } else {
        out.extend(text.chars().flat_map(char::to_lowercase));
    }
}

/// Normalize a raw term for frequency counting: [`lowercase`] and collapse
/// internal whitespace. Multi-word phrases stay phrases ("Jacques Chirac"
/// becomes "jacques chirac").
pub fn normalize_term(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    normalize_term_into(raw, &mut out);
    out
}

/// [`normalize_term`] appended to `out`, keeping what `out` held before.
pub fn normalize_term_into(raw: &str, out: &mut String) {
    let start = out.len();
    for word in raw.split(char::is_whitespace).filter(|w| !w.is_empty()) {
        if out.len() > start {
            out.push(' ');
        }
        lowercase_into(word, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases() {
        assert_eq!(normalize_term("Jacques Chirac"), "jacques chirac");
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(normalize_term("  G8\t Summit \n"), "g8 summit");
    }

    #[test]
    fn normalize_into_appends() {
        let mut out = String::from("kept ");
        normalize_term_into("  G8\t Summit ", &mut out);
        assert_eq!(out, "kept g8 summit");
        normalize_term_into("   ", &mut out);
        assert_eq!(out, "kept g8 summit");
    }

    #[test]
    fn pack8_packs_the_first_eight_bytes() {
        for n in 0..=10usize {
            let bytes: Vec<u8> = (1..=n as u8).collect();
            let mut want = [0u8; 8];
            want[..n.min(8)].copy_from_slice(&bytes[..n.min(8)]);
            assert_eq!(pack8(&bytes), u64::from_le_bytes(want), "{n} bytes");
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().write(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        let mut pieces = Fnv1a::new();
        pieces.write(b"foo").write(b"").write(b"bar");
        assert_eq!(pieces, *Fnv1a::new().write(b"foobar"));
    }

    #[test]
    fn normalize_ascii_whitespace_includes_vertical_tab() {
        assert_eq!(normalize_term("\x0BG8\x0B\x0CSummit\r"), "g8 summit");
        let mut out = String::from("kept ");
        normalize_term_into(" A\x0BB ", &mut out);
        assert_eq!(out, "kept a b");
    }

    #[test]
    fn normalize_non_ascii_whitespace_and_case() {
        assert_eq!(normalize_term("Café\u{a0}Ünïcode\u{85}"), "café ünïcode");
        // Char-wise lowercasing: a word-final capital sigma stays σ.
        assert_eq!(normalize_term("ΟΔΟΣ"), "οδοσ");
        assert_eq!(normalize_term("İ"), "i\u{307}");
    }

    #[test]
    fn normalize_empty() {
        assert_eq!(normalize_term(""), "");
        assert_eq!(normalize_term("   "), "");
    }
}
