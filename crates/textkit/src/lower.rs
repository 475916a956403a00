//! The lowercase word buffer the dictionary scans key on.
//!
//! A longest-match scan (the NE gazetteer, the Wikipedia title index)
//! looks up the words `i..i + len` of a text, lowercased and joined by
//! single spaces, for every start `i` and every candidate length. Here
//! the words are lowercased once into one buffer, separated by single
//! spaces, so every such key is a slice of that buffer.
//!
//! Most words of a text start no dictionary entry. A [`WordFilter`] of
//! the entries' first words answers "no" for most of them from one bit,
//! before the scan hashes the word into its vocabulary.

use crate::{lowercase_into, pack8, word_key, Token, TokenKind, Tokens};

/// One word of a [`LowerWords`].
#[derive(Debug, Clone, Copy)]
struct Word {
    /// Byte range of the lowercased word in the buffer.
    lower: (usize, usize),
    /// Byte range of the word in the source text.
    source: (usize, usize),
    /// Punctuation tokens seen before this word: two words lie in one
    /// punctuation-free run exactly when their counts are equal.
    run: usize,
}

/// The word and number tokens of a text, each through [`crate::lowercase`], in
/// one buffer separated by single spaces.
///
/// ```
/// use facet_textkit::LowerWords;
/// let words = LowerWords::of_text("Jacques CHIRAC, France");
/// assert_eq!(words.key(0, 2), "jacques chirac");
/// assert!(!words.adjacent(1, 2), "a comma breaks the run");
/// assert_eq!(words.source(2), (16, 22));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LowerWords {
    buf: String,
    words: Vec<Word>,
}

impl LowerWords {
    /// Lowercase the [`TokenKind::Word`] and [`TokenKind::Number`] tokens
    /// of `toks`; [`TokenKind::Punct`] tokens only break runs.
    pub fn new(toks: &[Token<'_>]) -> Self {
        let bytes = toks.last().map_or(0, |t| t.end);
        Self::build(toks.iter().copied(), toks.len(), bytes)
    }

    /// [`LowerWords::new`] over the [`Tokens`] of `text`, read as they
    /// are scanned.
    pub fn of_text(text: &str) -> Self {
        Self::build(Tokens::new(text), text.len() / 4, text.len())
    }

    fn build<'t>(toks: impl Iterator<Item = Token<'t>>, words: usize, bytes: usize) -> Self {
        let mut out = Self {
            buf: String::with_capacity(bytes),
            words: Vec::with_capacity(words),
        };
        let mut run = 0;
        for t in toks {
            if t.kind == TokenKind::Punct {
                run += 1;
                continue;
            }
            if !out.words.is_empty() {
                out.buf.push(' ');
            }
            let start = out.buf.len();
            lowercase_into(t.text, &mut out.buf);
            out.words.push(Word {
                lower: (start, out.buf.len()),
                source: (t.start, t.end),
                run,
            });
        }
        out
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the text has no word or number token.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Word `i`, lowercased.
    pub fn word(&self, i: usize) -> &str {
        self.key(i, 1)
    }

    /// Words `i..i + len` lowercased and joined by single spaces, as one
    /// slice of the buffer.
    ///
    /// # Panics
    /// Panics if `len` is 0 or the words run past the end.
    pub fn key(&self, i: usize, len: usize) -> &str {
        &self.buf[self.words[i].lower.0..self.words[i + len - 1].lower.1]
    }

    /// True if no punctuation token lies between words `i` and
    /// `i + len - 1`.
    pub fn adjacent(&self, i: usize, len: usize) -> bool {
        self.words[i].run == self.words[i + len - 1].run
    }

    /// Byte range of word `i` in the source text.
    pub fn source(&self, i: usize) -> (usize, usize) {
        self.words[i].source
    }
}

/// Filter bits per inserted word: about one word in 16 that was never
/// inserted finds its bit set.
const BITS_PER_WORD: usize = 16;

/// A set of words that answers "no" or "maybe" from one bit.
///
/// A clear bit means the word was never inserted; a set bit may belong
/// to another word. The bit is picked by the word's first 8 bytes and
/// its length, so testing a word reads none of its bytes past the
/// eighth.
///
/// ```
/// use facet_textkit::WordFilter;
/// let mut first = WordFilter::default();
/// first.insert("jacques");
/// assert!(first.may_contain("jacques"));
/// assert!(!WordFilter::default().may_contain("jacques"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WordFilter {
    bits: Vec<u64>,
    /// `64 - log2(bit count)`: a key's top bits pick its bit.
    shift: u32,
    /// The key of every inserted word, to rebuild the bits as they grow.
    keys: Vec<u64>,
}

impl WordFilter {
    fn key(word: &str) -> u64 {
        word_key(pack8(word.as_bytes()), word.len())
    }

    /// Add `word`. Insert each word once: a repeat only takes room.
    pub fn insert(&mut self, word: &str) {
        let key = Self::key(word);
        self.keys.push(key);
        let need = (self.keys.len() * BITS_PER_WORD)
            .next_power_of_two()
            .max(64);
        if need > self.bits.len() * 64 {
            self.bits = vec![0; need / 64];
            self.shift = 64 - need.trailing_zeros();
            for i in 0..self.keys.len() {
                self.set(self.keys[i]);
            }
        } else {
            self.set(key);
        }
    }

    fn set(&mut self, key: u64) {
        let bit = (key >> self.shift) as usize;
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    /// False if `word` was never inserted; true if it was, and for about
    /// one other word in 16.
    #[inline]
    pub fn may_contain(&self, word: &str) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let bit = (Self::key(word) >> self.shift) as usize;
        self.bits[bit / 64] >> (bit % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize_term, tokens};

    #[test]
    fn filter_holds_every_inserted_word_across_growth() {
        let mut filter = WordFilter::default();
        let words: Vec<String> = (0..500).map(|i| format!("w{i}")).collect();
        for (n, w) in words.iter().enumerate() {
            filter.insert(w);
            assert!(words[..=n].iter().all(|w| filter.may_contain(w)), "{n}");
        }
        let misses = (0..10_000)
            .filter(|i| filter.may_contain(&format!("x{i}")))
            .count();
        assert!(misses < 1_500, "{misses} of 10000 absent words pass");
    }

    #[test]
    fn keys_equal_joined_lowercase_words() {
        let text = "The G8 Summit; ΟΔΟΣ İstanbul-Ünïcode 1,000 ΣΟΦΟΣ";
        let toks = tokens(text);
        let words: Vec<String> = toks
            .iter()
            .filter(|t| t.kind != TokenKind::Punct)
            .map(|t| normalize_term(t.text))
            .collect();
        let lower = LowerWords::new(&toks);
        assert_eq!(LowerWords::of_text(text).buf, lower.buf);
        assert_eq!(lower.len(), words.len());
        for i in 0..words.len() {
            assert_eq!(lower.word(i), words[i]);
            for len in 1..=words.len() - i {
                assert_eq!(lower.key(i, len), words[i..i + len].join(" "));
            }
        }
    }

    #[test]
    fn runs_break_at_punctuation() {
        let lower = LowerWords::of_text("a b. c d");
        assert!(lower.adjacent(0, 2));
        assert!(!lower.adjacent(1, 2));
        assert!(lower.adjacent(2, 2));
        assert!(lower.adjacent(1, 1));
    }

    #[test]
    fn empty_text() {
        assert!(LowerWords::of_text(". ,").is_empty());
    }
}
