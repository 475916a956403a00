//! The lowercase word buffer the dictionary scans key on.
//!
//! A longest-match scan (the NE gazetteer, the Wikipedia title index)
//! looks up the words `i..i + len` of a text, lowercased and joined by
//! single spaces, for every start `i` and every candidate length. Here
//! the words are lowercased once into one buffer, separated by single
//! spaces, so every such key is a slice of that buffer.

use crate::{lowercase_into, Token, TokenKind, Tokens};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize_term, tokens};

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
