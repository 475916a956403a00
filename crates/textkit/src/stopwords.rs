//! English stopword list.
//!
//! The facet-term selection step (Section IV-C of the paper) must not
//! propose function words as facets; the extractors and the comparative
//! analysis both filter through this list. The list is the classic
//! SMART-derived core set plus contractions common in news text.
//!
//! [`is_stopword`] runs on every word of every document, in the database,
//! the keyphrase scorer and the web index. Every listed word of 8 bytes
//! or fewer is packed into one `u64` and held in a small open-addressing
//! table keyed by its bytes and length, so a probe is one multiply, one
//! load and one compare; the four longer words are compared on their
//! own.

use crate::{pack8, word_key};
use std::sync::OnceLock;

/// The stopword list, lowercase, each word once.
pub static STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "also",
    "am",
    "an",
    "and",
    "any",
    "are",
    "aren't",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "can't",
    "cannot",
    "could",
    "couldn't",
    "did",
    "didn't",
    "do",
    "does",
    "doesn't",
    "doing",
    "don't",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "hadn't",
    "has",
    "hasn't",
    "have",
    "haven't",
    "having",
    "he",
    "he'd",
    "he'll",
    "he's",
    "her",
    "here",
    "here's",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "how's",
    "i",
    "i'd",
    "i'll",
    "i'm",
    "i've",
    "if",
    "in",
    "into",
    "is",
    "isn't",
    "it",
    "it's",
    "its",
    "itself",
    "let's",
    "me",
    "more",
    "most",
    "mustn't",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "shan't",
    "she",
    "she'd",
    "she'll",
    "she's",
    "should",
    "shouldn't",
    "so",
    "some",
    "such",
    "than",
    "that",
    "that's",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "there's",
    "these",
    "they",
    "they'd",
    "they'll",
    "they're",
    "they've",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "wasn't",
    "we",
    "we'd",
    "we'll",
    "we're",
    "we've",
    "were",
    "weren't",
    "what",
    "what's",
    "when",
    "when's",
    "where",
    "where's",
    "which",
    "while",
    "who",
    "who's",
    "whom",
    "why",
    "why's",
    "with",
    "won't",
    "would",
    "wouldn't",
    "you",
    "you'd",
    "you'll",
    "you're",
    "you've",
    "your",
    "yours",
    "yourself",
    "yourselves",
    "said",
    "say",
    "says",
    "mr",
    "mrs",
    "ms",
    "will",
    "one",
    "two",
    "may",
    "might",
    "must",
    "shall",
    "upon",
    "via",
];

/// Slots of the packed table: a power of two, at least twice the list.
const SLOTS: usize = 512;

/// The list, packed: every word of at most 8 bytes as `(bytes, length)`
/// at the slot its [`word_key`] picks (linear probing, length 0 is an
/// empty slot), and the longer words as they are.
struct Table {
    short: Vec<(u64, u8)>,
    long: Vec<&'static str>,
}

impl Table {
    /// Slot of the packed word `(bytes, len)`, or of the empty slot
    /// where it would go.
    fn slot(&self, bytes: u64, len: u8, key: u64) -> usize {
        let mut i = (key >> (64 - SLOTS.trailing_zeros())) as usize;
        while self.short[i].1 != 0 && self.short[i] != (bytes, len) {
            i = (i + 1) % SLOTS;
        }
        i
    }

    fn contains(&self, word: &str) -> bool {
        match u8::try_from(word.len()) {
            Ok(len @ 1..=8) => {
                let bytes = pack8(word.as_bytes());
                let i = self.slot(bytes, len, word_key(bytes, word.len()));
                self.short[i].1 != 0
            }
            _ => self.long.contains(&word),
        }
    }

    /// Number of distinct words held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.short.iter().filter(|s| s.1 != 0).count() + self.long.len()
    }
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Table {
            short: vec![(0, 0); SLOTS],
            long: Vec::new(),
        };
        for &w in STOPWORDS {
            match u8::try_from(w.len()) {
                Ok(len @ 1..=8) => {
                    let bytes = pack8(w.as_bytes());
                    let i = t.slot(bytes, len, word_key(bytes, w.len()));
                    t.short[i] = (bytes, len);
                }
                _ if !t.long.contains(&w) => t.long.push(w),
                _ => {}
            }
        }
        t
    })
}

/// Return true if `word` (assumed lowercase) is an English stopword.
pub fn is_stopword(word: &str) -> bool {
    table().contains(word)
}

/// True if the lowercase word `word` counts as a term: two bytes or
/// longer and not a stopword. The one rule behind the database's counted
/// terms, the keyphrase scorer's candidates and the web index's terms.
pub fn is_counted_word(word: &str) -> bool {
    word.len() >= 2 && !is_stopword(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_function_words() {
        for w in ["the", "a", "of", "and", "is", "was", "said"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_pass() {
        for w in ["market", "france", "summit", "leader", "war"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn case_sensitive_lowercase_contract() {
        // Callers must lowercase first; "The" is not in the set.
        assert!(!is_stopword("The"));
    }

    #[test]
    fn counted_words_are_long_non_stopwords() {
        assert!(is_counted_word("g8") && is_counted_word("summit"));
        assert!(!is_counted_word("x") && !is_counted_word("the") && !is_counted_word(""));
    }

    #[test]
    fn packed_table_answers_exact_membership() {
        // A trailing NUL packs like the word without it; the length
        // tells them apart. Prefixes of the long words are not words.
        for w in ["a\0", "the\0", "\0", "ourselve", "themselve", "yourselve"] {
            assert!(!is_stopword(w), "{w:?}");
        }
        for w in [
            "ourselves",
            "shouldn't",
            "themselves",
            "yourselves",
            "between",
        ] {
            assert!(is_stopword(w), "{w}");
        }
        assert_eq!(table().long.len(), 4);
    }

    #[test]
    fn no_duplicates_in_list() {
        assert_eq!(table().len(), STOPWORDS.len(), "duplicate stopword entry");
    }
}
