//! English stopword list.
//!
//! The facet-term selection step (Section IV-C of the paper) must not
//! propose function words as facets; the extractors and the comparative
//! analysis both filter through this list. The list is the classic
//! SMART-derived core set plus contractions common in news text.

use crate::Vocabulary;
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

/// The list interned once: a probe is one FNV-1a hash and one slice
/// compare, with no SipHash and no allocation.
fn table() -> &'static Vocabulary {
    static TABLE: OnceLock<Vocabulary> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut v = Vocabulary::new();
        for w in STOPWORDS {
            v.intern(w);
        }
        v
    })
}

/// Return true if `word` (assumed lowercase) is an English stopword.
pub fn is_stopword(word: &str) -> bool {
    table().get(word).is_some()
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
    fn no_duplicates_in_list() {
        assert_eq!(table().len(), STOPWORDS.len(), "duplicate stopword entry");
    }
}
