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
//! * [`stem`] — a full Porter stemmer,
//! * [`stopwords`] — a standard English stopword list,
//! * [`phrase`] — n-gram and capitalized-phrase iterators,
//! * [`sym`] — the global arena-backed term interner ([`Sym`], [`Interner`],
//!   [`FrozenInterner`], dense [`SymTable`] maps),
//! * [`vocab`] — an interning vocabulary mapping terms to dense [`TermId`]s
//!   (a facade over [`sym`]),
//! * [`rows`] — append-only per-document term rows in `Arc`-shared
//!   chunks ([`RowStore`]),
//! * [`zipf`] — Zipfian samplers used by the synthetic corpus generators.
//!
//! Everything here is written from scratch with no external NLP
//! dependencies, so the whole reproduction is self-contained.

pub mod phrase;
pub mod rows;
pub mod stem;
pub mod stopwords;
pub mod sym;
pub mod tokenize;
pub mod vocab;
pub mod zipf;

pub use phrase::{ngrams, proper_noun_phrases};
pub use rows::RowStore;
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use sym::{FrozenInterner, InternStats, Interner, Sym, SymTable};
pub use tokenize::{sentences, tokens, Token, TokenKind};
pub use vocab::{FrozenVocabulary, TermId, Vocabulary};
pub use zipf::Zipf;

/// Normalize a raw term for frequency counting: lowercase and collapse
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
    let mut last_space = true;
    for ch in raw.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    while out.len() > start && out.ends_with(' ') {
        out.pop();
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
    fn normalize_empty() {
        assert_eq!(normalize_term(""), "");
        assert_eq!(normalize_term("   "), "");
    }
}
