//! The statistical keyphrase extractor (paper: the "Yahoo Term
//! Extraction" web service).
//!
//! The paper treats the service as a black box that "takes as input a
//! text document and returns a list of significant words or phrases", and
//! observes empirically that the returned terms are high quality. We
//! implement the canonical such scorer: tf·idf salience over the
//! document's unigrams and stopword-free bigrams, with idf taken from the
//! corpus the extractor was fitted on.

use crate::extractor::TermExtractor;
use facet_corpus::db::term_strings;
use facet_corpus::TextDatabase;
use facet_textkit::{SymTable, TermId, Vocabulary};

/// tf·idf keyphrase extractor.
pub struct YahooTermExtractor {
    /// Normalized reference-corpus terms, interned once at fit time.
    terms: Vocabulary,
    /// Document frequency per interned term (dense, symbol-indexed).
    df: SymTable<u64>,
    /// Number of documents in the reference corpus.
    n_docs: u64,
    /// Maximum number of terms returned per document.
    pub max_terms: usize,
}

impl YahooTermExtractor {
    /// Fit the extractor's idf table on a database.
    pub fn fit(db: &TextDatabase, vocab: &Vocabulary) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = SymTable::new();
        for (id, term) in vocab.iter() {
            let f = db.df(id);
            if f > 0 {
                df.insert(terms.intern(term), f);
            }
        }
        Self {
            terms,
            df,
            n_docs: db.len() as u64,
            max_terms: 15,
        }
    }

    /// Construct from an explicit df table (for tests).
    pub fn from_table(entries: &[(&str, u64)], n_docs: u64) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = SymTable::new();
        for &(term, f) in entries {
            df.insert(terms.intern(term), f);
        }
        Self {
            terms,
            df,
            n_docs,
            max_terms: 15,
        }
    }

    fn idf(&self, term: &str) -> f64 {
        let df = self
            .terms
            .get(term)
            .and_then(|sym| self.df.get(sym).copied())
            .unwrap_or(0) as f64;
        ((self.n_docs as f64 + 1.0) / (df + 1.0)).ln()
    }
}

impl TermExtractor for YahooTermExtractor {
    fn name(&self) -> &'static str {
        "Yahoo"
    }

    fn extract(&self, text: &str) -> Vec<String> {
        // Count the document's counted terms (unigrams and stopword-free
        // bigrams, as the database counts them) in a per-document
        // vocabulary + dense count table, both pre-sized for one distinct
        // term per five bytes of text.
        let terms = text.len() / 5;
        let mut seen = Vocabulary::with_capacity(terms, text.len());
        let mut tf: Vec<u32> = Vec::with_capacity(terms);
        for term in term_strings(text).iter() {
            let id = seen.intern(term).index();
            if id == tf.len() {
                tf.push(0);
            }
            tf[id] += 1;
        }
        // Score and rank by id. Bigram scores get a small boost (phrases
        // are more informative when they recur at all). Only terms with
        // meaningful salience are kept.
        let mut scored: Vec<(TermId, f64)> = tf
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| {
                let sym = TermId(i as u32);
                let term = seen.term(sym);
                let phrase_boost = if term.contains(' ') { 1.35 } else { 1.0 };
                let score = f as f64 * self.idf(term) * phrase_boost;
                (score > 0.0).then_some((sym, score))
            })
            .collect();
        // Score descending, then term string: a strict order, since the
        // terms are distinct, so selecting the top `max_terms` and then
        // sorting only those ranks exactly as a full sort would.
        let by_rank = |a: &(TermId, f64), b: &(TermId, f64)| {
            b.1.total_cmp(&a.1)
                .then_with(|| seen.term(a.0).cmp(seen.term(b.0)))
        };
        if scored.len() > self.max_terms {
            scored.select_nth_unstable_by(self.max_terms, by_rank);
            scored.truncate(self.max_terms);
        }
        scored.sort_unstable_by(by_rank);
        scored
            .into_iter()
            .map(|(sym, _)| seen.term(sym).to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extractor() -> YahooTermExtractor {
        // Reference corpus of 100 docs: "market" common, "chirac" rare.
        YahooTermExtractor::from_table(
            &[("market", 60), ("report", 80), ("chirac", 2), ("summit", 5)],
            100,
        )
    }

    #[test]
    fn rare_terms_outrank_common_ones() {
        let e = extractor();
        let text = "The report said the market reacted. Chirac attended the summit. \
                    The market report continued.";
        let terms = e.extract(text);
        let chirac_pos = terms.iter().position(|t| t == "chirac").unwrap();
        let report_pos = terms.iter().position(|t| t == "report").unwrap();
        assert!(
            chirac_pos < report_pos,
            "rare term should rank higher: {terms:?}"
        );
    }

    #[test]
    fn phrases_extracted() {
        let e = extractor();
        let terms = e.extract("due diligence matters; due diligence always matters");
        assert!(terms.contains(&"due diligence".to_string()), "{terms:?}");
    }

    #[test]
    fn stopwords_never_returned() {
        let e = extractor();
        let terms = e.extract("the the the and and of market");
        assert!(terms.iter().all(|t| t != "the" && t != "and" && t != "of"));
    }

    #[test]
    fn max_terms_respected() {
        let mut e = extractor();
        e.max_terms = 3;
        let text = "alpha beta gamma delta epsilon zeta eta theta";
        assert!(e.extract(text).len() <= 3);
    }

    #[test]
    fn empty_text() {
        let e = extractor();
        assert!(e.extract("").is_empty());
    }

    #[test]
    fn fit_from_database() {
        use facet_corpus::{DocId, Document, TextDatabase};
        let docs = vec![Document {
            id: DocId(0),
            source: 0,
            day: 0,
            title: "T".into(),
            text: "market summit market".into(),
        }];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let e = YahooTermExtractor::fit(&db, &vocab);
        assert_eq!(e.n_docs, 1);
        assert!(e.terms.get("market").is_some_and(|s| e.df.contains(s)));
    }
}
