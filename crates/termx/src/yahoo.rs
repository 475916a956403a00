//! The statistical keyphrase extractor (paper: the "Yahoo Term
//! Extraction" web service).
//!
//! The paper treats the service as a black box that "takes as input a
//! text document and returns a list of significant words or phrases", and
//! observes empirically that the returned terms are high quality. We
//! implement the canonical such scorer: tf·idf salience over the
//! document's unigrams and stopword-free bigrams, with idf taken from the
//! corpus the extractor was fitted on.
//!
//! The scorer counts ids, not strings. Each counted word of a document is
//! lowercased once and interned into a per-document table; unigram tf is
//! counted by that local id, and bigrams are `(previous, current)` id
//! pairs, sorted and counted run by run. Each distinct word is looked up
//! in the fitted vocabulary once, and a bigram's fitted id comes from a
//! fit-time table keyed by its two words' fitted ids, so no bigram string
//! is hashed. Strings are built only for bigrams the fit never saw and for
//! the top `max_terms` returned.

use crate::extractor::TermExtractor;
use facet_corpus::TextDatabase;
use facet_textkit::{is_counted_word, lowercase_into, TermId, TokenKind, Tokens, Vocabulary};

/// Score factor of a two-word term: phrases are more informative when
/// they recur at all.
const PHRASE_BOOST: f64 = 1.35;

/// tf·idf keyphrase extractor.
pub struct YahooTermExtractor {
    /// Normalized reference-corpus terms, interned once at fit time,
    /// then the halves of the two-word terms the fit did not hold.
    terms: Vocabulary,
    /// idf per interned term (dense, id-indexed): `ln((N + 1) / (df + 1))`,
    /// with df 0 for the halves interned after the fitted terms.
    idf: Vec<f64>,
    /// idf of a term the fit never saw (df 0).
    unseen_idf: f64,
    /// The two-word terms by their halves' ids: the pairs whose first
    /// half is `a` are `pairs[pair_starts[a]..pair_starts[a + 1]]`, as
    /// `(second half, two-word term)` sorted by second half.
    pair_starts: Vec<u32>,
    pairs: Vec<(TermId, TermId)>,
    /// Maximum number of terms returned per document.
    pub max_terms: usize,
}

/// `ln((n_docs + 1) / (df + 1))`.
fn idf_of(df: u64, n_docs: u64) -> f64 {
    ((n_docs as f64 + 1.0) / (df as f64 + 1.0)).ln()
}

impl YahooTermExtractor {
    /// Fit the extractor's idf table on a database.
    pub fn fit(db: &TextDatabase, vocab: &Vocabulary) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = Vec::new();
        for (id, term) in vocab.iter() {
            let f = db.df(id);
            if f > 0 {
                terms.intern(term);
                df.push(f);
            }
        }
        Self::with_df(terms, &df, db.len() as u64)
    }

    /// Construct from an explicit df table (for tests). A term listed
    /// twice keeps its last df.
    pub fn from_table(entries: &[(&str, u64)], n_docs: u64) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = Vec::new();
        for &(term, f) in entries {
            let id = terms.intern(term).index();
            if id == df.len() {
                df.push(f);
            }
            df[id] = f;
        }
        Self::with_df(terms, &df, n_docs)
    }

    /// Index the two-word terms of `terms` by their halves and take the
    /// idf of every term; `df` is indexed by id.
    fn with_df(mut terms: Vocabulary, df: &[u64], n_docs: u64) -> Self {
        // (first half, second half, term) of every term a document bigram
        // can equal: two non-empty words joined by one space.
        let mut triples: Vec<(TermId, TermId, TermId)> = Vec::new();
        let mut term = String::new();
        for i in 0..df.len() {
            let id = TermId(i as u32);
            term.clear();
            term.push_str(terms.term(id));
            let Some((a, b)) = term.split_once(' ') else {
                continue;
            };
            if a.is_empty() || b.is_empty() || b.contains(' ') {
                continue;
            }
            triples.push((terms.intern(a), terms.intern(b), id));
        }
        triples.sort_unstable();
        let mut pair_starts = vec![0u32; terms.len() + 1];
        for &(a, ..) in &triples {
            pair_starts[a.index() + 1] += 1;
        }
        for i in 1..pair_starts.len() {
            pair_starts[i] += pair_starts[i - 1];
        }
        let idf = (0..terms.len())
            .map(|i| idf_of(df.get(i).copied().unwrap_or(0), n_docs))
            .collect();
        Self {
            terms,
            idf,
            unseen_idf: idf_of(0, n_docs),
            pair_starts,
            pairs: triples.into_iter().map(|(_, b, id)| (b, id)).collect(),
            max_terms: 15,
        }
    }

    /// The fitted two-word term whose halves are `a` and `b`, if any.
    fn pair(&self, a: TermId, b: TermId) -> Option<TermId> {
        let run = &self.pairs
            [self.pair_starts[a.index()] as usize..self.pair_starts[a.index() + 1] as usize];
        let i = run.binary_search_by_key(&b, |p| p.0).ok()?;
        Some(run[i].1)
    }
}

impl TermExtractor for YahooTermExtractor {
    fn name(&self) -> &'static str {
        "Yahoo"
    }

    fn extract(&self, text: &str) -> Vec<String> {
        // The counted words (as the database counts them) interned into
        // a per-document table, tf by local id, and every adjacent pair
        // of counted words as a pair of local ids. Sized for one distinct
        // word per eight bytes of text.
        let words = text.len() / 8;
        let mut seen = Vocabulary::with_capacity(words, text.len() / 2);
        let mut tf: Vec<u32> = Vec::with_capacity(words);
        let mut bigrams: Vec<(u32, u32)> = Vec::with_capacity(words);
        let mut word = String::new();
        let mut prev = None;
        for t in Tokens::new(text) {
            if t.kind != TokenKind::Word {
                prev = None;
                continue;
            }
            word.clear();
            lowercase_into(t.text, &mut word);
            if !is_counted_word(&word) {
                prev = None;
                continue;
            }
            let id = seen.intern(&word).0;
            if id as usize == tf.len() {
                tf.push(0);
            }
            tf[id as usize] += 1;
            if let Some(p) = prev {
                bigrams.push((p, id));
            }
            prev = Some(id);
        }
        // Score: `f · idf · boost`, in that order. Only terms with
        // meaningful salience are kept.
        let fitted: Vec<Option<TermId>> = seen.iter().map(|(_, w)| self.terms.get(w)).collect();
        let idf = |id: Option<TermId>| id.map_or(self.unseen_idf, |id| self.idf[id.index()]);
        let mut scored: Vec<(f64, &str)> = tf
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| {
                let score = f as f64 * idf(fitted[i]);
                (score > 0.0).then(|| (score, seen.term(TermId(i as u32))))
            })
            .collect();
        // Bigrams the fit never saw get their strings built here.
        bigrams.sort_unstable();
        let mut unseen = String::new();
        let mut unseen_scored: Vec<(f64, usize, usize)> = Vec::new();
        for run in bigrams.chunk_by(|x, y| x == y) {
            let (a, b) = run[0];
            let known = fitted[a as usize]
                .zip(fitted[b as usize])
                .and_then(|(a, b)| self.pair(a, b));
            let score = run.len() as f64 * idf(known) * PHRASE_BOOST;
            if score <= 0.0 {
                continue;
            }
            match known {
                Some(id) => scored.push((score, self.terms.term(id))),
                None => {
                    let start = unseen.len();
                    unseen.push_str(seen.term(TermId(a)));
                    unseen.push(' ');
                    unseen.push_str(seen.term(TermId(b)));
                    unseen_scored.push((score, start, unseen.len()));
                }
            }
        }
        scored.extend(unseen_scored.iter().map(|&(s, i, j)| (s, &unseen[i..j])));
        // Score descending, then term string: a strict order, since the
        // terms are distinct, so selecting the top `max_terms` and then
        // sorting only those ranks exactly as a full sort would.
        let by_rank =
            |a: &(f64, &str), b: &(f64, &str)| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1));
        if scored.len() > self.max_terms {
            scored.select_nth_unstable_by(self.max_terms, by_rank);
            scored.truncate(self.max_terms);
        }
        scored.sort_unstable_by(by_rank);
        scored.into_iter().map(|(_, t)| t.to_string()).collect()
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
        // One document holds "market": idf ln(2 / 2) = 0, not the idf
        // of an unseen term.
        let market = e.terms.get("market").unwrap();
        assert_eq!(e.idf[market.index()], 0.0);
        assert_eq!(e.unseen_idf, 2f64.ln());
    }
}
