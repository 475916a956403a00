//! Baseline systems the paper compares against (explicitly or
//! implicitly):
//!
//! * [`raw_subsumption_terms`] — the plain subsumption approach of
//!   Sanderson & Croft applied directly to the original database, without
//!   important-term extraction or context expansion. The paper's Figure 5
//!   shows its output: generic high-frequency words ("year", "new",
//!   "time", "people", …) that are useless as facets.
//! * [`SelectionStatistic::ChiSquare`](crate::selection::SelectionStatistic)
//!   (used through the pipeline) — the chi-square ablation of the
//!   selection step.

use crate::subsumption::{build_subsumption_forest, SubsumptionForest, SubsumptionParams};
use facet_corpus::TextDatabase;
use facet_textkit::{TermId, Vocabulary};

/// The Figure 5 baseline: take the `top_n` most frequent terms of the
/// *original* database and return them with their subsumption forest.
/// The top terms are, inevitably, the corpus's generic vocabulary.
pub fn raw_subsumption_terms(
    db: &TextDatabase,
    vocab: &Vocabulary,
    top_n: usize,
) -> (Vec<TermId>, SubsumptionForest) {
    let mut by_freq: Vec<(TermId, u64)> = vocab
        .iter()
        .map(|(id, _)| (id, db.df(id)))
        .filter(|&(_, f)| f > 0)
        .collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_freq.truncate(top_n);
    let terms: Vec<TermId> = by_freq.into_iter().map(|(t, _)| t).collect();
    let doc_terms: Vec<Vec<TermId>> = (0..db.len())
        .map(|i| db.doc_terms(facet_corpus::DocId(i as u32)).to_vec())
        .collect();
    let forest = build_subsumption_forest(&terms, &doc_terms, SubsumptionParams::default());
    (terms, forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_corpus::{DocId, Document};

    #[test]
    fn baseline_returns_most_frequent_terms() {
        let docs: Vec<Document> = (0..10)
            .map(|i| Document {
                id: DocId(i),
                source: 0,
                day: 0,
                title: "T".into(),
                text: if i < 8 {
                    "people report year market".into()
                } else {
                    "drought sanctuary".into()
                },
            })
            .collect();
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let (terms, _forest) = raw_subsumption_terms(&db, &vocab, 4);
        let labels: Vec<&str> = terms.iter().map(|&t| vocab.term(t)).collect();
        // Only the generic, frequent words survive.
        assert!(labels.contains(&"people"));
        assert!(labels.contains(&"year"));
        assert!(!labels.contains(&"drought"));
    }

    #[test]
    fn top_n_bounds_output() {
        let docs = vec![Document {
            id: DocId(0),
            source: 0,
            day: 0,
            title: "T".into(),
            text: "alpha beta gamma delta".into(),
        }];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let (terms, forest) = raw_subsumption_terms(&db, &vocab, 2);
        assert_eq!(terms.len(), 2);
        assert_eq!(forest.terms.len(), 2);
    }
}
