#![allow(clippy::unwrap_used)]

//! Property-based tests for the text-database substrate.

use facet_corpus::{DocId, Document, TextDatabase};
use facet_textkit::Vocabulary;
use proptest::prelude::*;

fn docs_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z ]{0,120}", 1..25)
}

fn build(texts: &[String]) -> (TextDatabase, Vocabulary) {
    let docs: Vec<Document> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Document {
            id: DocId(i as u32),
            source: 0,
            day: 0,
            title: String::new(),
            text: t.clone(),
        })
        .collect();
    let mut vocab = Vocabulary::new();
    let db = TextDatabase::build(docs, &mut vocab);
    (db, vocab)
}

proptest! {
    /// df(t) equals the number of documents whose term set contains t,
    /// and df is bounded by the document count.
    #[test]
    fn df_matches_doc_term_sets(texts in docs_strategy()) {
        let (db, vocab) = build(&texts);
        for (id, _term) in vocab.iter() {
            let expected = (0..db.len())
                .filter(|&i| db.doc_terms(DocId(i as u32)).binary_search(&id).is_ok())
                .count() as u64;
            prop_assert_eq!(db.df(id), expected);
            prop_assert!(db.df(id) <= db.len() as u64);
            prop_assert!(db.df(id) >= 1, "interned terms occur somewhere");
        }
    }

    /// Document term lists are sorted and deduplicated.
    #[test]
    fn doc_terms_sorted_unique(texts in docs_strategy()) {
        let (db, _vocab) = build(&texts);
        for i in 0..db.len() {
            let terms = db.doc_terms(DocId(i as u32));
            for w in terms.windows(2) {
                prop_assert!(w[0] < w[1], "not strictly sorted");
            }
        }
    }

    /// Rebuilding from the same input yields identical statistics.
    #[test]
    fn build_deterministic(texts in docs_strategy()) {
        let (db1, v1) = build(&texts);
        let (db2, v2) = build(&texts);
        prop_assert_eq!(v1.len(), v2.len());
        prop_assert_eq!(db1.df_table(), db2.df_table());
    }

    /// Stopwords never enter the vocabulary.
    #[test]
    fn no_stopwords_indexed(texts in docs_strategy()) {
        let (_db, vocab) = build(&texts);
        for (_, term) in vocab.iter() {
            if !term.contains(' ') {
                prop_assert!(
                    !facet_textkit::is_stopword(term),
                    "stopword {term:?} was indexed"
                );
            }
        }
    }

    /// doc_contains agrees with the term lists.
    #[test]
    fn contains_agrees(texts in docs_strategy()) {
        let (db, vocab) = build(&texts);
        for i in 0..db.len() {
            let id = DocId(i as u32);
            for (t, _) in vocab.iter().take(30) {
                let in_list = db.doc_terms(id).binary_search(&t).is_ok();
                prop_assert_eq!(db.doc_contains(id, t), in_list);
            }
        }
    }
}
