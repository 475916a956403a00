#![allow(clippy::unwrap_used)]

//! Property-based tests for the expansion engine: structural invariants
//! of the contextualized database C(D).

use facet_corpus::db::TermingOptions;
use facet_corpus::{DocId, Document, TextDatabase};
use facet_obs::Recorder;
use facet_resources::{
    expand_append_recorded, intern_important_terms, ContextResource, ContextualizedDatabase,
    ExpansionCache, ExpansionOptions,
};
use facet_textkit::Vocabulary;
use proptest::prelude::*;
use std::collections::HashMap;

/// A deterministic fake resource mapping term → up to three context terms
/// drawn from a fixed pool.
struct PoolResource {
    map: HashMap<String, Vec<String>>,
}

impl ContextResource for PoolResource {
    fn name(&self) -> &'static str {
        "Pool"
    }
    fn context_terms(&self, term: &str) -> Vec<String> {
        self.map.get(term).cloned().unwrap_or_default()
    }
}

/// A generated scenario: document texts, per-document important terms,
/// and the term → context-phrases pool.
type Scenario = (Vec<String>, Vec<Vec<String>>, HashMap<String, Vec<String>>);

fn scenario() -> impl Strategy<Value = Scenario> {
    let texts = proptest::collection::vec("[a-z]{3,8}( [a-z]{3,8}){0,15}", 1..20);
    texts.prop_flat_map(|texts| {
        let n = texts.len();
        // Important terms: a subset of each document's words.
        let important = texts
            .iter()
            .map(|t| {
                let words: Vec<String> = t.split(' ').map(str::to_string).collect();
                proptest::sample::subsequence(words.clone(), 0..=words.len().min(4))
            })
            .collect::<Vec<_>>();
        (Just(texts), important, Just(n)).prop_flat_map(|(texts, important, _n)| {
            // Context pool: map some important terms to context phrases.
            let all_terms: Vec<String> = important.iter().flatten().cloned().collect::<Vec<_>>();
            let map = proptest::collection::hash_map(
                proptest::sample::select(if all_terms.is_empty() {
                    vec!["none".to_string()]
                } else {
                    all_terms
                }),
                proptest::collection::vec("[a-z]{4,9}( [a-z]{4,9})?", 1..4),
                0..6,
            );
            (Just(texts), Just(important), map)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// C(D) invariants: same document count; every document's term set is
    /// a superset of its original terms; df_C(t) ≥ df(t) for every term;
    /// term lists stay sorted and distinct.
    #[test]
    fn expansion_invariants((texts, important, map) in scenario()) {
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
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        let resource = PoolResource { map };
        let important = intern_important_terms(&mut vocab, &important);
        let mut c = ContextualizedDatabase::empty();
        expand_append_recorded(
            &db,
            0..db.len(),
            &important,
            &[&resource],
            &mut vocab,
            &ExpansionOptions { threads: 2 },
            Recorder::disabled_ref(),
            &mut ExpansionCache::new(),
            &mut c,
        )
        .unwrap();

        prop_assert_eq!(c.len(), db.len());
        for i in 0..db.len() {
            let original = db.doc_terms(DocId(i as u32));
            let expanded = &c.rows()[i];
            for w in expanded.windows(2) {
                prop_assert!(w[0] < w[1], "expanded terms must be sorted+distinct");
            }
            for t in original {
                prop_assert!(
                    expanded.binary_search(t).is_ok(),
                    "original term lost during expansion"
                );
            }
        }
        for (id, _) in vocab.iter() {
            prop_assert!(
                c.df_c(id) >= db.df(id),
                "df_C must dominate df (context only adds documents)"
            );
            prop_assert!(c.df_c(id) <= db.len() as u64);
        }
    }
}
