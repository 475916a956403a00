#![allow(clippy::unwrap_used)]

//! Property-based tests for the core pipeline invariants.

use facet_core::{build_subsumption_forest, FacetForest, SubsumptionParams};
use facet_textkit::{TermId, Vocabulary};
use proptest::prelude::*;

proptest! {
    /// The subsumption forest is acyclic and parents always satisfy the
    /// generality requirement.
    #[test]
    fn subsumption_forest_acyclic(
        docs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..20, 0..8),
            1..60,
        )
    ) {
        let doc_terms: Vec<Vec<TermId>> = docs
            .iter()
            .map(|s| s.iter().map(|&t| TermId(t)).collect())
            .collect();
        let terms: Vec<TermId> = (0..20).map(TermId).collect();
        let params = SubsumptionParams::default();
        let forest = build_subsumption_forest(&terms, &doc_terms, params);

        // df per term for the generality check.
        let mut df = [0u64; 20];
        for d in &doc_terms {
            for t in d {
                df[t.index()] += 1;
            }
        }
        for i in 0..forest.terms.len() {
            // Acyclicity: walking up terminates within n steps.
            let mut steps = 0;
            let mut cur = forest.parent[i];
            while let Some(p) = cur {
                steps += 1;
                prop_assert!(steps <= forest.terms.len(), "cycle detected");
                cur = forest.parent[p];
            }
            // Generality: parent df ≥ ratio × child df.
            if let Some(p) = forest.parent[i] {
                let child_df = df[forest.terms[i].index()];
                let parent_df = df[forest.terms[p].index()];
                prop_assert!(
                    parent_df as f64 >= params.min_generality_ratio * child_df as f64
                );
            }
        }
    }

    /// FacetForest materialization preserves the term count and depth
    /// relations of the subsumption forest.
    #[test]
    fn forest_materialization_preserves_terms(
        docs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..12, 1..6),
            1..40,
        )
    ) {
        let doc_terms: Vec<Vec<TermId>> = docs
            .iter()
            .map(|s| s.iter().map(|&t| TermId(t)).collect())
            .collect();
        let mut vocab = Vocabulary::new();
        for i in 0..12 {
            vocab.intern(&format!("term{i}"));
        }
        let terms: Vec<TermId> = (0..12).map(TermId).collect();
        let sub = build_subsumption_forest(&terms, &doc_terms, SubsumptionParams::default());
        let forest = FacetForest::from_subsumption(&sub, &vocab.freeze(), |_| 1);
        prop_assert_eq!(forest.total_terms(), 12);
        // Every edge in the materialized forest corresponds to a parent
        // link in the subsumption structure.
        for (parent, child) in forest.edges() {
            let ci = (0..12).find(|&i| vocab.term(sub.terms[i]) == child).unwrap();
            let pi = sub.parent[ci].expect("child has a parent");
            prop_assert_eq!(vocab.term(sub.terms[pi]), parent.as_str());
        }
    }
}
