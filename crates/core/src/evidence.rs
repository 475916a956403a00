//! Evidence-combination hierarchy construction.
//!
//! The paper uses Sanderson–Croft subsumption and remarks that "newer
//! algorithms [Snow, Jurafsky & Ng 2006] may give even better results"
//! (end of Section IV). Snow et al.'s idea is to combine *multiple
//! sources of evidence* for each candidate hypernym edge instead of
//! relying on one statistic. This module implements that extension:
//!
//! * **co-occurrence evidence** — the subsumption conditional `P(x|y)`
//!   from document co-occurrence, as in the base algorithm;
//! * **resource evidence** — external hints that `x` is a generalization
//!   of `y` (e.g., `x` appears among a resource's context terms for `y`,
//!   or `x` is a WordNet hypernym of `y`).
//!
//! Each potential parent is scored `w_cooc · P(x|y) + w_resource ·
//! hint(y→x)`; a term attaches to its best-scoring parent above a
//! combined threshold. Resource hints break the ties that pure
//! co-occurrence cannot (two terms that always travel together), so the
//! ablation benchmark (`experiments ablation`) shows the placement gain.

use crate::subsumption::{SubsumptionForest, SubsumptionParams};
use facet_textkit::TermId;
use std::collections::{HashMap, HashSet};

/// Weights for combining the evidence sources.
#[derive(Debug, Clone, Copy)]
pub struct EvidenceParams {
    /// Base subsumption parameters (threshold applies to `P(x|y)`).
    pub subsumption: SubsumptionParams,
    /// Weight of the co-occurrence conditional.
    pub w_cooccurrence: f64,
    /// Weight of a resource hint.
    pub w_resource: f64,
    /// Minimum combined score for an edge to be accepted.
    pub min_score: f64,
}

impl Default for EvidenceParams {
    fn default() -> Self {
        Self {
            subsumption: SubsumptionParams::default(),
            w_cooccurrence: 0.6,
            w_resource: 0.4,
            min_score: 0.55,
        }
    }
}

/// Directed hypernym hints: `(child, parent)` pairs asserted by external
/// resources.
#[derive(Debug, Default, Clone)]
pub struct HypernymHints {
    edges: HashSet<(TermId, TermId)>,
}

impl HypernymHints {
    /// Create an empty hint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert that `parent` generalizes `child`.
    pub fn add(&mut self, child: TermId, parent: TermId) {
        self.edges.insert((child, parent));
    }

    /// Whether the hint `(child → parent)` exists.
    pub fn contains(&self, child: TermId, parent: TermId) -> bool {
        self.edges.contains(&(child, parent))
    }

    /// Number of hints.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no hints are present.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Build a hierarchy over `terms` combining co-occurrence subsumption
/// with resource hints, where `doc_terms` yields the distinct terms of
/// each document (as for [`crate::build_subsumption_forest`]).
pub fn build_evidence_forest<R: AsRef<[TermId]>>(
    terms: &[TermId],
    doc_terms: impl IntoIterator<Item = R>,
    hints: &HypernymHints,
    params: EvidenceParams,
) -> SubsumptionForest {
    let term_pos: HashMap<TermId, usize> = terms.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let n = terms.len();

    let mut df = vec![0u64; n];
    let mut co: HashMap<(usize, usize), u64> = HashMap::new();
    let mut n_docs = 0usize;
    for d in doc_terms {
        n_docs += 1;
        let present: Vec<usize> = d
            .as_ref()
            .iter()
            .filter_map(|t| term_pos.get(t).copied())
            .collect();
        for &i in &present {
            df[i] += 1;
        }
        for (a, &i) in present.iter().enumerate() {
            for &j in present.iter().skip(a + 1) {
                let key = if i < j { (i, j) } else { (j, i) };
                *co.entry(key).or_insert(0) += 1;
            }
        }
    }
    let co_df = |i: usize, j: usize| -> u64 {
        let key = if i < j { (i, j) } else { (j, i) };
        co.get(&key).copied().unwrap_or(0)
    };

    let sp = params.subsumption;
    let max_parent_df = (sp.max_parent_df_fraction * n_docs as f64).ceil() as u64;
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for y in 0..n {
        if df[y] == 0 {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for x in 0..n {
            if x == y || df[x] == 0 || df[x] > max_parent_df {
                continue;
            }
            if (df[x] as f64) < sp.min_generality_ratio * df[y] as f64 {
                continue;
            }
            let cxy = co_df(x, y);
            let p_x_given_y = cxy as f64 / df[y] as f64;
            let p_y_given_x = cxy as f64 / df[x] as f64;
            if p_y_given_x >= 1.0 {
                continue;
            }
            let base_rate = df[x] as f64 / n_docs.max(1) as f64;
            let lift = if base_rate > 0.0 {
                p_x_given_y / base_rate
            } else {
                f64::INFINITY
            };
            let hinted = hints.contains(terms[y], terms[x]);
            // Without a hint, the base guards must hold; a hint can carry
            // an edge over the lift guard (the resource *knows* the
            // relation) but never over the raw threshold.
            if p_x_given_y < sp.threshold {
                continue;
            }
            if !hinted && lift < sp.min_lift {
                continue;
            }
            let score = params.w_cooccurrence * p_x_given_y
                + params.w_resource * f64::from(u8::from(hinted));
            if score < params.min_score {
                continue;
            }
            let better = match best {
                None => true,
                Some((b, bs)) => {
                    score > bs + 1e-12 || ((score - bs).abs() <= 1e-12 && df[x] < df[b])
                }
            };
            if better {
                best = Some((x, score));
            }
        }
        parent[y] = best.map(|(x, _)| x);
    }

    // Cycle breaking, as in the base algorithm.
    for start in 0..n {
        let mut seen = vec![false; n];
        let mut cur = start;
        while let Some(p) = parent[cur] {
            if seen[p] {
                parent[cur] = None;
                break;
            }
            seen[cur] = true;
            cur = p;
        }
    }

    SubsumptionForest {
        terms: terms.to_vec(),
        parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two plausible parents with identical co-occurrence; the hint must
    /// decide.
    #[test]
    fn hints_break_cooccurrence_ties() {
        let child = TermId(0);
        let right = TermId(1);
        let wrong = TermId(2);
        // child co-occurs fully with both candidates; both have df 6 vs
        // child's 3 (generality satisfied); lift is equal.
        let mut docs = vec![
            vec![child, right, wrong],
            vec![child, right, wrong],
            vec![child, right, wrong],
        ];
        for _ in 0..3 {
            docs.push(vec![right, wrong]);
        }
        for _ in 0..4 {
            docs.push(vec![]); // padding so parents stay under the df cap
        }
        let mut hints = HypernymHints::new();
        hints.add(child, right);
        let forest = build_evidence_forest(
            &[child, right, wrong],
            &docs,
            &hints,
            EvidenceParams::default(),
        );
        assert_eq!(
            forest.parent[0],
            Some(1),
            "hint must select the right parent"
        );
    }

    #[test]
    fn no_hints_degenerates_to_subsumption_like_forest() {
        let a = TermId(0);
        let b = TermId(1);
        let docs = vec![vec![a, b], vec![a, b], vec![a], vec![a], vec![], vec![]];
        let forest = build_evidence_forest(
            &[a, b],
            &docs,
            &HypernymHints::new(),
            EvidenceParams::default(),
        );
        // b always occurs with a; a is more general: a parents b.
        assert_eq!(forest.parent[1], Some(0));
        assert_eq!(forest.parent[0], None);
    }

    #[test]
    fn hint_cannot_override_low_cooccurrence() {
        let a = TermId(0);
        let b = TermId(1);
        // b rarely co-occurs with a: a hint alone must not create the edge.
        let docs = vec![vec![a, b], vec![a], vec![a], vec![b], vec![b], vec![b]];
        let mut hints = HypernymHints::new();
        hints.add(b, a);
        let forest = build_evidence_forest(&[a, b], &docs, &hints, EvidenceParams::default());
        assert_eq!(forest.parent[1], None, "hint must not override the data");
    }

    #[test]
    fn empty_everything() {
        let forest = build_evidence_forest(
            &[],
            Vec::<Vec<TermId>>::new(),
            &HypernymHints::new(),
            EvidenceParams::default(),
        );
        assert!(forest.terms.is_empty());
    }
}
