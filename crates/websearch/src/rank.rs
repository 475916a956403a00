//! BM25 ranking over the inverted index.

use crate::index::{InvertedIndex, Posting, WebDocId};
use facet_textkit::TermId;

/// BM25 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalization.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// IDF with the standard BM25 smoothing (never negative).
fn idf(n_docs: usize, df: usize) -> f64 {
    let n = n_docs as f64;
    let df = df as f64;
    (((n - df + 0.5) / (df + 0.5)) + 1.0).ln()
}

/// Score the documents matching any of `query` and return the top `k` as
/// `(doc, score)`, by descending score with ties by ascending doc id.
///
/// The query terms' posting lists are doc-ordered, so one merge walks
/// them together: each matched document sums its terms' contributions in
/// query order (a repeated query term counts once per occurrence), and
/// nothing is allocated beyond the cursors and the matches. The `k` best
/// are then selected without sorting the rest.
pub fn bm25_rank(
    index: &InvertedIndex,
    query: &[TermId],
    params: Bm25Params,
    k: usize,
) -> Vec<(WebDocId, f64)> {
    // Per query term: its idf and the postings the merge has not passed.
    let mut lists: Vec<(f64, &[Posting])> = query
        .iter()
        .map(|&sym| index.postings_of(sym))
        .filter(|postings| !postings.is_empty())
        .map(|postings| (idf(index.n_docs(), postings.len()), postings))
        .collect();
    let avg_len = index.avg_doc_len().max(1.0);
    let mut out: Vec<(WebDocId, f64)> = Vec::new();
    while let Some(doc) = lists
        .iter()
        .filter_map(|(_, rest)| rest.first())
        .map(|p| p.doc)
        .min()
    {
        let len_norm = 1.0 - params.b + params.b * index.doc_len(doc) as f64 / avg_len;
        let mut score = 0.0;
        for (w, rest) in &mut lists {
            if let Some((p, tail)) = rest.split_first().filter(|(p, _)| p.doc == doc) {
                let tf = p.tf as f64;
                score += *w * (tf * (params.k1 + 1.0)) / (tf + params.k1 * len_norm);
                *rest = tail;
            }
        }
        out.push((doc, score));
    }
    let by_rank =
        |a: &(WebDocId, f64), b: &(WebDocId, f64)| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0));
    if k < out.len() {
        out.select_nth_unstable_by(k, by_rank);
        out.truncate(k);
    }
    out.sort_unstable_by(by_rank);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{InvertedIndex, WebPage};
    use std::collections::HashMap;

    fn page(id: u32, text: &str) -> WebPage {
        WebPage {
            id: WebDocId(id),
            title: format!("P{id}"),
            text: text.into(),
        }
    }

    fn index() -> InvertedIndex {
        InvertedIndex::build(&[
            page(0, "summit summit summit in France"),
            page(1, "summit once, about markets and trade"),
            page(2, "nothing relevant here at all"),
        ])
    }

    /// Rank the (string) query terms; unknown terms are dropped, as the
    /// engine does.
    fn rank(idx: &InvertedIndex, terms: &[&str], k: usize) -> Vec<(WebDocId, f64)> {
        let syms: Vec<TermId> = terms.iter().filter_map(|t| idx.sym(t)).collect();
        bm25_rank(idx, &syms, Bm25Params::default(), k)
    }

    #[test]
    fn matching_docs_only() {
        let hits = rank(&index(), &["summit"], 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn higher_tf_ranks_higher() {
        let hits = rank(&index(), &["summit"], 10);
        assert_eq!(hits[0].0, WebDocId(0));
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn multi_term_union() {
        let hits = rank(&index(), &["summit", "markets"], 10);
        // Doc 1 matches both terms; despite lower tf on "summit" the extra
        // term can lift it — just verify both docs present and scores
        // positive.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.1 > 0.0));
    }

    #[test]
    fn idf_is_positive_even_for_common_terms() {
        assert!(idf(10, 10) > 0.0);
        assert!(idf(10, 1) > idf(10, 5));
    }

    #[test]
    fn empty_query() {
        assert!(rank(&index(), &[], 10).is_empty());
        assert!(rank(&index(), &["zebra"], 10).is_empty());
    }

    #[test]
    fn equal_scores_across_the_k_boundary_keep_the_lowest_doc_ids() {
        // Docs 1..=6 tie exactly; doc 0 beats them all and doc 7 trails.
        let mut pages = vec![page(0, "summit summit summit talks")];
        for id in 1..=6 {
            pages.push(page(id, "summit talks"));
        }
        pages.push(page(7, "summit talks and many other unrelated words here"));
        let idx = InvertedIndex::build(&pages);
        let hits = rank(&idx, &["summit"], 4);
        let docs: Vec<u32> = hits.iter().map(|h| h.0 .0).collect();
        assert_eq!(docs, vec![0, 1, 2, 3]);
        assert_eq!(hits[1].1.to_bits(), hits[3].1.to_bits(), "a real tie");
        let all = rank(&idx, &["summit"], 8);
        assert_eq!(all[4].1.to_bits(), hits[3].1.to_bits(), "tie spans k");
    }

    #[test]
    fn k_zero_returns_nothing() {
        assert!(rank(&index(), &["summit"], 0).is_empty());
    }

    #[test]
    fn k_beyond_the_matches_returns_every_match_in_rank_order() {
        let hits = rank(&index(), &["summit", "markets"], 1000);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].1 >= hits[1].1);
    }

    #[test]
    fn scores_are_bit_equal_to_a_naive_hash_map_accumulation() {
        let texts = [
            "summit leaders trade summit",
            "markets rallied after trade talks",
            "leaders of markets and summit hosts",
            "trade trade trade",
            "nothing to see",
            "summit markets leaders trade talks hosts rallied",
        ];
        let pages: Vec<WebPage> = (0..40u32)
            .map(|i| {
                page(
                    i,
                    &format!("{} {}", texts[i as usize % 6], texts[i as usize * 7 % 6]),
                )
            })
            .collect();
        let idx = InvertedIndex::build(&pages);
        let params = Bm25Params::default();
        // Repeated and unknown terms included: each occurrence adds again.
        let query = ["trade", "summit", "zebra", "leaders", "trade", "talks"];
        let avg_len = idx.avg_doc_len().max(1.0);
        let mut naive: HashMap<WebDocId, f64> = HashMap::new();
        for term in query {
            let postings = idx.postings(term);
            if postings.is_empty() {
                continue;
            }
            let w = idf(idx.n_docs(), postings.len());
            for p in postings {
                let tf = p.tf as f64;
                let len_norm = 1.0 - params.b + params.b * idx.doc_len(p.doc) as f64 / avg_len;
                *naive.entry(p.doc).or_insert(0.0) +=
                    w * (tf * (params.k1 + 1.0)) / (tf + params.k1 * len_norm);
            }
        }
        let mut want: Vec<(WebDocId, u64)> =
            naive.into_iter().map(|(d, s)| (d, s.to_bits())).collect();
        want.sort_by(|a, b| {
            f64::from_bits(b.1)
                .total_cmp(&f64::from_bits(a.1))
                .then_with(|| a.0.cmp(&b.0))
        });
        for k in [1, 5, 17, want.len(), want.len() + 3] {
            let got: Vec<(WebDocId, u64)> = rank(&idx, &query, k)
                .into_iter()
                .map(|(d, s)| (d, s.to_bits()))
                .collect();
            assert_eq!(got, want[..k.min(want.len())], "k = {k}");
        }
    }
}
