//! The Wikipedia Graph context resource (paper Section IV-B).
//!
//! Querying the resource with a term resolves the term to a page (through
//! redirects if needed) and scores every outgoing link `t1 → t2` with the
//! tf·idf-style association
//!
//! ```text
//! assoc(t1 → t2) = log(N / in(t2)) / out(t1)
//! ```
//!
//! where `N` is the number of pages, `in(t2)` the in-degree of the target
//! and `out(t1)` the out-degree of the source. The top-k targets (the
//! paper sets k = 50) are returned as context terms. Note the asymmetry:
//! `assoc(a → b) ≠ assoc(b → a)`, as the paper points out.

use crate::page::{PageId, Wikipedia};
use crate::redirects::RedirectTable;
use facet_textkit::lowercase;

/// Precomputed link-graph statistics plus the scoring query.
#[derive(Debug)]
pub struct WikipediaGraph<'a> {
    wiki: &'a Wikipedia,
    redirects: &'a RedirectTable,
    in_degree: Vec<u32>,
    /// The paper's k (top results per query).
    pub k: usize,
}

impl<'a> WikipediaGraph<'a> {
    /// Build the graph resource with the paper's default k = 50.
    pub fn new(wiki: &'a Wikipedia, redirects: &'a RedirectTable) -> Self {
        Self::with_k(wiki, redirects, 50)
    }

    /// Build with a custom k.
    pub fn with_k(wiki: &'a Wikipedia, redirects: &'a RedirectTable, k: usize) -> Self {
        let mut in_degree = vec![0u32; wiki.len()];
        for p in wiki.pages() {
            for l in &p.links {
                in_degree[l.index()] += 1;
            }
        }
        Self {
            wiki,
            redirects,
            in_degree,
            k,
        }
    }

    /// Resolve a term to a page via exact title or redirect.
    pub fn resolve(&self, term: &str) -> Option<PageId> {
        self.wiki
            .find_title(term)
            .or_else(|| self.redirects.resolve(term))
    }

    /// The association score of the link `from → to`. Returns `None` if
    /// the link does not exist.
    pub fn association(&self, from: PageId, to: PageId) -> Option<f64> {
        let page = self.wiki.page(from);
        if !page.links.contains(&to) {
            return None;
        }
        Some(self.raw_score(from, to))
    }

    fn raw_score(&self, from: PageId, to: PageId) -> f64 {
        let n = self.wiki.len() as f64;
        let in_t2 = f64::from(self.in_degree[to.index()].max(1));
        let out_t1 = self.wiki.page(from).links.len().max(1) as f64;
        (n / in_t2).ln() / out_t1
    }

    /// Query the resource with a term: returns up to `k` context terms
    /// (normalized lowercase page titles) with association scores,
    /// descending. Empty if the term resolves to no page.
    pub fn query(&self, term: &str) -> Vec<(String, f64)> {
        let Some(page_id) = self.resolve(term) else {
            return Vec::new();
        };
        let page = self.wiki.page(page_id);
        let mut scored: Vec<(PageId, f64)> = page
            .links
            .iter()
            .map(|&to| (to, self.raw_score(page_id, to)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored
            .into_iter()
            .take(self.k)
            .map(|(to, s)| (lowercase(&self.wiki.page(to).title), s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageSubject;
    use facet_knowledge::FacetNodeId;

    fn tiny_wiki() -> (Wikipedia, RedirectTable) {
        let mut w = Wikipedia::new();
        let subject = PageSubject::Concept(FacetNodeId(0));
        let samurai = w.add_page("Samurai", String::new(), subject);
        let japan = w.add_page("Japan", String::new(), subject);
        let tsunenaga = w.add_page("Hasekura Tsunenaga", String::new(), subject);
        let other = w.add_page("Other", String::new(), subject);
        w.add_link(tsunenaga, samurai);
        w.add_link(tsunenaga, japan);
        w.add_link(other, japan); // japan gains in-degree 2
        let mut r = RedirectTable::new();
        r.add("Samurai Tsunenaga", tsunenaga);
        (w, r)
    }

    #[test]
    fn query_returns_linked_titles() {
        let (w, r) = tiny_wiki();
        let g = WikipediaGraph::new(&w, &r);
        let results = g.query("Hasekura Tsunenaga");
        let titles: Vec<&str> = results.iter().map(|(t, _)| t.as_str()).collect();
        assert!(titles.contains(&"samurai"));
        assert!(titles.contains(&"japan"));
    }

    #[test]
    fn redirect_resolution_works() {
        let (w, r) = tiny_wiki();
        let g = WikipediaGraph::new(&w, &r);
        assert_eq!(g.query("Samurai Tsunenaga").len(), 2);
        assert!(g.query("Unknown Entity").is_empty());
    }

    #[test]
    fn lower_in_degree_scores_higher() {
        let (w, r) = tiny_wiki();
        let g = WikipediaGraph::new(&w, &r);
        // samurai has in-degree 1, japan has 2; same source page → samurai
        // scores higher (idf-style).
        let results = g.query("Hasekura Tsunenaga");
        assert_eq!(results[0].0, "samurai");
        assert!(results[0].1 > results[1].1);
    }

    #[test]
    fn association_is_asymmetric_or_absent() {
        let (w, r) = tiny_wiki();
        let g = WikipediaGraph::new(&w, &r);
        let t = w.find_title("Hasekura Tsunenaga").unwrap();
        let s = w.find_title("Samurai").unwrap();
        assert!(g.association(t, s).is_some());
        // No backlink: association in the reverse direction is absent.
        assert!(g.association(s, t).is_none());
    }

    #[test]
    fn k_truncates() {
        let (w, r) = tiny_wiki();
        let g = WikipediaGraph::with_k(&w, &r, 1);
        assert_eq!(g.query("Hasekura Tsunenaga").len(), 1);
    }

    #[test]
    fn score_formula_spot_check() {
        let (w, r) = tiny_wiki();
        let g = WikipediaGraph::new(&w, &r);
        let t = w.find_title("Hasekura Tsunenaga").unwrap();
        let s = w.find_title("Samurai").unwrap();
        // N=4, in(samurai)=1, out(tsunenaga)=2 → ln(4)/2.
        let expected = (4.0f64).ln() / 2.0;
        assert!((g.association(t, s).unwrap() - expected).abs() < 1e-12);
    }
}
