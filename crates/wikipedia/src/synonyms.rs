//! The Wikipedia Synonyms context resource (paper Section IV-B).
//!
//! Returns variations of the same term from two sources:
//!
//! * **redirects** — every title in the query page's redirect group, plus
//!   the canonical title itself (high precision, as the paper notes);
//! * **anchor text** — phrases used elsewhere in Wikipedia to link to the
//!   page, filtered by the tf·idf-style score `s(p,t) = tf(p,t)/f(p)` to
//!   suppress ambiguous anchors ("inherently noisier than redirects").

use crate::anchors::AnchorTable;
use crate::page::Wikipedia;
use crate::redirects::RedirectTable;
use facet_textkit::lowercase;

/// The synonyms resource.
#[derive(Debug)]
pub struct WikipediaSynonyms<'a> {
    wiki: &'a Wikipedia,
    redirects: &'a RedirectTable,
    anchors: &'a AnchorTable,
    /// Minimum anchor score for an anchor phrase to count as a synonym.
    pub min_anchor_score: f64,
}

impl<'a> WikipediaSynonyms<'a> {
    /// Build the resource with the default anchor-score threshold (0.5).
    pub fn new(
        wiki: &'a Wikipedia,
        redirects: &'a RedirectTable,
        anchors: &'a AnchorTable,
    ) -> Self {
        Self {
            wiki,
            redirects,
            anchors,
            min_anchor_score: 0.5,
        }
    }

    /// Query with a term: returns the term's synonym set (normalized
    /// lowercase), excluding the query term itself. Empty if the term
    /// does not resolve to a page.
    pub fn query(&self, term: &str) -> Vec<String> {
        let Some(page_id) = self
            .wiki
            .find_title(term)
            .or_else(|| self.redirects.resolve(term))
        else {
            return Vec::new();
        };
        let query_norm = lowercase(term);
        let mut out: Vec<String> = Vec::new();
        // Canonical title.
        let canonical = lowercase(&self.wiki.page(page_id).title);
        if canonical != query_norm {
            out.push(canonical);
        }
        // Redirect group.
        for v in self.redirects.group(page_id) {
            let v = lowercase(v);
            if v != query_norm && !out.contains(&v) {
                out.push(v);
            }
        }
        // High-confidence anchors.
        for (phrase, score) in self.anchors.anchors_of(page_id) {
            if score >= self.min_anchor_score && phrase != query_norm && !out.contains(&phrase) {
                out.push(phrase);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageSubject;
    use facet_knowledge::EntityId;

    fn fixture() -> (Wikipedia, RedirectTable, AnchorTable) {
        let mut w = Wikipedia::new();
        let hrc = w.add_page(
            "Hillary Rodham Clinton",
            String::new(),
            PageSubject::Entity(EntityId(0)),
        );
        let other = w.add_page(
            "Other Person",
            String::new(),
            PageSubject::Entity(EntityId(1)),
        );
        let mut r = RedirectTable::new();
        r.add("Hillary Clinton", hrc);
        r.add("Hillary R. Clinton", hrc);
        let mut a = AnchorTable::new();
        a.record("Senator Clinton", hrc); // unambiguous: score 1.0
        a.record("Clinton", hrc); // ambiguous:
        a.record("Clinton", other); //   f=2 → score 0.5 each
        a.record("the senator", hrc); // ambiguous and weak
        a.record("the senator", other);
        a.record("the senator", other); // tf(hrc)=1, f=2 → 0.5
        (w, r, a)
    }

    #[test]
    fn redirect_group_returned() {
        let (w, r, a) = fixture();
        let syn = WikipediaSynonyms::new(&w, &r, &a);
        let out = syn.query("Hillary Clinton");
        assert!(out.contains(&"hillary rodham clinton".to_string()));
        assert!(out.contains(&"hillary r. clinton".to_string()));
        assert!(
            !out.contains(&"hillary clinton".to_string()),
            "query term excluded"
        );
    }

    #[test]
    fn high_score_anchors_included() {
        let (w, r, a) = fixture();
        let syn = WikipediaSynonyms::new(&w, &r, &a);
        let out = syn.query("Hillary Rodham Clinton");
        assert!(out.contains(&"senator clinton".to_string()));
    }

    #[test]
    fn threshold_filters_weak_anchors() {
        let (w, r, a) = fixture();
        let mut syn = WikipediaSynonyms::new(&w, &r, &a);
        syn.min_anchor_score = 0.8;
        let out = syn.query("Hillary Rodham Clinton");
        assert!(out.contains(&"senator clinton".to_string()));
        assert!(!out.contains(&"clinton".to_string()));
        assert!(!out.contains(&"the senator".to_string()));
    }

    #[test]
    fn unknown_term_empty() {
        let (w, r, a) = fixture();
        let syn = WikipediaSynonyms::new(&w, &r, &a);
        assert!(syn.query("Nobody Special").is_empty());
    }

    #[test]
    fn no_duplicates() {
        let (w, r, a) = fixture();
        let syn = WikipediaSynonyms::new(&w, &r, &a);
        let out = syn.query("Hillary Clinton");
        let mut dedup = out.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(out.len(), dedup.len());
    }
}
