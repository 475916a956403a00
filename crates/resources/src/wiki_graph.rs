//! The Wikipedia Graph context resource: top-k link-graph neighbours.

use crate::resource::ContextResource;
use facet_wikipedia::WikipediaGraph;

/// Link-graph expansion: querying with "Hasekura Tsunenaga" returns
/// "samurai", "japan", … (the paper's own example). Scores are
/// `log(N/in(t2))/out(t1)`, computed by the substrate.
pub struct WikiGraphResource<'a> {
    graph: &'a WikipediaGraph<'a>,
}

impl<'a> WikiGraphResource<'a> {
    /// Wrap a prebuilt graph (which fixes k; the paper uses k = 50).
    pub fn new(graph: &'a WikipediaGraph<'a>) -> Self {
        Self { graph }
    }
}

impl ContextResource for WikiGraphResource<'_> {
    fn name(&self) -> &'static str {
        "Wikipedia Graph"
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        self.graph.query(term).into_iter().map(|(t, _)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::FacetNodeId;
    use facet_wikipedia::page::PageSubject;
    use facet_wikipedia::{RedirectTable, Wikipedia};

    #[test]
    fn returns_linked_titles() {
        let mut w = Wikipedia::new();
        let s = PageSubject::Concept(FacetNodeId(0));
        let a = w.add_page("Hasekura Tsunenaga", String::new(), s);
        let b = w.add_page("Samurai", String::new(), s);
        w.add_link(a, b);
        let r = RedirectTable::new();
        let g = WikipediaGraph::new(&w, &r);
        let res = WikiGraphResource::new(&g);
        assert_eq!(res.context_terms("Hasekura Tsunenaga"), vec!["samurai"]);
        assert!(res.context_terms("nothing").is_empty());
    }

    /// A counted term with a folded final sigma finds the page whose
    /// title ends in a capital sigma, and the linked titles fold the same
    /// way.
    #[test]
    fn counted_term_finds_a_capital_sigma_title() {
        let mut w = Wikipedia::new();
        let s = PageSubject::Concept(FacetNodeId(0));
        let a = w.add_page("ΟΔΟΣ", String::new(), s);
        let b = w.add_page("ΝΗΣΟΣ", String::new(), s);
        w.add_link(a, b);
        let r = RedirectTable::new();
        let g = WikipediaGraph::new(&w, &r);
        let res = WikiGraphResource::new(&g);
        assert_eq!(res.context_terms("οδοσ"), vec!["νησοσ"]);
    }
}
