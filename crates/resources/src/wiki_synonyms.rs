//! The Wikipedia Synonyms context resource: term variations from
//! redirects and high-confidence anchor text.

use crate::resource::ContextResource;
use facet_wikipedia::WikipediaSynonyms;

/// Synonym expansion. The returned terms are *variants of the query term*
/// (not generalizations), so this resource mainly consolidates surface
/// forms — which is why its stand-alone recall of facet terms is the
/// lowest of the four resources (paper Tables II–IV) while its precision
/// stays high.
pub struct WikiSynonymsResource<'a> {
    synonyms: &'a WikipediaSynonyms<'a>,
}

impl<'a> WikiSynonymsResource<'a> {
    /// Wrap the synonyms substrate.
    pub fn new(synonyms: &'a WikipediaSynonyms<'a>) -> Self {
        Self { synonyms }
    }
}

impl ContextResource for WikiSynonymsResource<'_> {
    fn name(&self) -> &'static str {
        "Wikipedia Synonyms"
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        self.synonyms.query(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::EntityId;
    use facet_wikipedia::page::PageSubject;
    use facet_wikipedia::{AnchorTable, RedirectTable, Wikipedia};

    #[test]
    fn variants_returned() {
        let mut w = Wikipedia::new();
        let hrc = w.add_page(
            "Hillary Rodham Clinton",
            String::new(),
            PageSubject::Entity(EntityId(0)),
        );
        let mut r = RedirectTable::new();
        r.add("Hillary Clinton", hrc);
        let a = AnchorTable::new();
        let syn = WikipediaSynonyms::new(&w, &r, &a);
        let res = WikiSynonymsResource::new(&syn);
        let out = res.context_terms("Hillary Clinton");
        assert!(out.contains(&"hillary rodham clinton".to_string()));
        assert!(res.context_terms("unknown").is_empty());
    }

    /// A counted term with a folded final sigma finds the page whose
    /// title ends in a capital sigma, and the variants fold the same way.
    #[test]
    fn counted_term_finds_a_capital_sigma_title() {
        let mut w = Wikipedia::new();
        let page = w.add_page("ΟΔΟΣ", String::new(), PageSubject::Entity(EntityId(0)));
        let mut r = RedirectTable::new();
        r.add("ΔΡΟΜΟΣ", page);
        let a = AnchorTable::new();
        let syn = WikipediaSynonyms::new(&w, &r, &a);
        let res = WikiSynonymsResource::new(&syn);
        assert_eq!(res.context_terms("οδοσ"), vec!["δρομοσ"]);
        assert_eq!(res.context_terms("δρομοσ"), vec!["οδοσ"]);
    }
}
