//! The Wikipedia-title term extractor (paper Section IV-A, "Wikipedia
//! Terms"): document spans matching page titles, longest title first,
//! with redirect titles improving coverage.

use crate::extractor::{Distinct, TermExtractor};
use facet_wikipedia::{TitleIndex, Wikipedia};
use std::marker::PhantomData;

/// Extracts document terms that match Wikipedia page titles, including
/// redirect titles (the paper's use of redirect pages to capture name
/// variations). The reported term is the document's surface term; the
/// context resources resolve it to the canonical entry when queried.
pub struct WikipediaTitleExtractor<'a> {
    index: TitleIndex,
    /// The encyclopedia the index was built from. The scan reads only
    /// the index; the borrow keeps the constructor's signature.
    wiki: PhantomData<&'a Wikipedia>,
}

impl<'a> WikipediaTitleExtractor<'a> {
    /// Build over an encyclopedia and its prebuilt title index.
    pub fn new(_wiki: &'a Wikipedia, index: TitleIndex) -> Self {
        Self {
            index,
            wiki: PhantomData,
        }
    }

    /// The underlying title index.
    pub fn index(&self) -> &TitleIndex {
        &self.index
    }
}

impl TermExtractor for WikipediaTitleExtractor<'_> {
    fn name(&self) -> &'static str {
        "Wikipedia"
    }

    fn extract(&self, text: &str) -> Vec<String> {
        let mut out = Distinct::default();
        self.index
            .for_each_match(text, |title, _page| out.push_str(title));
        out.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::EntityId;
    use facet_wikipedia::page::PageSubject;
    use facet_wikipedia::RedirectTable;

    fn fixture() -> (Wikipedia, RedirectTable) {
        let mut w = Wikipedia::new();
        let chirac = w.add_page(
            "Jacques Chirac",
            String::new(),
            PageSubject::Entity(EntityId(0)),
        );
        w.add_page("France", String::new(), PageSubject::Entity(EntityId(1)));
        let mut r = RedirectTable::new();
        r.add("President Chirac", chirac);
        (w, r)
    }

    #[test]
    fn canonical_titles_returned() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        let e = WikipediaTitleExtractor::new(&w, idx);
        let terms = e.extract("President Chirac left France; later President Chirac returned.");
        assert_eq!(terms, vec!["president chirac", "france"]);
    }

    #[test]
    fn non_title_words_ignored() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        let e = WikipediaTitleExtractor::new(&w, idx);
        assert!(e.extract("nothing to see here").is_empty());
    }

    #[test]
    fn name_label() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        assert_eq!(WikipediaTitleExtractor::new(&w, idx).name(), "Wikipedia");
    }
}
