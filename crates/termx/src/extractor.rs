//! The extractor trait and the union-of-extractors helper (Figure 1 of
//! the paper).

use facet_textkit::Vocabulary;

/// An important-term extractor: document text in, normalized terms out.
pub trait TermExtractor: Send + Sync {
    /// Short display name ("NE", "Yahoo", "Wikipedia") matching the
    /// table columns of the paper.
    fn name(&self) -> &'static str;

    /// Extract important terms from document text. Terms are normalized
    /// lowercase, deduplicated, in extraction order.
    fn extract(&self, text: &str) -> Vec<String>;
}

/// Compute `I(d)`: the deduplicated union of all extractors' terms for a
/// document, in first-seen order.
pub fn extract_important_terms(extractors: &[&dyn TermExtractor], text: &str) -> Vec<String> {
    let mut out = Distinct::default();
    for e in extractors {
        for term in e.extract(text) {
            out.push(term);
        }
    }
    out.into_vec()
}

/// Distinct strings in first-seen order, deduplicated through an
/// interner: linear in the terms pushed, where `Vec::contains` per push
/// is quadratic.
#[derive(Debug, Default)]
pub(crate) struct Distinct {
    seen: Vocabulary,
    out: Vec<String>,
}

impl Distinct {
    /// Keep `term` if it is new.
    pub(crate) fn push(&mut self, term: String) {
        if self.is_new(&term) {
            self.out.push(term);
        }
    }

    /// Keep a copy of `term` if it is new.
    pub(crate) fn push_str(&mut self, term: &str) {
        if self.is_new(term) {
            self.out.push(term.to_string());
        }
    }

    fn is_new(&mut self, term: &str) -> bool {
        let before = self.seen.len();
        self.seen.intern(term);
        self.seen.len() > before
    }

    /// The kept terms, in first-seen order.
    pub(crate) fn into_vec(self) -> Vec<String> {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(&'static str, Vec<&'static str>);
    impl TermExtractor for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn extract(&self, _text: &str) -> Vec<String> {
            self.1.iter().map(|s| s.to_string()).collect()
        }
    }

    #[test]
    fn union_deduplicates_preserving_order() {
        let a = Fixed("A", vec!["x", "y"]);
        let b = Fixed("B", vec!["y", "z"]);
        let terms = extract_important_terms(&[&a, &b], "irrelevant");
        assert_eq!(terms, vec!["x", "y", "z"]);
    }

    #[test]
    fn empty_extractor_list() {
        assert!(extract_important_terms(&[], "text").is_empty());
    }

    /// A word-final capital sigma folds one way in every Step-1 output:
    /// the gazetteer, the title index, NE's reported term and the counted
    /// terms all give `οδοσ`, so `I(d)` holds one string for the word and
    /// it is a counted term.
    #[test]
    fn one_case_fold_across_step1() {
        use crate::{NamedEntityExtractor, WikipediaTitleExtractor};
        use facet_corpus::db::term_strings;
        use facet_knowledge::{EntityId, EntityKind};
        use facet_ner::{Gazetteer, NerTagger};
        use facet_wikipedia::page::PageSubject;
        use facet_wikipedia::{RedirectTable, TitleIndex, Wikipedia};

        let mut gazetteer = Gazetteer::new();
        gazetteer.insert("ΟΔΟΣ", EntityId(0), EntityKind::Location);
        let ne = NamedEntityExtractor::new(NerTagger::new(gazetteer));
        let mut wiki = Wikipedia::new();
        wiki.add_page("ΟΔΟΣ", String::new(), PageSubject::Entity(EntityId(0)));
        let titles = TitleIndex::build(&wiki, &RedirectTable::new());
        let wiki_x = WikipediaTitleExtractor::new(&wiki, titles);
        let text = "They walked the ΟΔΟΣ yesterday";
        assert_eq!(ne.extract(text), vec!["οδοσ"]);
        assert_eq!(wiki_x.extract(text), vec!["οδοσ"]);
        let important = extract_important_terms(&[&ne, &wiki_x], text);
        assert_eq!(important, vec!["οδοσ"]);
        assert!(term_strings(text).iter().any(|t| t == important[0]));
    }
}
