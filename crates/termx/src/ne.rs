//! The named-entity term extractor (paper: LingPipe).

use crate::extractor::{Distinct, TermExtractor};
use facet_ner::NerTagger;
use facet_textkit::normalize_term_into;

/// Extracts named-entity spans as important terms. The characteristic
/// limitation — no topical noun phrases, only names — is inherited from
/// the tagger and drives the paper's NE-column recall numbers.
pub struct NamedEntityExtractor {
    tagger: NerTagger,
}

impl NamedEntityExtractor {
    /// Wrap a tagger.
    pub fn new(tagger: NerTagger) -> Self {
        Self { tagger }
    }

    /// The underlying tagger.
    pub fn tagger(&self) -> &NerTagger {
        &self.tagger
    }
}

impl TermExtractor for NamedEntityExtractor {
    fn name(&self) -> &'static str {
        "NE"
    }

    fn extract(&self, text: &str) -> Vec<String> {
        let spans = self.tagger.tag(text);
        let mut out = Distinct::default();
        let mut term = String::new();
        for span in spans {
            term.clear();
            normalize_term_into(span.text, &mut term);
            if !term.is_empty() {
                out.push_str(&term);
            }
        }
        out.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::{EntityId, EntityKind};
    use facet_ner::Gazetteer;

    fn extractor() -> NamedEntityExtractor {
        let mut g = Gazetteer::new();
        g.insert("Jacques Chirac", EntityId(0), EntityKind::Person);
        g.insert("France", EntityId(1), EntityKind::Location);
        NamedEntityExtractor::new(NerTagger::new(g))
    }

    #[test]
    fn extracts_normalized_entities() {
        let e = extractor();
        let terms = e.extract("Jacques Chirac visited France. France welcomed Jacques Chirac.");
        assert_eq!(terms, vec!["jacques chirac", "france"]);
    }

    #[test]
    fn ignores_topical_nouns() {
        let e = extractor();
        let terms = e.extract("the summit discussed trade and markets");
        assert!(
            terms.is_empty(),
            "NE extractor must not return topical nouns: {terms:?}"
        );
    }

    #[test]
    fn name_label() {
        assert_eq!(extractor().name(), "NE");
    }
}
