//! The combined tagger: gazetteer matches first, rule-based spans fill
//! the gaps.

use crate::gazetteer::{Gazetteer, GazetteerHit};
use crate::rules::rule_spans_in;
use facet_knowledge::{EntityId, EntityKind, World};
use facet_textkit::tokens;

/// One tagged entity span, borrowing its text from the tagged document.
#[derive(Debug, Clone, PartialEq)]
pub struct EntitySpan<'t> {
    /// The surface text of the span.
    pub text: &'t str,
    /// Byte offsets in the source text.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
    /// The resolved entity, when the gazetteer recognized the span.
    pub entity: Option<EntityId>,
    /// Entity kind, when resolved.
    pub kind: Option<EntityKind>,
}

/// The named-entity tagger.
#[derive(Debug)]
pub struct NerTagger {
    gazetteer: Gazetteer,
}

impl NerTagger {
    /// Build the tagger from an explicit gazetteer.
    pub fn new(gazetteer: Gazetteer) -> Self {
        Self { gazetteer }
    }

    /// Build the tagger for a world (gazetteer coverage comes from the
    /// world's per-entity flags).
    pub fn from_world(world: &World) -> Self {
        Self::new(Gazetteer::from_world(world))
    }

    /// The underlying gazetteer.
    pub fn gazetteer(&self) -> &Gazetteer {
        &self.gazetteer
    }

    /// Tag `text`: gazetteer spans take precedence; rule-based spans are
    /// added where they do not overlap a gazetteer span. Spans are
    /// returned in document order.
    ///
    /// The text is tokenized once for both stages. Each stage's spans
    /// are in document order and never overlap each other, so the two
    /// lists merge in one pass.
    pub fn tag<'t>(&self, text: &'t str) -> Vec<EntitySpan<'t>> {
        let toks = tokens(text);
        let resolved = |(text, start, end, id, kind): GazetteerHit<'t>| EntitySpan {
            text,
            start,
            end,
            entity: Some(id),
            kind: Some(kind),
        };
        let mut gazetteer = self
            .gazetteer
            .scan_tokens(text, &toks)
            .into_iter()
            .peekable();
        let mut out = Vec::new();
        for (t, s, e) in rule_spans_in(text, &toks) {
            // Gazetteer spans ending by `s` come first; the next one
            // overlaps this rule span or starts after it.
            while let Some(hit) = gazetteer.next_if(|g| g.2 <= s) {
                out.push(resolved(hit));
            }
            if gazetteer.peek().is_some_and(|g| g.1 < e) {
                continue;
            }
            out.push(EntitySpan {
                text: t,
                start: s,
                end: e,
                entity: None,
                kind: None,
            });
        }
        out.extend(gazetteer.map(resolved));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagger() -> NerTagger {
        let mut g = Gazetteer::new();
        g.insert("Jacques Chirac", EntityId(0), EntityKind::Person);
        g.insert("France", EntityId(1), EntityKind::Location);
        NerTagger::new(g)
    }

    #[test]
    fn gazetteer_spans_resolved() {
        let t = tagger();
        let spans = t.tag("Jacques Chirac visited France.");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].entity, Some(EntityId(0)));
        assert_eq!(spans[1].kind, Some(EntityKind::Location));
    }

    #[test]
    fn rules_fill_unknown_entities() {
        let t = tagger();
        let spans = t.tag("He met Maria Dravenholt in France.");
        let texts: Vec<&str> = spans.iter().map(|s| s.text).collect();
        assert!(texts.contains(&"Maria Dravenholt"));
        assert!(texts.contains(&"France"));
        let unknown = spans.iter().find(|s| s.text == "Maria Dravenholt").unwrap();
        assert_eq!(unknown.entity, None);
    }

    #[test]
    fn no_overlapping_spans() {
        let t = tagger();
        let spans = t.tag("President Jacques Chirac of France spoke.");
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {spans:?}");
        }
    }

    #[test]
    fn lowercase_text_yields_nothing() {
        let t = tagger();
        // Gazetteer is case-insensitive (realistic for news casing), but
        // rules need capitals; plain prose without entities yields nothing.
        let spans = t.tag("the weather was mild and quiet all week");
        assert!(spans.is_empty());
    }
}
