//! The entity gazetteer: longest-match dictionary of known surface forms.

use facet_knowledge::{EntityId, EntityKind, World};
use facet_textkit::{
    lowercase, normalize_term, tokens, LowerWords, SymTable, Token, Vocabulary, WordFilter,
};

/// A dictionary mapping normalized surface forms to entities.
///
/// Form keys and their first words share one arena [`Vocabulary`]; the
/// entity and the first-word length bound live in dense symbol-indexed
/// [`SymTable`]s, so a scan probes by slices of one lowercase buffer. A
/// [`WordFilter`] of the first words lets the scan skip, without a probe,
/// most words that start no form.
#[derive(Debug, Default)]
pub struct Gazetteer {
    /// Shared arena for form keys and first words.
    terms: Vocabulary,
    /// Symbol of a normalized surface form → entity.
    map: SymTable<(EntityId, EntityKind)>,
    /// Symbol of a first word → max form length in words.
    first_word_max: SymTable<usize>,
    /// The first words, as a bit filter tested before the probe.
    first_words: WordFilter,
}

/// One gazetteer match: `(matched text, start byte, end byte, entity,
/// kind)`.
pub type GazetteerHit<'t> = (&'t str, usize, usize, EntityId, EntityKind);

impl Gazetteer {
    /// Create an empty gazetteer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from the world: all surface forms of entities flagged
    /// `in_gazetteer`. Coverage gaps are the world's, not ours — the
    /// pipeline treats the tagger as a black box.
    pub fn from_world(world: &World) -> Self {
        let mut g = Self::new();
        for e in &world.entities {
            if !e.in_gazetteer {
                continue;
            }
            for form in e.surface_forms() {
                g.insert(form, e.id, e.kind);
            }
        }
        g
    }

    /// Insert a surface form. First insertion wins (ambiguous forms keep
    /// their first sense, a realistic dictionary behavior).
    pub fn insert(&mut self, form: &str, entity: EntityId, kind: EntityKind) {
        let key = normalize_term(form);
        let Some(first) = key.split(' ').next().filter(|w| !w.is_empty()) else {
            return;
        };
        let first_sym = self.terms.intern(first);
        if !self.first_word_max.contains(first_sym) {
            self.first_words.insert(first);
        }
        let entry = self.first_word_max.get_or_default(first_sym);
        *entry = (*entry).max(key.split(' ').count());
        let key = self.terms.intern(&key);
        if !self.map.contains(key) {
            self.map.insert(key, (entity, kind));
        }
    }

    /// Exact lookup of a normalized form.
    pub fn get(&self, form: &str) -> Option<(EntityId, EntityKind)> {
        self.lookup(&lowercase(form))
    }

    fn lookup(&self, key: &str) -> Option<(EntityId, EntityKind)> {
        self.terms.get(key).and_then(|s| self.map.get(s)).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the gazetteer is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Longest-match scan over `text`. Returns `(matched text, start byte,
    /// end byte, entity, kind)` tuples in document order, non-overlapping.
    pub fn scan<'t>(&self, text: &'t str) -> Vec<GazetteerHit<'t>> {
        self.scan_tokens(text, &tokens(text))
    }

    /// [`Gazetteer::scan`] over `toks`, the [`tokens`] of `text`.
    pub(crate) fn scan_tokens<'t>(
        &self,
        text: &'t str,
        toks: &[Token<'_>],
    ) -> Vec<GazetteerHit<'t>> {
        let words = LowerWords::new(toks);
        let mut out = Vec::new();
        let mut wi = 0;
        while wi < words.len() {
            let Some(&max_len) = Some(words.word(wi))
                .filter(|w| self.first_words.may_contain(w))
                .and_then(|w| self.terms.get(w))
                .and_then(|s| self.first_word_max.get(s))
            else {
                wi += 1;
                continue;
            };
            let upper = max_len.min(words.len() - wi);
            // A form cannot cross punctuation: its words must be adjacent
            // in the token stream (only whitespace between).
            let hit = (1..=upper).rev().find_map(|len| {
                if !words.adjacent(wi, len) {
                    return None;
                }
                self.lookup(words.key(wi, len)).map(|found| (len, found))
            });
            let Some((len, (entity, kind))) = hit else {
                wi += 1;
                continue;
            };
            let start = words.source(wi).0;
            let end = words.source(wi + len - 1).1;
            out.push((&text[start..end], start, end, entity, kind));
            wi += len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaz() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.insert("Jacques Chirac", EntityId(0), EntityKind::Person);
        g.insert("Chirac", EntityId(0), EntityKind::Person);
        g.insert("France", EntityId(1), EntityKind::Location);
        g
    }

    #[test]
    fn longest_match_preferred() {
        let g = gaz();
        let hits = g.scan("Jacques Chirac spoke for France.");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, "Jacques Chirac");
        assert_eq!(hits[1].0, "France");
    }

    #[test]
    fn variant_matches() {
        let g = gaz();
        let hits = g.scan("Chirac arrived yesterday");
        assert_eq!(hits[0].3, EntityId(0));
    }

    #[test]
    fn punctuation_blocks_multiword_match() {
        let g = gaz();
        let hits = g.scan("Jacques. Chirac spoke.");
        // "Jacques. Chirac" must not match as a two-word form; "Chirac"
        // alone still does.
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "Chirac");
    }

    #[test]
    fn ambiguous_form_keeps_first_sense() {
        let mut g = gaz();
        g.insert("Chirac", EntityId(9), EntityKind::Location);
        assert_eq!(g.get("chirac"), Some((EntityId(0), EntityKind::Person)));
    }

    #[test]
    fn empty_text() {
        let g = gaz();
        assert!(g.scan("").is_empty());
    }
}
