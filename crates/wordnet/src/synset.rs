//! Synsets, the lemma index, and hypernym closure queries.

use facet_textkit::lowercase;
use std::collections::HashMap;

/// Index of a synset in a [`WordNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SynsetId(pub u32);

impl SynsetId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of synonymous lemmas with a gloss.
#[derive(Debug, Clone)]
pub struct Synset {
    /// This synset's id.
    pub id: SynsetId,
    /// Lemmas, lowercase; the first lemma is the preferred one.
    pub lemmas: Vec<String>,
    /// Dictionary gloss.
    pub gloss: String,
}

/// The lexical database: synsets, lemma lookup, and the hypernym DAG.
#[derive(Debug, Default, Clone)]
pub struct WordNet {
    synsets: Vec<Synset>,
    // lint:allow(string-keyed-map, reason="resource-backend boundary: lemma lookup takes free strings from context expansion; results are SynsetId lists, so no string key reaches pipeline state")
    by_lemma: HashMap<String, Vec<SynsetId>>,
    /// Direct hypernyms per synset (a DAG; usually a single parent).
    hypernyms: Vec<Vec<SynsetId>>,
}

impl WordNet {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a synset. Lemmas are lowercased; the first lemma is preferred.
    ///
    /// # Panics
    /// Panics if `lemmas` is empty.
    pub fn add_synset(&mut self, lemmas: &[&str], gloss: &str) -> SynsetId {
        assert!(!lemmas.is_empty(), "synset needs at least one lemma");
        // lint:allow(panic, reason="u32 id-space exhaustion (>4B synsets) is unrecoverable and unreachable for the mini-WordNet")
        let id = SynsetId(u32::try_from(self.synsets.len()).expect("too many synsets"));
        let lemmas: Vec<String> = lemmas.iter().map(|l| lowercase(l)).collect();
        for l in &lemmas {
            self.by_lemma.entry(l.clone()).or_default().push(id);
        }
        self.synsets.push(Synset {
            id,
            lemmas,
            gloss: gloss.to_string(),
        });
        self.hypernyms.push(Vec::new());
        id
    }

    /// Add a hypernym edge `child → parent` ("child IS-A parent").
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    /// Panics if the edge would create a cycle (hypernymy is a DAG).
    pub fn add_hypernym(&mut self, child: SynsetId, parent: SynsetId) {
        assert_ne!(child, parent, "self-hypernym");
        assert!(
            !self.hypernym_closure(parent, usize::MAX).contains(&child),
            "hypernym cycle: {} -> {}",
            self.synsets[child.index()].lemmas[0],
            self.synsets[parent.index()].lemmas[0],
        );
        let edges = &mut self.hypernyms[child.index()];
        if !edges.contains(&parent) {
            edges.push(parent);
        }
    }

    /// The synset with the given id.
    pub fn synset(&self, id: SynsetId) -> &Synset {
        &self.synsets[id.index()]
    }

    /// All synsets containing `lemma` (case-insensitive).
    pub fn lookup(&self, lemma: &str) -> &[SynsetId] {
        self.by_lemma
            .get(&lowercase(lemma))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True if the lemma exists in the database.
    pub fn contains(&self, lemma: &str) -> bool {
        !self.lookup(lemma).is_empty()
    }

    /// All hypernym ancestors of `id` up to `max_depth` levels, in BFS
    /// order (nearest first), deduplicated, excluding `id` itself.
    pub fn hypernym_closure(&self, id: SynsetId, max_depth: usize) -> Vec<SynsetId> {
        let mut out = Vec::new();
        let mut frontier = vec![id];
        let mut depth = 0;
        while !frontier.is_empty() && depth < max_depth {
            let mut next = Vec::new();
            for f in frontier {
                for &h in &self.hypernyms[f.index()] {
                    if h != id && !out.contains(&h) {
                        out.push(h);
                        next.push(h);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        out
    }

    /// The paper's resource query: hypernym *terms* of a lemma, nearest
    /// first, up to `max_depth` levels, across all senses. Empty when the
    /// lemma is unknown — which for named entities is the common case.
    pub fn hypernym_terms(&self, lemma: &str, max_depth: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for &sense in self.lookup(lemma) {
            for anc in self.hypernym_closure(sense, max_depth) {
                let term = self.synsets[anc.index()].lemmas[0].clone();
                if !out.contains(&term) {
                    out.push(term);
                }
            }
        }
        out
    }

    /// Number of synsets.
    pub fn len(&self) -> usize {
        self.synsets.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.synsets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (WordNet, SynsetId, SynsetId, SynsetId) {
        let mut wn = WordNet::new();
        let vehicle = wn.add_synset(&["vehicle"], "a conveyance");
        let car = wn.add_synset(&["car", "automobile"], "a motor vehicle");
        let truck = wn.add_synset(&["truck"], "a motor vehicle for hauling");
        wn.add_hypernym(car, vehicle);
        wn.add_hypernym(truck, vehicle);
        (wn, vehicle, car, truck)
    }

    #[test]
    fn lookup_by_any_lemma() {
        let (wn, _, car, _) = fixture();
        assert_eq!(wn.lookup("car"), &[car]);
        assert_eq!(wn.lookup("automobile"), &[car]);
        assert_eq!(wn.lookup("Automobile"), &[car]);
        assert!(wn.lookup("plane").is_empty());
    }

    #[test]
    fn hypernym_terms_nearest_first() {
        let mut wn = WordNet::new();
        let entity = wn.add_synset(&["entity"], "");
        let object = wn.add_synset(&["object"], "");
        let vehicle = wn.add_synset(&["vehicle"], "");
        let car = wn.add_synset(&["car"], "");
        wn.add_hypernym(object, entity);
        wn.add_hypernym(vehicle, object);
        wn.add_hypernym(car, vehicle);
        assert_eq!(
            wn.hypernym_terms("car", 10),
            vec!["vehicle", "object", "entity"]
        );
        assert_eq!(wn.hypernym_terms("car", 2), vec!["vehicle", "object"]);
        assert!(wn.hypernym_terms("car", 0).is_empty());
    }

    #[test]
    fn unknown_lemma_empty() {
        let (wn, ..) = fixture();
        assert!(wn.hypernym_terms("jacques chirac", 10).is_empty());
        assert!(!wn.contains("jacques chirac"));
    }

    #[test]
    fn polysemy_merges_senses() {
        let mut wn = WordNet::new();
        let animal = wn.add_synset(&["animal"], "");
        let machine = wn.add_synset(&["machine"], "");
        let crane_bird = wn.add_synset(&["crane"], "a bird");
        let crane_machine = wn.add_synset(&["crane"], "lifting equipment");
        wn.add_hypernym(crane_bird, animal);
        wn.add_hypernym(crane_machine, machine);
        let terms = wn.hypernym_terms("crane", 5);
        assert!(terms.contains(&"animal".to_string()));
        assert!(terms.contains(&"machine".to_string()));
    }

    #[test]
    #[should_panic]
    fn cycle_rejected() {
        let mut wn = WordNet::new();
        let a = wn.add_synset(&["a"], "");
        let b = wn.add_synset(&["b"], "");
        wn.add_hypernym(a, b);
        wn.add_hypernym(b, a);
    }

    #[test]
    fn duplicate_edge_ignored() {
        let (mut wn, vehicle, car, _) = fixture();
        wn.add_hypernym(car, vehicle);
        assert_eq!(wn.hypernyms[car.index()].len(), 1);
    }
}
