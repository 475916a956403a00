//! Building the mini-WordNet from the world model.
//!
//! Coverage rules (mirroring real WordNet, which the paper's recall
//! numbers depend on):
//!
//! * every **facet concept term** gets a synset, with hypernym edges along
//!   the ontology ("election" → "event");
//! * every **concept noun** gets a synset whose hypernym is its facet
//!   leaf's synset ("ballot" → "election" → "event");
//! * **geographic entities** flagged `in_wordnet` get synsets chained
//!   along the location hierarchy ("Kleaport" → "Brenovia" → "Europe" →
//!   "location");
//! * **people, corporations, organizations, and named events get no
//!   synsets at all** — this is the named-entity coverage gap.

use crate::synset::{SynsetId, WordNet};
use facet_knowledge::{EntityKind, World};
use std::collections::HashMap;

/// Build the mini-WordNet for `world`.
pub fn build_wordnet(world: &World) -> WordNet {
    let mut wn = WordNet::new();
    let mut facet_synsets: HashMap<u32, SynsetId> = HashMap::new();

    // Synsets for all facet terms, except location-subtree nodes that are
    // covered by the geography pass below (their coverage is conditional).
    // A world without a "location" root simply has no geography subtree;
    // every facet node then goes through the unconditional loop below.
    let location_root = world.ontology.find("location");
    for node in world.ontology.iter() {
        let covered_by_geography = location_root
            .is_some_and(|root| node.id != root && world.ontology.is_ancestor(root, node.id));
        if covered_by_geography {
            continue; // handled by the geography pass
        }
        let gloss = format!("facet concept: {}", node.term);
        let id = wn.add_synset(&[node.term.as_str()], &gloss);
        facet_synsets.insert(node.id.0, id);
    }
    // Hypernym edges along the ontology (non-location part).
    for node in world.ontology.iter() {
        let (Some(&child), Some(parent)) = (facet_synsets.get(&node.id.0), node.parent) else {
            continue;
        };
        if let Some(&parent_syn) = facet_synsets.get(&parent.0) {
            wn.add_hypernym(child, parent_syn);
        }
    }

    // Geography: regions always, countries always, cities per coverage
    // flag. Chain city → country → region → "location".
    for e in world.entities_of_kind(EntityKind::Location) {
        if !e.in_wordnet {
            continue;
        }
        let Some(node) = e.self_facet else {
            continue; // location entities are facet nodes; tolerate gaps
        };
        let gloss = format!("a place named {}", e.name);
        let syn = wn.add_synset(&[&e.name], &gloss);
        facet_synsets.insert(node.0, syn);
    }
    // Second pass to wire geography hypernyms (parents may be created
    // after children in catalog order; with the map complete we can link).
    for e in world.entities_of_kind(EntityKind::Location) {
        let Some(node) = e.self_facet else {
            continue;
        };
        let Some(&syn) = facet_synsets.get(&node.0) else {
            continue;
        };
        let mut parent = world.ontology.node(node).parent;
        // Walk up until a covered ancestor is found (an uncovered city
        // cannot break its country's chain, but an uncovered city's child
        // would link to the country directly — not applicable here since
        // cities are leaves).
        while let Some(p) = parent {
            if let Some(&parent_syn) = facet_synsets.get(&p.0) {
                wn.add_hypernym(syn, parent_syn);
                break;
            }
            parent = world.ontology.node(p).parent;
        }
    }

    // Concept nouns: noun → facet leaf synset.
    for c in &world.concepts {
        let gloss = format!("concept noun evoking {}", world.ontology.node(c.facet).term);
        let syn = wn.add_synset(&[c.noun.as_str()], &gloss);
        if let Some(&leaf_syn) = facet_synsets.get(&c.facet.0) {
            wn.add_hypernym(syn, leaf_syn);
        }
    }

    wn
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 41,
            countries: 8,
            cities_per_country: 2,
            people: 30,
            corporations: 10,
            organizations: 6,
            events: 5,
            extra_concepts: 15,
            topics: 20,
            gazetteer_coverage: 0.9,
            wordnet_city_coverage: 0.5,
            background_words: 80,
        })
    }

    #[test]
    fn concept_nouns_have_facet_hypernyms() {
        let w = world();
        let wn = build_wordnet(&w);
        // "ballot" → "election" → "event".
        let terms = wn.hypernym_terms("ballot", 10);
        assert_eq!(terms.first().map(String::as_str), Some("election"));
        assert!(terms.contains(&"event".to_string()));
    }

    #[test]
    fn people_are_absent() {
        let w = world();
        let wn = build_wordnet(&w);
        for e in w.entities_of_kind(EntityKind::Person) {
            assert!(
                !wn.contains(&e.name.to_lowercase()),
                "{} should be absent",
                e.name
            );
        }
        for e in w.entities_of_kind(EntityKind::Corporation) {
            assert!(
                !wn.contains(&e.name.to_lowercase()),
                "{} should be absent",
                e.name
            );
        }
    }

    #[test]
    fn countries_chain_to_location() {
        let w = world();
        let wn = build_wordnet(&w);
        let country = w
            .entities_of_kind(EntityKind::Location)
            .find(|e| {
                let n = e.self_facet.unwrap();
                w.ontology.node(n).depth == 2 // region=1, country=2
            })
            .unwrap();
        let terms = wn.hypernym_terms(&country.name.to_lowercase(), 10);
        assert!(
            terms.contains(&"location".to_string()),
            "{} misses location: {:?}",
            country.name,
            terms
        );
        // The region is the nearest hypernym.
        let region_node = w.ontology.node(country.self_facet.unwrap()).parent.unwrap();
        let region_term = &w.ontology.node(region_node).term;
        assert_eq!(&terms[0], region_term);
    }

    #[test]
    fn uncovered_cities_absent_covered_present() {
        let w = world();
        let wn = build_wordnet(&w);
        let mut covered = 0;
        let mut uncovered = 0;
        for e in w.entities_of_kind(EntityKind::Location) {
            let depth = w.ontology.node(e.self_facet.unwrap()).depth;
            if depth == 3 {
                if e.in_wordnet {
                    assert!(wn.contains(&e.name.to_lowercase()));
                    covered += 1;
                } else {
                    assert!(!wn.contains(&e.name.to_lowercase()));
                    uncovered += 1;
                }
            }
        }
        assert!(
            covered > 0 && uncovered > 0,
            "coverage split should be nontrivial"
        );
    }

    #[test]
    fn facet_terms_chain_to_roots() {
        let w = world();
        let wn = build_wordnet(&w);
        let terms = wn.hypernym_terms("corporations", 10);
        assert!(terms.contains(&"markets".to_string()));
    }
}
