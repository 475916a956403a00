//! The ideal-judgment model for precision evaluation.
//!
//! The paper's judges examined the generated facet hierarchies and
//! verified "(a) whether the facet terms in the hierarchies are useful and
//! (b) whether the term is accurately placed in the hierarchy"
//! (Section V-C). Our world model lets us define what a careful judge
//! would conclude:
//!
//! **Usefulness.** A term is useful when it denotes something in the
//! world: a facet concept from the latent ontology, a named entity (the
//! paper's own example files "Jacques Chirac" under People → Political
//! Leaders), an entity's surface variant ("Republic of X" denotes the
//! country X), or a concept noun with a facet hypernym. Arbitrary corpus
//! words ("chatter") are not useful.
//!
//! **Placement.** Judges verify placement at the *facet* (dimension)
//! level plus obvious generalization errors: a term filed under a term of
//! its own dimension — ideally one of its ancestors — reads as accurately
//! placed ("terrorism" under "politics" passes; "criminal trial" under
//! "Oceania" does not). Roots are acceptable facets by themselves.

use facet_knowledge::{EntityId, FacetNodeId, World};
use facet_textkit::lowercase;
use std::collections::HashMap;

/// Precomputed lookup tables for fast ideal judgments.
pub struct JudgeModel<'w> {
    world: &'w World,
    /// Any surface form (canonical, variant, alternate) → entity.
    surface: HashMap<String, EntityId>,
    /// Concept noun → index into `world.concepts`.
    concepts: HashMap<&'w str, usize>,
}

impl<'w> JudgeModel<'w> {
    /// Build the lookup tables.
    pub fn new(world: &'w World) -> Self {
        let mut surface = HashMap::new();
        for e in &world.entities {
            for form in e.surface_forms() {
                surface.entry(lowercase(form)).or_insert(e.id);
            }
        }
        let concepts = world
            .concepts
            .iter()
            .enumerate()
            .map(|(i, c)| (c.noun.as_str(), i))
            .collect();
        Self {
            world,
            surface,
            concepts,
        }
    }

    /// The dimension roots an entity belongs to.
    fn entity_roots(&self, id: EntityId) -> Vec<FacetNodeId> {
        let mut roots: Vec<FacetNodeId> = self.world.entities[id.index()]
            .facets
            .iter()
            .map(|&leaf| self.world.ontology.root_of(leaf))
            .collect();
        roots.sort();
        roots.dedup();
        roots
    }

    /// Would a careful judge mark `(term, parent)` as a useful, accurately
    /// placed facet term?
    pub fn ideal_judgment(&self, term: &str, parent: Option<&str>) -> bool {
        let ontology = &self.world.ontology;
        // --- facet concept ---------------------------------------------------
        if let Some(node) = ontology.find(term) {
            return match parent {
                None => true,
                Some(p) => match ontology.find(p) {
                    Some(p_node) => {
                        ontology.is_ancestor(p_node, node)
                            || ontology.root_of(p_node) == ontology.root_of(node)
                    }
                    None => false,
                },
            };
        }
        // --- entity (by any surface form) -------------------------------------
        if let Some(&entity) = self.surface.get(term) {
            return match parent {
                None => true,
                Some(p) => {
                    if let Some(p_node) = ontology.find(p) {
                        let root = ontology.root_of(p_node);
                        self.entity_roots(entity).contains(&root)
                    } else if let Some(&p_entity) = self.surface.get(p) {
                        // Entity under entity: acceptable when they are
                        // directly related in the world.
                        let child = &self.world.entities[entity.index()];
                        let par = &self.world.entities[p_entity.index()];
                        child.related.contains(&p_entity) || par.related.contains(&entity)
                    } else {
                        false
                    }
                }
            };
        }
        // --- concept noun -------------------------------------------------------
        if let Some(&ci) = self.concepts.get(term) {
            let concept = &self.world.concepts[ci];
            return match parent {
                None => true,
                Some(p) => {
                    concept.hypernyms.iter().any(|h| h == p)
                        || ontology.find(p).is_some_and(|pn| {
                            ontology.root_of(pn) == ontology.root_of(concept.facet)
                        })
                }
            };
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::{EntityKind, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 101,
            countries: 6,
            cities_per_country: 2,
            people: 20,
            corporations: 8,
            organizations: 5,
            events: 4,
            extra_concepts: 10,
            topics: 15,
            gazetteer_coverage: 0.9,
            wordnet_city_coverage: 0.5,
            background_words: 60,
        })
    }

    #[test]
    fn ontology_ancestor_and_same_dimension_accepted() {
        let w = world();
        let j = JudgeModel::new(&w);
        assert!(j.ideal_judgment("war", Some("social phenomenon")));
        assert!(
            j.ideal_judgment("terrorism", Some("politics")),
            "same dimension accepted"
        );
        assert!(
            !j.ideal_judgment("war", Some("nature")),
            "cross-dimension rejected"
        );
        assert!(j.ideal_judgment("war", None));
    }

    #[test]
    fn entity_variants_useful() {
        let w = world();
        let j = JudgeModel::new(&w);
        let country = w
            .entities_of_kind(EntityKind::Location)
            .find(|e| e.alt_name.is_some())
            .unwrap();
        let alt = country.alt_name.clone().unwrap().to_lowercase();
        assert!(j.ideal_judgment(&alt, None));
        assert!(j.ideal_judgment(&alt, Some("location")));
        assert!(!j.ideal_judgment(&alt, Some("markets")));
    }

    #[test]
    fn person_under_own_dimensions_only() {
        let w = world();
        let j = JudgeModel::new(&w);
        let person = w.entities_of_kind(EntityKind::Person).next().unwrap();
        let name = person.name.to_lowercase();
        assert!(j.ideal_judgment(&name, Some("people")));
        assert!(
            j.ideal_judgment(&name, Some("location")),
            "people have a location dimension"
        );
        assert!(!j.ideal_judgment(&name, Some("nature")));
    }

    #[test]
    fn noise_rejected() {
        let w = world();
        let j = JudgeModel::new(&w);
        assert!(!j.ideal_judgment("zorblatt", None));
        assert!(!j.ideal_judgment("qwerty", Some("politics")));
    }

    #[test]
    fn concept_noun_under_hypernym_or_dimension() {
        let w = world();
        let j = JudgeModel::new(&w);
        assert!(j.ideal_judgment("ballot", Some("election")));
        assert!(j.ideal_judgment("ballot", Some("event")), "same dimension");
        assert!(!j.ideal_judgment("ballot", Some("nature")));
    }
}
