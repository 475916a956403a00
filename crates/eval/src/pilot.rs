//! The Section III pilot study: what facets do human annotators use, and
//! how often do the facet terms actually appear in the stories?
//!
//! The paper ran 12 journalism/art-history students over 1,000 NYT
//! stories; the most common facets (Table I) were Location, Institutes,
//! History, People (→ Leaders), Social Phenomenon, Markets
//! (→ Corporations), Nature, and Event — and **65% of the user-identified
//! facet terms did not appear in the story text**, the observation that
//! motivates the whole context-expansion approach.

use crate::annotators::{annotate_sample, AnnotatorConfig, GoldAnnotations};
use facet_corpus::GeneratedCorpus;
use facet_knowledge::World;
use facet_textkit::lowercase;
use std::collections::HashMap;

/// The pilot study's findings.
#[derive(Debug)]
pub struct PilotResult {
    /// Per facet dimension (root): (root term, documents annotated with a
    /// term from the dimension, most common sub-facet terms).
    pub dimensions: Vec<(String, usize, Vec<String>)>,
    /// Fraction of agreed facet-term assignments whose term does **not**
    /// appear in the story text (the paper reports 65%).
    pub missing_rate: f64,
    /// The most frequently agreed facet terms (term, document count).
    pub top_terms: Vec<(String, usize)>,
    /// The raw annotations.
    pub gold: GoldAnnotations,
}

/// Run the pilot study: `annotators` readers (paper: 12) over `sample`.
pub fn pilot_study(
    world: &World,
    corpus: &GeneratedCorpus,
    sample: &[usize],
    annotators: usize,
    seed: u64,
) -> PilotResult {
    let config = AnnotatorConfig {
        seed,
        annotators_per_doc: annotators,
        // With 12 annotators the agreement bar stays at 2, as in the paper.
        ..Default::default()
    };
    let gold = annotate_sample(world, corpus, sample, &config);

    // ---- missing-term rate ----------------------------------------------
    let mut present = 0usize;
    let mut total = 0usize;
    for (i, agreed) in gold.per_doc.iter().enumerate() {
        let text = lowercase(&corpus.db.docs()[gold.sample[i]].full_text());
        for &node in agreed {
            total += 1;
            if text.contains(&world.ontology.node(node).term) {
                present += 1;
            }
        }
    }
    let missing_rate = if total == 0 {
        0.0
    } else {
        1.0 - present as f64 / total as f64
    };

    // ---- facets by dimension ----------------------------------------------
    let mut per_root: HashMap<String, (usize, HashMap<String, usize>)> = HashMap::new();
    for (&node, &count) in gold.term_counts.iter().map(|(n, c)| (n, c)) {
        let root = world.ontology.root_of(node);
        let root_term = world.ontology.node(root).term.clone();
        let entry = per_root.entry(root_term).or_default();
        entry.0 += count;
        if node != root {
            // Track prominent sub-facets (direct children of the root are
            // the most table-I-like).
            let path = world.ontology.path(node);
            if path.len() >= 2 {
                let sub = world.ontology.node(path[1]).term.clone();
                *entry.1.entry(sub).or_insert(0) += count;
            }
        }
    }
    let mut dimensions: Vec<(String, usize, Vec<String>)> = per_root
        .into_iter()
        .map(|(root, (count, subs))| {
            let mut subs: Vec<(String, usize)> = subs.into_iter().collect();
            subs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            (
                root,
                count,
                subs.into_iter().take(2).map(|(s, _)| s).collect(),
            )
        })
        .collect();
    dimensions.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let top_terms: Vec<(String, usize)> = gold
        .term_counts
        .iter()
        .map(|&(n, c)| (world.ontology.node(n).term.clone(), c))
        .collect();

    PilotResult {
        dimensions,
        missing_rate,
        top_terms,
        gold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_corpus::{CorpusGenerator, GeneratorConfig};
    use facet_knowledge::WorldConfig;
    use facet_textkit::Vocabulary;

    fn setup() -> (World, GeneratedCorpus) {
        let world = World::generate(WorldConfig {
            seed: 81,
            countries: 10,
            cities_per_country: 2,
            people: 40,
            corporations: 12,
            organizations: 8,
            events: 6,
            extra_concepts: 20,
            topics: 30,
            gazetteer_coverage: 0.9,
            wordnet_city_coverage: 0.5,
            background_words: 100,
        });
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(
            &world,
            GeneratorConfig {
                n_docs: 60,
                ..Default::default()
            },
        )
        .generate(&mut vocab);
        (world, corpus)
    }

    #[test]
    fn major_dimensions_surface() {
        let (world, corpus) = setup();
        let sample: Vec<usize> = (0..60).collect();
        let pilot = pilot_study(&world, &corpus, &sample, 12, 7);
        let roots: Vec<&str> = pilot
            .dimensions
            .iter()
            .map(|(r, _, _)| r.as_str())
            .collect();
        // The Table I dimensions must appear.
        for expected in ["location", "people", "event"] {
            assert!(
                roots.contains(&expected),
                "missing dimension {expected}: {roots:?}"
            );
        }
    }

    #[test]
    fn most_facet_terms_missing_from_text() {
        let (world, corpus) = setup();
        let sample: Vec<usize> = (0..60).collect();
        let pilot = pilot_study(&world, &corpus, &sample, 12, 7);
        assert!(
            pilot.missing_rate > 0.4 && pilot.missing_rate < 0.95,
            "missing rate {} out of the plausible range",
            pilot.missing_rate
        );
    }

    #[test]
    fn top_terms_sorted() {
        let (world, corpus) = setup();
        let sample: Vec<usize> = (0..30).collect();
        let pilot = pilot_study(&world, &corpus, &sample, 5, 7);
        for w in pilot.top_terms.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
