#![allow(clippy::unwrap_used)]

//! Property-based tests for the synthetic Wikipedia over generated worlds.

use facet_knowledge::{World, WorldConfig};
use facet_wikipedia::{build_wikipedia, TitleIndex, WikipediaConfig, WikipediaGraph};
use proptest::prelude::*;

fn world_strategy() -> impl Strategy<Value = World> {
    (0u64..1000, 4usize..10, 10usize..40).prop_map(|(seed, countries, people)| {
        World::generate(WorldConfig {
            seed,
            countries,
            cities_per_country: 2,
            people,
            corporations: 8,
            organizations: 5,
            events: 4,
            extra_concepts: 10,
            topics: 12,
            gazetteer_coverage: 0.9,
            wordnet_city_coverage: 0.5,
            background_words: 80,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every link target is a valid page; association scores are finite
    /// and positive; query results never exceed k.
    #[test]
    fn graph_invariants(world in world_strategy()) {
        let bundle = build_wikipedia(&world, &WikipediaConfig::default());
        let n = bundle.wiki.len();
        for p in bundle.wiki.pages() {
            for l in &p.links {
                prop_assert!(l.index() < n, "dangling link");
            }
        }
        let graph = WikipediaGraph::new(&bundle.wiki, &bundle.redirects);
        for e in world.entities.iter().take(10) {
            let results = graph.query(&e.name);
            prop_assert!(results.len() <= graph.k);
            for (title, score) in &results {
                prop_assert!(score.is_finite());
                prop_assert!(*score >= 0.0, "negative association for {title}");
                prop_assert!(bundle.wiki.find_title(title).is_some());
            }
            // Scores are sorted descending.
            for w in results.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
            }
        }
    }

    /// Redirect resolution: every variant of every entity resolves to a
    /// page whose title is some entity's canonical name (collisions may
    /// divert to another entity, but never to nowhere).
    #[test]
    fn redirects_always_resolve(world in world_strategy()) {
        let bundle = build_wikipedia(&world, &WikipediaConfig::default());
        for e in &world.entities {
            for v in e.surface_forms().skip(1) {
                let resolved = bundle
                    .wiki
                    .find_title(v)
                    .or_else(|| bundle.redirects.resolve(v));
                prop_assert!(resolved.is_some(), "unresolvable variant {v}");
            }
        }
    }

    /// Title extraction returns non-overlapping, in-order matches whose
    /// keys are all indexed titles.
    #[test]
    fn title_extraction_invariants(world in world_strategy(), text_seed in 0usize..20) {
        let bundle = build_wikipedia(&world, &WikipediaConfig::default());
        let index = TitleIndex::build(&bundle.wiki, &bundle.redirects);
        // Build a text from entity mentions.
        let mut text = String::new();
        for (i, e) in world.entities.iter().enumerate().take(8) {
            if (i + text_seed) % 3 == 0 {
                text.push_str(&e.name);
                text.push_str(" met ");
            }
        }
        text.push_str("everyone else.");
        let hits = index.extract(&text);
        for (term, page) in &hits {
            prop_assert!(!term.is_empty());
            prop_assert!(page.index() < bundle.wiki.len());
        }
    }
}
