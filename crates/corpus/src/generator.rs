//! The synthetic news-archive generator.
//!
//! Articles are generated from the world's topics. Each article:
//!
//! 1. samples a topic (Zipfian in topic popularity, with per-day drift for
//!    multi-day datasets),
//! 2. mentions the topic's protagonist plus a sampled supporting cast,
//!    using randomly chosen surface forms ("Jacques Chirac" / "Chirac" /
//!    "President Chirac"),
//! 3. uses the topic's concept nouns,
//! 4. *rarely* leaks latent facet terms into the text (the
//!    [`GeneratorConfig::facet_leak_rate`]); the pilot study of Section III
//!    found ~65% of annotator-chosen facet terms absent from story text,
//!    and the leak rate is calibrated to reproduce that,
//! 5. pads with Zipfian background vocabulary through sentence templates.
//!
//! The generator returns both the documents and per-document gold
//! annotations ([`crate::gold::DocGold`]) for the evaluation harness.

use crate::db::TextDatabase;
use crate::document::{DocId, Document};
use crate::gold::DocGold;
use facet_knowledge::{EntityId, FacetNodeId, World};
use facet_textkit::{Vocabulary, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Seed for the article RNG (independent of the world seed).
    pub seed: u64,
    /// Number of documents to generate.
    pub n_docs: usize,
    /// Number of news sources (1 for NYT-style, 24 for Newsblaster-style).
    pub n_sources: u16,
    /// Number of days the dataset spans (1 for single-day, 30 for MNYT).
    pub n_days: u16,
    /// Probability that a latent facet term of the story is mentioned
    /// verbatim in the text.
    pub facet_leak_rate: f64,
    /// Sentence-count range per article.
    pub sentences: (usize, usize),
    /// Zipf exponent for background-word sampling.
    pub background_exponent: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            n_docs: 1000,
            n_sources: 1,
            n_days: 1,
            facet_leak_rate: 0.22,
            sentences: (10, 22),
            background_exponent: 1.05,
        }
    }
}

/// A generated corpus: the text database plus per-document gold labels.
#[derive(Debug)]
pub struct GeneratedCorpus {
    /// The documents and their frequency statistics.
    pub db: TextDatabase,
    /// Per-document ground truth, parallel to `db.docs()`.
    pub gold: Vec<DocGold>,
}

/// Sentence templates. `{E}` = entity mention, `{C}` = concept noun,
/// `{B}` = background word. Slots may repeat.
const TEMPLATES: &[&str] = &[
    "{E} said on Tuesday that the {C} would reshape the {B} debate.",
    "Officials close to {E} described the {C} as a turning point for the {B}.",
    "The {C} drew sharp reactions after {E} addressed reporters about the {B}.",
    "Analysts said the {B} surrounding the {C} could weigh on {E} for months.",
    "{E} and {E} discussed the {C} during a closed meeting on the {B}.",
    "A spokesman for {E} declined to comment on the {C}, citing the ongoing {B}.",
    "Critics of {E} argued that the {C} ignored years of {B} warnings.",
    "The {B} report described how the {C} unfolded while {E} stayed silent.",
    "Supporters of {E} welcomed the {C}, calling the {B} concerns overstated.",
    "After weeks of {B}, {E} confirmed that the {C} was under review.",
    "People familiar with the {C} said {E} pressed for changes to the {B} plan.",
    "{E} faced new questions about the {C} as the {B} deepened.",
];

/// Templates used to leak a facet term into the text (the `{F}` slot).
/// Connective words are stopwords, so the leak adds the facet term and
/// nothing else to the countable vocabulary.
const LEAK_TEMPLATES: &[&str] = &[
    "All of this is about {F}.",
    "More on {F} here.",
    "And {F} again.",
    "It is, again, about {F}.",
    "This is what {F} is now.",
];

/// Generates articles about a world.
#[derive(Debug)]
pub struct CorpusGenerator<'w> {
    world: &'w World,
    config: GeneratorConfig,
}

impl<'w> CorpusGenerator<'w> {
    /// Create a generator over `world` with `config`.
    pub fn new(world: &'w World, config: GeneratorConfig) -> Self {
        Self { world, config }
    }

    /// Generate the corpus, interning document terms into `vocab`.
    pub fn generate(&self, vocab: &mut Vocabulary) -> GeneratedCorpus {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let topic_zipf = Zipf::new(self.world.topics.len(), 0.85);
        let bg_zipf = Zipf::new(self.world.background.len(), self.config.background_exponent);

        let mut docs = Vec::with_capacity(self.config.n_docs);
        let mut gold = Vec::with_capacity(self.config.n_docs);

        for di in 0..self.config.n_docs {
            let source = (di as u16) % self.config.n_sources.max(1);
            let day = if self.config.n_days <= 1 {
                0
            } else {
                // Spread documents over days uniformly.
                ((di * self.config.n_days as usize) / self.config.n_docs) as u16
            };
            let (doc, g) =
                self.generate_article(di as u32, source, day, &topic_zipf, &bg_zipf, &mut rng);
            docs.push(doc);
            gold.push(g);
        }

        let db = TextDatabase::build(docs, vocab);
        GeneratedCorpus { db, gold }
    }

    /// Sample a topic id with per-day drift: each day boosts a rotating
    /// subset of topics so multi-day datasets cover more of the world.
    fn sample_topic(&self, day: u16, zipf: &Zipf, rng: &mut StdRng) -> usize {
        let n = self.world.topics.len();
        let base = zipf.sample(rng.gen::<f64>());
        if self.config.n_days <= 1 {
            return base;
        }
        // With probability 0.35, pick from the day's "active window".
        if rng.gen_bool(0.35) {
            let window = (n / self.config.n_days as usize).max(1);
            let start = (day as usize * window) % n;
            (start + rng.gen_range(0..window)) % n
        } else {
            base
        }
    }

    fn generate_article(
        &self,
        id: u32,
        source: u16,
        day: u16,
        topic_zipf: &Zipf,
        bg_zipf: &Zipf,
        rng: &mut StdRng,
    ) -> (Document, DocGold) {
        let w = self.world;
        let topic = &w.topics[self.sample_topic(day, topic_zipf, rng)];

        // --- choose the cast -------------------------------------------------
        let mut entities: Vec<EntityId> = vec![topic.entities[0]];
        for &e in topic.entities.iter().skip(1) {
            if rng.gen_bool(0.6) {
                entities.push(e);
            }
        }
        // Drive-by mentions of unrelated entities (adds realistic noise).
        for _ in 0..rng.gen_range(0..=2) {
            let e = EntityId(rng.gen_range(0..w.entities.len() as u32));
            entities.push(e);
        }
        entities.dedup();

        let mut concepts = Vec::new();
        for &c in &topic.concepts {
            if rng.gen_bool(0.7) {
                concepts.push(c);
            }
        }
        for _ in 0..rng.gen_range(1..=3) {
            concepts.push(facet_knowledge::ConceptId(
                rng.gen_range(0..w.concepts.len() as u32),
            ));
        }
        concepts.sort();
        concepts.dedup();

        // --- latent facets ----------------------------------------------------
        let mut facets: Vec<FacetNodeId> = Vec::new();
        for &e in &entities {
            facets.extend(w.entity_facet_closure(e));
        }
        for &c in &concepts {
            let leaf = w.concept(c).facet;
            facets.extend(w.ontology.path(leaf));
        }
        facets.extend(w.ontology.path(topic.facets[0]));
        facets.sort();
        facets.dedup();

        // --- render text -------------------------------------------------------
        // A story picks one surface form per entity and sticks to it
        // (house style): the per-document choice is what lets variant-only
        // stories exist, which the Wikipedia Synonyms resource later
        // consolidates onto canonical names.
        let mut chosen_form: std::collections::HashMap<EntityId, String> =
            std::collections::HashMap::new();
        for &e in &entities {
            let ent = w.entity(e);
            let form = if let Some(alt) = &ent.alt_name {
                let roll: f64 = rng.gen();
                if roll < 0.45 {
                    alt.clone()
                } else if roll < 0.55 && !ent.variants.is_empty() {
                    ent.variants[rng.gen_range(0..ent.variants.len())].clone()
                } else {
                    ent.name.clone()
                }
            } else if ent.variants.is_empty() || rng.gen_bool(0.5) {
                ent.name.clone()
            } else {
                ent.variants[rng.gen_range(0..ent.variants.len())].clone()
            };
            chosen_form.insert(e, form);
        }
        let mention = |_rng: &mut StdRng, e: EntityId| -> String {
            chosen_form
                .get(&e)
                .cloned()
                .unwrap_or_else(|| w.entity(e).name.clone())
        };
        let bg = |rng: &mut StdRng| -> &str {
            let i = bg_zipf.sample(rng.gen::<f64>());
            &w.background[i]
        };
        let concept_word = |rng: &mut StdRng, concepts: &[facet_knowledge::ConceptId]| -> String {
            let c = concepts[rng.gen_range(0..concepts.len())];
            w.concept(c).noun.clone()
        };

        let n_sentences = rng.gen_range(self.config.sentences.0..=self.config.sentences.1);
        let mut body = String::new();
        for si in 0..n_sentences {
            // Rotate templates per source so multi-source corpora differ in
            // style without differing in substance.
            let t_idx = (rng.gen_range(0..TEMPLATES.len()) + source as usize) % TEMPLATES.len();
            let template = TEMPLATES[t_idx];
            let mut sentence = String::with_capacity(template.len() + 32);
            let mut rest = template;
            while let Some(pos) = rest.find('{') {
                sentence.push_str(&rest[..pos]);
                // A malformed template (unclosed brace, unknown slot) is
                // emitted literally rather than panicking: the built-in
                // TEMPLATES are all well-formed, so this path only matters
                // for future hand-edited template sets.
                let Some(close) = rest[pos..].find('}').map(|c| c + pos) else {
                    sentence.push_str(&rest[pos..]);
                    rest = "";
                    break;
                };
                let slot = &rest[pos + 1..close];
                match slot {
                    "E" => {
                        let i = rng.gen_range(0..entities.len());
                        sentence.push_str(&mention(rng, entities[i]));
                    }
                    "C" => sentence.push_str(&concept_word(rng, &concepts)),
                    "B" => sentence.push_str(bg(rng)),
                    other => {
                        sentence.push('{');
                        sentence.push_str(other);
                        sentence.push('}');
                    }
                }
                rest = &rest[close + 1..];
            }
            sentence.push_str(rest);
            if si > 0 {
                body.push(' ');
            }
            body.push_str(&sentence);
        }

        // --- facet leaks -------------------------------------------------------
        // Journalists occasionally write a general term out; at most a few
        // per story, so leaks season the text without flooding it.
        let mut leaked = Vec::new();
        let max_leaks = 7usize;
        for &f in &facets {
            if leaked.len() >= max_leaks {
                break;
            }
            if rng.gen_bool(self.config.facet_leak_rate) {
                let term = &w.ontology.node(f).term;
                let template = LEAK_TEMPLATES[rng.gen_range(0..LEAK_TEMPLATES.len())];
                body.push(' ');
                body.push_str(&template.replace("{F}", term));
                leaked.push(f);
            }
        }

        let title = format!(
            "{} and the {} {}",
            mention(rng, entities[0]),
            bg(rng),
            concept_word(rng, &concepts),
        );

        let doc = Document {
            id: DocId(id),
            source,
            day,
            title,
            text: body,
        };
        let g = DocGold {
            topic: topic.id,
            entities,
            concepts,
            facets,
            leaked_facets: leaked,
        };
        (doc, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_knowledge::WorldConfig;

    fn small_world() -> World {
        World::generate(WorldConfig {
            seed: 21,
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
    fn generates_requested_count() {
        let w = small_world();
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(
            &w,
            GeneratorConfig {
                n_docs: 25,
                ..Default::default()
            },
        )
        .generate(&mut vocab);
        assert_eq!(corpus.db.len(), 25);
        assert_eq!(corpus.gold.len(), 25);
    }

    #[test]
    fn deterministic() {
        let w = small_world();
        let gen = |w: &World| {
            let mut vocab = Vocabulary::new();
            let c = CorpusGenerator::new(
                w,
                GeneratorConfig {
                    n_docs: 10,
                    ..Default::default()
                },
            )
            .generate(&mut vocab);
            c.db.docs()
                .iter()
                .map(|d| d.text.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(&w), gen(&w));
    }

    #[test]
    fn protagonist_always_mentioned() {
        let w = small_world();
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(
            &w,
            GeneratorConfig {
                n_docs: 30,
                ..Default::default()
            },
        )
        .generate(&mut vocab);
        for (doc, gold) in corpus.db.docs().iter().zip(&corpus.gold) {
            let protagonist = w.topic(gold.topic).entities[0];
            assert_eq!(gold.entities[0], protagonist);
            // At least one surface form of some mentioned entity is in the
            // text (mentions are drawn from surface forms).
            let ent = w.entity(protagonist);
            let text = doc.full_text();
            let mentioned = ent.surface_forms().any(|f| text.contains(f));
            assert!(mentioned, "protagonist not found in text: {}", ent.name);
        }
    }

    #[test]
    fn facet_terms_mostly_absent_from_text() {
        let w = small_world();
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(
            &w,
            GeneratorConfig {
                n_docs: 60,
                ..Default::default()
            },
        )
        .generate(&mut vocab);
        let mut present = 0usize;
        let mut total = 0usize;
        for (doc, gold) in corpus.db.docs().iter().zip(&corpus.gold) {
            let text = doc.full_text().to_lowercase();
            for &f in &gold.facets {
                total += 1;
                if text.contains(&w.ontology.node(f).term) {
                    present += 1;
                }
            }
        }
        let rate = present as f64 / total as f64;
        // The Section III phenomenon: well under half of latent facet terms
        // appear in text. (Location names pull the rate up because cities
        // and countries are mentioned as entities.)
        assert!(rate < 0.55, "facet-term presence rate too high: {rate}");
        assert!(
            rate > 0.02,
            "facet-term presence rate implausibly low: {rate}"
        );
    }

    #[test]
    fn leaked_facets_do_appear() {
        let w = small_world();
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(
            &w,
            GeneratorConfig {
                n_docs: 40,
                facet_leak_rate: 0.3,
                ..Default::default()
            },
        )
        .generate(&mut vocab);
        for (doc, gold) in corpus.db.docs().iter().zip(&corpus.gold) {
            let text = doc.full_text().to_lowercase();
            for &f in &gold.leaked_facets {
                assert!(
                    text.contains(&w.ontology.node(f).term),
                    "leaked facet {} missing",
                    w.ontology.node(f).term
                );
            }
        }
    }

    #[test]
    fn sources_and_days_assigned() {
        let w = small_world();
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(
            &w,
            GeneratorConfig {
                n_docs: 48,
                n_sources: 24,
                n_days: 4,
                ..Default::default()
            },
        )
        .generate(&mut vocab);
        let sources: std::collections::HashSet<u16> =
            corpus.db.docs().iter().map(|d| d.source).collect();
        assert_eq!(sources.len(), 24);
        let days: std::collections::HashSet<u16> = corpus.db.docs().iter().map(|d| d.day).collect();
        assert_eq!(days.len(), 4);
    }
}
