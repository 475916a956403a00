//! Seeded generation of a complete world: ontology, entities, concepts,
//! topics, and background vocabulary.
//!
//! The generated world is the single source of truth that every substrate
//! (corpus, Wikipedia, WordNet, web search, NER gazetteer, simulated
//! annotators) derives from. All generation is driven by one `StdRng`
//! seeded from [`WorldConfig::seed`], so a config fully determines the
//! world.

use crate::concept::{Concept, ConceptId};
use crate::entity::{Entity, EntityId, EntityKind};
use crate::names::{NameForge, GENERIC_NEWS_WORDS, HONORIFICS};
use crate::ontology::{FacetNodeId, FacetOntology};
use crate::topic::{Topic, TopicId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for world generation. The defaults produce a world sized
/// for the paper's SNYT experiments; the dataset recipes in `facet-corpus`
/// scale from here.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; two worlds with equal configs are identical.
    pub seed: u64,
    /// Number of countries (each becomes a Location entity and facet node).
    pub countries: usize,
    /// Cities generated per country.
    pub cities_per_country: usize,
    /// Number of person entities.
    pub people: usize,
    /// Number of corporation entities.
    pub corporations: usize,
    /// Number of non-commercial organization entities.
    pub organizations: usize,
    /// Number of named-event entities.
    pub events: usize,
    /// Number of *generated* concept nouns, in addition to the curated set.
    pub extra_concepts: usize,
    /// Number of news topics.
    pub topics: usize,
    /// Fraction of entities present in the NER gazetteer.
    pub gazetteer_coverage: f64,
    /// Fraction of city entities covered by the mini-WordNet (countries and
    /// regions are always covered, mirroring real WordNet's geography).
    pub wordnet_city_coverage: f64,
    /// Size of the generated background (filler) vocabulary.
    pub background_words: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0xFACE7,
            countries: 80,
            cities_per_country: 6,
            people: 600,
            corporations: 250,
            organizations: 120,
            events: 90,
            extra_concepts: 250,
            topics: 400,
            gazetteer_coverage: 0.92,
            wordnet_city_coverage: 0.6,
            background_words: 12_000,
        }
    }
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// The configuration used to generate the world.
    pub config: WorldConfig,
    /// The latent facet ontology.
    pub ontology: FacetOntology,
    /// Entity catalog; `EntityId(i)` indexes this vector.
    pub entities: Vec<Entity>,
    /// Concept-noun catalog; `ConceptId(i)` indexes this vector.
    pub concepts: Vec<Concept>,
    /// Topic catalog; `TopicId(i)` indexes this vector.
    pub topics: Vec<Topic>,
    /// Background vocabulary: generic news words first, then generated
    /// filler words, in decreasing intended frequency rank.
    pub background: Vec<String>,
}

/// World regions (location facet children). Real continent names keep the
/// generated output readable; everything below them is synthetic.
pub const REGIONS: &[&str] = &[
    "Europe",
    "Asia",
    "Africa",
    "Americas",
    "Oceania",
    "Middle East",
];

/// Person occupation facets: (parent occupation, sub-occupations).
const OCCUPATIONS: &[(&str, &[&str])] = &[
    (
        "political leaders",
        &[
            "presidents",
            "senators",
            "ministers",
            "governors",
            "diplomats",
        ],
    ),
    (
        "business executives",
        &["chief executives", "founders", "investors"],
    ),
    (
        "athletes",
        &["tennis players", "footballers", "sprinters", "swimmers"],
    ),
    (
        "artists",
        &["painters", "novelists", "film directors", "musicians"],
    ),
    ("scientists", &["physicists", "biologists", "economists"]),
    ("journalists", &["columnists", "correspondents"]),
    ("religious leaders", &["bishops", "imams"]),
    ("activists", &["environmentalists", "union leaders"]),
];

/// Corporate sector facets: (sector, subsectors).
const SECTORS: &[(&str, &[&str])] = &[
    (
        "technology",
        &["software", "semiconductors", "internet services"],
    ),
    ("energy", &["oil and gas", "renewables", "utilities"]),
    ("finance", &["banking", "insurance", "hedge funds"]),
    ("retail", &["supermarkets", "fashion"]),
    ("media", &["broadcasting", "publishing"]),
    ("transport", &["airlines", "railways", "shipping"]),
    ("agriculture", &["grain", "livestock"]),
    ("pharmaceuticals", &["biotech", "generic drugs"]),
];

/// Institute facets.
const INSTITUTES: &[&str] = &[
    "universities",
    "government agencies",
    "international organizations",
    "research institutes",
    "museums",
];

/// Social-phenomenon facets.
const SOCIAL: &[&str] = &[
    "politics",
    "war",
    "terrorism",
    "crime",
    "education",
    "health",
    "religion",
    "poverty",
    "corruption",
    "migration",
    "protest",
    "human rights",
    "censorship",
    "inequality",
];

/// Nature facets.
const NATURE: &[&str] = &[
    "weather",
    "climate change",
    "natural disaster",
    "wildlife",
    "conservation",
    "pollution",
    "oceans",
    "forests",
];

/// Event-kind facets.
const EVENT_KINDS: &[&str] = &[
    "election",
    "summit",
    "trial",
    "championship",
    "festival",
    "merger",
    "scandal",
    "strike",
    "ceremony",
    "invasion",
    "negotiation",
];

/// History facets.
const HISTORY: &[&str] = &["colonial era", "cold war", "ancient history", "revolution"];

/// Market facets that are not the corporations subtree.
const MARKET_TERMS: &[&str] = &["stocks", "trade", "employment", "inflation"];

/// Deeper facet refinements: (parent term, children). Applied after the
/// second-level skeleton; gives annotators specific terms to choose
/// ("civil war", "global warming") and the ontology paper-scale breadth.
const REFINEMENTS: &[(&str, &[&str])] = &[
    (
        "politics",
        &["domestic policy", "foreign policy", "diplomacy"],
    ),
    ("war", &["civil war", "military conflict"]),
    ("terrorism", &["counterterrorism"]),
    ("crime", &["organized crime", "white collar crime"]),
    ("education", &["higher education", "public schools"]),
    ("health", &["public health", "mental health"]),
    ("religion", &["religious institutions"]),
    ("poverty", &["food insecurity"]),
    ("corruption", &["political corruption"]),
    ("migration", &["immigration policy"]),
    ("protest", &["labor unrest"]),
    ("human rights", &["civil liberties"]),
    ("censorship", &["press freedom"]),
    ("inequality", &["income inequality"]),
    ("weather", &["severe weather"]),
    ("climate change", &["global warming"]),
    ("natural disaster", &["seismic events", "flooding"]),
    ("wildlife", &["endangered species"]),
    ("conservation", &["protected areas"]),
    ("pollution", &["air pollution", "water pollution"]),
    ("oceans", &["marine life"]),
    ("forests", &["deforestation"]),
    ("election", &["presidential election", "local elections"]),
    ("summit", &["international summit"]),
    ("trial", &["criminal trial", "civil lawsuit"]),
    ("championship", &["world championship"]),
    ("festival", &["film festival", "music festival"]),
    ("merger", &["corporate merger"]),
    ("scandal", &["political scandal"]),
    ("strike", &["labor strike"]),
    ("ceremony", &["award ceremony"]),
    ("invasion", &["military invasion"]),
    ("negotiation", &["peace talks", "trade talks"]),
    ("colonial era", &["independence movements"]),
    ("cold war", &["arms race"]),
    ("ancient history", &["archaeology"]),
    ("revolution", &["political revolution"]),
    ("stocks", &["stock market", "bond market"]),
    ("trade", &["international trade"]),
    ("employment", &["labor market"]),
    ("inflation", &["cost of living"]),
    ("universities", &["medical schools", "law schools"]),
    (
        "government agencies",
        &["regulators", "intelligence services"],
    ),
    ("international organizations", &["development agencies"]),
    ("research institutes", &["think tanks"]),
    ("museums", &["art museums"]),
    ("presidents", &["heads of state"]),
    ("senators", &["legislators"]),
    ("chief executives", &["technology executives"]),
    ("software", &["enterprise software"]),
    ("banking", &["retail banking", "investment banking"]),
    ("airlines", &["budget airlines"]),
    ("biotech", &["drug development"]),
];

/// Curated concept nouns: (noun, facet leaf term it evokes).
/// The facet leaf term must exist in the skeleton above.
const CURATED_CONCEPTS: &[(&str, &str)] = &[
    ("ballot", "election"),
    ("runoff", "election"),
    ("exit poll", "election"),
    ("incumbent", "election"),
    ("legislation", "politics"),
    ("parliament", "politics"),
    ("referendum", "politics"),
    ("coalition", "politics"),
    ("veto", "politics"),
    ("lobbying", "politics"),
    ("ceasefire", "war"),
    ("insurgency", "war"),
    ("artillery", "war"),
    ("battalion", "war"),
    ("airstrike", "war"),
    ("bombing", "terrorism"),
    ("hostage", "terrorism"),
    ("extremist", "terrorism"),
    ("robbery", "crime"),
    ("fraud", "crime"),
    ("homicide", "crime"),
    ("smuggling", "crime"),
    ("arson", "crime"),
    ("curriculum", "education"),
    ("tuition", "education"),
    ("literacy", "education"),
    ("classroom", "education"),
    ("vaccine", "health"),
    ("epidemic", "health"),
    ("obesity", "health"),
    ("clinic", "health"),
    ("surgery", "health"),
    ("pilgrimage", "religion"),
    ("clergy", "religion"),
    ("monastery", "religion"),
    ("famine", "poverty"),
    ("homelessness", "poverty"),
    ("slum", "poverty"),
    ("bribery", "corruption"),
    ("embezzlement", "corruption"),
    ("kickback", "corruption"),
    ("refugee", "migration"),
    ("asylum", "migration"),
    ("demonstration", "protest"),
    ("picket", "protest"),
    ("riot", "protest"),
    ("dividend", "stocks"),
    ("portfolio", "stocks"),
    ("shares", "stocks"),
    ("tariff", "trade"),
    ("export", "trade"),
    ("embargo", "trade"),
    ("layoff", "employment"),
    ("payroll", "employment"),
    ("pension", "employment"),
    ("consumer prices", "inflation"),
    ("subsidiary", "corporations"),
    ("boardroom", "corporations"),
    ("blizzard", "weather"),
    ("heatwave", "weather"),
    ("monsoon", "weather"),
    ("emissions", "climate change"),
    ("glacier", "climate change"),
    ("earthquake", "natural disaster"),
    ("drought", "natural disaster"),
    ("flood", "natural disaster"),
    ("hurricane", "natural disaster"),
    ("wildfire", "natural disaster"),
    ("landslide", "natural disaster"),
    ("poaching", "wildlife"),
    ("habitat", "wildlife"),
    ("reforestation", "conservation"),
    ("sanctuary", "conservation"),
    ("smog", "pollution"),
    ("sewage", "pollution"),
    ("coral reef", "oceans"),
    ("fishery", "oceans"),
    ("logging", "forests"),
    ("timber", "forests"),
    ("communique", "summit"),
    ("delegation", "summit"),
    ("verdict", "trial"),
    ("indictment", "trial"),
    ("testimony", "trial"),
    ("jury", "trial"),
    ("playoff", "championship"),
    ("tournament", "championship"),
    ("medal", "championship"),
    ("parade", "festival"),
    ("carnival", "festival"),
    ("acquisition", "merger"),
    ("buyout", "merger"),
    ("walkout", "strike"),
    ("union", "strike"),
    ("inauguration", "ceremony"),
    ("coronation", "ceremony"),
    ("incursion", "invasion"),
    ("treaty", "negotiation"),
    ("accord", "negotiation"),
    ("mediation", "negotiation"),
    ("empire", "colonial era"),
    ("espionage", "cold war"),
    ("uprising", "revolution"),
    ("excavation", "ancient history"),
    ("deportation", "human rights"),
    ("blacklist", "censorship"),
    ("wage gap", "inequality"),
];

impl World {
    /// Generate a world from `config`. Deterministic in the config.
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut forge = NameForge::new();
        let mut ontology = FacetOntology::new();

        // ---- Facet skeleton -------------------------------------------------
        let location_root = ontology.add_root("location");
        let people_root = ontology.add_root("people");
        let institutes_root = ontology.add_root("institutes");
        let markets_root = ontology.add_root("markets");
        let social_root = ontology.add_root("social phenomenon");
        let nature_root = ontology.add_root("nature");
        let event_root = ontology.add_root("event");
        let history_root = ontology.add_root("history");

        let mut occupation_leaves: Vec<FacetNodeId> = Vec::new();
        for (occ, subs) in OCCUPATIONS {
            let o = ontology.add_child(people_root, occ);
            for s in *subs {
                occupation_leaves.push(ontology.add_child(o, s));
            }
        }
        let mut institute_leaves = Vec::new();
        for inst in INSTITUTES {
            institute_leaves.push(ontology.add_child(institutes_root, inst));
        }
        let corporations_node = ontology.add_child(markets_root, "corporations");
        let mut sector_leaves = Vec::new();
        for (sector, subs) in SECTORS {
            let s = ontology.add_child(corporations_node, sector);
            for sub in *subs {
                sector_leaves.push(ontology.add_child(s, sub));
            }
        }
        for m in MARKET_TERMS {
            ontology.add_child(markets_root, m);
        }
        let mut social_leaves = Vec::new();
        for s in SOCIAL {
            social_leaves.push(ontology.add_child(social_root, s));
        }
        let mut nature_leaves = Vec::new();
        for n in NATURE {
            nature_leaves.push(ontology.add_child(nature_root, n));
        }
        let mut event_leaves = Vec::new();
        for e in EVENT_KINDS {
            event_leaves.push(ontology.add_child(event_root, e));
        }
        for h in HISTORY {
            ontology.add_child(history_root, h);
        }
        // Third-level refinements under existing facets.
        let mut refinement_leaves: Vec<FacetNodeId> = Vec::new();
        for (parent_term, children) in REFINEMENTS {
            let parent = ontology
                .find(parent_term)
                .unwrap_or_else(|| panic!("refinement parent {parent_term} missing"));
            for c in *children {
                refinement_leaves.push(ontology.add_child(parent, c));
            }
        }

        // Reserve all facet terms so generated entity names cannot clash.
        let facet_terms: Vec<String> = ontology.terms().map(str::to_string).collect();
        for t in &facet_terms {
            forge.reserve(t);
        }

        // ---- Location entities (regions, countries, cities) ----------------
        let mut entities: Vec<Entity> = Vec::new();
        let push_entity = |entities: &mut Vec<Entity>, mut e: Entity| -> EntityId {
            let id = EntityId(entities.len() as u32);
            e.id = id;
            entities.push(e);
            id
        };

        let mut region_nodes = Vec::new();
        let mut region_entities = Vec::new();
        for region in REGIONS {
            let node = ontology.add_child(location_root, region);
            region_nodes.push(node);
            let id = push_entity(
                &mut entities,
                Entity {
                    id: EntityId(0),
                    name: (*region).to_string(),
                    kind: EntityKind::Location,
                    variants: vec![],
                    alt_name: None,
                    facets: vec![node],
                    related: vec![],
                    popularity: 0.9,
                    in_wordnet: true,
                    in_gazetteer: true,
                    self_facet: Some(node),
                },
            );
            region_entities.push(id);
        }

        let mut country_nodes = Vec::new();
        let mut country_entities = Vec::new();
        let mut city_entities = Vec::new();
        for ci in 0..config.countries {
            let name = forge.country(&mut rng);
            let region_idx = ci % region_nodes.len();
            let node = ontology.add_child(region_nodes[region_idx], &name);
            country_nodes.push(node);
            let popularity = zipf_pop(ci, config.countries);
            // Every country has at least one variant form; documents use
            // variants often, which is what the Wikipedia Synonyms
            // resource consolidates back onto the canonical name.
            let variants = if rng.gen_bool(0.5) {
                vec![format!("Republic of {name}")]
            } else {
                vec![format!("{name} Union")]
            };
            // Every country carries an unrelated historical name (think
            // Burma/Myanmar), still in wide journalistic use.
            let alt_name = Some(forge.country(&mut rng));
            let cid = push_entity(
                &mut entities,
                Entity {
                    id: EntityId(0),
                    name: name.clone(),
                    kind: EntityKind::Location,
                    variants,
                    alt_name,
                    facets: vec![node],
                    related: vec![region_entities[region_idx]],
                    popularity,
                    in_wordnet: true,
                    in_gazetteer: true,
                    self_facet: Some(node),
                },
            );
            country_entities.push(cid);
            for _ in 0..config.cities_per_country {
                let city = forge.city(&mut rng);
                let city_node = ontology.add_child(node, &city);
                let in_wordnet = rng.gen_bool(config.wordnet_city_coverage);
                let city_variants = if city.to_lowercase().ends_with("city") {
                    vec![]
                } else {
                    vec![format!("{city} City")]
                };
                let city_alt = if rng.gen_bool(0.5) {
                    Some(forge.city(&mut rng))
                } else {
                    None
                };
                let id = push_entity(
                    &mut entities,
                    Entity {
                        id: EntityId(0),
                        name: city,
                        kind: EntityKind::Location,
                        variants: city_variants,
                        alt_name: city_alt,
                        facets: vec![city_node],
                        related: vec![cid],
                        popularity: popularity * rng.gen_range(0.2..0.9),
                        in_wordnet,
                        in_gazetteer: rng.gen_bool(config.gazetteer_coverage),
                        self_facet: Some(city_node),
                    },
                );
                city_entities.push(id);
            }
        }

        // ---- People ---------------------------------------------------------
        let mut person_entities = Vec::new();
        for pi in 0..config.people {
            let (full, given, surname) = forge.person(&mut rng);
            let occupation = occupation_leaves[rng.gen_range(0..occupation_leaves.len())];
            let country_idx = rng.gen_range(0..country_entities.len());
            let country_node = country_nodes[country_idx];
            let mut variants = vec![surname.clone()];
            let initial: String = given.chars().next().into_iter().collect();
            variants.push(format!("{initial}. {surname}"));
            if rng.gen_bool(0.3) {
                let h = HONORIFICS[rng.gen_range(0..HONORIFICS.len())];
                variants.push(format!("{h} {surname}"));
            }
            let id = push_entity(
                &mut entities,
                Entity {
                    id: EntityId(0),
                    name: full,
                    kind: EntityKind::Person,
                    variants,
                    alt_name: None,
                    facets: vec![occupation, country_node],
                    related: vec![country_entities[country_idx]],
                    popularity: zipf_pop(pi, config.people),
                    in_wordnet: false,
                    in_gazetteer: rng.gen_bool(config.gazetteer_coverage),
                    self_facet: None,
                },
            );
            person_entities.push(id);
        }

        // ---- Corporations ---------------------------------------------------
        let mut corp_entities = Vec::new();
        for ci in 0..config.corporations {
            let name = forge.corporation(&mut rng);
            let sector = sector_leaves[rng.gen_range(0..sector_leaves.len())];
            let country_idx = rng.gen_range(0..country_entities.len());
            let short = name.split(' ').next().unwrap_or(&name).to_string();
            // A short form only when it is a safe, distinctive token.
            let variants = if short != name && short.len() >= 4 {
                vec![short]
            } else {
                vec![]
            };
            let id = push_entity(
                &mut entities,
                Entity {
                    id: EntityId(0),
                    name,
                    kind: EntityKind::Corporation,
                    variants,
                    alt_name: None,
                    facets: vec![sector, country_nodes[country_idx]],
                    related: vec![country_entities[country_idx]],
                    popularity: zipf_pop(ci, config.corporations),
                    in_wordnet: false,
                    in_gazetteer: rng.gen_bool(config.gazetteer_coverage),
                    self_facet: None,
                },
            );
            corp_entities.push(id);
        }

        // ---- Organizations --------------------------------------------------
        let mut org_entities = Vec::new();
        for oi in 0..config.organizations {
            let name = forge.organization(&mut rng);
            let inst = institute_leaves[rng.gen_range(0..institute_leaves.len())];
            let country_idx = rng.gen_range(0..country_entities.len());
            let id = push_entity(
                &mut entities,
                Entity {
                    id: EntityId(0),
                    name,
                    kind: EntityKind::Organization,
                    variants: vec![],
                    alt_name: None,
                    facets: vec![inst, country_nodes[country_idx]],
                    related: vec![country_entities[country_idx]],
                    popularity: zipf_pop(oi, config.organizations),
                    in_wordnet: false,
                    in_gazetteer: rng.gen_bool(config.gazetteer_coverage),
                    self_facet: None,
                },
            );
            org_entities.push(id);
        }

        // ---- Named events ---------------------------------------------------
        let mut event_entities = Vec::new();
        for ei in 0..config.events {
            // Retry kind/country/year combinations until the name is fresh.
            let (kind_leaf, country_idx, name, kind_title, country_name) = loop {
                let kind_idx = rng.gen_range(0..EVENT_KINDS.len());
                let country_idx = rng.gen_range(0..country_entities.len());
                let country_name = entities[country_entities[country_idx].index()].name.clone();
                let year = 2001 + rng.gen_range(0..6);
                let kind_title = title_case(EVENT_KINDS[kind_idx]);
                let name = format!("{year} {country_name} {kind_title}");
                if !forge.is_used(&name) {
                    forge.reserve(&name);
                    break (
                        event_leaves[kind_idx],
                        country_idx,
                        name,
                        kind_title,
                        country_name,
                    );
                }
            };
            let variants = vec![format!("{country_name} {kind_title}")];
            let id = push_entity(
                &mut entities,
                Entity {
                    id: EntityId(0),
                    name,
                    kind: EntityKind::Event,
                    variants,
                    alt_name: None,
                    facets: vec![kind_leaf, country_nodes[country_idx]],
                    related: vec![country_entities[country_idx]],
                    popularity: zipf_pop(ei, config.events),
                    in_wordnet: false,
                    in_gazetteer: rng.gen_bool(config.gazetteer_coverage),
                    self_facet: None,
                },
            );
            event_entities.push(id);
        }

        // Cross-link related entities: people <-> corporations/orgs/events.
        for &pid in &person_entities {
            if rng.gen_bool(0.5) && !corp_entities.is_empty() {
                let c = corp_entities[rng.gen_range(0..corp_entities.len())];
                entities[pid.index()].related.push(c);
            }
            if rng.gen_bool(0.25) && !event_entities.is_empty() {
                let e = event_entities[rng.gen_range(0..event_entities.len())];
                entities[pid.index()].related.push(e);
            }
        }

        // ---- Concepts -------------------------------------------------------
        let mut concepts: Vec<Concept> = Vec::new();
        for (noun, leaf_term) in CURATED_CONCEPTS {
            let leaf = ontology.find(leaf_term).unwrap_or_else(|| {
                panic!("curated concept {noun} references unknown facet {leaf_term}")
            });
            let chain: Vec<String> = {
                let mut p = ontology.path(leaf);
                p.reverse(); // leaf-most ancestor first
                p.iter().map(|&n| ontology.node(n).term.clone()).collect()
            };
            let id = ConceptId(concepts.len() as u32);
            concepts.push(Concept {
                id,
                noun: (*noun).to_string(),
                hypernyms: chain,
                facet: leaf,
                popularity: rng.gen_range(0.2..1.0),
            });
            forge.reserve(noun);
        }
        // Generated concepts spread over all non-location leaves.
        let mut non_location_leaves: Vec<FacetNodeId> = Vec::new();
        non_location_leaves.extend(&occupation_leaves);
        non_location_leaves.extend(&institute_leaves);
        non_location_leaves.extend(&sector_leaves);
        non_location_leaves.extend(&social_leaves);
        non_location_leaves.extend(&nature_leaves);
        non_location_leaves.extend(&event_leaves);
        non_location_leaves.extend(&refinement_leaves);
        for _ in 0..config.extra_concepts {
            let noun = forge.filler_word(&mut rng);
            let leaf = non_location_leaves[rng.gen_range(0..non_location_leaves.len())];
            let chain: Vec<String> = {
                let mut p = ontology.path(leaf);
                p.reverse();
                p.iter().map(|&n| ontology.node(n).term.clone()).collect()
            };
            let id = ConceptId(concepts.len() as u32);
            concepts.push(Concept {
                id,
                noun,
                hypernyms: chain,
                facet: leaf,
                popularity: rng.gen_range(0.05..0.6),
            });
        }

        // ---- Topics ---------------------------------------------------------
        let mut topics = Vec::new();
        for ti in 0..config.topics {
            // A topic revolves around a protagonist and a theme.
            let protagonist = match rng.gen_range(0..10) {
                0..=4 => person_entities[rng.gen_range(0..person_entities.len())],
                5..=6 => corp_entities[rng.gen_range(0..corp_entities.len())],
                7 => org_entities[rng.gen_range(0..org_entities.len())],
                8 => event_entities[rng.gen_range(0..event_entities.len())],
                _ => country_entities[rng.gen_range(0..country_entities.len())],
            };
            let mut topic_entities = vec![protagonist];
            // Supporting cast: the protagonist's relations plus random picks.
            let related = entities[protagonist.index()].related.clone();
            for r in related.into_iter().take(2) {
                topic_entities.push(r);
            }
            let extra = rng.gen_range(2..5);
            for _ in 0..extra {
                let pool = match rng.gen_range(0..5) {
                    0 => &person_entities,
                    1 => &corp_entities,
                    2 => &city_entities,
                    3 => &org_entities,
                    _ => &country_entities,
                };
                topic_entities.push(pool[rng.gen_range(0..pool.len())]);
            }
            topic_entities.dedup();
            // Theme concepts: pick a theme leaf, then concepts evoking it,
            // plus a couple of random concepts.
            let theme_leaf = non_location_leaves[rng.gen_range(0..non_location_leaves.len())];
            let mut topic_concepts: Vec<ConceptId> = concepts
                .iter()
                .filter(|c| c.facet == theme_leaf)
                .map(|c| c.id)
                .collect();
            topic_concepts.shuffle(&mut rng);
            topic_concepts.truncate(4);
            for _ in 0..rng.gen_range(1..4) {
                topic_concepts.push(ConceptId(rng.gen_range(0..concepts.len() as u32)));
            }
            topic_concepts.sort();
            topic_concepts.dedup();
            let mut facets = vec![theme_leaf];
            for &e in &topic_entities {
                facets.extend(entities[e.index()].facets.iter().copied());
            }
            facets.sort();
            facets.dedup();
            let label = format!(
                "{} / {}",
                entities[protagonist.index()].name,
                ontology.node(theme_leaf).term
            );
            topics.push(Topic {
                id: TopicId(ti as u32),
                label,
                entities: topic_entities,
                concepts: topic_concepts,
                facets,
                popularity: zipf_pop(ti, config.topics),
            });
        }

        // ---- Background vocabulary ------------------------------------------
        let mut background: Vec<String> =
            GENERIC_NEWS_WORDS.iter().map(|w| w.to_string()).collect();
        for _ in 0..config.background_words {
            background.push(forge.filler_word(&mut rng));
        }

        World {
            config,
            ontology,
            entities,
            concepts,
            topics,
            background,
        }
    }

    /// The entity with the given id.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// The concept with the given id.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// The topic with the given id.
    pub fn topic(&self, id: TopicId) -> &Topic {
        &self.topics[id.index()]
    }

    /// All facet nodes characterizing an entity: for every assigned leaf,
    /// the full root-to-leaf path (deduplicated, ordered).
    pub fn entity_facet_closure(&self, id: EntityId) -> Vec<FacetNodeId> {
        let mut out = Vec::new();
        for &leaf in &self.entities[id.index()].facets {
            out.extend(self.ontology.path(leaf));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Entities of a given kind, in id order.
    pub fn entities_of_kind(&self, kind: EntityKind) -> impl Iterator<Item = &Entity> {
        self.entities.iter().filter(move |e| e.kind == kind)
    }
}

/// Popularity that decays Zipf-like with catalog position, in (0, 1].
fn zipf_pop(index: usize, total: usize) -> f64 {
    debug_assert!(total > 0);
    1.0 / ((index + 1) as f64).powf(0.7).min(total as f64)
}

/// "summit" -> "Summit" (first letter of each word).
fn title_case(s: &str) -> String {
    s.split(' ')
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorldConfig {
        WorldConfig {
            seed: 11,
            countries: 10,
            cities_per_country: 2,
            people: 40,
            corporations: 15,
            organizations: 8,
            events: 6,
            extra_concepts: 20,
            topics: 25,
            gazetteer_coverage: 0.9,
            wordnet_city_coverage: 0.5,
            background_words: 100,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = World::generate(small_config());
        let w2 = World::generate(small_config());
        assert_eq!(w1.entities.len(), w2.entities.len());
        assert_eq!(w1.ontology.len(), w2.ontology.len());
        for (a, b) in w1.entities.iter().zip(&w2.entities) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.facets, b.facets);
        }
        for (a, b) in w1.topics.iter().zip(&w2.topics) {
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = World::generate(small_config());
        let mut cfg = small_config();
        cfg.seed = 12;
        let w2 = World::generate(cfg);
        let names1: Vec<_> = w1.entities.iter().map(|e| &e.name).collect();
        let names2: Vec<_> = w2.entities.iter().map(|e| &e.name).collect();
        assert_ne!(names1, names2);
    }

    #[test]
    fn entity_counts_match_config() {
        let cfg = small_config();
        let w = World::generate(cfg.clone());
        let locations = w.entities_of_kind(EntityKind::Location).count();
        assert_eq!(
            locations,
            REGIONS.len() + cfg.countries + cfg.countries * cfg.cities_per_country
        );
        assert_eq!(w.entities_of_kind(EntityKind::Person).count(), cfg.people);
        assert_eq!(
            w.entities_of_kind(EntityKind::Corporation).count(),
            cfg.corporations
        );
        assert_eq!(
            w.entities_of_kind(EntityKind::Organization).count(),
            cfg.organizations
        );
        assert_eq!(w.entities_of_kind(EntityKind::Event).count(), cfg.events);
        assert_eq!(w.topics.len(), cfg.topics);
    }

    #[test]
    fn location_entities_are_facet_nodes() {
        let w = World::generate(small_config());
        for e in w.entities_of_kind(EntityKind::Location) {
            let node = e
                .self_facet
                .expect("location entities double as facet nodes");
            assert_eq!(w.ontology.node(node).term, e.name.to_lowercase());
        }
    }

    #[test]
    fn people_not_in_wordnet_geography_is() {
        let w = World::generate(small_config());
        assert!(w
            .entities_of_kind(EntityKind::Person)
            .all(|e| !e.in_wordnet));
        // Countries and regions are always covered.
        for e in w.entities_of_kind(EntityKind::Location) {
            let node = e.self_facet.unwrap();
            if w.ontology.node(node).depth <= 2 {
                assert!(e.in_wordnet, "{} should be in WordNet", e.name);
            }
        }
    }

    #[test]
    fn concept_chains_end_at_ontology_root() {
        let w = World::generate(small_config());
        for c in &w.concepts {
            let last = c.hypernyms.last().expect("nonempty chain");
            let node = w.ontology.find(last).expect("chain terms are facet terms");
            assert!(
                w.ontology.node(node).parent.is_none(),
                "chain must end at a root"
            );
            // First chain element is the leaf facet.
            let first = &c.hypernyms[0];
            assert_eq!(w.ontology.find(first), Some(c.facet));
        }
    }

    #[test]
    fn topics_have_valid_references() {
        let w = World::generate(small_config());
        for t in &w.topics {
            assert!(!t.entities.is_empty());
            for &e in &t.entities {
                assert!(e.index() < w.entities.len());
            }
            for &c in &t.concepts {
                assert!(c.index() < w.concepts.len());
            }
            for &f in &t.facets {
                assert!(f.index() < w.ontology.len());
            }
        }
    }

    #[test]
    fn facet_closure_includes_roots() {
        let w = World::generate(small_config());
        let person = w.entities_of_kind(EntityKind::Person).next().unwrap();
        let closure = w.entity_facet_closure(person.id);
        let has_root = closure.iter().any(|&n| w.ontology.node(n).parent.is_none());
        assert!(has_root, "closure should reach the ontology roots");
    }

    #[test]
    fn entity_names_unique() {
        let w = World::generate(small_config());
        let mut seen = std::collections::HashSet::new();
        for e in &w.entities {
            assert!(seen.insert(&e.name), "duplicate entity name {}", e.name);
        }
    }

    #[test]
    fn background_starts_with_generic_words() {
        let w = World::generate(small_config());
        assert_eq!(w.background[0], "year");
        assert!(w.background.len() >= 100 + GENERIC_NEWS_WORDS.len());
    }
}
