//! Diagnostic tool: inspect the substrates and the pipeline internals on
//! a dataset. Not part of the paper's experiments; useful when tuning.

use facet_bench::drivers::{dataset_gold, scaled_bundle};
use facet_corpus::RecipeKind;
use facet_knowledge::EntityKind;
use facet_resources::{
    ContextResource, GoogleResource, WikiGraphResource, WikiSynonymsResource,
    WordNetHypernymsResource,
};
use facet_wikipedia::{WikipediaGraph, WikipediaSynonyms};

fn main() {
    // Usage: diag [scale] [--obs <path>]
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut obs: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--obs" {
            obs = argv.get(i + 1).cloned();
            i += 2;
        } else {
            if let Ok(s) = argv[i].parse() {
                scale = s;
            }
            i += 1;
        }
    }
    let recorder = if obs.is_some() {
        facet_obs::Recorder::enabled()
    } else {
        facet_obs::Recorder::disabled()
    };
    let mut bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let world = &bundle.world;

    let gold = dataset_gold(&bundle, 1000);
    let gold_terms: Vec<String> = gold
        .gold_terms(world)
        .into_iter()
        .map(str::to_string)
        .collect();
    println!("gold terms: {}", gold_terms.len());
    let mut by_root: std::collections::HashMap<&str, usize> = Default::default();
    for &(n, _) in &gold.term_counts {
        let root = world.ontology.root_of(n);
        *by_root
            .entry(world.ontology.node(root).term.as_str())
            .or_default() += 1;
    }
    println!("gold by dimension: {by_root:?}");
    println!("ontology size: {}", world.ontology.len());

    // Inspect resources on a popular person and a country.
    let person = world.entities_of_kind(EntityKind::Person).next().unwrap();
    let country = world
        .entities_of_kind(EntityKind::Location)
        .find(|e| world.ontology.node(e.self_facet.unwrap()).depth == 2)
        .unwrap();

    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let synonyms = WikipediaSynonyms::new(
        &bundle.wiki.wiki,
        &bundle.wiki.redirects,
        &bundle.wiki.anchors,
    );
    let google = GoogleResource::new(&bundle.web);
    let wn = WordNetHypernymsResource::new(&bundle.wordnet);
    let syn = WikiSynonymsResource::new(&synonyms);
    let gr = WikiGraphResource::new(&graph);

    for probe in [person.name.as_str(), country.name.as_str(), "ballot"] {
        println!("\n=== probe: {probe}");
        println!("  google: {:?}", google.context_terms(probe));
        println!("  wordnet: {:?}", wn.context_terms(probe));
        println!("  wiki-syn: {:?}", syn.context_terms(probe));
        let g: Vec<String> = gr.context_terms(probe).into_iter().take(15).collect();
        println!("  wiki-graph (top 15): {g:?}");
    }

    // Show a web search for the person.
    println!("\nweb search hits for {}:", person.name);
    for h in bundle.web.search(&person.name, 3) {
        let snippet = bundle.web.snippet_text(&h);
        println!("  [{:.2}] {}", h.score, &snippet[..snippet.len().min(200)]);
    }

    // ---- per-cell analysis ---------------------------------------------
    use facet_core::PipelineOptions;
    use facet_eval::harness::{run_grid, GridOptions};
    let options = GridOptions {
        pipeline: PipelineOptions {
            top_k: 1500,
            ..Default::default()
        },
        recorder: recorder.clone(),
    };
    let cells = run_grid(&mut bundle, &options);
    let gold_set: std::collections::HashSet<String> =
        gold_terms.iter().map(|s| s.to_string()).collect();
    for (res, ext) in [
        ("Google", "Wikipedia"),
        ("Wikipedia Graph", "Wikipedia"),
        ("Wikipedia Synonyms", "NE"),
        ("All", "All"),
    ] {
        let cell = cells
            .iter()
            .find(|c| c.resource == res && c.extractor == ext)
            .unwrap();
        let world = &bundle.world;
        let mut classes: std::collections::HashMap<&str, usize> = Default::default();
        let mut placement_wrong = 0usize;
        for c in &cell.candidates {
            let class = if world.ontology.find(&c.term).is_some() {
                "ontology"
            } else if world.find_entity(&c.term).is_some() {
                "entity"
            } else if world.concepts.iter().any(|k| k.noun == c.term) {
                "concept-noun"
            } else {
                "noise"
            };
            *classes.entry(class).or_default() += 1;
            let parent = cell
                .parents
                .iter()
                .find(|(t, _)| *t == c.term)
                .and_then(|(_, p)| p.clone());
            if let Some(p) = parent {
                let ok = match world.ontology.find(&c.term) {
                    Some(node) => world
                        .ontology
                        .find(&p)
                        .is_some_and(|pn| world.ontology.is_ancestor(pn, node)),
                    None => match world.find_entity(&c.term) {
                        Some(e) => world
                            .ontology
                            .find(&p)
                            .is_some_and(|pn| world.entity_facet_closure(e.id).contains(&pn)),
                        None => false,
                    },
                };
                if !ok {
                    placement_wrong += 1;
                }
            }
        }
        // Missed gold by dimension.
        let have: std::collections::HashSet<&str> =
            cell.candidates.iter().map(|c| c.term.as_str()).collect();
        let mut missed_by_root: std::collections::HashMap<String, usize> = Default::default();
        for g in &gold_set {
            if !have.contains(g.as_str()) {
                let node = world.ontology.find(g).unwrap();
                let root = world
                    .ontology
                    .node(world.ontology.root_of(node))
                    .term
                    .clone();
                *missed_by_root.entry(root).or_default() += 1;
            }
        }
        println!(
            "\ncell {res} × {ext}: {} candidates, classes {:?}, wrong placements {}",
            cell.candidates.len(),
            classes,
            placement_wrong
        );
        println!("  missed gold by dimension: {missed_by_root:?}");
        let sample_noise: Vec<&str> = cell
            .candidates
            .iter()
            .filter(|c| {
                world.ontology.find(&c.term).is_none()
                    && world.find_entity(&c.term).is_none()
                    && !world.concepts.iter().any(|k| k.noun == c.term)
            })
            .take(15)
            .map(|c| c.term.as_str())
            .collect();
        println!("  sample noise: {sample_noise:?}");
        let mut wrong_examples: Vec<(String, String)> = Vec::new();
        for c in &cell.candidates {
            if wrong_examples.len() >= 12 {
                break;
            }
            let Some(p) = cell
                .parents
                .iter()
                .find(|(t, _)| *t == c.term)
                .and_then(|(_, p)| p.clone())
            else {
                continue;
            };
            let ok = match world.ontology.find(&c.term) {
                Some(node) => world
                    .ontology
                    .find(&p)
                    .is_some_and(|pn| world.ontology.is_ancestor(pn, node)),
                None => match world.find_entity(&c.term) {
                    Some(e) => world
                        .ontology
                        .find(&p)
                        .is_some_and(|pn| world.entity_facet_closure(e.id).contains(&pn)),
                    None => false,
                },
            };
            if !ok
                && (world.find_entity(&c.term).is_some() || world.ontology.find(&c.term).is_some())
            {
                wrong_examples.push((c.term.clone(), p));
            }
        }
        println!("  wrong placement examples: {wrong_examples:?}");
    }

    // ---- subsumption sanity probe ----------------------------------------
    {
        use facet_core::{PipelineOptions, ShardedFacetIndex};
        use facet_resources::{CachedResource, ContextResource, WikiGraphResource};
        use facet_termx::{TermExtractor, WikipediaTitleExtractor};
        use facet_wikipedia::{TitleIndex, WikipediaGraph};
        let world = &bundle.world;
        let title_index = TitleIndex::build(&bundle.wiki.wiki, &bundle.wiki.redirects);
        let wiki_x = WikipediaTitleExtractor::new(&bundle.wiki.wiki, title_index);
        let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
        let graph_res = CachedResource::new(WikiGraphResource::new(&graph));
        let docs = bundle.corpus.db.docs();
        let important: Vec<Vec<String>> = docs
            .iter()
            .map(|d| wiki_x.extract(&d.full_text()))
            .collect();
        let resources: Vec<&dyn ContextResource> = vec![&graph_res];
        let mut index = ShardedFacetIndex::new(
            1,
            Vec::new(),
            resources,
            PipelineOptions {
                top_k: 1500,
                ..Default::default()
            },
        );
        index
            .append_extracted(docs.to_vec(), important.clone())
            .expect("one I(d) per document");
        let snapshot = index.snapshot();
        // Which important term drags "railways" into every document?
        let mut culprits: std::collections::HashMap<String, usize> = Default::default();
        for terms in important.iter().take(200) {
            for t in terms {
                if graph_res.context_terms(t).iter().any(|c| c == "railways") {
                    *culprits.entry(t.clone()).or_default() += 1;
                }
            }
        }
        println!("railways culprits (first 200 docs): {culprits:?}");
        println!("sample I(d) of doc 0: {:?}", &important[0]);
        // Verify the subsumption invariant on actual data for a few edges.
        let vocab = snapshot.vocab();
        for (parent_label, child_label) in snapshot.forest().edges().into_iter().take(400) {
            let p = vocab.get(&parent_label).unwrap();
            let c = vocab.get(&child_label).unwrap();
            let mut df_p = 0u64;
            let mut df_c_ = 0u64;
            let mut co = 0u64;
            for terms in snapshot.doc_terms().iter() {
                let has_p = terms.binary_search(&p).is_ok();
                let has_c = terms.binary_search(&c).is_ok();
                df_p += has_p as u64;
                df_c_ += has_c as u64;
                co += (has_p && has_c) as u64;
            }
            let pxy = co as f64 / df_c_.max(1) as f64;
            if parent_label.contains("klikstox")
                || parent_label.contains("proia")
                || child_label == "finance"
                || child_label == "trade"
            {
                println!(
                    "edge {parent_label} <- {child_label}: df_p={df_p} df_c={df_c_} co={co} P(p|c)={pxy:.2}"
                );
            }
        }
        let _ = world;
    }

    // ---- WikiSyn shift probe ---------------------------------------------
    {
        use facet_ner::NerTagger;
        use facet_resources::{
            expand_append_recorded, intern_important_terms, ContextualizedDatabase, ExpansionCache,
            ExpansionOptions, WikiSynonymsResource,
        };
        use facet_stats::bins_by_frequency;
        use facet_termx::{NamedEntityExtractor, TermExtractor};
        use facet_wikipedia::WikipediaSynonyms;
        let world = &bundle.world;
        let tagger = NerTagger::from_world(world);
        let ne = NamedEntityExtractor::new(tagger);
        let important: Vec<Vec<String>> = bundle
            .corpus
            .db
            .docs()
            .iter()
            .map(|d| ne.extract(&d.full_text()))
            .collect();
        let synonyms = WikipediaSynonyms::new(
            &bundle.wiki.wiki,
            &bundle.wiki.redirects,
            &bundle.wiki.anchors,
        );
        let syn_res = WikiSynonymsResource::new(&synonyms);
        let important = intern_important_terms(&mut bundle.vocab, &important);
        let mut c = ContextualizedDatabase::empty();
        expand_append_recorded(
            &bundle.corpus.db,
            0..bundle.corpus.db.len(),
            &important,
            &[&syn_res],
            &mut bundle.vocab,
            &ExpansionOptions::default(),
            facet_obs::Recorder::disabled_ref(),
            &mut ExpansionCache::new(),
            &mut c,
        )
        .expect("one I(d) list per document");
        let df = bundle.corpus.db.df_table_resized(bundle.vocab.len());
        let n_docs = bundle.corpus.db.len() as u64;
        let bins_d = bins_by_frequency(&df, n_docs);
        let bins_c = bins_by_frequency(c.df_table(), n_docs);
        println!(
            "
WikiSyn shift probe (gold country terms):"
        );
        let mut shown = 0;
        for e in world.entities_of_kind(facet_knowledge::EntityKind::Location) {
            let node = e.self_facet.unwrap();
            if world.ontology.node(node).depth != 2 || e.variants.len() < 2 {
                continue;
            }
            let term = e.name.to_lowercase();
            let Some(id) = bundle.vocab.get(&term) else {
                continue;
            };
            println!(
                "  {term}: df={} df_c={} bin_d={} bin_c={} variants={:?}",
                df[id.index()],
                c.df_c(id),
                bins_d[df[id.index()] as usize],
                bins_c[c.df_c(id) as usize],
                e.variants,
            );
            shown += 1;
            if shown >= 8 {
                break;
            }
        }
    }

    // ---- observability dump ----------------------------------------------
    if let Some(path) = obs {
        let report = recorder.snapshot();
        let json = facet_jsonio::to_json_string_pretty(&report).expect("metrics serialize");
        std::fs::write(&path, json).expect("write metrics report");
        eprintln!("\n-- stage times ({path}) --\n{}", report.stage_table());
    }
}
