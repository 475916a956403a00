//! The Section V-E user study, as an interaction-model simulation.
//!
//! The paper: five users located news items of interest five times each,
//! with a keyword-search interface augmented by the extracted facet
//! hierarchies. Findings: users started keyword-first (typing a named
//! entity), then shifted to the facets; keyword-search use fell by up to
//! 50% across sessions, task time fell ~25%, and satisfaction held steady
//! around 2.5 on the 0–3 scale.
//!
//! The simulation reproduces the *mechanism* behind those numbers: facet
//! clicks narrow the candidate set to topically dense subsets (documents
//! sharing the target's facet terms), so a facet-heavy strategy needs
//! fewer result scans than re-querying; as the per-session facet affinity
//! grows (users learn the interface), time drops while success stays
//! constant — hence flat satisfaction.
//!
//! Action costs are standard keystroke-level-model magnitudes:
//! typing a query ≈ 8 s, scanning one result ≈ 1.8 s, one facet click
//! ≈ 1.6 s (point-and-click plus list reorientation).

use crate::harness::{build_cell, Backends, Column, DatasetBundle, GridOptions, Substrates};
use crate::report::Table;
use facet_core::{FacetSnapshot, PipelineOptions, SelectionStatistic};
use facet_obs::Recorder;
use facet_websearch::{SearchEngine, WebDocId, WebPage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Keystroke-level action costs (seconds).
const QUERY_COST: f64 = 8.0;
const SCAN_COST: f64 = 1.8;
const FACET_CLICK_COST: f64 = 1.6;

/// Per-session aggregate over all users.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Session number (1-based).
    pub session: usize,
    /// Mean keyword queries issued per task.
    pub keyword_queries: f64,
    /// Mean facet clicks per task.
    pub facet_clicks: f64,
    /// Mean task completion time (model seconds).
    pub time_seconds: f64,
    /// Mean satisfaction on the paper's 0–3 scale.
    pub satisfaction: f64,
}

/// Configuration of the simulated study.
#[derive(Debug, Clone)]
pub struct UserStudyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of users (paper: 5).
    pub users: usize,
    /// Sessions per user (paper: 5).
    pub sessions: usize,
    /// Relevant stories the user wants to collect per task.
    pub targets_per_task: usize,
}

impl Default for UserStudyConfig {
    fn default() -> Self {
        Self {
            seed: 0x0CE5,
            users: 5,
            sessions: 5,
            targets_per_task: 5,
        }
    }
}

/// Run the simulated study over a dataset bundle. Builds the full
/// pipeline (all extractors, local resources) with `recorder` attached,
/// the facet browsing engine, and a keyword search engine over the news
/// corpus; then simulates the users.
pub fn run_user_study(
    bundle: &DatasetBundle,
    config: &UserStudyConfig,
    recorder: &Recorder,
) -> Vec<SessionStats> {
    // ---- faceted interface ----------------------------------------------
    let subs = Substrates::new(bundle);
    let backends = Backends::new(&subs);
    let [_, wordnet, _, graph] = backends.resources();
    let options = GridOptions {
        pipeline: PipelineOptions::default(),
        recorder: recorder.clone(),
    };
    let index = build_cell(
        bundle.corpus.db.docs(),
        Column::Extract(subs.extractors().to_vec()),
        vec![wordnet, graph],
        SelectionStatistic::LogLikelihood,
        &options,
    );
    let snapshot = index.snapshot();

    // ---- keyword interface ------------------------------------------------
    let news_pages: Vec<WebPage> = bundle
        .corpus
        .db
        .docs()
        .iter()
        .map(|d| WebPage {
            id: WebDocId(d.id.0),
            title: d.title.clone(),
            text: d.text.clone(),
        })
        .collect();
    let news_search = SearchEngine::new(news_pages);

    // ---- simulate users ------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    for session in 0..config.sessions {
        // Facet affinity grows with experience (users shift from
        // keyword-first to facet-first across the five sessions).
        let facet_affinity = (0.45 + 0.07 * session as f64).min(0.95);
        let mut sum_queries = 0.0;
        let mut sum_clicks = 0.0;
        let mut sum_time = 0.0;
        let mut sum_sat = 0.0;
        for _user in 0..config.users {
            let task = simulate_task(
                bundle,
                &snapshot,
                &news_search,
                facet_affinity,
                config.targets_per_task,
                &mut rng,
            );
            sum_queries += task.0;
            sum_clicks += task.1;
            sum_time += task.2;
            sum_sat += task.3;
        }
        let n = config.users as f64;
        out.push(SessionStats {
            session: session + 1,
            keyword_queries: sum_queries / n,
            facet_clicks: sum_clicks / n,
            time_seconds: sum_time / n,
            satisfaction: sum_sat / n,
        });
    }
    out
}

/// Simulate one task; returns (queries, clicks, seconds, satisfaction).
fn simulate_task(
    bundle: &DatasetBundle,
    snapshot: &FacetSnapshot,
    news_search: &SearchEngine,
    facet_affinity: f64,
    targets: usize,
    rng: &mut StdRng,
) -> (f64, f64, f64, f64) {
    // The information need: stories of one topic.
    let topic_idx = rng.gen_range(0..bundle.world.topics.len());
    let topic = &bundle.world.topics[topic_idx];
    let relevant: HashSet<u32> = bundle
        .corpus
        .gold
        .iter()
        .enumerate()
        .filter(|(_, g)| g.topic == topic.id)
        .map(|(i, _)| i as u32)
        .collect();
    let wanted = targets.min(relevant.len().max(1));

    let mut found: HashSet<u32> = HashSet::new();
    let mut queries = 0.0;
    let mut clicks = 0.0;
    let mut time = 0.0;

    // First interaction is always a keyword query with a named entity
    // (the paper's observed behaviour).
    let protagonist = bundle.world.entity(topic.entities[0]).name.clone();
    let mut results: Vec<u32> = news_search
        .search(&protagonist, 60)
        .into_iter()
        .map(|h| h.doc.0)
        .collect();
    queries += 1.0;
    time += QUERY_COST;

    // The facet terms describing the topic, most specific first.
    let facet_terms: Vec<facet_textkit::TermId> = {
        let mut nodes = topic.facets.clone();
        nodes.sort_by_key(|&n| std::cmp::Reverse(bundle.world.ontology.node(n).depth));
        nodes
            .iter()
            .filter_map(|&n| snapshot.vocab().get(&bundle.world.ontology.node(n).term))
            .collect()
    };
    let mut facet_selection: Vec<facet_textkit::TermId> = Vec::new();

    let mut safety = 0;
    while found.len() < wanted && safety < 200 {
        safety += 1;
        if rng.gen_bool(facet_affinity) && facet_selection.len() < facet_terms.len() {
            // Facet move: add the next facet term, narrowing the list.
            facet_selection.push(facet_terms[facet_selection.len()]);
            let narrowed = snapshot.browse().select(&facet_selection);
            clicks += 1.0;
            time += FACET_CLICK_COST;
            results = narrowed.into_iter().map(|d| d.0).collect();
            // Results sharing more facet terms with the target first.
            results.sort_by_key(|&d| {
                let terms = &snapshot.doc_terms()[d as usize];
                std::cmp::Reverse(
                    facet_terms
                        .iter()
                        .filter(|t| terms.binary_search(t).is_ok())
                        .count(),
                )
            });
        } else if results.is_empty() {
            // Re-query with another topic entity.
            let e = topic.entities[rng.gen_range(0..topic.entities.len())];
            results = news_search
                .search(&bundle.world.entity(e).name, 60)
                .into_iter()
                .map(|h| h.doc.0)
                .collect();
            queries += 1.0;
            time += QUERY_COST;
        }
        // Scan a batch of results.
        let batch: Vec<u32> = results.drain(..results.len().min(5)).collect();
        if batch.is_empty() && facet_selection.len() >= facet_terms.len() {
            break;
        }
        for d in batch {
            time += SCAN_COST;
            if relevant.contains(&d) {
                found.insert(d);
                if found.len() >= wanted {
                    break;
                }
            }
        }
    }

    // Satisfaction: steady around 2.5 when the task succeeds (the paper
    // reports a flat mean of 2.5/3).
    let success = found.len() as f64 / wanted as f64;
    let satisfaction = (2.1 + 0.5 * success + rng.gen_range(-0.15..0.15)).clamp(0.0, 3.0);
    (queries, clicks, time, satisfaction)
}

/// Render the per-session statistics as a table.
pub fn user_study_table(title: &str, stats: &[SessionStats]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Session",
            "Keyword queries",
            "Facet clicks",
            "Task time (s)",
            "Satisfaction (0-3)",
        ],
    );
    for s in stats {
        t.row(&[
            s.session.to_string(),
            format!("{:.2}", s.keyword_queries),
            format!("{:.2}", s.facet_clicks),
            format!("{:.1}", s.time_seconds),
            format!("{:.2}", s.satisfaction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_recipe;
    use facet_corpus::RecipeKind;

    #[test]
    fn study_runs_and_reports() {
        let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let stats = run_user_study(
            &bundle,
            &UserStudyConfig::default(),
            Recorder::disabled_ref(),
        );
        assert_eq!(stats.len(), 5);
        let t = user_study_table("User study", &stats);
        assert!(t.render().contains("Session"));
        // Satisfaction stays in range.
        for s in &stats {
            assert!(s.satisfaction >= 0.0 && s.satisfaction <= 3.0);
        }
    }

    #[test]
    fn keyword_use_and_time_decline_over_sessions() {
        // Five users is a small sample (as in the paper); compare the
        // first session against the mean of the last two to absorb noise.
        let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let stats = run_user_study(
            &bundle,
            &UserStudyConfig {
                users: 10,
                ..Default::default()
            },
            Recorder::disabled_ref(),
        );
        let first = stats.first().unwrap();
        let late_queries = (stats[3].keyword_queries + stats[4].keyword_queries) / 2.0;
        let late_time = (stats[3].time_seconds + stats[4].time_seconds) / 2.0;
        assert!(
            late_queries < first.keyword_queries,
            "keyword use should decline: {stats:?}"
        );
        assert!(
            late_time < first.time_seconds,
            "task time should decline: {stats:?}"
        );
    }
}
