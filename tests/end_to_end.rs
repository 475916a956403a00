//! End-to-end integration tests: the full pipeline over a small but
//! complete dataset bundle, asserting the *qualitative findings of the
//! paper* rather than exact numbers.

use facet_hierarchies::core::PipelineOptions;
use facet_hierarchies::corpus::RecipeKind;
use facet_hierarchies::eval::harness::default_gold;
use facet_hierarchies::eval::harness::{run_grid, tiny_recipe, DatasetBundle, GridOptions};
use facet_hierarchies::eval::precision::PrecisionJudge;
use facet_hierarchies::eval::recall::recall_of;

fn grid() -> (
    DatasetBundle,
    Vec<facet_hierarchies::eval::harness::GridCell>,
    Vec<String>,
) {
    let mut bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let gold = default_gold(&bundle, 200);
    let gold_terms: Vec<String> = gold
        .gold_terms(&bundle.world)
        .into_iter()
        .map(str::to_string)
        .collect();
    let options = GridOptions {
        pipeline: PipelineOptions {
            top_k: 800,
            ..Default::default()
        },
        ..Default::default()
    };
    let cells = run_grid(&mut bundle, &options);
    (bundle, cells, gold_terms)
}

fn cell<'a>(
    cells: &'a [facet_hierarchies::eval::harness::GridCell],
    resource: &str,
    extractor: &str,
) -> &'a facet_hierarchies::eval::harness::GridCell {
    cells
        .iter()
        .find(|c| c.resource == resource && c.extractor == extractor)
        .expect("cell exists")
}

#[test]
fn paper_finding_all_resources_beat_each_single_resource_on_recall() {
    let (_bundle, cells, gold) = grid();
    let gold_refs: Vec<&str> = gold.iter().map(String::as_str).collect();
    let all = recall_of(cell(&cells, "All", "All"), &gold_refs);
    for resource in ["Google", "WordNet Hypernyms", "Wikipedia Synonyms"] {
        let single = recall_of(cell(&cells, resource, "All"), &gold_refs);
        assert!(
            all >= single,
            "All-resources recall {all:.3} should dominate {resource} ({single:.3})"
        );
    }
}

#[test]
fn paper_finding_wordnet_fails_on_named_entities() {
    let (_bundle, cells, gold) = grid();
    let gold_refs: Vec<&str> = gold.iter().map(String::as_str).collect();
    // Table II: NE × WordNet = 0.090 — by far the weakest combination,
    // because WordNet does not know named entities.
    let ne_wordnet = recall_of(cell(&cells, "WordNet Hypernyms", "NE"), &gold_refs);
    let ne_graph = recall_of(cell(&cells, "Wikipedia Graph", "NE"), &gold_refs);
    assert!(
        ne_wordnet < 0.35,
        "WordNet with NE terms must have low recall, got {ne_wordnet:.3}"
    );
    assert!(
        ne_graph > ne_wordnet + 0.2,
        "Wikipedia Graph must far outperform WordNet on named entities: \
         {ne_graph:.3} vs {ne_wordnet:.3}"
    );
}

#[test]
fn paper_finding_wordnet_highest_precision_google_lowest() {
    let (bundle, cells, _gold) = grid();
    let judge = PrecisionJudge::default();
    let p = |r: &str| judge.precision_of(cell(&cells, r, "All"), &bundle.world);
    let wordnet = p("WordNet Hypernyms");
    let google = p("Google");
    let graph = p("Wikipedia Graph");
    assert!(
        wordnet > graph && graph > google,
        "precision ordering WordNet ({wordnet:.3}) > Graph ({graph:.3}) > Google ({google:.3})"
    );
}

#[test]
fn hierarchies_place_most_terms_under_sensible_parents() {
    let (bundle, cells, _gold) = grid();
    let judge = PrecisionJudge::default();
    let c = cell(&cells, "Wikipedia Graph", "All");
    let precision = judge.precision_of(c, &bundle.world);
    assert!(
        precision > 0.6,
        "Wikipedia Graph hierarchy precision should be solid, got {precision:.3}"
    );
}

#[test]
fn facet_terms_are_mostly_absent_from_documents() {
    // The Section III phenomenon, measured on the pipeline's own output:
    // selected facet terms should be much rarer in D than in C(D).
    let (_bundle, cells, _gold) = grid();
    let c = cell(&cells, "All", "All");
    let rare_in_d = c
        .candidates
        .iter()
        .filter(|x| x.df_c >= 3 * x.df.max(1))
        .count();
    assert!(
        rare_in_d * 2 > c.candidates.len(),
        "most facet terms should be far more frequent in C(D) than D: {rare_in_d}/{}",
        c.candidates.len()
    );
}
