//! Supplementary analysis beyond the paper's tables: recall broken down
//! by facet dimension, and the candidate-composition profile of a grid
//! cell. Useful for understanding *where* a configuration's recall comes
//! from (the paper aggregates over all facet terms).

use crate::annotators::GoldAnnotations;
use crate::harness::GridCell;
use crate::report::{fmt3, Table};
use facet_knowledge::World;
use std::collections::{HashMap, HashSet};

/// Recall per facet dimension (ontology root) for one grid cell.
pub fn recall_by_dimension(
    cell: &GridCell,
    world: &World,
    gold: &GoldAnnotations,
) -> Vec<(String, usize, f64)> {
    let extracted: HashSet<&str> = cell.terms().into_iter().collect();
    let mut per_root: HashMap<String, (usize, usize)> = HashMap::new();
    for &(node, _) in &gold.term_counts {
        let root = world
            .ontology
            .node(world.ontology.root_of(node))
            .term
            .clone();
        let term = &world.ontology.node(node).term;
        let entry = per_root.entry(root).or_insert((0, 0));
        entry.0 += 1;
        if extracted.contains(term.as_str()) {
            entry.1 += 1;
        }
    }
    let mut out: Vec<(String, usize, f64)> = per_root
        .into_iter()
        .map(|(root, (total, hit))| (root, total, hit as f64 / total.max(1) as f64))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Render the per-dimension recall as a table.
pub fn dimension_table(
    title: &str,
    cell: &GridCell,
    world: &World,
    gold: &GoldAnnotations,
) -> Table {
    let mut t = Table::new(title, &["Dimension", "Gold terms", "Recall"]);
    for (root, total, recall) in recall_by_dimension(cell, world, gold) {
        t.row(&[root, total.to_string(), fmt3(recall)]);
    }
    t
}

/// The composition of a cell's candidate list: how many candidates are
/// ontology facet terms, entity names (any surface form), concept nouns,
/// or unrecognized corpus terms.
pub fn candidate_composition(cell: &GridCell, world: &World) -> [(&'static str, usize); 4] {
    let surface: HashSet<String> = world
        .entities
        .iter()
        .flat_map(|e| e.surface_forms().map(str::to_lowercase).collect::<Vec<_>>())
        .collect();
    let nouns: HashSet<&str> = world.concepts.iter().map(|c| c.noun.as_str()).collect();
    let mut ontology = 0;
    let mut entities = 0;
    let mut concepts = 0;
    let mut other = 0;
    for c in &cell.candidates {
        if world.ontology.contains_term(&c.term) {
            ontology += 1;
        } else if surface.contains(&c.term) {
            entities += 1;
        } else if nouns.contains(c.term.as_str()) {
            concepts += 1;
        } else {
            other += 1;
        }
    }
    [
        ("facet concepts", ontology),
        ("entity names", entities),
        ("concept nouns", concepts),
        ("other corpus terms", other),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{default_gold, run_grid, tiny_recipe, DatasetBundle, GridOptions};
    use facet_core::PipelineOptions;
    use facet_corpus::RecipeKind;

    fn setup() -> (DatasetBundle, Vec<GridCell>, GoldAnnotations) {
        let mut bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let gold = default_gold(&bundle, 100);
        let options = GridOptions {
            pipeline: PipelineOptions {
                top_k: 400,
                ..Default::default()
            },
            ..Default::default()
        };
        let cells = run_grid(&mut bundle, &options);
        (bundle, cells, gold)
    }

    #[test]
    fn dimensions_cover_gold_and_rates_are_valid() {
        let (bundle, cells, gold) = setup();
        let all = cells
            .iter()
            .find(|c| c.extractor == "All" && c.resource == "All")
            .unwrap();
        let dims = recall_by_dimension(all, &bundle.world, &gold);
        let total: usize = dims.iter().map(|(_, n, _)| n).sum();
        assert_eq!(
            total,
            gold.n_terms(),
            "dimension partition must cover the gold set"
        );
        for (root, _, r) in &dims {
            assert!((0.0..=1.0).contains(r), "{root} recall {r}");
        }
    }

    #[test]
    fn composition_partitions_candidates() {
        let (bundle, cells, _gold) = setup();
        let all = cells
            .iter()
            .find(|c| c.extractor == "All" && c.resource == "All")
            .unwrap();
        let comp = candidate_composition(all, &bundle.world);
        let total: usize = comp.iter().map(|(_, n)| n).sum();
        assert_eq!(total, all.candidates.len());
    }

    #[test]
    fn table_renders() {
        let (bundle, cells, gold) = setup();
        let all = cells
            .iter()
            .find(|c| c.extractor == "All" && c.resource == "All")
            .unwrap();
        let t = dimension_table("by dimension", all, &bundle.world, &gold);
        assert!(t.render().contains("location"));
    }
}
