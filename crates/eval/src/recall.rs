//! Recall measurement (Tables II–IV).
//!
//! "We define recall as the fraction of the manually extracted facet
//! terms that were also extracted by our techniques" (Section V-B).

use crate::harness::{GridCell, EXTRACTOR_LABELS, RESOURCE_LABELS};
use crate::report::{fmt3, Table};
use std::collections::HashSet;

/// Recall of one cell against the gold term list.
pub fn recall_of(cell: &GridCell, gold_terms: &[&str]) -> f64 {
    recall_of_terms(&cell.terms(), gold_terms)
}

/// Recall of an extracted term list against the gold term list.
pub fn recall_of_terms<S: AsRef<str>>(terms: &[S], gold_terms: &[&str]) -> f64 {
    if gold_terms.is_empty() {
        return 0.0;
    }
    let extracted: HashSet<&str> = terms.iter().map(AsRef::as_ref).collect();
    let hit = gold_terms
        .iter()
        .filter(|t| extracted.contains(**t))
        .count();
    hit as f64 / gold_terms.len() as f64
}

/// Build the full recall table (resource rows × extractor columns) in the
/// paper's layout.
pub fn recall_grid(title: &str, cells: &[GridCell], gold_terms: &[&str]) -> Table {
    let mut table = Table::new(
        title,
        &["External Resource", "NE", "Yahoo", "Wikipedia", "All"],
    );
    for r in RESOURCE_LABELS {
        let mut row = vec![r.to_string()];
        for e in EXTRACTOR_LABELS {
            let cell = cells
                .iter()
                .find(|c| c.extractor == e && c.resource == r)
                .unwrap_or_else(|| panic!("missing grid cell {r} × {e}"));
            row.push(fmt3(recall_of(cell, gold_terms)));
        }
        table.row(&row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CandidateOut;

    fn cell(extractor: &str, resource: &str, terms: &[&str]) -> GridCell {
        GridCell {
            extractor: extractor.into(),
            resource: resource.into(),
            candidates: terms
                .iter()
                .map(|t| CandidateOut {
                    term: t.to_string(),
                    df: 0,
                    df_c: 5,
                    score: 1.0,
                })
                .collect(),
            parents: vec![],
        }
    }

    #[test]
    fn recall_fraction() {
        let c = cell("NE", "Google", &["politics", "war"]);
        assert!((recall_of(&c, &["politics", "war", "health", "trade"]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_gold_zero() {
        let c = cell("NE", "Google", &["politics"]);
        assert_eq!(recall_of(&c, &[]), 0.0);
    }

    #[test]
    fn grid_layout() {
        let mut cells = Vec::new();
        for r in RESOURCE_LABELS {
            for e in EXTRACTOR_LABELS {
                cells.push(cell(e, r, &["politics"]));
            }
        }
        let t = recall_grid("Table II", &cells, &["politics", "war"]);
        let text = t.render();
        assert!(text.contains("Wikipedia Graph"));
        assert!(text.contains("0.500"));
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic]
    fn missing_cell_panics() {
        let cells = vec![cell("NE", "Google", &[])];
        let _ = recall_grid("T", &cells, &["x"]);
    }
}
