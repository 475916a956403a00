//! Paper-fidelity gate: the SNYT recall grid (Table II) and precision
//! grid (Table V) at `--scale 0.1`, the All × All facet-term set, and the
//! §V-B sensitivity curve over SNYT's 1,000 stories must stay where
//! `QUALITY.json` at the repository root pins them.
//!
//! The test regenerates the numbers through `facet-eval` exactly as
//! `experiments table2` / `table5 --scale 0.1` do (default `--top-k`
//! 2000, hierarchies on, 1,000-story gold sample), and the curve as
//! `experiments sensitivity` does at its default paper scale, and
//! compares:
//!
//! * every grid cell within ±[`CELL_TOL`] absolute;
//! * the FNV-1a digest of the sorted All × All facet terms exactly;
//! * at 100, 500 and 1,000 annotated documents, the distinct gold facet
//!   terms exactly and their fraction of the 1,000-document set within
//!   ±[`CELL_TOL`] absolute.
//!
//! A refactor that must not change behaviour therefore cannot shift
//! quality silently. A change meant to move the numbers regenerates the
//! file — the failure message carries the fresh JSON — and says why.

use facet_hierarchies::corpus::{DatasetRecipe, RecipeKind};
use facet_hierarchies::eval::annotators::AnnotatorConfig;
use facet_hierarchies::eval::harness::{
    default_gold, run_grid, DatasetBundle, GridCell, GridOptions, EXTRACTOR_LABELS, RESOURCE_LABELS,
};
use facet_hierarchies::eval::judge_model::JudgeModel;
use facet_hierarchies::eval::precision::PrecisionJudge;
use facet_hierarchies::eval::recall::recall_of;
use facet_hierarchies::eval::sensitivity::{sensitivity_curve, SensitivityPoint};
use facet_hierarchies::jsonio::{parse_json, JsonValue};
use facet_hierarchies::textkit::Vocabulary;

const SCALE: f64 = 0.1;
const TOP_K: usize = 2000;
/// Allowed absolute drift of one recall or precision cell, or of one
/// sensitivity fraction.
const CELL_TOL: f64 = 0.01;
/// Annotated-sample sizes of the sensitivity curve.
const SENSITIVITY_DOCS: [usize; 3] = [100, 500, 1000];

/// The gated numbers, in `RESOURCE_LABELS` × `EXTRACTOR_LABELS` order.
struct Quality {
    recall: Vec<Vec<f64>>,
    precision: Vec<Vec<f64>>,
    all_all_terms: usize,
    all_all_digest: u64,
    sensitivity: Vec<SensitivityPoint>,
}

/// FNV-1a over the terms, sorted, each followed by a newline.
fn digest(mut terms: Vec<&str>) -> u64 {
    terms.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in terms {
        for b in t.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn measure() -> Quality {
    let mut bundle = DatasetBundle::build(RecipeKind::Snyt, SCALE);
    // The world does not scale; the curve needs the full 1,000 stories.
    let stories = DatasetRecipe::scaled(RecipeKind::Snyt, 1.0)
        .build_corpus(&bundle.world, &mut Vocabulary::new());
    let sensitivity = sensitivity_curve(
        &bundle.world,
        &stories,
        &AnnotatorConfig::default(),
        &SENSITIVITY_DOCS,
    );
    let gold = default_gold(&bundle, 1000);
    let gold_terms: Vec<String> = gold
        .gold_terms(&bundle.world)
        .into_iter()
        .map(str::to_string)
        .collect();
    let gold_refs: Vec<&str> = gold_terms.iter().map(String::as_str).collect();
    let mut options = GridOptions::default();
    options.pipeline.top_k = TOP_K;
    let cells = run_grid(&mut bundle, &options);
    let cell = |r: &str, e: &str| -> &GridCell {
        cells
            .iter()
            .find(|c| c.resource == r && c.extractor == e)
            .expect("the grid has every cell")
    };
    let judge = PrecisionJudge::default();
    let model = JudgeModel::new(&bundle.world);
    let grid = |f: &dyn Fn(&GridCell) -> f64| -> Vec<Vec<f64>> {
        RESOURCE_LABELS
            .iter()
            .map(|r| EXTRACTOR_LABELS.iter().map(|e| f(cell(r, e))).collect())
            .collect()
    };
    let all = cell("All", "All");
    Quality {
        recall: grid(&|c| recall_of(c, &gold_refs)),
        precision: grid(&|c| judge.precision_with_model(c, &model)),
        all_all_terms: all.candidates.len(),
        all_all_digest: digest(all.terms()),
        sensitivity,
    }
}

/// `q` in the layout of `QUALITY.json`.
fn to_json(q: &Quality) -> String {
    let labels = |l: &[&str]| {
        l.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |g: &[Vec<f64>]| {
        g.iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
                format!("    [{}]", cells.join(", "))
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let points = q
        .sensitivity
        .iter()
        .map(|p| {
            format!(
                "    {{\"docs\": {}, \"terms\": {}, \"fraction\": {}}}",
                p.docs, p.terms, p.fraction
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"dataset\": \"SNYT\",\n  \"scale\": {SCALE},\n  \"top_k\": {TOP_K},\n  \
         \"resources\": [{}],\n  \"extractors\": [{}],\n  \"recall\": [\n{}\n  ],\n  \
         \"precision\": [\n{}\n  ],\n  \"all_all_terms\": {},\n  \
         \"all_all_digest\": \"{:#018x}\",\n  \"sensitivity\": [\n{}\n  ]\n}}\n",
        labels(&RESOURCE_LABELS),
        labels(&EXTRACTOR_LABELS),
        rows(&q.recall),
        rows(&q.precision),
        q.all_all_terms,
        q.all_all_digest,
        points
    )
}

fn grid_of(doc: &JsonValue, key: &str) -> Vec<Vec<f64>> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("QUALITY.json: {key} missing"))
        .iter()
        .map(|row| {
            row.as_array()
                .expect("a grid row is an array")
                .iter()
                .map(|v| v.as_f64().expect("a grid cell is a number"))
                .collect()
        })
        .collect()
}

#[test]
fn quality_matches_the_committed_baseline() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("QUALITY.json");
    let text = std::fs::read_to_string(&path).expect("QUALITY.json at the repository root");
    let doc = parse_json(&text).expect("QUALITY.json parses");
    let got = measure();
    let fresh = to_json(&got);
    for (key, grid) in [("recall", &got.recall), ("precision", &got.precision)] {
        let want = grid_of(&doc, key);
        assert_eq!(want.len(), RESOURCE_LABELS.len(), "{key}: rows");
        for (r, (want_row, got_row)) in want.iter().zip(grid).enumerate() {
            assert_eq!(want_row.len(), EXTRACTOR_LABELS.len(), "{key}: columns");
            for (e, (w, g)) in want_row.iter().zip(got_row).enumerate() {
                assert!(
                    (w - g).abs() <= CELL_TOL,
                    "{key} {} × {}: {g:.4} vs committed {w:.4}\nfresh QUALITY.json:\n{fresh}",
                    RESOURCE_LABELS[r],
                    EXTRACTOR_LABELS[e]
                );
            }
        }
    }
    let want_digest = doc
        .get("all_all_digest")
        .and_then(JsonValue::as_str)
        .expect("QUALITY.json: all_all_digest");
    assert_eq!(
        format!("{:#018x}", got.all_all_digest),
        want_digest,
        "All × All facet-term set changed ({} terms)\nfresh QUALITY.json:\n{fresh}",
        got.all_all_terms
    );
    let want = doc
        .get("sensitivity")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| {
            panic!("QUALITY.json: sensitivity missing\nfresh QUALITY.json:\n{fresh}")
        });
    assert_eq!(want.len(), got.sensitivity.len(), "sensitivity: points");
    for (w, g) in want.iter().zip(&got.sensitivity) {
        let field = |key: &str| {
            w.get(key)
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("QUALITY.json: sensitivity {key}"))
        };
        assert_eq!(field("docs"), g.docs as f64, "sensitivity: sample sizes");
        assert!(
            field("terms") == g.terms as f64 && (field("fraction") - g.fraction).abs() <= CELL_TOL,
            "sensitivity at {} documents: {} terms ({:.4}) vs committed {} ({:.4})\n\
             fresh QUALITY.json:\n{fresh}",
            g.docs,
            g.terms,
            g.fraction,
            field("terms"),
            field("fraction")
        );
    }
}
