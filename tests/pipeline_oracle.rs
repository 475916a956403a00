//! Steps 1–4 oracle: the index must compute what the paper's formulas
//! say, not merely agree with itself across shard counts and batches.
//!
//! The oracle below runs the four steps over strings, `BTreeSet`s and
//! `BTreeMap`s, with no interning, no incremental state, no shards and
//! no caches:
//!
//! 1. `I(d)` is the ordered union of the extractors' outputs;
//! 2. `C(d)` is `terms(d)` ∪ the normalized context terms of every
//!    `t ∈ I(d)`;
//! 3. `df` and `df_C` count documents; `B(t) = ⌈log2 Rank(t)⌉` with
//!    competition ranks found by sorting the frequencies; a term is a
//!    candidate iff `Shift_f = df_C − df > 0`, `Shift_r = B_D − B_C > 0`
//!    and `df_C ≥ min_df_c`; candidates are ranked by `−log λ`
//!    descending, then by term string, and the first `top_k` kept;
//! 4. each candidate attaches under its best subsumer over `C(D)`,
//!    subject to every `SubsumptionParams` guard, and cycles are cut.
//!
//! A seeded property compares it with the index over small random
//! corpora, worker counts 1–3 and several append splits, through both
//! `append` and `append_extracted`, and after a fault schedule that is
//! healed and repaired; hostile documents, `I(d)` lists and resource
//! answers must match it too or fail typed. Facet terms, their `df`/`df_C` and the forest
//! edges must match exactly; scores within a relative [`SCORE_TOL`]; the
//! ranking exactly, except among candidates whose oracle scores lie
//! within that tolerance of each other.

use facet_hierarchies::core::{
    FacetSnapshot, IndexError, PipelineOptions, ShardedFacetIndex, SubsumptionParams,
};
use facet_hierarchies::corpus::{DocId, Document};
use facet_hierarchies::resources::{
    ContextResource, ExpansionError, ExpansionOptions, FaultPlan, FaultyResource, VirtualClock,
};
use facet_hierarchies::termx::TermExtractor;
use facet_hierarchies::textkit::{is_stopword, normalize_term, tokens, TokenKind};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet};

/// Relative tolerance on `−log λ`: the oracle sums the four
/// log-likelihood terms in its own order.
const SCORE_TOL: f64 = 1e-9;

// ---- the oracle -------------------------------------------------------

/// Everything the oracle derives from a corpus.
struct OracleRun {
    /// Every candidate `(term, df, df_C, −log λ)`, ranked, untruncated.
    ranked: Vec<(String, u64, u64, f64)>,
    /// The first `top_k` of `ranked`.
    top_k: usize,
    /// `(parent, child)` edges of the forest over the top k.
    edges: BTreeSet<(String, String)>,
}

/// `I(d)`: the union of the extractors' terms, in first-seen order.
fn important_terms(extractors: &[&dyn TermExtractor], doc: &Document) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for e in extractors {
        for t in e.extract(&doc.full_text()) {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    out
}

/// `terms(d)`: normalized words of at least two bytes that are not
/// stopwords, plus the bigrams of adjacent such words.
fn doc_terms(doc: &Document) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut prev: Option<String> = None;
    for tok in tokens(&doc.full_text()) {
        if tok.kind != TokenKind::Word {
            prev = None;
            continue;
        }
        let w = normalize_term(tok.text);
        if is_stopword(&w) || w.len() < 2 {
            prev = None;
            continue;
        }
        if let Some(p) = &prev {
            out.insert(format!("{p} {w}"));
        }
        out.insert(w.clone());
        prev = Some(w);
    }
    out
}

/// The context terms of one important term: every resource's answer,
/// normalized, without empties, stopwords, one-byte terms and the term
/// itself.
fn context_terms(resources: &[&dyn ContextResource], term: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for r in resources {
        for raw in r.context_terms(term) {
            let c = normalize_term(&raw);
            if !c.is_empty() && c != term && !is_stopword(&c) && c.len() >= 2 {
                out.insert(c);
            }
        }
    }
    out
}

/// `⌈log2 Rank(t)⌉` for every term, with competition ranks (ties share
/// the rank of the first of their group) from the sorted frequencies; a
/// term absent from the table ranks after every present one.
fn rank_bins(freqs: &BTreeMap<String, u64>) -> impl Fn(&str) -> u32 + '_ {
    let mut sorted: Vec<u64> = freqs.values().copied().filter(|&f| f > 0).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    move |t: &str| {
        let f = freqs.get(t).copied().unwrap_or(0);
        let rank = 1 + sorted.partition_point(|&g| g > f) as u64;
        (0..).find(|&b| 1u64 << b >= rank).unwrap()
    }
}

/// `−log λ = logL(p1, df_C) + logL(p2, df) − logL(p, df_C) − logL(p, df)`
/// over `n` documents, `logL(p, k) = k·ln p + (n − k)·ln(1 − p)` with
/// `0·ln 0 = 0`, `p1 = df_C/n`, `p2 = df/n`, `p = (df + df_C)/2n`.
fn neg_log_lambda(df: u64, df_c: u64, n: u64) -> f64 {
    let n = n as f64;
    let x_ln = |k: f64, p: f64| if k == 0.0 { 0.0 } else { k * p.ln() };
    let log_l = |p: f64, k: f64| x_ln(k, p) + x_ln(n - k, 1.0 - p);
    let (k1, k2) = (df_c as f64, df as f64);
    let p = (k1 + k2) / (2.0 * n);
    let stat = log_l(k1 / n, k1) - log_l(p, k1) + (log_l(k2 / n, k2) - log_l(p, k2));
    stat.max(0.0)
}

/// Steps 1–4 over `docs`.
fn oracle(
    docs: &[Document],
    extractors: &[&dyn TermExtractor],
    resources: &[&dyn ContextResource],
    options: &PipelineOptions,
) -> OracleRun {
    let n = docs.len() as u64;
    // Steps 1 and 2.
    let mut rows: Vec<BTreeSet<String>> = Vec::new();
    let mut df: BTreeMap<String, u64> = BTreeMap::new();
    let mut df_c: BTreeMap<String, u64> = BTreeMap::new();
    for doc in docs {
        let terms = doc_terms(doc);
        let mut row = terms.clone();
        for t in important_terms(extractors, doc) {
            row.extend(context_terms(resources, &t));
        }
        for t in &terms {
            *df.entry(t.clone()).or_default() += 1;
        }
        for t in &row {
            *df_c.entry(t.clone()).or_default() += 1;
        }
        rows.push(row);
    }

    // Step 3.
    let (bin_d, bin_c) = (rank_bins(&df), rank_bins(&df_c));
    let mut ranked: Vec<(String, u64, u64, f64)> = Vec::new();
    for (t, &c) in &df_c {
        let d = df.get(t).copied().unwrap_or(0);
        let shift_f = c as i64 - d as i64;
        let shift_r = i64::from(bin_d(t)) - i64::from(bin_c(t));
        if shift_f > 0 && shift_r > 0 && c >= options.min_df_c {
            ranked.push((t.clone(), d, c, neg_log_lambda(d, c, n)));
        }
    }
    ranked.sort_by(|a, b| b.3.total_cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    let top_k = options.top_k.min(ranked.len());

    // Step 4, over the candidates in rank order.
    let params = SubsumptionParams {
        threshold: options.subsumption_threshold,
        ..Default::default()
    };
    let terms: Vec<&str> = ranked[..top_k].iter().map(|c| c.0.as_str()).collect();
    let docs_with = |t: &str| rows.iter().filter(|r| r.contains(t)).count() as u64;
    let both = |x: &str, y: &str| {
        rows.iter()
            .filter(|r| r.contains(x) && r.contains(y))
            .count() as u64
    };
    let dfs: Vec<u64> = terms.iter().map(|t| docs_with(t)).collect();
    let max_parent_df = (params.max_parent_df_fraction * n as f64).ceil() as u64;
    let mut parent: Vec<Option<usize>> = vec![None; terms.len()];
    for y in 0..terms.len() {
        // (parent, confidence band): the strongest band wins, then the
        // more specific parent, then the earlier one.
        let mut best: Option<(usize, u64)> = None;
        for x in 0..terms.len() {
            if x == y || dfs[x] == 0 || dfs[x] > max_parent_df {
                continue;
            }
            if (dfs[x] as f64) < params.min_generality_ratio * dfs[y] as f64 {
                continue;
            }
            let co = both(terms[x], terms[y]) as f64;
            let p_x_given_y = co / dfs[y] as f64;
            let p_y_given_x = co / dfs[x] as f64;
            let lift = p_x_given_y / (dfs[x] as f64 / n as f64);
            if p_x_given_y < params.threshold || p_y_given_x >= 1.0 || lift < params.min_lift {
                continue;
            }
            let band = (p_x_given_y * 20.0).floor() as u64;
            let better = best.is_none_or(|(b, b_band)| {
                (band, std::cmp::Reverse(dfs[x])) > (b_band, std::cmp::Reverse(dfs[b]))
            });
            if better {
                best = Some((x, band));
            }
        }
        parent[y] = best.map(|(x, _)| x);
    }
    // Cut the edge that closes a cycle, walking from every term.
    for start in 0..terms.len() {
        let mut seen = BTreeSet::new();
        let mut cur = start;
        while let Some(p) = parent[cur] {
            if seen.contains(&p) {
                parent[cur] = None;
                break;
            }
            seen.insert(cur);
            cur = p;
        }
    }
    let edges = parent
        .iter()
        .enumerate()
        .filter_map(|(y, p)| p.map(|x| (terms[x].to_string(), terms[y].to_string())))
        .collect();
    OracleRun {
        ranked,
        top_k,
        edges,
    }
}

/// Assert that `snap` publishes what the oracle computed.
fn assert_matches(snap: &FacetSnapshot, want: &OracleRun, label: &str) {
    let within = |a: f64, b: f64| (a - b).abs() <= SCORE_TOL * a.abs().max(b.abs()).max(1e-300);
    let rank_of: BTreeMap<&str, usize> = want
        .ranked
        .iter()
        .enumerate()
        .map(|(i, c)| (c.0.as_str(), i))
        .collect();
    let got: Vec<(&str, u64, u64, f64)> = snap
        .candidates()
        .iter()
        .map(|c| (snap.vocab().term(c.term), c.df, c.df_c, c.score))
        .collect();
    assert_eq!(got.len(), want.top_k, "{label}: candidate count");
    for &(term, df, df_c, score) in &got {
        let Some(&i) = rank_of.get(term) else {
            panic!("{label}: {term:?} is not an oracle candidate");
        };
        let (_, want_df, want_df_c, want_score) = &want.ranked[i];
        assert_eq!(
            (df, df_c),
            (*want_df, *want_df_c),
            "{label}: {term:?} df/df_C"
        );
        assert!(
            within(score, *want_score),
            "{label}: {term:?} score {score} vs {want_score}"
        );
        // Kept past the oracle's cut only in a tie with the last kept.
        if i >= want.top_k {
            assert!(
                within(*want_score, want.ranked[want.top_k - 1].3),
                "{label}: {term:?} ranks below the oracle's top k"
            );
        }
    }
    for pair in got.windows(2) {
        let (a, b) = (rank_of[pair[0].0], rank_of[pair[1].0]);
        assert!(
            a < b || within(want.ranked[a].3, want.ranked[b].3),
            "{label}: {:?} ranked before {:?}",
            pair[0].0,
            pair[1].0
        );
    }
    let edges: BTreeSet<(String, String)> = snap.forest().edges().into_iter().collect();
    assert_eq!(edges, want.edges, "{label}: forest edges");
}

// ---- random corpora ---------------------------------------------------

/// Finds the capitalized word pairs of a text, normalized.
struct CapitalizedPairs;
impl TermExtractor for CapitalizedPairs {
    fn name(&self) -> &'static str {
        "Pairs"
    }
    fn extract(&self, text: &str) -> Vec<String> {
        let words: Vec<&str> = tokens(text)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Word)
            .map(|t| t.text)
            .collect();
        let capital = |w: &str| w.starts_with(|c: char| c.is_uppercase());
        let mut out: Vec<String> = Vec::new();
        for w in words.windows(2) {
            let t = normalize_term(&format!("{} {}", w[0], w[1]));
            if capital(w[0]) && capital(w[1]) && !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }
}

/// Finds listed names (whole phrases, case-insensitively), in list order.
struct Gazetteer(Vec<String>);
impl TermExtractor for Gazetteer {
    fn name(&self) -> &'static str {
        "Gazetteer"
    }
    fn extract(&self, text: &str) -> Vec<String> {
        let text = normalize_term(text);
        self.0
            .iter()
            .filter(|n| text.contains(n.as_str()))
            .cloned()
            .collect()
    }
}

/// A resource answering from a fixed map.
#[derive(Clone)]
struct MapResource(&'static str, BTreeMap<String, Vec<String>>);
impl ContextResource for MapResource {
    fn name(&self) -> &'static str {
        self.0
    }
    fn context_terms(&self, term: &str) -> Vec<String> {
        self.1.get(term).cloned().unwrap_or_default()
    }
}

const GENERAL: [&str; 3] = ["politics", "sports", "finance"];
const SPECIFIC: [&str; 6] = [
    "elections",
    "parliament",
    "football",
    "tennis",
    "banking",
    "stocks",
];
const BACKGROUND: [&str; 8] = [
    "river", "market", "quiet", "council", "harbor", "signal", "winter", "bridge",
];
const SYLLABLES: [&str; 8] = ["ar", "bel", "cor", "dan", "el", "fin", "gor", "hal"];

/// One random world: documents, two extractors' worth of names, and two
/// resources mapping names to a two-level concept scheme (with noise the
/// expansion must normalize away).
struct Case {
    docs: Vec<Document>,
    names: Vec<String>,
    general: MapResource,
    specific: MapResource,
    options: PipelineOptions,
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

fn random_case(rng: &mut TestRng) -> Case {
    let capitalize = |s: &str| s[..1].to_uppercase() + &s[1..];
    let mut names: Vec<String> = Vec::new();
    while names.len() < 3 + rng.below(4) as usize {
        let word =
            |rng: &mut TestRng| format!("{}{}", pick(rng, &SYLLABLES), pick(rng, &SYLLABLES));
        let name = format!("{} {}", word(rng), word(rng));
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut general = BTreeMap::new();
    let mut specific = BTreeMap::new();
    for name in &names {
        let s = rng.below(SPECIFIC.len() as u64) as usize;
        let mut answer = vec![capitalize(SPECIFIC[s])];
        match rng.below(4) {
            0 => answer.push("  The ".into()),
            1 => answer.push(name.to_uppercase()),
            2 => answer.push("x".into()),
            _ => answer.push(format!("{}  Desk", capitalize(SPECIFIC[s]))),
        }
        specific.insert(name.clone(), answer);
        if rng.below(5) > 0 {
            general.insert(name.clone(), vec![GENERAL[s / 2].to_string()]);
        }
    }
    let n_docs = 6 + rng.below(30) as usize;
    let docs = (0..n_docs)
        .map(|i| {
            let mut words: Vec<String> = Vec::new();
            for _ in 0..rng.below(3) {
                let name = pick(rng, &names);
                words.push(
                    name.split(' ')
                        .map(capitalize)
                        .collect::<Vec<_>>()
                        .join(" "),
                );
                words.push(pick(rng, &["met", "and", "with", "at"]).to_string());
            }
            for _ in 0..2 + rng.below(5) {
                let w = match rng.below(8) {
                    0 => pick(rng, &SPECIFIC).to_string(),
                    1 => pick(rng, &GENERAL).to_string(),
                    2 => "the".to_string(),
                    _ => pick(rng, &BACKGROUND).to_string(),
                };
                words.push(w);
            }
            Document {
                id: DocId(i as u32),
                source: 0,
                day: 0,
                title: capitalize(pick(rng, &BACKGROUND)),
                text: words.join(" ") + ".",
            }
        })
        .collect();
    let options = PipelineOptions {
        top_k: pick(rng, &[2, 4, 8, 50]),
        expansion: ExpansionOptions {
            threads: 1 + rng.below(2) as usize,
        },
        subsumption_threshold: pick(rng, &[0.5, 0.6, 0.75, 0.8]),
        min_df_c: 1 + rng.below(3),
    };
    Case {
        docs,
        names,
        general: MapResource("General", general),
        specific: MapResource("Specific", specific),
        options,
    }
}

/// Contiguous batches cut at random points (at least two when the corpus
/// allows).
fn random_split(rng: &mut TestRng, docs: &[Document]) -> Vec<Vec<Document>> {
    let mut cuts: BTreeSet<usize> = (0..1 + rng.below(3))
        .map(|_| 1 + rng.below(docs.len() as u64 - 1) as usize)
        .collect();
    cuts.insert(docs.len());
    let mut start = 0;
    cuts.into_iter()
        .map(|end| {
            let batch = docs[start..end].to_vec();
            start = end;
            batch
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The index equals the oracle over shard counts 1–3, one batch or a
    /// random split, with extraction inside the index or handed to
    /// `append_extracted`; a malformed `append_extracted` changes nothing.
    #[test]
    fn index_matches_the_paper_formula_oracle(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("pipeline_oracle {seed}"));
        let case = random_case(&mut rng);
        let pairs = CapitalizedPairs;
        let gazetteer = Gazetteer(case.names.iter().take(2).cloned().collect());
        let extractors: Vec<&dyn TermExtractor> = vec![&pairs, &gazetteer];
        let resources: Vec<&dyn ContextResource> = vec![&case.specific, &case.general];
        let want = oracle(&case.docs, &extractors, &resources, &case.options);
        let important: Vec<Vec<String>> =
            case.docs.iter().map(|d| important_terms(&extractors, d)).collect();

        for shards in 1..=3 {
            let label = format!("seed {seed}, {shards} shards");
            let one_batch = ShardedFacetIndex::build(
                case.docs.clone(),
                shards,
                extractors.clone(),
                resources.clone(),
                case.options.clone(),
            )
            .unwrap();
            assert_matches(&one_batch.snapshot(), &want, &format!("{label}, one batch"));

            let mut split = ShardedFacetIndex::new(
                shards,
                extractors.clone(),
                resources.clone(),
                case.options.clone(),
            );
            let mut given = ShardedFacetIndex::new(
                shards,
                Vec::new(),
                resources.clone(),
                case.options.clone(),
            );
            let mut offset = 0;
            for batch in random_split(&mut rng, &case.docs) {
                let lists = important[offset..offset + batch.len()].to_vec();
                offset += batch.len();
                let before = given.snapshot();
                let err = given
                    .append_extracted(batch.clone(), lists[1..].to_vec())
                    .unwrap_err();
                prop_assert_eq!(
                    err,
                    IndexError::Expansion(ExpansionError::DocumentCountMismatch {
                        documents: batch.len(),
                        important: batch.len() - 1,
                    })
                );
                prop_assert!(std::sync::Arc::ptr_eq(&before, &given.snapshot()));
                prop_assert_eq!(given.len(), offset - batch.len());
                given.append_extracted(batch.clone(), lists).unwrap();
                split.append(batch).unwrap();
            }
            assert_matches(&split.snapshot(), &want, &format!("{label}, split"));
            assert_matches(&given.snapshot(), &want, &format!("{label}, append_extracted"));
        }
    }
}

/// A fault schedule fails some terms on the specific-concept resource
/// during the build; once it heals, `repair()` converges to the oracle's
/// fault-free answer at every shard count.
#[test]
fn repaired_index_matches_the_oracle() {
    let mut rng = TestRng::deterministic("repaired_index_matches_the_oracle");
    let mut degraded_seen = 0;
    for case_no in 0..12 {
        let case = random_case(&mut rng);
        let pairs = CapitalizedPairs;
        let extractors: Vec<&dyn TermExtractor> = vec![&pairs];
        let healthy: Vec<&dyn ContextResource> = vec![&case.specific, &case.general];
        let want = oracle(&case.docs, &extractors, &healthy, &case.options);
        for shards in 1..=3 {
            let faulty = FaultyResource::new(
                case.specific.clone(),
                FaultPlan::seeded(case_no, 500),
                VirtualClock::new(),
            );
            let resources: Vec<&dyn ContextResource> = vec![&faulty, &case.general];
            let mut index =
                ShardedFacetIndex::new(shards, extractors.clone(), resources, case.options.clone());
            for batch in random_split(&mut rng, &case.docs) {
                index.append(batch).unwrap();
            }
            degraded_seen += usize::from(!index.snapshot().is_fully_covered());
            faulty.heal();
            index.repair().unwrap();
            let label = format!("case {case_no}, {shards} shards, repaired");
            assert!(index.snapshot().is_fully_covered(), "{label}");
            assert_matches(&index.snapshot(), &want, &label);
        }
    }
    assert!(degraded_seen > 0, "the schedule must degrade some builds");
}

/// Answers each document's `I(d)` from a list keyed by its full text:
/// the oracle's view of lists handed to `append_extracted`.
struct Listed(BTreeMap<String, Vec<String>>);
impl TermExtractor for Listed {
    fn name(&self) -> &'static str {
        "Listed"
    }
    fn extract(&self, text: &str) -> Vec<String> {
        self.0.get(text).cloned().unwrap_or_default()
    }
}

/// `case`'s documents made hostile: an empty one, one of at least 1 MiB,
/// one of non-ASCII and control characters, and every input id repeated.
fn hostile_docs(rng: &mut TestRng, case: &Case) -> Vec<Document> {
    let mut docs = case.docs.clone();
    docs[0].title.clear();
    docs[0].text.clear();
    let mut big = String::new();
    while big.len() < 1 << 20 {
        big.push_str(&pick(rng, &case.docs).text);
        big.push(' ');
    }
    let name = pick(rng, &case.names);
    let odd = format!(
        "Ünïcödé {name} \u{0}\u{7}\u{1b}[31m Grüße aus Zürich — 東京 naïve café\t\r\n{}",
        pick(rng, &BACKGROUND)
    );
    for (title, text) in [("Big", big), ("\u{feff}Odd\u{200b}", odd)] {
        let at = rng.below(docs.len() as u64 + 1) as usize;
        docs.insert(
            at,
            Document {
                id: DocId(0),
                source: 0,
                day: 0,
                title: title.into(),
                text,
            },
        );
    }
    for d in &mut docs {
        d.id = DocId(rng.below(3) as u32);
    }
    docs
}

/// One hostile `I(d)` per distinct full text: empty entries, repeated
/// entries, 10,000 entries, or none.
fn hostile_lists(rng: &mut TestRng, case: &Case, docs: &[Document]) -> Listed {
    let mut lists = BTreeMap::new();
    for d in docs {
        let list = match rng.below(4) {
            0 => vec![String::new(), pick(rng, &case.names), String::new()],
            1 => vec![pick(rng, &case.names); 3],
            2 => (0..10_000)
                .map(|k| match k % 3 {
                    0 => case.names[k % case.names.len()].clone(),
                    _ => format!("unknown {}", k % 50),
                })
                .collect(),
            _ => Vec::new(),
        };
        lists.entry(d.full_text()).or_insert(list);
    }
    Listed(lists)
}

/// Legal but hostile input never panics. Documents with empty text, a
/// text of at least 1 MiB, non-ASCII and control characters, and repeated
/// input ids go through `append`; `I(d)` lists with empty, repeated and
/// 10,000 entries through `append_extracted`. Every call returns `Ok`
/// and the index then matches the oracle, or returns a typed
/// [`IndexError`].
#[test]
fn hostile_documents_and_lists_match_the_oracle_or_fail_typed() {
    let mut rng = TestRng::deterministic("hostile_documents_and_lists");
    let mut matched = 0;
    for case_no in 0..3 {
        let case = random_case(&mut rng);
        let docs = hostile_docs(&mut rng, &case);
        assert!(docs.iter().any(|d| d.text.len() >= 1 << 20));
        let listed = hostile_lists(&mut rng, &case, &docs);
        let lists: Vec<Vec<String>> = docs
            .iter()
            .map(|d| listed.extract(&d.full_text()))
            .collect();
        assert!(lists.iter().any(|l| l.len() == 10_000));
        let pairs = CapitalizedPairs;
        let gazetteer = Gazetteer(case.names.iter().take(2).cloned().collect());
        let resources: Vec<&dyn ContextResource> = vec![&case.specific, &case.general];
        let extracting: Vec<&dyn TermExtractor> = vec![&pairs, &gazetteer];
        let want_extracted = oracle(&docs, &extracting, &resources, &case.options);
        let want_listed = oracle(&docs, &[&listed], &resources, &case.options);

        for shards in [1, 3] {
            let label = format!("case {case_no}, {shards} shards");
            let mut extracted = ShardedFacetIndex::new(
                shards,
                extracting.clone(),
                resources.clone(),
                case.options.clone(),
            );
            let mut given =
                ShardedFacetIndex::new(shards, Vec::new(), resources.clone(), case.options.clone());
            let mut offset = 0;
            let fed = random_split(&mut rng, &docs).into_iter().try_for_each(
                |batch| -> Result<(), IndexError> {
                    let batch_lists = lists[offset..offset + batch.len()].to_vec();
                    offset += batch.len();
                    given.append_extracted(batch.clone(), batch_lists)?;
                    extracted.append(batch)?;
                    Ok(())
                },
            );
            match fed {
                Ok(()) => {
                    assert_matches(&extracted.snapshot(), &want_extracted, &label);
                    assert_matches(&given.snapshot(), &want_listed, &format!("{label}, listed"));
                    matched += 1;
                }
                Err(e) => eprintln!("{label}: typed refusal: {e}"),
            }
        }
    }
    assert!(matched > 0, "no hostile build completed");
}

/// Finds listed names like [`Gazetteer`], but returns each as an alias
/// (`"<name> affair"`) that no document contains as a term, so an answer
/// naming the queried alias itself would add a term to the row.
struct Aliases(Vec<String>);
impl TermExtractor for Aliases {
    fn name(&self) -> &'static str {
        "Aliases"
    }
    fn extract(&self, text: &str) -> Vec<String> {
        let text = normalize_term(text);
        self.0
            .iter()
            .filter(|n| text.contains(n.as_str()))
            .map(|n| format!("{n} affair"))
            .collect()
    }
}

/// `case`'s specific-concept resource made hostile but legal, answering
/// each name and its alias. Each name's answers are one of four kinds,
/// returned with the kinds served: 0, empty; 1, its concept repeated; 2,
/// at least 10,000 terms; 3, its concept among terms that need
/// normalizing — case, padding, control characters, the queried term
/// itself, stopwords, one-byte and blank terms.
fn hostile_resource(rng: &mut TestRng, case: &Case) -> (MapResource, BTreeSet<usize>) {
    let mut answers = BTreeMap::new();
    let mut kinds = BTreeSet::new();
    let offset = rng.below(4) as usize;
    for (i, name) in case.names.iter().enumerate() {
        let concept = case.specific.1[name][0].clone();
        let kind = (i + offset) % 4;
        kinds.insert(kind);
        for key in [name.clone(), format!("{name} affair")] {
            let answer = match kind {
                0 => Vec::new(),
                1 => std::iter::repeat_n(concept.clone(), 5)
                    .chain([concept.to_uppercase(), format!(" {concept} ")])
                    .collect(),
                2 => (0..10_000)
                    .map(|k| match k % 2 {
                        0 => concept.clone(),
                        _ => format!("facet {}", k % 3_000),
                    })
                    .collect(),
                _ => vec![
                    format!("\t  {}  \n", concept.to_uppercase()),
                    "\u{7}Bell\u{0}Ring".to_string(),
                    key.to_uppercase(),
                    format!("  {key}"),
                    "The".to_string(),
                    "OF".to_string(),
                    "x".to_string(),
                    "Grüße  aus\tZürich".to_string(),
                    String::new(),
                    "   ".to_string(),
                ],
            };
            answers.insert(key, answer);
        }
    }
    (MapResource("Hostile", answers), kinds)
}

/// Hostile resource answers never panic: empty, duplicated, 10,000-term
/// and non-normalized answers go through `append` at one and three
/// workers, and through `repair()` once a fault schedule in front of the
/// same resource heals. Every run matches the oracle over the healthy
/// hostile resource, or returns a typed [`IndexError`].
#[test]
fn hostile_resource_answers_match_the_oracle_or_fail_typed() {
    let mut rng = TestRng::deterministic("hostile_resource_answers");
    let mut kinds = BTreeSet::new();
    let (mut matched, mut degraded_seen) = (0, 0);
    for case_no in 0..4 {
        let case = random_case(&mut rng);
        let (hostile, served) = hostile_resource(&mut rng, &case);
        kinds.extend(served);
        let pairs = CapitalizedPairs;
        let gazetteer = Gazetteer(case.names.iter().take(2).cloned().collect());
        let aliases = Aliases(case.names.clone());
        let extractors: Vec<&dyn TermExtractor> = vec![&pairs, &gazetteer, &aliases];
        let healthy: Vec<&dyn ContextResource> = vec![&hostile, &case.general];
        let want = oracle(&case.docs, &extractors, &healthy, &case.options);

        for workers in [1, 3] {
            let label = format!("case {case_no}, {workers} workers");
            let mut appended = ShardedFacetIndex::new(
                workers,
                extractors.clone(),
                healthy.clone(),
                case.options.clone(),
            );
            let fed = random_split(&mut rng, &case.docs)
                .into_iter()
                .try_for_each(|batch| appended.append(batch).map(drop));

            let faulty = FaultyResource::new(
                hostile.clone(),
                FaultPlan::seeded(case_no, 500),
                VirtualClock::new(),
            );
            let resources: Vec<&dyn ContextResource> = vec![&faulty, &case.general];
            let mut repaired = ShardedFacetIndex::new(
                workers,
                extractors.clone(),
                resources,
                case.options.clone(),
            );
            let repaired_fed = random_split(&mut rng, &case.docs)
                .into_iter()
                .try_for_each(|batch| repaired.append(batch).map(drop))
                .and_then(|()| {
                    degraded_seen += usize::from(!repaired.snapshot().is_fully_covered());
                    faulty.heal();
                    repaired.repair().map(drop)
                });

            for (how, fed, index) in [
                ("append", fed, &appended),
                ("repair", repaired_fed, &repaired),
            ] {
                let label = format!("{label}, {how}");
                match fed {
                    Ok(()) => {
                        let snap = index.snapshot();
                        assert!(snap.is_fully_covered(), "{label}");
                        assert_matches(&snap, &want, &label);
                        matched += 1;
                    }
                    Err(e) => eprintln!("{label}: typed refusal: {e}"),
                }
            }
        }
    }
    assert_eq!(kinds.len(), 4, "every kind of hostile answer was served");
    assert!(degraded_seen > 0, "the schedule must degrade some builds");
    assert!(matched > 0, "no hostile build completed");
}
