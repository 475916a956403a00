#![warn(missing_docs)]

//! # facet-lint
//!
//! A workspace-specific static-analysis engine guarding the invariants
//! behind the repo's determinism claim (sharded/incremental builds are
//! string-identical to the batch pipeline): no unordered-map iteration
//! feeding output, no wall clock or OS entropy in the pipeline, no
//! concurrency outside sanctioned sites, no panics in library crates.
//!
//! The engine is two-phase. Phase one is a hand-rolled lexer
//! ([`lexer`]) plus token-sequence rules ([`rules`]) — deliberately
//! *not* a type checker: the rules only need comment/string-aware token
//! streams with spans, and the zero-dependency lexer keeps the lint
//! usable in this offline workspace. Phase two (v2) builds a per-crate
//! symbol table and approximate call graph ([`parser`]) and runs three
//! program-level analyses over it: interprocedural determinism taint
//! ([`taint`], D5), publication-point and held-guard discipline
//! ([`pubpoint`], C2), and the sanction-ledger audit ([`audit`], A1).
//! Policy lives in the root `Lint.toml` ([`config`]); findings are
//! reported deterministically ([`report`]). See DESIGN.md §13 for the
//! rule catalogue and `lint:allow` etiquette.

pub mod audit;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod pubpoint;
pub mod report;
pub mod rules;
pub mod taint;
pub mod walk;

use config::Config;
use report::LintReport;
use rules::Finding;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Errors from a workspace lint run (config or I/O trouble — findings
/// are not errors).
#[derive(Debug)]
pub enum LintError {
    /// `Lint.toml` missing or malformed.
    Config(config::ConfigError),
    /// A file or directory could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Config(e) => write!(f, "{e}"),
            LintError::Io { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<config::ConfigError> for LintError {
    fn from(e: config::ConfigError) -> Self {
        LintError::Config(e)
    }
}

/// Load `Lint.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<Config, LintError> {
    let path = root.join("Lint.toml");
    let text = std::fs::read_to_string(&path).map_err(|source| LintError::Io {
        path: path.display().to_string(),
        source,
    })?;
    Ok(config::parse(&text)?)
}

/// Lint a set of files as one program: per-file token rules, then the
/// workspace-global analyses (D5 taint, C2 publication discipline, A1
/// sanction audit) over the shared symbol table and call graph.
pub fn lint_sources(sources: &[(walk::SourceFile, String)], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut units: Vec<parser::FileUnit> = Vec::with_capacity(sources.len());
    for (file, text) in sources {
        let lexed = lexer::lex(text);
        findings.extend(rules::analyze(file, &lexed, config));
        units.push(parser::FileUnit {
            source: file.clone(),
            tokens: lexer::strip_test_code(lexed.tokens),
            allows: lexed.allows,
        });
    }

    let program = parser::Program::build(&units);
    let d5 = taint::analyze(&units, &program, config);
    let c2 = pubpoint::analyze(&units, &program, config);

    // Hit lines for the A1 orphan audit: unconditional token-rule hits
    // plus the program-level hits — for D5, the sink *and* every chain
    // step count (an allow anywhere along a taint chain is live).
    let mut hits: audit::HitLines = Default::default();
    for u in &units {
        let set = hits.entry(u.source.rel_path.clone()).or_default();
        for (rule, line, _, _) in rules::raw_hits(&u.tokens) {
            set.insert((rule.to_string(), line));
        }
    }
    for f in d5.iter().chain(c2.iter()) {
        hits.entry(f.file.clone())
            .or_default()
            .insert((f.rule.clone(), f.line));
        for s in &f.chain {
            hits.entry(s.file.clone())
                .or_default()
                .insert((f.rule.clone(), s.line));
        }
    }
    let a1 = audit::analyze(&units, &program, config, &hits);

    // Apply `lint:allow` suppression to the program-level findings (a
    // D5 chain may be suppressed at any of its steps; A1 is not
    // suppressible, like A0).
    let allowed = |file: &str, rule: &str, line: u32| {
        units.iter().any(|u| {
            u.source.rel_path == file
                && u.allows.iter().any(|a| {
                    a.rule == rule && a.has_reason && (a.line == line || a.next_code_line == line)
                })
        })
    };
    findings.extend(d5.into_iter().filter(|f| {
        !allowed(&f.file, &f.rule, f.line)
            && !f.chain.iter().any(|s| allowed(&s.file, &f.rule, s.line))
    }));
    findings.extend(
        c2.into_iter()
            .filter(|f| !allowed(&f.file, &f.rule, f.line)),
    );
    findings.extend(a1);
    findings
}

/// Lint the whole workspace rooted at `root`, recording per-rule
/// counters on `recorder`.
pub fn lint_workspace(
    root: &Path,
    recorder: &facet_obs::Recorder,
) -> Result<LintReport, LintError> {
    let (config, sources) = workspace_sources(root)?;
    let findings = lint_sources(&sources, &config);
    Ok(LintReport::assemble(findings, sources.len(), recorder))
}

/// The policy under `root` and the text of every file it has linted.
fn workspace_sources(root: &Path) -> Result<(Config, Vec<(walk::SourceFile, String)>), LintError> {
    let config = load_config(root)?;
    let files = walk::workspace_files(root, &config.exclude).map_err(|source| LintError::Io {
        path: root.display().to_string(),
        source,
    })?;
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let full = root.join(&file.rel_path);
        let text = std::fs::read_to_string(&full).map_err(|source| LintError::Io {
            path: full.display().to_string(),
            source,
        })?;
        sources.push((file, text));
    }
    Ok((config, sources))
}

/// Lines of `text` that hold a token outside test items: the token
/// stream [`lexer::strip_test_code`] leaves, by line. Comments, blank
/// lines and every `#[cfg(test)]` or `#[test]` item, wherever it sits in
/// the file, do not count.
pub fn code_lines(text: &str) -> usize {
    let mut lines: Vec<u32> = lexer::strip_test_code(lexer::lex(text).tokens)
        .iter()
        .map(|t| t.line)
        .collect();
    // Tokens come in source order, so equal lines are adjacent.
    lines.dedup();
    lines.len()
}

/// [`code_lines`] of every file the workspace lint reads, summed per
/// crate (`root` for the workspace package's own `src/`), by crate name.
pub fn loc_by_crate(root: &Path) -> Result<BTreeMap<String, usize>, LintError> {
    let mut out = BTreeMap::new();
    for (file, text) in workspace_sources(root)?.1 {
        *out.entry(file.krate).or_insert(0) += code_lines(&text);
    }
    Ok(out)
}

/// The catalogue text + a live example finding for `--explain <rule>`.
/// Accepts the rule name (`taint-unordered`) or code (`D5`); `None` for
/// unknown rules.
pub fn explain(rule: &str) -> Option<String> {
    let meta = rules::RULES
        .iter()
        .find(|r| r.name == rule || r.code.eq_ignore_ascii_case(rule))?;
    let description = match meta.code {
        "D1" => {
            "Iteration over HashMap/HashSet is seed-dependent: the same inserts \
             enumerate in a different order on every run. Anything order-dependent \
             built from such an iteration breaks the sharded == batch determinism \
             invariant. Sort the result, aggregate order-insensitively, or use a \
             BTree container."
        }
        "D2" => {
            "Wall-clock reads (Instant::now, SystemTime::now, std::time beyond \
             Duration) make pipeline output depend on when it ran. Timing belongs \
             in facet-obs (HistogramHandle::time_if); everything else uses the \
             virtual clock."
        }
        "D3" => {
            "Entropy-seeded RNG (thread_rng, from_entropy, OsRng, rand::random) \
             produces unreproducible runs. Pipeline randomness must come from a \
             seeded StdRng so every run draws the same sequence."
        }
        "D4" => {
            "String-keyed maps in hot paths allocate on build-up and hash/compare \
             byte-by-byte on every probe. Intern the keys (facet_textkit::Vocabulary) \
             and index a dense SymTable/Vec by term id; serving-edge and \
             backend-boundary maps that intentionally materialize strings are \
             annotated instead."
        }
        "C1" => {
            "Threading, locks, and unsafe code are confined to the sanctioned \
             concurrency surface declared in Lint.toml ([rules.concurrency] \
             sanctioned). Anywhere else they are a determinism and safety risk \
             the rest of the workspace is not reviewed for."
        }
        "P1" => {
            "Library code must not panic: .unwrap()/.expect()/panic!/todo! abort \
             the caller. Return a typed error (IndexError/ExpansionError \
             precedent) or restructure so the failure cannot happen."
        }
        "T1" => {
            "One case fold: Steps 1-3 match strings (a term against a title, a \
             context term against C(D), df against df_C), so every term, \
             dictionary key and query lowercases through facet_textkit::lowercase \
             (or normalize_term). to_lowercase, to_ascii_lowercase and \
             make_ascii_lowercase are a second fold: str::to_lowercase maps a \
             word-final capital sigma to a different letter."
        }
        "D5" => {
            "Interprocedural determinism taint. Values originating from \
             HashMap/HashSet iteration, wall-clock reads, or unseeded RNG are \
             tracked through function returns and arguments across the workspace \
             call graph; sorting, order-insensitive aggregation, or collecting \
             into a BTree container sanitizes. A tainted value reaching a \
             published artifact (the type names under `published` in \
             [rules.taint-unordered]) is a finding, with the full propagation \
             chain printed span-by-span — this is what catches a helper function \
             laundering hash order through its return value."
        }
        "C2" => {
            "Publication discipline for the serving tier. Deref-assigns through \
             a lock guard (`*state.write() = snapshot`, the snapshot-swap idiom) \
             may appear only inside functions declared under publication-points \
             in [rules.publication-point]. Additionally, acquiring a lock while \
             a let-bound guard on a different receiver is still live is flagged \
             as a lock-order-inversion seed."
        }
        "A0" => {
            "lint:allow hygiene: every directive must name a known rule and carry \
             a non-empty reason=\"...\". A suppression that cannot say why it \
             exists is a policy violation, not a suppression."
        }
        "A1" => {
            "Sanction-ledger staleness: every [rules.concurrency] sanctioned \
             entry must still cover a module with real concurrency hits, every \
             publication-points entry must name a function that still exists, and \
             every well-formed lint:allow must sit on a line where its rule still \
             fires. Refactors that move or delete code fail the build until the \
             ledger is updated."
        }
        _ => return None,
    };
    let mut out = format!(
        "{} `{}`\n\n{}\n\nexample:\n",
        meta.code, meta.name, description
    );
    for f in example_findings(meta.code) {
        out.push_str(&report::render_finding(&f));
    }
    Some(out)
}

/// Run the embedded fixtures for one rule under a canned policy and
/// return that rule's findings (the `--explain` example).
fn example_findings(code: &str) -> Vec<Finding> {
    const EXPLAIN_CONFIG: &str = r#"
[lint]
exclude = []

[rules.unordered-iter]
severity = "deny"

[rules.wall-clock]
severity = "deny"

[rules.unseeded-rng]
severity = "deny"

[rules.string-keyed-map]
severity = "deny"

[rules.concurrency]
severity = "deny"
sanctioned = ["fixtures::long_gone"]

[rules.panic]
severity = "deny"

[rules.case-fold]
severity = "deny"

[rules.taint-unordered]
severity = "deny"
published = ["BrowseResult"]

[rules.publication-point]
severity = "deny"
publication-points = ["fixtures::c2_publication::Publisher::republish"]

[rules.stale-sanction]
severity = "deny"
"#;
    let fixture = |name: &str, text: &str| {
        (
            walk::SourceFile {
                rel_path: format!("crates/lint/fixtures/{name}"),
                krate: "fixtures".into(),
                module_path: format!(
                    "fixtures::{}",
                    name.trim_end_matches(".rs").replace('/', "::")
                ),
            },
            text.to_string(),
        )
    };
    let sources: Vec<(walk::SourceFile, String)> = match code {
        "D1" => vec![fixture(
            "d1_unordered_iter.rs",
            include_str!("../fixtures/d1_unordered_iter.rs"),
        )],
        "D2" => vec![fixture(
            "d2_wall_clock.rs",
            include_str!("../fixtures/d2_wall_clock.rs"),
        )],
        "D3" => vec![fixture(
            "d3_unseeded_rng.rs",
            include_str!("../fixtures/d3_unseeded_rng.rs"),
        )],
        "D4" => vec![fixture(
            "d4_string_keyed_map.rs",
            include_str!("../fixtures/d4_string_keyed_map.rs"),
        )],
        "C1" => vec![fixture(
            "c1_concurrency.rs",
            include_str!("../fixtures/c1_concurrency.rs"),
        )],
        "P1" => vec![fixture(
            "p1_panic.rs",
            include_str!("../fixtures/p1_panic.rs"),
        )],
        "T1" => vec![fixture(
            "t1_case_fold.rs",
            include_str!("../fixtures/t1_case_fold.rs"),
        )],
        "D5" => vec![
            fixture(
                "d5_taint_chain/helper.rs",
                include_str!("../fixtures/d5_taint_chain/helper.rs"),
            ),
            fixture(
                "d5_taint_chain/publish.rs",
                include_str!("../fixtures/d5_taint_chain/publish.rs"),
            ),
        ],
        "C2" => vec![fixture(
            "c2_publication.rs",
            include_str!("../fixtures/c2_publication.rs"),
        )],
        "A0" => vec![fixture(
            "a0_allow_hygiene.rs",
            include_str!("../fixtures/a0_allow_hygiene.rs"),
        )],
        "A1" => vec![fixture(
            "a1_stale.rs",
            include_str!("../fixtures/a1_stale.rs"),
        )],
        _ => return Vec::new(),
    };
    let config = config::parse(EXPLAIN_CONFIG).expect("embedded explain config parses");
    let mut findings: Vec<Finding> = lint_sources(&sources, &config)
        .into_iter()
        .filter(|f| f.code == code)
        .collect();
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.message).cmp(&(&b.file, b.line, b.col, &b.message))
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Severity;
    use crate::lexer::{lex, strip_test_code, TokenKind};
    use std::path::PathBuf;

    /// Lint one file's contents under `config`: the token-local rules
    /// only (the program-level D5/C2/A1 analyses need the whole file set,
    /// see [`lint_sources`]).
    fn lint_source(file: &walk::SourceFile, source: &str, config: &Config) -> Vec<Finding> {
        rules::analyze(file, &lex(source), config)
    }

    fn fixture_config() -> Config {
        config::parse(
            r#"
[lint]
exclude = []

[rules.unordered-iter]
severity = "deny"

[rules.wall-clock]
severity = "deny"

[rules.unseeded-rng]
severity = "deny"

[rules.concurrency]
severity = "deny"

[rules.panic]
severity = "deny"

[rules.case-fold]
severity = "deny"
"#,
        )
        .expect("fixture config parses")
    }

    fn fixture_file(name: &str) -> walk::SourceFile {
        walk::SourceFile {
            rel_path: format!("crates/lint/fixtures/{name}"),
            krate: "fixtures".into(),
            module_path: format!("fixtures::{}", name.trim_end_matches(".rs")),
        }
    }

    fn lint_fixture(name: &str) -> Vec<Finding> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        let source = std::fs::read_to_string(&path).expect("fixture readable");
        lint_source(&fixture_file(name), &source, &fixture_config())
    }

    // ----- lexer ------------------------------------------------------

    #[test]
    fn lexer_skips_comments_and_strings() {
        let src = r##"
// Instant::now in a comment
/* unwrap() in /* a nested */ block comment */
let s = "Instant::now() . unwrap()";
let r = r#"panic!"#;
let done = true;
"##;
        let lexed = lex(src);
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("Instant")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("done")));
        let strings: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text.contains('"'))
            .collect();
        assert_eq!(strings.len(), 2);
    }

    #[test]
    fn lexer_separates_lifetimes_from_chars() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn lexer_tracks_spans() {
        let lexed = lex("a\n  bc\n");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn lexer_collects_allow_directives() {
        let src = "let a = 1; // lint:allow(panic, reason=\"latch is infallible\")\nlet b = 2;\n// lint:allow(unordered-iter)\nlet c = 3;\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].rule, "panic");
        assert!(lexed.allows[0].has_reason);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].next_code_line, 2);
        assert_eq!(lexed.allows[1].rule, "unordered-iter");
        assert!(!lexed.allows[1].has_reason);
        assert_eq!(lexed.allows[1].next_code_line, 4);
    }

    #[test]
    fn strip_removes_cfg_test_items() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let tokens = strip_test_code(lex(src).tokens);
        let unwraps = tokens.iter().filter(|t| t.is_ident("unwrap")).count();
        assert_eq!(unwraps, 1, "only the live unwrap survives");
        assert!(tokens.iter().any(|t| t.is_ident("live2")));
    }

    #[test]
    fn code_lines_skip_inline_test_items_comments_and_blank_lines() {
        // An inline `#[cfg(test)]` helper between two live functions: a
        // count that stopped at the first `cfg(test)` line would read 2.
        let src = "//! Module doc.\n\
                   fn live() {\n    x.len();\n}\n\
                   \n\
                   #[cfg(test)]\n\
                   fn helper() -> u32 {\n    7\n}\n\
                   // A comment.\n\
                   fn later() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    #[test]\n    fn t() {}\n}\n";
        assert_eq!(code_lines(src), 4);
        assert_eq!(code_lines(""), 0);
    }

    #[test]
    fn strip_keeps_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let tokens = strip_test_code(lex(src).tokens);
        assert!(tokens.iter().any(|t| t.is_ident("unwrap")));
    }

    // ----- config -----------------------------------------------------

    #[test]
    fn config_parses_severities_and_lists() {
        let cfg = config::parse(
            "[lint]\nexclude = [\"third_party\"]\n\n[rules.panic]\nseverity = \"deny\"  # comment\ncrates = [\n  \"core\",\n  \"resources\",\n]\n\n[rules.concurrency]\nseverity = \"deny\"\nsanctioned = [\"core::shard\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.exclude, vec!["third_party"]);
        assert_eq!(
            cfg.severity_for("panic", "core", "core::index"),
            Severity::Deny
        );
        assert_eq!(cfg.severity_for("panic", "obs", "obs"), Severity::Allow);
        assert_eq!(
            cfg.severity_for("concurrency", "core", "core::shard"),
            Severity::Allow,
            "sanctioned module"
        );
        assert_eq!(
            cfg.severity_for("concurrency", "core", "core::index"),
            Severity::Deny
        );
        assert_eq!(
            cfg.severity_for("unknown-rule", "core", "core"),
            Severity::Allow
        );
    }

    #[test]
    fn config_rejects_bad_syntax() {
        assert!(
            config::parse("severity = \"deny\"").is_err(),
            "key before header"
        );
        assert!(
            config::parse("[rules.panic]\nseverity = deny").is_err(),
            "unquoted"
        );
        assert!(config::parse("[rules.panic]\nseverity = \"fatal\"").is_err());
    }

    // ----- one fixture per rule ---------------------------------------

    #[test]
    fn fixture_d1_unordered_iter_is_caught() {
        let findings = lint_fixture("d1_unordered_iter.rs");
        assert!(
            findings.iter().any(|f| f.rule == "unordered-iter"),
            "expected D1: {findings:?}"
        );
        assert!(findings.iter().all(|f| f.severity == Severity::Deny));
    }

    #[test]
    fn fixture_d2_wall_clock_is_caught() {
        let findings = lint_fixture("d2_wall_clock.rs");
        assert!(
            findings.iter().any(|f| f.rule == "wall-clock"),
            "expected D2: {findings:?}"
        );
    }

    #[test]
    fn fixture_d3_unseeded_rng_is_caught() {
        let findings = lint_fixture("d3_unseeded_rng.rs");
        assert!(
            findings.iter().any(|f| f.rule == "unseeded-rng"),
            "expected D3: {findings:?}"
        );
    }

    #[test]
    fn fixture_d4_string_keyed_map_is_advisory() {
        // D4 supports warn severity (the pre-promotion policy; the root
        // Lint.toml now denies): warn findings surface owned-String map
        // keys without failing the gate (only Deny findings fail).
        let cfg = config::parse(
            "[lint]\nexclude = []\n\n[rules.string-keyed-map]\nseverity = \"warn\"\n",
        )
        .expect("d4 config parses");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("d4_string_keyed_map.rs");
        let source = std::fs::read_to_string(&path).expect("fixture readable");
        let findings = lint_source(&fixture_file("d4_string_keyed_map.rs"), &source, &cfg);
        let d4: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "string-keyed-map")
            .collect();
        assert_eq!(
            d4.len(),
            4,
            "two String-keyed declarations, each spelled in the signature \
             and the binding; borrowed/&str and u32 keys exempt: {findings:?}"
        );
        assert!(
            d4.iter()
                .all(|f| f.code == "D4" && f.severity == Severity::Warn),
            "D4 is advisory: {d4:?}"
        );
    }

    #[test]
    fn fixture_c1_concurrency_is_caught() {
        let findings = lint_fixture("c1_concurrency.rs");
        assert!(
            findings.iter().any(|f| f.rule == "concurrency"),
            "expected C1: {findings:?}"
        );
    }

    #[test]
    fn fixture_c1_rayon_join_is_caught() {
        // `rayon::join` runs its second closure on a new thread.
        let findings = lint_fixture("c1_join.rs");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "concurrency" && f.message.contains("`rayon::join`")),
            "expected C1 on rayon::join: {findings:?}"
        );
    }

    #[test]
    fn fixture_sanctioned_concurrency_site_is_clean() {
        // The resilience-layer shape: Mutex-guarded state + atomic
        // virtual clock. Unsanctioned, the Mutex is a deny finding…
        let findings = lint_fixture("c1_sanctioned_site.rs");
        assert!(
            findings.iter().any(|f| f.rule == "concurrency"),
            "unsanctioned Mutex must be caught: {findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.message.contains("AtomicU64")),
            "atomics are not concurrency findings: {findings:?}"
        );
        // …and with the module registered under `sanctioned` (as
        // `resources::fault` / `resources::resilient` are in the root
        // Lint.toml), the same source lints to zero findings.
        let cfg = config::parse(
            "[lint]\nexclude = []\n\n[rules.concurrency]\nseverity = \"deny\"\nsanctioned = [\"fixtures::c1_sanctioned_site\"]\n",
        )
        .expect("sanctioned config parses");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("c1_sanctioned_site.rs");
        let source = std::fs::read_to_string(&path).expect("fixture readable");
        let findings = lint_source(&fixture_file("c1_sanctioned_site.rs"), &source, &cfg);
        assert!(
            findings.is_empty(),
            "sanctioned site must lint clean: {findings:?}"
        );
    }

    #[test]
    fn fixture_p1_panic_is_caught() {
        let findings = lint_fixture("p1_panic.rs");
        assert!(
            findings.iter().any(|f| f.rule == "panic"),
            "expected P1: {findings:?}"
        );
    }

    #[test]
    fn fixture_t1_case_fold_is_caught() {
        let findings = lint_fixture("t1_case_fold.rs");
        let t1: Vec<(u32, &str)> = findings
            .iter()
            .filter(|f| f.rule == "case-fold")
            .map(|f| (f.line, f.code.as_str()))
            .collect();
        assert_eq!(
            t1,
            vec![(4, "T1"), (5, "T1"), (10, "T1")],
            "three folds in library code, none in test code: {findings:?}"
        );
    }

    #[test]
    fn fixture_a0_allow_without_reason_is_caught() {
        let findings = lint_fixture("a0_allow_hygiene.rs");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "allow-hygiene" && f.message.contains("reason")),
            "expected missing-reason A0: {findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "allow-hygiene" && f.message.contains("unknown rule")),
            "expected unknown-rule A0: {findings:?}"
        );
    }

    #[test]
    fn fixture_allowed_site_is_suppressed() {
        let findings = lint_fixture("allowed_site.rs");
        assert!(
            findings.is_empty(),
            "reasoned lint:allow suppresses cleanly: {findings:?}"
        );
    }

    #[test]
    fn fixture_test_code_is_exempt() {
        let findings = lint_fixture("test_code_exempt.rs");
        assert!(
            findings.is_empty(),
            "cfg(test) code is not linted: {findings:?}"
        );
    }

    #[test]
    fn fixture_sorted_iteration_is_not_flagged() {
        let findings = lint_fixture("d1_sorted_ok.rs");
        assert!(
            findings.is_empty(),
            "sorted/aggregated iterations pass: {findings:?}"
        );
    }

    // ----- lexer edge cases -------------------------------------------

    #[test]
    fn lexer_handles_byte_and_raw_byte_strings() {
        let lexed =
            lex(r##"let a = b"unwrap()"; let b2 = br#"Instant::now() "quoted""#; let c = b'x';"##);
        // The contents of byte/raw-byte strings are opaque: nothing in
        // them may surface as idents the rules could match.
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("Instant")));
        let literals: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(literals.len(), 3, "{literals:?}");
        assert!(literals[0].text.starts_with("b\""));
        assert!(literals[1].text.starts_with("br#\""));
        assert_eq!(literals[2].text, "b'x'");
        // Lexing resumes correctly after each literal.
        assert!(lexed.tokens.iter().any(|t| t.is_ident("b2")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("c")));
    }

    #[test]
    fn lexer_disambiguates_lifetimes_from_char_literals() {
        let lexed = lex("fn g<'de, 'a: 'de>(x: &'static str) -> (char, char) { ('a', '\\'') }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'de", "'a", "'de", "'static"]);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text.starts_with('\''))
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec!["'a'", "'\\''"]);
    }

    #[test]
    fn strip_handles_nested_block_comments_in_test_items() {
        // The nested block comment closes only at the *outer* `*/`; a
        // naive scanner would resume mid-comment and see `}` tokens that
        // unbalance the test item, leaking its unwrap into the stream.
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  /* outer /* inner } */ still comment } */\n  fn t() { y.unwrap(); }\n}\nfn after() { z.len(); }\n";
        let tokens = strip_test_code(lex(src).tokens);
        assert!(!tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(tokens.iter().any(|t| t.is_ident("after")));
        assert!(tokens.iter().any(|t| t.is_ident("len")));
    }

    // ----- config line tracking ---------------------------------------

    #[test]
    fn config_tracks_list_entry_lines() {
        let cfg = config::parse(
            "[rules.concurrency]\nseverity = \"deny\"\nsanctioned = [\n  \"core::index\",\n  \"core::serve\", \"obs\",\n]\n",
        )
        .expect("parses");
        let rc = &cfg.rules["concurrency"];
        let entries: Vec<(&str, u32)> = rc
            .sanctioned
            .iter()
            .map(|e| (e.value.as_str(), e.line))
            .collect();
        assert_eq!(
            entries,
            vec![("core::index", 4), ("core::serve", 5), ("obs", 5)],
            "each element is tagged with the Lint.toml line it sits on"
        );
    }

    // ----- v2 program-level analyses ----------------------------------

    fn v2_config(extra: &str) -> Config {
        config::parse(&format!(
            "[lint]\nexclude = []\n\n[rules.panic]\nseverity = \"deny\"\n\n\
             [rules.concurrency]\nseverity = \"deny\"\n\
             sanctioned = [\"fixtures::c2_publication\"]\n{extra}"
        ))
        .expect("v2 config parses")
    }

    fn fixture_sources(names: &[&str]) -> Vec<(walk::SourceFile, String)> {
        names
            .iter()
            .map(|name| {
                let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("fixtures")
                    .join(name);
                let text = std::fs::read_to_string(&path).expect("fixture readable");
                (
                    walk::SourceFile {
                        rel_path: format!("crates/lint/fixtures/{name}"),
                        krate: "fixtures".into(),
                        module_path: format!(
                            "fixtures::{}",
                            name.trim_end_matches(".rs").replace('/', "::")
                        ),
                    },
                    text,
                )
            })
            .collect()
    }

    #[test]
    fn taint_chain_is_tracked_across_files() {
        let cfg = v2_config(
            "\n[rules.taint-unordered]\nseverity = \"deny\"\npublished = [\"BrowseResult\"]\n",
        );
        let sources = fixture_sources(&["d5_taint_chain/helper.rs", "d5_taint_chain/publish.rs"]);
        let findings = lint_sources(&sources, &cfg);
        let d5: Vec<_> = findings.iter().filter(|f| f.code == "D5").collect();
        assert!(!d5.is_empty(), "expected D5 findings: {findings:?}");
        // The sink is in publish.rs; the chain must start at the
        // hash-order source in helper.rs and walk through the call.
        let f = d5
            .iter()
            .find(|f| f.file.ends_with("publish.rs"))
            .expect("sink lands in publish.rs");
        assert!(f.chain.len() >= 3, "full chain attached: {:?}", f.chain);
        assert!(
            f.chain[0].file.ends_with("helper.rs") && f.chain[0].note.contains("hash-order source"),
            "chain starts at the source: {:?}",
            f.chain
        );
        assert!(
            f.chain.iter().any(|s| s.note.contains("launder_keys")),
            "chain names the laundering hop: {:?}",
            f.chain
        );
        assert!(
            f.chain.iter().any(|s| s.note.contains("BrowseResult")),
            "chain ends at the published artifact: {:?}",
            f.chain
        );
    }

    #[test]
    fn sanitized_flow_is_not_tainted() {
        let cfg = v2_config(
            "\n[rules.taint-unordered]\nseverity = \"deny\"\npublished = [\"BrowseResult\"]\n",
        );
        let sources = fixture_sources(&["d5_sanitized_ok.rs"]);
        let findings = lint_sources(&sources, &cfg);
        assert!(
            !findings.iter().any(|f| f.code == "D5"),
            "sorting sanitizes the flow: {findings:?}"
        );
    }

    #[test]
    fn publication_writes_outside_declared_points_are_flagged() {
        let cfg = v2_config(
            "\n[rules.publication-point]\nseverity = \"deny\"\n\
             publication-points = [\"fixtures::c2_publication::Publisher::republish\"]\n",
        );
        let sources = fixture_sources(&["c2_publication.rs"]);
        let findings = lint_sources(&sources, &cfg);
        let c2: Vec<_> = findings.iter().filter(|f| f.code == "C2").collect();
        assert!(
            c2.iter().any(
                |f| f.message.contains("rogue_swap") && f.message.contains("publication write")
            ),
            "undeclared swap flagged: {findings:?}"
        );
        assert!(
            !c2.iter().any(|f| f.message.contains("`republish`")),
            "declared publication point is clean: {c2:?}"
        );
        assert!(
            c2.iter()
                .any(|f| f.message.contains("while guard") && f.message.contains("still live")),
            "held-guard overlap flagged: {c2:?}"
        );
        // scoped_guards closes its guard's block before the second lock.
        let scoped_line = 32; // `*self.cache.lock()` in scoped_guards
        assert!(
            !c2.iter().any(|f| f.line == scoped_line),
            "scope-confined guard does not flag the later lock: {c2:?}"
        );
    }

    #[test]
    fn stale_sanctions_points_and_allows_are_audited() {
        let cfg = v2_config(
            "\n[rules.taint-unordered]\nseverity = \"deny\"\npublished = [\"BrowseResult\"]\n\
             \n[rules.publication-point]\nseverity = \"deny\"\n\
             publication-points = [\n  \"fixtures::c2_publication::Publisher::republish\",\n  \"fixtures::removed::Gone::swap\",\n]\n\
             \n[rules.stale-sanction]\nseverity = \"deny\"\n",
        );
        // Note v2_config sanctions `fixtures::c2_publication` (live: the
        // fixture has Mutex/RwLock hits) and the config above adds a
        // `fixtures::removed::Gone::swap` publication point matching
        // nothing, next to the live `republish` one.
        let mut sources = fixture_sources(&["c2_publication.rs", "a1_stale.rs"]);
        let findings = lint_sources(&sources, &cfg);
        let a1: Vec<_> = findings.iter().filter(|f| f.code == "A1").collect();
        assert!(
            a1.iter().any(|f| {
                f.file == "Lint.toml" && f.message.contains("fixtures::removed::Gone::swap")
            }),
            "stale publication-points entry flagged at its declaration: {a1:?}"
        );
        assert!(
            a1.iter()
                .any(|f| { f.file.ends_with("a1_stale.rs") && f.message.contains("orphaned") }),
            "orphaned lint:allow flagged: {a1:?}"
        );
        // A sanctioned entry matching no concurrency hits is stale.
        sources.retain(|(f, _)| !f.rel_path.ends_with("c2_publication.rs"));
        let findings = lint_sources(&sources, &cfg);
        assert!(
            findings.iter().any(|f| {
                f.code == "A1"
                    && f.file == "Lint.toml"
                    && f.message.contains("fixtures::c2_publication")
                    && f.message.contains("no module with concurrency primitives")
            }),
            "stale sanctioned entry flagged once its code is gone: {findings:?}"
        );
    }

    #[test]
    fn empty_reason_allows_are_rejected() {
        let findings = lint_fixture("a0_empty_reason.rs");
        let empty: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "allow-hygiene" && f.message.contains("empty reason"))
            .collect();
        assert_eq!(
            empty.len(),
            2,
            "both `reason=\"\"` and blank reasons rejected: {findings:?}"
        );
        // And the unwraps they failed to suppress still fire.
        assert_eq!(
            findings.iter().filter(|f| f.rule == "panic").count(),
            2,
            "an empty reason does not suppress: {findings:?}"
        );
    }

    // ----- --explain --------------------------------------------------

    #[test]
    fn explain_renders_catalogue_entry_with_example() {
        let text = explain("taint-unordered").expect("known rule");
        assert!(text.starts_with("D5 `taint-unordered`"));
        assert!(text.contains("propagation"));
        assert!(
            text.contains("hash-order source"),
            "example finding shows a live chain:\n{text}"
        );
        // Code lookup is case-insensitive and equivalent.
        assert_eq!(explain("d5").as_deref(), Some(text.as_str()));
        // Every catalogued rule explains itself with at least one
        // example finding.
        for meta in rules::RULES {
            let t = explain(meta.name).unwrap_or_else(|| panic!("{} explains", meta.name));
            assert!(
                t.lines().count() > 4,
                "{} explanation includes an example:\n{t}",
                meta.name
            );
        }
        assert!(explain("no-such-rule").is_none());
    }

    // ----- whole-workspace gate ---------------------------------------

    fn workspace_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root resolves")
    }

    #[test]
    fn workspace_is_clean() {
        let recorder = facet_obs::Recorder::enabled();
        let report = lint_workspace(&workspace_root(), &recorder).expect("lint runs");
        assert!(report.files_scanned > 50, "walks the whole workspace");
        let denies: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .collect();
        assert!(
            denies.is_empty(),
            "workspace must be lint-clean, found:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let r1 =
            lint_workspace(&workspace_root(), &facet_obs::Recorder::enabled()).expect("first run");
        let r2 =
            lint_workspace(&workspace_root(), &facet_obs::Recorder::enabled()).expect("second run");
        assert_eq!(r1.render_text(), r2.render_text());
        assert_eq!(
            r1.render_json().expect("json"),
            r2.render_json().expect("json")
        );
    }

    #[test]
    fn report_counters_reach_obs() {
        let recorder = facet_obs::Recorder::enabled();
        let _ = lint_workspace(&workspace_root(), &recorder).expect("lint runs");
        let counts = recorder.snapshot_counts_only();
        assert!(counts.get("counter.lint.files").copied().unwrap_or(0) > 50);
        assert!(counts.contains_key("counter.lint.findings.unordered-iter"));
    }
}
