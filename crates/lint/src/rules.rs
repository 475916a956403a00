//! The rule engine: token-sequence analyses for the determinism and
//! concurrency invariants (DESIGN.md §13).
//!
//! | code | name            | invariant |
//! |------|-----------------|-----------|
//! | D1   | `unordered-iter`| no iteration over `HashMap`/`HashSet` unless the result is order-insensitive or sorted |
//! | D2   | `wall-clock`    | no `Instant::now`/`SystemTime::now`/`std::time` outside obs/eval |
//! | D3   | `unseeded-rng`  | no entropy-seeded RNG construction |
//! | D4   | `string-keyed-map` | advisory: `String`-keyed `HashMap`/`BTreeMap` in hot paths — intern and index a dense table instead |
//! | C1   | `concurrency`   | no threading/locking/`unsafe` outside sanctioned sites |
//! | P1   | `panic`         | no `unwrap()`/`expect()`/`panic!`/`todo!` in library code |
//! | T1   | `case-fold`     | no `to_lowercase`/`to_ascii_lowercase`/`make_ascii_lowercase` outside `facet_textkit` |
//! | A0   | `allow-hygiene` | every `lint:allow` names a known rule and carries a reason |
//!
//! The v2 program-level analyses (built on [`crate::parser`]) live in
//! their own modules but share this file's `Finding`/`RULES` vocabulary:
//!
//! | code | name | module |
//! |------|------|--------|
//! | D5   | `taint-unordered`    | [`crate::taint`] — interprocedural determinism taint |
//! | C2   | `publication-point`  | [`crate::pubpoint`] — snapshot-swap + held-guard discipline |
//! | A1   | `stale-sanction`     | [`crate::audit`] — sanction-ledger staleness |
//!
//! The analyses are heuristic by design — a lexer cannot resolve types —
//! and tuned to the failure mode that matters here: unordered container
//! state leaking into pipeline *output*. Sites the heuristics cannot
//! prove safe are annotated `// lint:allow(rule, reason="...")`, and the
//! reason is mandatory (rule A0).

use crate::config::{Config, Severity};
use crate::lexer::{strip_test_code, LexedFile, Token};
use crate::walk::SourceFile;
use std::collections::BTreeSet;

/// One hop in a D5 taint-propagation chain, printed span-by-span under
/// the finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub struct ChainStep {
    /// Workspace-relative file path of this hop.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What happens at this hop (source, call, argument, sink).
    pub note: String,
}

/// One lint finding, ready for reporting.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short rule code (`D1`, ..., `A1`).
    pub code: String,
    /// Rule name as used in `Lint.toml` and `lint:allow`.
    pub rule: String,
    /// Effective severity after config resolution.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// Propagation chain (D5 only; empty for token-local rules).
    pub chain: Vec<ChainStep>,
}

/// Static metadata for one rule.
pub struct RuleMeta {
    /// Short code used in report prefixes.
    pub code: &'static str,
    /// Name used in `Lint.toml` sections and `lint:allow`.
    pub name: &'static str,
}

/// Every rule the engine knows, in report-prefix order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        code: "D1",
        name: "unordered-iter",
    },
    RuleMeta {
        code: "D2",
        name: "wall-clock",
    },
    RuleMeta {
        code: "D3",
        name: "unseeded-rng",
    },
    RuleMeta {
        code: "D4",
        name: "string-keyed-map",
    },
    RuleMeta {
        code: "C1",
        name: "concurrency",
    },
    RuleMeta {
        code: "P1",
        name: "panic",
    },
    RuleMeta {
        code: "T1",
        name: "case-fold",
    },
    RuleMeta {
        code: "D5",
        name: "taint-unordered",
    },
    RuleMeta {
        code: "C2",
        name: "publication-point",
    },
    RuleMeta {
        code: "A0",
        name: "allow-hygiene",
    },
    RuleMeta {
        code: "A1",
        name: "stale-sanction",
    },
];

fn code_for(name: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.code)
        .unwrap_or("??")
}

/// An un-configured, un-suppressed detector hit: `(rule, line, col,
/// message)`. The A1 orphaned-allow audit needs *unconditional* hits —
/// a `lint:allow` is live iff the detector would fire there, regardless
/// of what `Lint.toml` enables for that crate.
pub type RawHit = (&'static str, u32, u32, String);

/// Run every token-local detector unconditionally over a (test-code
/// stripped) token stream.
pub fn raw_hits(tokens: &[Token]) -> Vec<RawHit> {
    let mut raw: Vec<RawHit> = Vec::new();
    unordered_iter(tokens, &mut raw);
    wall_clock(tokens, &mut raw);
    unseeded_rng(tokens, &mut raw);
    string_keyed_map(tokens, &mut raw);
    concurrency(tokens, &mut raw);
    panic_rule(tokens, &mut raw);
    case_fold(tokens, &mut raw);
    raw
}

/// Run every configured rule over one lexed file.
pub fn analyze(file: &SourceFile, lexed: &LexedFile, config: &Config) -> Vec<Finding> {
    let tokens = strip_test_code(lexed.tokens.clone());
    let mut findings: Vec<Finding> = Vec::new();
    for (rule, line, col, message) in raw_hits(&tokens) {
        if config.severity_for(rule, &file.krate, &file.module_path) == Severity::Allow {
            continue;
        }
        // A directive on the finding's line, or on the line just above
        // it (its `next_code_line` is the finding's), suppresses it.
        let suppressed = lexed.allows.iter().any(|a| {
            a.rule == rule && a.has_reason && (a.line == line || a.next_code_line == line)
        });
        if suppressed {
            continue;
        }
        findings.push(Finding {
            file: file.rel_path.clone(),
            line,
            col,
            code: code_for(rule).to_string(),
            rule: rule.to_string(),
            severity: config.severity_for(rule, &file.krate, &file.module_path),
            message,
            chain: Vec::new(),
        });
    }

    findings.extend(allow_hygiene(file, lexed));
    findings
}

/// A0: allow-directive hygiene (always deny — a suppression that names
/// no reason, an empty reason, or an unknown rule is a policy violation
/// everywhere, including crates exempt from the suppressed rule).
pub fn allow_hygiene(file: &SourceFile, lexed: &LexedFile) -> Vec<Finding> {
    let known: BTreeSet<&str> = RULES.iter().map(|r| r.name).collect();
    let mut findings = Vec::new();
    let mut a0 = |line: u32, message: String| {
        findings.push(Finding {
            file: file.rel_path.clone(),
            line,
            col: 1,
            code: "A0".into(),
            rule: "allow-hygiene".into(),
            severity: Severity::Deny,
            message,
            chain: Vec::new(),
        });
    };
    for a in &lexed.allows {
        if !known.contains(a.rule.as_str()) {
            a0(
                a.line,
                format!("lint:allow names unknown rule `{}`", a.rule),
            );
        } else if !a.has_reason {
            let message = match &a.reason {
                Some(_) => format!(
                    "lint:allow({}) has an empty reason=\"\"; a suppression must say why",
                    a.rule
                ),
                None => format!("lint:allow({}) is missing a reason=\"...\"", a.rule),
            };
            a0(a.line, message);
        }
    }
    findings
}

// ---------------------------------------------------------------------
// D1: unordered iteration
// ---------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers that make an iteration order-insensitive (aggregations)
/// or explicitly ordered (sorts, ordered collections) when they appear
/// in the same or adjacent statement.
const ORDER_SAFE_HINTS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "BTreeMap",
    "BTreeSet",
];

fn unordered_iter(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    // Pass 1: names declared or assigned with a HashMap/HashSet type.
    let mut tracked: BTreeSet<&str> = BTreeSet::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if i + 1 < tokens.len() && (tokens[i + 1].is_punct(":") || tokens[i + 1].is_punct("=")) {
            let mut j = i + 2;
            // Skip references, mutability, and `std::collections::` paths.
            while j < tokens.len()
                && (tokens[j].is_punct("&")
                    || tokens[j].is_ident("mut")
                    || tokens[j].is_ident("std")
                    || tokens[j].is_ident("collections")
                    || tokens[j].is_punct("::")
                    || tokens[j].kind == crate::lexer::TokenKind::Lifetime)
            {
                j += 1;
            }
            if j < tokens.len() && (tokens[j].is_ident("HashMap") || tokens[j].is_ident("HashSet"))
            {
                tracked.insert(tokens[i].text.as_str());
            }
        }
    }
    if tracked.is_empty() {
        return;
    }

    // Pass 2a: `name.iter()`-style calls on tracked names.
    for i in 0..tokens.len().saturating_sub(3) {
        let t = &tokens[i];
        if t.kind == crate::lexer::TokenKind::Ident
            && tracked.contains(t.text.as_str())
            && tokens[i + 1].is_punct(".")
            && tokens[i + 3].is_punct("(")
            && ITER_METHODS.contains(&tokens[i + 2].text.as_str())
        {
            if statement_is_order_safe(tokens, i) {
                continue;
            }
            let m = &tokens[i + 2];
            out.push((
                "unordered-iter",
                m.line,
                m.col,
                format!(
                    "iteration over hash container `{}` via `.{}()` feeds an unordered \
                     sequence; sort the result, use a BTree container, or annotate",
                    t.text, m.text
                ),
            ));
        }
    }

    // Pass 2b: `for ... in [&][mut] name {` loops over tracked names.
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("for") {
            continue;
        }
        // Find the `in` of this loop header (bounded scan).
        let Some(in_idx) = (i + 1..tokens.len().min(i + 40)).find(|&j| tokens[j].is_ident("in"))
        else {
            continue;
        };
        let mut j = in_idx + 1;
        while j < tokens.len() && (tokens[j].is_punct("&") || tokens[j].is_ident("mut")) {
            j += 1;
        }
        // The iterated expression: an ident chain `a.b.c`; method calls
        // are handled by pass 2a, so stop if a call follows.
        let mut last_ident: Option<usize> = None;
        while j + 2 < tokens.len()
            && tokens[j].kind == crate::lexer::TokenKind::Ident
            && tokens[j + 1].is_punct(".")
            && tokens[j + 2].kind == crate::lexer::TokenKind::Ident
        {
            j += 2;
        }
        if j < tokens.len() && tokens[j].kind == crate::lexer::TokenKind::Ident {
            last_ident = Some(j);
        }
        let Some(idx) = last_ident else { continue };
        if j + 1 < tokens.len() && (tokens[j + 1].is_punct(".") || tokens[j + 1].is_punct("(")) {
            continue; // method call — pass 2a territory
        }
        let name = &tokens[idx];
        if tracked.contains(name.text.as_str()) {
            out.push((
                "unordered-iter",
                name.line,
                name.col,
                format!(
                    "`for` loop over hash container `{}` iterates in unordered \
                     (seed-dependent) order; sort first or use a BTree container",
                    name.text
                ),
            ));
        }
    }
}

/// Look around the statement containing token `i` for evidence the
/// iteration's order cannot reach output: an aggregation (`sum`,
/// `count`, ...), an explicit sort, or collection into an ordered
/// container. Scans from the previous statement boundary through the
/// end of the next statement.
fn statement_is_order_safe(tokens: &[Token], i: usize) -> bool {
    let boundary = tokens[..i]
        .iter()
        .rposition(|t| t.is_punct(";") || t.is_punct("{"))
        .map(|p| p + 1)
        .unwrap_or(0);
    // Reach slightly before the boundary so `-> BTreeMap<...> {` on
    // a tail expression and `let x: BTreeMap<..> =` annotations count.
    let start = boundary.saturating_sub(20);
    // When the site sits in a `for` header, a hint inside the loop body
    // (sorting something unrelated) says nothing about the order feeding
    // the loop, so the scan must stop at the body's `{`. Outside a `for`
    // header a `{` at depth 0 is a closure body within the same method
    // chain (e.g. `.map(|x| { ... })`) and the chain continues past it.
    let in_for_header = tokens[boundary..i].iter().any(|t| t.is_ident("for"));
    // Count statement-ending semicolons at brace depth 0 only: a `;`
    // inside a closure body (`.map(|x| { let y = ...; ... })`) does not
    // end the statement the site belongs to.
    let mut semis = 0;
    let mut depth = 0i32;
    let mut end = i;
    let cap = tokens.len().min(i + 200);
    while end < cap && semis < 2 {
        let t = &tokens[end];
        if t.is_punct("{") {
            if in_for_header && depth == 0 && end > i {
                break;
            }
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                break; // left the enclosing block
            }
        } else if t.is_punct(";") && depth == 0 {
            semis += 1;
        }
        end += 1;
    }
    tokens[start..end.min(tokens.len())].iter().any(|t| {
        t.kind == crate::lexer::TokenKind::Ident && ORDER_SAFE_HINTS.contains(&t.text.as_str())
    })
}

// ---------------------------------------------------------------------
// D2: wall-clock access
// ---------------------------------------------------------------------

fn wall_clock(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    for i in 0..tokens.len() {
        if i + 2 < tokens.len()
            && (tokens[i].is_ident("Instant") || tokens[i].is_ident("SystemTime"))
            && tokens[i + 1].is_punct("::")
            && tokens[i + 2].is_ident("now")
        {
            out.push((
                "wall-clock",
                tokens[i].line,
                tokens[i].col,
                format!(
                    "`{}::now` reads the wall clock; timing belongs in facet-obs \
                     (use `HistogramHandle::time_if`)",
                    tokens[i].text
                ),
            ));
        }
        if i + 2 < tokens.len()
            && tokens[i].is_ident("std")
            && tokens[i + 1].is_punct("::")
            && tokens[i + 2].is_ident("time")
        {
            // `std::time::Duration` is a value type, not a clock.
            let duration_only = i + 4 < tokens.len()
                && tokens[i + 3].is_punct("::")
                && tokens[i + 4].is_ident("Duration");
            if !duration_only {
                out.push((
                    "wall-clock",
                    tokens[i].line,
                    tokens[i].col,
                    "`std::time` (beyond `Duration`) is off-limits outside obs/eval".to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// D3: unseeded randomness
// ---------------------------------------------------------------------

const ENTROPY_SOURCES: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

fn unseeded_rng(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    for (i, t) in tokens.iter().enumerate() {
        if ENTROPY_SOURCES.iter().any(|s| t.is_ident(s)) {
            out.push((
                "unseeded-rng",
                t.line,
                t.col,
                format!(
                    "`{}` draws OS entropy; pipeline randomness must come from a \
                     seeded `StdRng`",
                    t.text
                ),
            ));
        }
        if i + 2 < tokens.len()
            && t.is_ident("rand")
            && tokens[i + 1].is_punct("::")
            && tokens[i + 2].is_ident("random")
        {
            out.push((
                "unseeded-rng",
                t.line,
                t.col,
                "`rand::random` draws from the thread-local entropy RNG".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// D4: String-keyed maps in hot paths (advisory)
// ---------------------------------------------------------------------

/// Flag `HashMap<String, _>` / `BTreeMap<String, _>` type positions in
/// the determinism-critical crates. Owned-`String` map keys allocate on
/// build-up and hash/compare byte-by-byte on every probe; the interning
/// refactor (DESIGN.md §16) replaces them with `facet_textkit::Vocabulary`
/// plus a dense `SymTable`/`Vec` indexed by term id. Advisory (warn) by
/// policy: serving-edge and backend-boundary maps that intentionally
/// materialize strings stay as they are — the warning is the backlog,
/// not a failure. Borrowed `&str` keys are not flagged (zero-copy,
/// typically transient per-document counting).
fn string_keyed_map(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !(t.is_ident("HashMap") || t.is_ident("BTreeMap")) {
            continue;
        }
        // `HashMap<` or turbofish `HashMap::<`.
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct("::") {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct("<") {
            continue;
        }
        j += 1;
        if j + 1 < tokens.len() && tokens[j].is_ident("String") && tokens[j + 1].is_punct(",") {
            out.push((
                "string-keyed-map",
                t.line,
                t.col,
                format!(
                    "`{}<String, _>` in a hot path: intern the keys \
                     (facet_textkit::Vocabulary) and index a dense SymTable/Vec \
                     by term id, or annotate if this is a serving-edge or \
                     backend-boundary map",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// C1: concurrency primitives
// ---------------------------------------------------------------------

fn concurrency(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    for (i, t) in tokens.iter().enumerate() {
        let flag = |out: &mut Vec<(&'static str, u32, u32, String)>, what: &str| {
            out.push((
                "concurrency",
                t.line,
                t.col,
                format!(
                    "{what} outside the sanctioned concurrency sites; declare the \
                     module under [rules.concurrency] sanctioned in Lint.toml if \
                     this is intentional"
                ),
            ));
        };
        if t.is_ident("Mutex") || t.is_ident("RwLock") || t.is_ident("Condvar") {
            flag(out, &format!("lock type `{}`", t.text));
        } else if t.is_ident("unsafe") {
            flag(out, "`unsafe` block/function");
        } else if t.is_ident("static") && i + 1 < tokens.len() && tokens[i + 1].is_ident("mut") {
            flag(out, "`static mut` item");
        } else if (t.is_ident("thread") || t.is_ident("rayon") || t.is_ident("crossbeam"))
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct("::")
            && (tokens[i + 2].is_ident("spawn")
                || tokens[i + 2].is_ident("scope")
                || tokens[i + 2].is_ident("join"))
        {
            flag(
                out,
                &format!("`{}::{}` thread creation", t.text, tokens[i + 2].text),
            );
        }
    }
}

// ---------------------------------------------------------------------
// P1: panics in library code
// ---------------------------------------------------------------------

fn panic_rule(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.is_punct(".")
            && i + 2 < tokens.len()
            && (tokens[i + 1].is_ident("unwrap") || tokens[i + 1].is_ident("expect"))
            && tokens[i + 2].is_punct("(")
        {
            let m = &tokens[i + 1];
            out.push((
                "panic",
                m.line,
                m.col,
                format!(
                    "`.{}()` can panic in library code; return a typed error \
                     (IndexError/ExpansionError precedent) or restructure",
                    m.text
                ),
            ));
        }
        if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct("!")
        {
            // `core::panic` paths or `#[panic_handler]` don't apply here;
            // a bare `ident!` is the macro invocation.
            out.push((
                "panic",
                t.line,
                t.col,
                format!(
                    "`{}!` aborts library code; return a typed error instead",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// T1: a second case fold
// ---------------------------------------------------------------------

const CASE_FOLDS: &[&str] = &["to_lowercase", "to_ascii_lowercase", "make_ascii_lowercase"];

/// Flag every lowercasing call or path (`s.to_lowercase()`,
/// `str::to_lowercase`). Terms, dictionary keys and queries must match
/// string for string, so they fold through `facet_textkit::lowercase`
/// only; `str::to_lowercase` folds a final capital sigma differently.
fn case_fold(tokens: &[Token], out: &mut Vec<(&'static str, u32, u32, String)>) {
    for t in tokens {
        if CASE_FOLDS.iter().any(|f| t.is_ident(f)) {
            out.push((
                "case-fold",
                t.line,
                t.col,
                format!(
                    "`{}` is a second case fold; lowercase terms, keys and queries \
                     with `facet_textkit::lowercase` (or `normalize_term`)",
                    t.text
                ),
            ));
        }
    }
}
