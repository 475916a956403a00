//! A lightweight item parser on top of the lexer: per-crate symbol
//! tables and an approximate workspace call graph.
//!
//! The v2 analyses (D5 `taint-unordered`, C2 `publication-point`, A1
//! `stale-sanction`) need to reason about *functions* — what a function
//! returns, which functions call it, which function encloses a given
//! token — not just token sequences. This module extracts exactly that
//! much structure: `fn` items with their qualified paths (module path
//! plus enclosing `impl` type), parameter names, return-type idents,
//! and body token ranges. It is still not a type checker: `impl` blocks
//! contribute one path segment (the self-type name), trait methods
//! resolve by name across all same-named definitions, and nested
//! functions are attributed to their enclosing item.

use crate::lexer::{Token, TokenKind};
use crate::walk::SourceFile;
use std::collections::BTreeMap;

/// One source file, lexed and stripped of test code, ready for the
/// program-level analyses.
#[derive(Debug)]
pub struct FileUnit {
    /// Which file this is (path, crate, module path).
    pub source: SourceFile,
    /// The production token stream (`strip_test_code` applied).
    pub tokens: Vec<Token>,
    /// All `lint:allow` directives in the file (test code included —
    /// a directive in test code is still subject to hygiene rules).
    pub allows: Vec<crate::lexer::AllowDirective>,
}

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name (`append`).
    pub name: String,
    /// Qualified path: module path, enclosing `impl` type if any, and
    /// the name (`core::shard::ShardedFacetIndex::append`).
    pub qual: String,
    /// Parameter names per position; `self` (in any form) is parameter
    /// 0 of methods. Destructured patterns contribute every bound name.
    pub params: Vec<Vec<String>>,
    /// Every identifier appearing in the declared return type (so
    /// `-> Result<Arc<BrowseResult>, E>` contains `BrowseResult`).
    pub ret_idents: Vec<String>,
    /// 1-based declaration span (the `fn` keyword).
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Token index range `(start, end)` of the body between its braces
    /// (`end` is the index of the closing `}`); `None` for bodiless
    /// declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Index of the owning [`FileUnit`] in the program's file list.
    pub file: usize,
}

/// The whole-workspace symbol table and call-graph substrate.
#[derive(Debug, Default)]
pub struct Program {
    /// Every parsed function, in (file, token position) order.
    pub fns: Vec<FnDef>,
    /// Function indices grouped by bare name (approximate call-graph
    /// resolution: a call to `name` may reach any of these).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Program {
    /// Parse every file's items into one program table.
    pub fn build(files: &[FileUnit]) -> Self {
        let mut program = Program::default();
        for (file_idx, unit) in files.iter().enumerate() {
            parse_file(file_idx, unit, &mut program.fns);
        }
        for (i, f) in program.fns.iter().enumerate() {
            program.by_name.entry(f.name.clone()).or_default().push(i);
        }
        program
    }

    /// The innermost function whose body contains token index `tok` of
    /// file `file` (bodies of functions nested in other items are both
    /// recorded; the smallest enclosing range wins).
    pub fn fn_at(&self, file: usize, tok: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| {
                f.file == file && f.body.is_some_and(|(start, end)| tok >= start && tok < end)
            })
            .min_by_key(|f| {
                let (start, end) = f.body.unwrap_or((0, 0));
                end - start
            })
    }

    /// Candidate definitions (indices into `fns`) for a call to `name`
    /// from `caller_crate`: same-crate definitions when any exist (the
    /// overwhelmingly common resolution), every definition otherwise.
    pub fn resolve(&self, name: &str, caller_crate: &str, files: &[FileUnit]) -> Vec<usize> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        let same: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| files[self.fns[i].file].source.krate == caller_crate)
            .collect();
        if !same.is_empty() {
            return same;
        }
        all.clone()
    }
}

/// Index of the token matching the opening delimiter at `open`
/// (`{`/`}`, `(`/`)`, `[`/`]`); `tokens.len()` when unbalanced.
pub fn matching_delim(tokens: &[Token], open: usize, opener: &str, closer: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct(opener) {
            depth += 1;
        } else if tokens[i].is_punct(closer) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Skip a generics list starting at `<` (returns the index after the
/// matching `>`). `->` arrows inside (closure bounds) do not count.
fn skip_generics(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].is_punct("-") && i + 1 < tokens.len() && tokens[i + 1].is_punct(">") {
            i += 2;
            continue;
        }
        if tokens[i].is_punct("<") {
            depth += 1;
        } else if tokens[i].is_punct(">") {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

struct Scope {
    segment: String,
    entry_depth: u32,
}

fn parse_file(file_idx: usize, unit: &FileUnit, out: &mut Vec<FnDef>) {
    let tokens = &unit.tokens;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: u32 = 0;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while scopes.last().is_some_and(|s| s.entry_depth > depth) {
                scopes.pop();
            }
            i += 1;
        } else if t.is_ident("mod")
            && i + 2 < tokens.len()
            && tokens[i + 1].kind == TokenKind::Ident
            && tokens[i + 2].is_punct("{")
        {
            scopes.push(Scope {
                segment: tokens[i + 1].text.clone(),
                entry_depth: depth + 1,
            });
            i += 2; // the `{` is consumed by the depth-tracking arm
        } else if t.is_ident("impl") {
            if let Some((type_name, brace)) = parse_impl_header(tokens, i) {
                scopes.push(Scope {
                    segment: type_name,
                    entry_depth: depth + 1,
                });
                i = brace;
            } else {
                i += 1;
            }
        } else if t.is_ident("fn") && i + 1 < tokens.len() && tokens[i + 1].kind == TokenKind::Ident
        {
            let (def, next) = parse_fn(tokens, i, file_idx, &unit.source, &scopes);
            i = next;
            out.push(def);
        } else {
            i += 1;
        }
    }
}

/// Parse an `impl` header starting at `impl_idx`: returns the self-type
/// name and the index of the opening `{`. `impl Trait for Type` takes
/// `Type`; generic parameters and lifetimes are ignored.
fn parse_impl_header(tokens: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut after_for = false;
    let mut last_ident: Option<String> = None;
    let mut last_ident_after_for: Option<String> = None;
    let mut i = impl_idx + 1;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("-") && i + 1 < tokens.len() && tokens[i + 1].is_punct(">") {
            i += 2;
            continue;
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle <= 0 {
            if t.is_punct("{") {
                let name = last_ident_after_for.or(last_ident)?;
                return Some((name, i));
            }
            if t.is_punct(";") {
                return None;
            }
            if t.is_ident("for") {
                after_for = true;
            } else if t.is_ident("where") {
                // Bounds follow; the type name is already fixed.
            } else if t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "unsafe")
            {
                if after_for {
                    last_ident_after_for = Some(t.text.clone());
                } else {
                    last_ident = Some(t.text.clone());
                }
            }
        }
        i += 1;
    }
    None
}

fn parse_fn(
    tokens: &[Token],
    fn_idx: usize,
    file_idx: usize,
    source: &SourceFile,
    scopes: &[Scope],
) -> (FnDef, usize) {
    let name = tokens[fn_idx + 1].text.clone();
    let mut qual = source.module_path.clone();
    for s in scopes {
        qual.push_str("::");
        qual.push_str(&s.segment);
    }
    qual.push_str("::");
    qual.push_str(&name);

    let mut i = fn_idx + 2;
    if i < tokens.len() && tokens[i].is_punct("<") {
        i = skip_generics(tokens, i);
    }
    let mut params = Vec::new();
    if i < tokens.len() && tokens[i].is_punct("(") {
        let close = matching_delim(tokens, i, "(", ")");
        params = parse_params(&tokens[i + 1..close.min(tokens.len())]);
        i = close + 1;
    }
    // Return type: idents between `->` and `{` / `;` / `where`.
    let mut ret_idents = Vec::new();
    if i + 1 < tokens.len() && tokens[i].is_punct("-") && tokens[i + 1].is_punct(">") {
        i += 2;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
                break;
            }
            if t.kind == TokenKind::Ident {
                ret_idents.push(t.text.clone());
            }
            i += 1;
        }
    }
    // A `where` clause sits between the signature and the body.
    while i < tokens.len() && !tokens[i].is_punct("{") && !tokens[i].is_punct(";") {
        i += 1;
    }
    let (body, next) = if i < tokens.len() && tokens[i].is_punct("{") {
        let close = matching_delim(tokens, i, "{", "}");
        (Some((i + 1, close)), close.saturating_add(1))
    } else {
        (None, i.saturating_add(1))
    };
    (
        FnDef {
            name,
            qual,
            params,
            ret_idents,
            line: tokens[fn_idx].line,
            col: tokens[fn_idx].col,
            body,
            file: file_idx,
        },
        next,
    )
}

/// Split a parameter list (the tokens between the signature parens) at
/// top-level commas and extract the bound names of each parameter.
fn parse_params(tokens: &[Token]) -> Vec<Vec<String>> {
    let mut params = Vec::new();
    let mut start = 0usize;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut bracket = 0i32;
    let mut i = 0;
    while i <= tokens.len() {
        let at_end = i == tokens.len();
        let split = at_end || (tokens[i].is_punct(",") && paren == 0 && angle <= 0 && bracket == 0);
        if split {
            if start < i {
                params.push(param_names(&tokens[start..i]));
            }
            start = i + 1;
        } else {
            let t = &tokens[i];
            if t.is_punct("-") && i + 1 < tokens.len() && tokens[i + 1].is_punct(">") {
                i += 2;
                continue;
            }
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" if t.kind == TokenKind::Punct => angle += 1,
                ">" if t.kind == TokenKind::Punct => angle -= 1,
                _ => {}
            }
        }
        i += 1;
    }
    params
}

/// The names bound by one parameter: idents before the top-level `:`
/// (`mut`, `ref`, and `_` excluded); any form of `self` binds `self`.
fn param_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    let mut paren = 0i32;
    for t in tokens {
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            ":" if t.kind == TokenKind::Punct && paren == 0 => break,
            _ => {}
        }
        if t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_") {
            names.push(t.text.clone());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unit(module_path: &str, src: &str) -> FileUnit {
        let lexed = lex(src);
        FileUnit {
            source: SourceFile {
                rel_path: format!("{}.rs", module_path.replace("::", "/")),
                krate: module_path.split("::").next().unwrap_or("x").to_string(),
                module_path: module_path.to_string(),
            },
            tokens: crate::lexer::strip_test_code(lexed.tokens),
            allows: lexed.allows,
        }
    }

    #[test]
    fn parses_free_fns_methods_and_nested_mods() {
        let src = r#"
pub fn free(a: u32, mut b: &str) -> Vec<String> { a }
impl<'a> Server<'a> {
    fn method(&self, x: u32) -> Arc<BrowseResult> { x }
}
impl Display for Error {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) }
}
mod inner {
    pub fn deep() {}
}
"#;
        let program = Program::build(&[unit("core::serve", src)]);
        let quals: Vec<&str> = program.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "core::serve::free",
                "core::serve::Server::method",
                "core::serve::Error::fmt",
                "core::serve::inner::deep",
            ]
        );
        let free = &program.fns[0];
        assert_eq!(
            free.params,
            vec![vec!["a".to_string()], vec!["b".to_string()]]
        );
        assert_eq!(free.ret_idents, vec!["Vec", "String"]);
        let method = &program.fns[1];
        assert_eq!(method.params[0], vec!["self".to_string()]);
        assert!(method.ret_idents.contains(&"BrowseResult".to_string()));
    }

    #[test]
    fn fn_at_finds_the_enclosing_function() {
        let src = "fn outer() { let x = 1; }\nfn later() { let y = 2; }\n";
        let u = unit("core::m", src);
        let program = Program::build(&[unit("core::m", src)]);
        let x_pos = u
            .tokens
            .iter()
            .position(|t| t.is_ident("y"))
            .expect("y token");
        assert_eq!(
            program.fn_at(0, x_pos).map(|f| f.name.as_str()),
            Some("later")
        );
    }

    #[test]
    fn resolve_prefers_same_crate_candidates() {
        let a = unit("core::m", "pub fn now_us() -> u64 { 0 }");
        let b = unit("obs::clock", "pub fn now_us() -> u64 { 1 }");
        let files = vec![a, b];
        let program = Program::build(&files);
        let from_core = program.resolve("now_us", "core", &files);
        assert_eq!(from_core.len(), 1);
        assert_eq!(program.fns[from_core[0]].qual, "core::m::now_us");
        let from_elsewhere = program.resolve("now_us", "bench", &files);
        assert_eq!(from_elsewhere.len(), 2, "no same-crate candidate: all");
    }

    #[test]
    fn generic_params_and_where_clauses_parse() {
        let src = "pub fn time_if<T, F: FnOnce() -> T>(&self, f: F) -> T where T: Clone { f() }";
        let program = Program::build(&[unit("obs", src)]);
        assert_eq!(program.fns.len(), 1);
        let f = &program.fns[0];
        assert_eq!(f.name, "time_if");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0], vec!["self".to_string()]);
        assert_eq!(f.params[1], vec!["f".to_string()]);
        assert!(f.body.is_some());
    }
}
