//! Per-file analysis context: the lexed token stream plus the
//! lightweight structure every rule needs — which crate the file
//! belongs to, which token ranges are test code, where functions begin
//! and end, and which lines carry `lint:allow` suppressions.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// An inline suppression parsed from a comment:
/// `// lint:allow(<RULE>) -- the invariant is …` (one or more
/// comma-separated rule ids). The justification after ` -- ` is
/// mandatory; an allow without one is itself reported (rule `A001`).
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// Line the directive's comment starts on.
    pub line: u32,
    /// Line the directive's comment ends on (its suppression anchor).
    pub end_line: u32,
    /// Rule ids named in the parentheses, e.g. `["P001", "D002"]`.
    pub rules: Vec<String>,
    /// Text after ` -- `; empty means unjustified.
    pub justification: String,
}

/// Span of a `fn` item in token indices, with its name.
#[derive(Clone, Debug)]
pub struct FnSpan {
    pub name: String,
    /// Index of the `fn` keyword token.
    pub start: usize,
    /// Index just past the body's closing `}` (or the `;` of a
    /// bodyless trait method).
    pub end: usize,
}

/// Everything the rules see for one file.
pub struct FileContext {
    /// Repo-relative path used in findings.
    pub path: String,
    /// Cargo package name of the owning crate (e.g. `smartstore-net`).
    pub crate_name: String,
    /// True for files under `tests/`, `benches/`, `examples/`, or
    /// `fixtures/` directories — dev code exempt from production rules.
    pub is_dev: bool,
    pub src: String,
    pub lexed: Lexed,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
    /// All `fn` items, in source order (nested fns appear after their
    /// enclosing fn; innermost-containing lookup scans from the back).
    pub fns: Vec<FnSpan>,
    pub allows: Vec<AllowDirective>,
}

impl FileContext {
    /// Builds the context for one file's source text.
    pub fn new(path: String, crate_name: String, is_dev: bool, src: String) -> Self {
        let lexed = lex(&src);
        let test_spans = find_cfg_test_spans(&src, &lexed);
        let fns = find_fns(&src, &lexed);
        let allows = parse_allows(&lexed.comments);
        FileContext {
            path,
            crate_name,
            is_dev,
            src,
            lexed,
            test_spans,
            fns,
            allows,
        }
    }

    /// Tokens of the file.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Source text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.lexed.text(&self.src, i)
    }

    /// True when token `i` is test/dev code (dev directory or inside a
    /// `#[cfg(test)]` item) — production-only rules skip it.
    pub fn is_test_tok(&self, i: usize) -> bool {
        self.is_dev || self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Name of the innermost `fn` containing token `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        // `rev()` finds the latest-starting span containing `i`, which
        // is the innermost for properly nested spans.
        self.fns.iter().rev().find(|f| i >= f.start && i < f.end)
    }

    /// True when a finding of `rule` on `line` is suppressed by an
    /// allow directive on the same line or the line directly above.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            (a.end_line == line || a.end_line + 1 == line)
                && !a.justification.is_empty()
                && a.rules.iter().any(|r| r == rule)
        })
    }
}

/// A well-formed rule id: an uppercase letter and three digits
/// (`D001`, `P002`, …). Anything else inside `lint:allow(..)` — a
/// `<rule>` placeholder in prose, say — means the text is not a
/// directive.
fn is_rule_id(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 4 && b[0].is_ascii_uppercase() && b[1..].iter().all(|c| c.is_ascii_digit())
}

/// Parses `lint:allow(R1, R2) -- justification` out of comments.
fn parse_allows(comments: &[Comment]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() || !rules.iter().all(|r| is_rule_id(r)) {
            continue;
        }
        let after = &rest[close + 1..];
        let justification = after
            .find("--")
            .map(|d| {
                after[d + 2..]
                    .trim_end_matches(['*', '/'])
                    .trim()
                    .to_string()
            })
            .unwrap_or_default();
        out.push(AllowDirective {
            line: c.line,
            end_line: c.end_line,
            rules,
            justification,
        });
    }
    out
}

/// Marks token ranges of items annotated `#[cfg(test)]` (and, for
/// robustness, bare `#[test]` functions). The item following the
/// attribute runs to its matching `}` (brace item) or `;`.
fn find_cfg_test_spans(src: &str, lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let text = |i: usize| lexed.text(src, i);
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && text(i) == "#") {
            i += 1;
            continue;
        }
        // Parse one attribute `#[ … ]`.
        let Some((attr_end, is_test_attr)) = parse_attr(src, lexed, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between the cfg(test) and its item.
        let mut j = attr_end;
        while j < toks.len() && toks[j].kind == TokKind::Punct && text(j) == "#" {
            match parse_attr(src, lexed, j) {
                Some((e, _)) => j = e,
                None => break,
            }
        }
        // The item body: first `{ … }` at bracket depth 0, or a `;`.
        let end = item_end(src, lexed, j);
        spans.push((i, end));
        i = end;
    }
    spans
}

/// Parses the attribute starting at `#` token `i`. Returns the token
/// index just past the closing `]` and whether the attribute is
/// `cfg(test)`-like (`cfg(test)`, `cfg(any(test, …))`, or `test`). A
/// `test` inside `not(..)` is production code: `cfg(not(test))` marks
/// exactly what the test build leaves out.
fn parse_attr(src: &str, lexed: &Lexed, i: usize) -> Option<(usize, bool)> {
    let toks = &lexed.tokens;
    let text = |k: usize| lexed.text(src, k);
    let mut j = i + 1;
    // Optional inner-attribute bang.
    if j < toks.len() && toks[j].kind == TokKind::Punct && text(j) == "!" {
        j += 1;
    }
    if !(j < toks.len() && toks[j].kind == TokKind::Punct && text(j) == "[") {
        return None;
    }
    let mut depth = 0i32;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut first_ident: Option<String> = None;
    // One entry per open `(`: whether it opened a `not(..)`.
    let mut parens: Vec<bool> = Vec::new();
    while j < toks.len() {
        let t = text(j);
        match toks[j].kind {
            TokKind::Punct if t == "(" => {
                parens.push(j > 0 && toks[j - 1].kind == TokKind::Ident && text(j - 1) == "not")
            }
            TokKind::Punct if t == ")" => {
                parens.pop();
            }
            TokKind::Punct if t == "[" => depth += 1,
            TokKind::Punct if t == "]" => {
                depth -= 1;
                if depth == 0 {
                    let bare_test = first_ident.as_deref() == Some("test");
                    return Some((j + 1, (saw_cfg && saw_test) || bare_test));
                }
            }
            TokKind::Ident => {
                if first_ident.is_none() {
                    first_ident = Some(t.to_string());
                }
                if t == "cfg" {
                    saw_cfg = true;
                }
                if t == "test" && !parens.contains(&true) {
                    saw_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Token index just past the end of the item starting at `i`: the
/// matching `}` of its first depth-0 brace, or its terminating `;`.
fn item_end(src: &str, lexed: &Lexed, i: usize) -> usize {
    let toks = &lexed.tokens;
    let text = |k: usize| lexed.text(src, k);
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].kind == TokKind::Punct {
            match text(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ";" if depth == 0 => return j + 1,
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Records every `fn` item span. The body is the first `{ … }` after
/// the name at paren/bracket depth 0 (return types never contain
/// depth-0 braces); a `;` first means a bodyless trait method.
fn find_fns(src: &str, lexed: &Lexed) -> Vec<FnSpan> {
    let toks = &lexed.tokens;
    let text = |k: usize| lexed.text(src, k);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && text(i) == "fn") {
            continue;
        }
        // Name (skip for `fn(` function-pointer types).
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let name = text(i + 1).to_string();
        // Find body start: first `{` at depth 0, stopping at `;`.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            if toks[j].kind == TokKind::Punct {
                match text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let end = match body {
            Some(b) => item_end(src, lexed, b),
            None => j.min(toks.len()),
        };
        out.push(FnSpan {
            name,
            start: i,
            end,
        });
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileContext {
        FileContext::new(
            "test.rs".into(),
            "test-crate".into(),
            false,
            src.to_string(),
        )
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let c = ctx("fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn prod2() {}\n");
        let toks = c.tokens();
        let find = |name: &str| {
            (0..toks.len())
                .find(|&i| c.text(i) == name)
                .map(|i| c.is_test_tok(i))
        };
        assert_eq!(find("prod"), Some(false));
        assert_eq!(find("t"), Some(true));
        assert_eq!(find("prod2"), Some(false));
    }

    #[test]
    fn bare_test_attr_is_marked() {
        let c = ctx("#[test]\nfn a_test() { x.unwrap(); }\nfn prod() {}\n");
        let i = (0..c.tokens().len())
            .find(|&i| c.text(i) == "unwrap")
            .unwrap();
        assert!(c.is_test_tok(i));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let c = ctx("#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n#[cfg(all(unix, not(test)))]\nfn prod2() {}\n#[cfg(any(test, not(unix)))]\nfn t() {}\n");
        let find = |name: &str| {
            (0..c.tokens().len())
                .find(|&i| c.text(i) == name)
                .map(|i| c.is_test_tok(i))
        };
        assert_eq!(find("prod"), Some(false));
        assert_eq!(find("prod2"), Some(false));
        assert_eq!(find("t"), Some(true));
    }

    #[test]
    fn fn_spans_and_nesting() {
        let c = ctx("fn outer() { fn inner() { a(); } b(); }\nfn later() {}\n");
        let i_a = (0..c.tokens().len()).find(|&i| c.text(i) == "a").unwrap();
        let i_b = (0..c.tokens().len()).find(|&i| c.text(i) == "b").unwrap();
        assert_eq!(c.enclosing_fn(i_a).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(c.enclosing_fn(i_b).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn allows_parse_and_apply() {
        let c = ctx("let a = 1; // lint:allow(P001) -- invariant: never None\nlet b = 2;\n// lint:allow(P002)\nlet d = 3;\n");
        assert!(c.is_allowed("P001", 1));
        assert!(c.is_allowed("P001", 2)); // next line also covered
        assert!(!c.is_allowed("P002", 1));
        // Unjustified allow never suppresses.
        assert!(!c.is_allowed("P002", 4));
        assert_eq!(c.allows.len(), 2);
        assert!(c.allows[1].justification.is_empty());
    }
}
