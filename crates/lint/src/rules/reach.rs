//! X rule: reachability. rustc's `dead_code` lint never fires on a
//! library's `pub` items — it assumes some downstream crate calls them.
//! Here every downstream user is in the tree (the crates, their
//! `tests/`, `benches/` and `examples/`, and `benchmark/`), so "named by
//! nothing else" is a token-level fact:
//!
//! X001 flags a `pub` `fn`/`struct`/`enum`/`trait`/`const`/`static`/
//! `type` declared in production code when its name is an identifier
//! token in no other scanned file and its own file's production code
//! names it only in the declaration. A `pub use` re-export is not a
//! use, and nothing under `fixtures/` is; every other token is, test
//! code included, so test-support API stays legal. Names inside
//! strings and comments are not tokens.
//!
//! Like the wire check this is workspace-global: names are collected
//! across every file, then resolved once at the end.

use super::{is_ident, is_punct};
use crate::context::FileContext;
use crate::lexer::TokKind;
use crate::report::Finding;
use std::collections::BTreeMap;

/// Item keywords whose `pub` declarations X001 audits.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// A `pub` item whose own file names it only in the declaration.
struct Decl {
    file: String,
    line: u32,
    kind: &'static str,
    name: String,
}

/// Accumulates declarations and uses across files, then reports.
#[derive(Default)]
pub struct Reachability {
    decls: Vec<Decl>,
    /// Identifier → the one file naming it, or `None` once a second
    /// file does.
    named_in: BTreeMap<String, Option<String>>,
}

impl Reachability {
    /// Records one file's uses and its candidate declarations.
    pub fn collect(&mut self, ctx: &FileContext) {
        if ctx.path.split('/').any(|seg| seg == "fixtures") {
            return;
        }
        let toks = ctx.tokens();
        let reexports = pub_use_spans(ctx);
        let in_reexport = |i: usize| reexports.iter().any(|&(s, e)| i >= s && i < e);
        // Production mentions per name in this file, for the own-file test.
        let mut own: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind != TokKind::Ident || in_reexport(i) {
                continue;
            }
            let t = ctx.text(i);
            match self.named_in.get_mut(t) {
                Some(seen) => {
                    if seen.as_deref().is_some_and(|f| f != ctx.path) {
                        *seen = None;
                    }
                }
                None => {
                    self.named_in.insert(t.to_string(), Some(ctx.path.clone()));
                }
            }
            if !ctx.is_test_tok(i) {
                *own.entry(t).or_default() += 1;
            }
        }
        for i in 0..toks.len() {
            if ctx.is_test_tok(i) || !is_ident(ctx, i, "pub") {
                continue;
            }
            let Some((kind, name_tok)) = pub_item(ctx, i) else {
                continue;
            };
            let name = ctx.text(name_tok);
            if own.get(name) == Some(&1) {
                self.decls.push(Decl {
                    file: ctx.path.clone(),
                    line: toks[name_tok].line,
                    kind,
                    name: name.to_string(),
                });
            }
        }
    }

    /// Emits X001 for every declaration no other file names.
    pub fn finalize(self, out: &mut Vec<Finding>) {
        for d in self.decls {
            if self.named_in.get(&d.name) != Some(&Some(d.file.clone())) {
                continue;
            }
            out.push(Finding {
                file: d.file,
                line: d.line,
                rule: "X001",
                message: format!(
                    "pub {} `{}` is named by no other file and by nothing but its \
                     declaration here; delete it, or move a helper only this file's \
                     tests call into that test module",
                    d.kind, d.name
                ),
            });
        }
    }
}

/// For `pub` at token `i`, the item keyword and the name token —
/// `None` for restricted visibility (`pub(crate)` is not public
/// surface), fields, modules and re-exports.
fn pub_item(ctx: &FileContext, i: usize) -> Option<(&'static str, usize)> {
    let mut j = i + 1;
    loop {
        let t = ctx.tokens().get(j)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        match ctx.text(j) {
            // `const fn` qualifies a fn; `const NAME` is the item.
            "const"
                if ["fn", "unsafe", "async", "extern"]
                    .iter()
                    .any(|q| is_ident(ctx, j + 1, q)) =>
            {
                j += 1
            }
            "unsafe" | "async" => j += 1,
            "extern" => {
                j += 1;
                if ctx.tokens().get(j).is_some_and(|n| n.kind == TokKind::Str) {
                    j += 1;
                }
            }
            kw => {
                let kind = *ITEM_KINDS.iter().find(|&&k| k == kw)?;
                j += 1;
                if kind == "static" && is_ident(ctx, j, "mut") {
                    j += 1;
                }
                return ctx
                    .tokens()
                    .get(j)
                    .is_some_and(|n| n.kind == TokKind::Ident)
                    .then_some((kind, j));
            }
        }
    }
}

/// Token ranges of `pub use …;` and `pub(..) use …;` statements.
fn pub_use_spans(ctx: &FileContext) -> Vec<(usize, usize)> {
    let toks = ctx.tokens();
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !is_ident(ctx, i, "pub") {
            continue;
        }
        let mut j = i + 1;
        if is_punct(ctx, j, "(") {
            while j < toks.len() && !is_punct(ctx, j, ")") {
                j += 1;
            }
            j += 1;
        }
        if !is_ident(ctx, j, "use") {
            continue;
        }
        while j < toks.len() && !is_punct(ctx, j, ";") {
            j += 1;
        }
        spans.push((i, j + 1));
    }
    spans
}
