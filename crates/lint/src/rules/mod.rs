//! The rule classes, each in its own module:
//!
//! * `determinism` — D001 float-order panics, D002 hash-container
//!   iteration, D003 wall-clock reads
//! * `panics` — P001 `unwrap`, P002 `expect`, P003 panic macros
//! * `wire` — W001 duplicate protocol tags, W002 encoder/decoder
//!   pairing, W003 one encoder/decoder pair per hash-family tag
//! * `locks` — L001 declared mutex acquisition order
//! * `unsafety` — U001 `SAFETY`-comment audit + inventory
//! * `reach` — X001 `pub` items no other file names
//!
//! All rules walk the lexed token stream through [`FileContext`], so
//! text inside strings and comments never matches.

pub mod determinism;
pub mod locks;
pub mod panics;
pub mod reach;
pub mod unsafety;
pub mod wire;

use crate::context::FileContext;
use crate::lexer::TokKind;

/// True when token `i` is an identifier with this exact text.
pub(crate) fn is_ident(ctx: &FileContext, i: usize, text: &str) -> bool {
    ctx.tokens()
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && ctx.text(i) == text)
}

/// True when token `i` is this punctuation character.
pub(crate) fn is_punct(ctx: &FileContext, i: usize, text: &str) -> bool {
    ctx.tokens()
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && ctx.text(i) == text)
}

/// Given `i` at an opening `(`, returns the index just past its
/// matching `)`; `None` when unbalanced.
pub(crate) fn skip_parens(ctx: &FileContext, i: usize) -> Option<usize> {
    if !is_punct(ctx, i, "(") {
        return None;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < ctx.tokens().len() {
        if ctx.tokens()[j].kind == TokKind::Punct {
            match ctx.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}
