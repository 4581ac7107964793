//! Drives the rule set over a set of file contexts: local rules per
//! file, the cross-file wire and reachability accumulators, then
//! centralized suppression (`lint:allow`) and ordering.

use crate::context::FileContext;
use crate::report::{AllowRecord, Finding, Report};
use crate::rules;

/// Runs every rule over `ctxs` and assembles the report. Findings on a
/// line covered by a *justified* `lint:allow(<rule>)` directive (same
/// line or the line above) are suppressed; an allow without a
/// ` -- justification` is itself a finding (A001) and suppresses
/// nothing. `ctxs` is the whole world: reachability (X001) judges a
/// `pub` item by whether any other file in it names the item.
pub fn scan(ctxs: &[FileContext]) -> Report {
    scan_rules(ctxs, true)
}

/// [`scan`] over one file taken out of its workspace. Every rule runs
/// except reachability, which would find each `pub` item unnamed by a
/// world of one.
pub fn scan_file(ctx: &FileContext) -> Report {
    scan_rules(std::slice::from_ref(ctx), false)
}

fn scan_rules(ctxs: &[FileContext], reachability: bool) -> Report {
    let mut findings = Vec::new();
    let mut report = Report {
        files_scanned: ctxs.len(),
        ..Report::default()
    };
    let mut wire = rules::wire::WireCheck::default();
    let mut reach = rules::reach::Reachability::default();

    for ctx in ctxs {
        rules::determinism::check_partial_cmp(ctx, &mut findings);
        rules::determinism::check_hash_iteration(ctx, &mut findings);
        rules::determinism::check_wall_clock(ctx, &mut findings);
        rules::panics::check(ctx, &mut findings);
        rules::locks::check(ctx, &mut findings);
        rules::unsafety::check(ctx, &mut findings, &mut report.unsafe_inventory);
        wire.collect(ctx);
        if reachability {
            reach.collect(ctx);
        }

        // Allow hygiene applies to production files only — fixtures and
        // tests may demonstrate bare directives.
        for a in ctx.allows.iter().filter(|_| !ctx.is_dev) {
            if a.justification.is_empty() {
                findings.push(Finding {
                    file: ctx.path.clone(),
                    line: a.line,
                    rule: "A001",
                    message: format!(
                        "lint:allow({}) without a ` -- justification`; an unexplained \
                         suppression is not an audit trail",
                        a.rules.join(",")
                    ),
                });
            } else {
                report.allows.push(AllowRecord {
                    file: ctx.path.clone(),
                    line: a.line,
                    rules: a.rules.clone(),
                    justification: a.justification.clone(),
                });
            }
        }
    }
    wire.finalize(&mut findings);
    reach.finalize(&mut findings);

    // Centralized suppression: A001 is never suppressible.
    findings.retain(|f| {
        if f.rule == "A001" {
            return true;
        }
        let Some(ctx) = ctxs.iter().find(|c| c.path == f.file) else {
            return true;
        };
        !ctx.is_allowed(f.rule, f.line)
    });
    findings.sort();
    findings.dedup();
    report.findings = findings;
    report
        .unsafe_inventory
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    report
}
