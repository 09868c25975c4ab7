//! The rule set: each rule is a token-level check scoped to a set of
//! crates, with per-line allow-annotation escapes.
//!
//! | rule id         | scope                | forbids                                     |
//! |-----------------|----------------------|---------------------------------------------|
//! | `wallclock`     | simulation crates    | `SystemTime`, `Instant`, `thread::current`  |
//! | `unordered-iter`| every crate          | default-hasher `HashMap` / `HashSet`        |
//! | `panic-site`    | hot-loop crates      | `.unwrap()` / `.expect(…)`                  |
//! | `index-panic`   | hot-loop crates      | `expr[non-literal]` indexing                |
//! | `narrow-cast`   | `rrs-core`           | narrowing `as u8/u16/u32/i8/i16/i32` casts  |
//!
//! The hot-loop crates ([`HOT_CRATES`]) are `core`, `dram`, `mem-ctrl`,
//! `mitigations`, `sim`, `telemetry` and `flat`.
//!
//! An escape is a comment `// lint: allow(<rule>) — <reason>` on the same
//! line as the violation or on the line directly above it; the reason is
//! mandatory. Code under `#[cfg(test)]` (and `tests/`, `benches/`,
//! `examples/` directories, which the walker never visits) is exempt.

use crate::lexer::{Lexed, Token, TokenKind};

/// Crates whose results must not depend on wall-clock time or thread
/// identity (everything that feeds a `SimResult`).
pub const SIM_CRATES: &[&str] = &[
    "core",
    "dram",
    "mem-ctrl",
    "sim",
    "workloads",
    "mitigations",
    "analysis",
    "trace",
    "check",
    "json",
    "telemetry",
    "forensics",
    "flat",
];

/// Crates on the per-activation hot path (§4.1: every access consults the
/// RIT, and every activation runs the mitigation's `activation_delay` and
/// `on_activation`), where a panic aborts a whole campaign cell.
pub const HOT_CRATES: &[&str] = &[
    "core",
    "dram",
    "mem-ctrl",
    "mitigations",
    "sim",
    "telemetry",
    "flat",
];

/// All rule ids, in reporting order.
pub const ALL_RULES: &[&str] = &[
    "wallclock",
    "unordered-iter",
    "panic-site",
    "index-panic",
    "narrow-cast",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation with a fix hint.
    pub message: String,
}

/// Whether `rule` applies to the crate named `crate_name`.
pub fn rule_applies(rule: &str, crate_name: &str) -> bool {
    match rule {
        "wallclock" => SIM_CRATES.contains(&crate_name),
        "unordered-iter" => true,
        "panic-site" | "index-panic" => HOT_CRATES.contains(&crate_name),
        "narrow-cast" => crate_name == "core",
        _ => false,
    }
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `for x in [1, 2]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "if", "else", "match", "return", "break", "continue", "move", "ref", "as",
    "const", "static", "fn", "where", "for", "while", "loop", "impl", "pub", "use", "mod",
    "struct", "enum", "trait", "type", "dyn", "unsafe", "await", "yield", "box",
];

/// Integer types a cast may silently truncate to.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Runs every applicable rule over `lexed`, appending to `out`. Tokens
/// whose index falls in a `skip` range (test code) are ignored entirely;
/// `const_fn` ranges are exempt from `index-panic` only — an out-of-bounds
/// index in a const initializer is a *compile-time* error, so the runtime
/// panic-safety argument does not apply there.
pub fn check(
    crate_name: &str,
    lexed: &Lexed<'_>,
    skip: &[(usize, usize)],
    const_fn: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.tokens;
    let skipped = |i: usize| skip.iter().any(|&(a, b)| i >= a && i <= b);
    let in_const_fn = |i: usize| const_fn.iter().any(|&(a, b)| i >= a && i <= b);

    for (i, t) in toks.iter().enumerate() {
        if skipped(i) {
            continue;
        }
        if rule_applies("wallclock", crate_name) {
            check_wallclock(toks, i, t, out);
        }
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(Violation {
                rule: "unordered-iter",
                line: t.line,
                message: format!(
                    "`{}` iterates in RandomState order; use `BTreeMap`/`BTreeSet` (or sort \
                     before draining) so results never depend on hash seeding",
                    t.text
                ),
            });
        }
        if rule_applies("panic-site", crate_name) {
            check_panic_site(toks, i, t, out);
        }
        if rule_applies("index-panic", crate_name) && !in_const_fn(i) {
            check_index(toks, i, t, out);
        }
        if rule_applies("narrow-cast", crate_name) {
            check_narrow_cast(toks, i, t, out);
        }
    }
}

fn check_wallclock(toks: &[Token<'_>], i: usize, t: &Token<'_>, out: &mut Vec<Violation>) {
    if t.kind != TokenKind::Ident {
        return;
    }
    if t.text == "SystemTime" || t.text == "Instant" {
        out.push(Violation {
            rule: "wallclock",
            line: t.line,
            message: format!(
                "`{}` in a simulation crate: results must be a pure function of the seed, \
                 never of wall-clock time",
                t.text
            ),
        });
    }
    // `thread::current` (thread-id-dependent behavior).
    if t.text == "thread"
        && matches!(toks.get(i + 1), Some(c) if c.text == ":")
        && matches!(toks.get(i + 2), Some(c) if c.text == ":")
        && matches!(toks.get(i + 3), Some(c) if c.kind == TokenKind::Ident && c.text == "current")
    {
        out.push(Violation {
            rule: "wallclock",
            line: t.line,
            message: "`thread::current()` in a simulation crate: results must not depend on \
                      which thread runs a cell"
                .to_string(),
        });
    }
}

fn check_panic_site(toks: &[Token<'_>], i: usize, t: &Token<'_>, out: &mut Vec<Violation>) {
    if t.kind != TokenKind::Ident || (t.text != "unwrap" && t.text != "expect") {
        return;
    }
    // Only the method-call forms `.unwrap()` / `.expect(` — `unwrap_or*`
    // and `expect_err` lex as different identifiers and are fine.
    let is_call = matches!(toks.get(i + 1), Some(n) if n.text == "(");
    let is_method = i > 0 && toks[i - 1].text == ".";
    if is_call && is_method {
        out.push(Violation {
            rule: "panic-site",
            line: t.line,
            message: format!(
                "`.{}(…)` can panic in the hot simulation loop; restructure infallibly or \
                 document the invariant with an allow annotation",
                t.text
            ),
        });
    }
}

fn check_index(toks: &[Token<'_>], i: usize, t: &Token<'_>, out: &mut Vec<Violation>) {
    if t.text != "[" {
        return;
    }
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return;
    };
    let is_postfix = match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text),
        TokenKind::Punct => prev.text == ")" || prev.text == "]" || prev.text == "?",
        _ => false,
    };
    if !is_postfix {
        return;
    }
    // `table[0]` — a literal index into a fixed-size array is verifiable at
    // review time and exempt.
    let literal_index = matches!(toks.get(i + 1), Some(n) if n.kind == TokenKind::IntLit)
        && matches!(toks.get(i + 2), Some(n) if n.text == "]");
    if literal_index {
        return;
    }
    out.push(Violation {
        rule: "index-panic",
        line: t.line,
        message: "indexing with a computed index can panic in the hot simulation loop; use \
                  `.get()`/iterators or document the bounds invariant with an allow annotation"
            .to_string(),
    });
}

fn check_narrow_cast(toks: &[Token<'_>], i: usize, t: &Token<'_>, out: &mut Vec<Violation>) {
    if t.kind != TokenKind::Ident || t.text != "as" {
        return;
    }
    if let Some(n) = toks.get(i + 1) {
        if n.kind == TokenKind::Ident && NARROW_TARGETS.contains(&n.text) {
            out.push(Violation {
                rule: "narrow-cast",
                line: t.line,
                message: format!(
                    "`as {}` silently truncates row/address arithmetic; use `try_from` with an \
                     error path or document the range invariant with an allow annotation",
                    n.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(crate_name: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let mut out = Vec::new();
        check(crate_name, &lexed, &[], &[], &mut out);
        out
    }

    #[test]
    fn wallclock_scoped_to_sim_crates() {
        let src = "use std::time::Instant;";
        assert_eq!(run("core", src).len(), 1);
        assert_eq!(run("bench", src).len(), 0);
    }

    #[test]
    fn thread_current_detected() {
        let v = run("sim", "let id = thread::current();");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wallclock");
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        assert!(run(
            "core",
            "x.unwrap_or(0); x.unwrap_or_else(f); e.expect_err(\"no\");"
        )
        .is_empty());
        let v = run("core", "x.unwrap();");
        assert_eq!(v[0].rule, "panic-site");
    }

    #[test]
    fn literal_indexing_is_exempt() {
        assert!(run("core", "let a = t[0]; let b = t[1];").is_empty());
        let v = run("core", "let a = t[i];");
        assert_eq!(v[0].rule, "index-panic");
    }

    #[test]
    fn array_literals_and_patterns_are_not_indexing() {
        assert!(run(
            "core",
            "let [a, b] = pair; let v = [1, 2]; for x in [3, 4] {}"
        )
        .is_empty());
        assert!(run("core", "let v = vec![0; n];").is_empty());
    }

    #[test]
    fn panic_rules_cover_the_mitigations_crate() {
        let src = "let a = t[i]; x.unwrap();";
        let rules: Vec<_> = run("mitigations", src).iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["index-panic", "panic-site"]);
        assert!(run("workloads", src).is_empty());
    }

    #[test]
    fn narrow_casts_only_in_core() {
        let src = "let x = y as u32;";
        assert_eq!(run("core", src)[0].rule, "narrow-cast");
        assert!(run("dram", src).is_empty());
        assert!(run("core", "let x = y as u64; let z = w as f64;").is_empty());
    }

    #[test]
    fn hash_collections_flagged_everywhere() {
        let v = run("cli", "use std::collections::HashMap;");
        assert_eq!(v[0].rule, "unordered-iter");
    }
}
