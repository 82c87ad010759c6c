//! Layer 2: source invariants over `crates/**/*.rs`, enforced by a
//! hand-rolled lexer (no syn, no proc-macro machinery — the workspace
//! has no such dependency and doesn't need one for these checks).
//!
//! Rules:
//!
//! - `wall-clock`: no `SystemTime::now` / `Instant::now` (or chrono-style
//!   `Utc::now` / `Local::now`) outside `crates/bench` — the whole
//!   pipeline runs on the virtual [`SimClock`], and a single wall-clock
//!   read breaks replay determinism. Applies to test code too.
//! - `no-unwrap`: no `.unwrap()` / `.expect()` / `panic!` in non-test
//!   code of the hot-path crates (`loki`, `bus`, `core`) — a poisoned
//!   ingest path takes the whole pipeline down.
//! - `metric-name`: string literals at metric registration sites must
//!   satisfy [`omni_exporters::valid_metric_name`].
//!
//! Whether the registered families match the layer-1 catalog is not a
//! source rule: the catalog is derived from the same
//! `omni_obs::SELF_FAMILIES` table the stack registers through, and
//! `tests/telemetry_conformance.rs` checks the running stack against it.
//!
//! Suppress a finding with `// lint:allow(<rule>)` on the same line or
//! the line directly above.
//!
//! [`SimClock`]: omni_model::SimClock

use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Crates whose non-test code must be panic-free.
const HOT_PATH_CRATES: &[&str] = &["loki", "bus", "core"];

/// Method names whose first string-literal argument is a metric name.
const REGISTER_METHODS: &[&str] = &["counter", "gauge", "histogram", "ingest_sample"];

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Str(String),
    Punct(char),
}

pub(crate) struct Lexed {
    /// `(line, token)` in source order; comments/whitespace dropped.
    pub(crate) toks: Vec<(usize, Tok)>,
    /// Rules allowed per line, from `// lint:allow(rule)` comments.
    pub(crate) allows: BTreeMap<usize, BTreeSet<String>>,
}

/// Lex Rust source into the minimal token stream the rules need. Handles
/// line and nested block comments, plain/raw/byte strings, and the
/// char-literal-vs-lifetime ambiguity.
pub(crate) fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut allows: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                record_allows(&src[start..i], line, &mut allows);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                record_allows(&src[start..i], start_line, &mut allows);
            }
            b'"' => {
                let (s, ni, nl) = scan_string(src, i, line);
                toks.push((line, Tok::Str(s)));
                i = ni;
                line = nl;
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (s, ni, nl) = scan_raw_or_byte(src, i, line);
                toks.push((line, Tok::Str(s)));
                i = ni;
                line = nl;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let rest = &b[i + 1..];
                let is_lifetime = match rest.first() {
                    Some(&ch) if ch == b'_' || ch.is_ascii_alphabetic() => {
                        // `'x'` is a char; `'xy`, `'x,` etc. are lifetimes.
                        rest.get(1) != Some(&b'\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                } else {
                    // Char literal: scan to the closing quote, honouring
                    // escapes.
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                }
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push((line, Tok::Ident(src[start..i].to_string())));
            }
            _ if c.is_ascii_digit() => {
                // Numbers (including suffixes/underscores); no token needed.
                while i < b.len() && (b[i] == b'_' || b[i] == b'.' || b[i].is_ascii_alphanumeric())
                {
                    i += 1;
                }
            }
            _ => {
                if !c.is_ascii_whitespace() {
                    toks.push((line, Tok::Punct(c as char)));
                }
                i += 1;
            }
        }
    }
    Lexed { toks, allows }
}

fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'r' => matches!(b.get(i + 1), Some(&b'"') | Some(&b'#')),
        b'b' => match b.get(i + 1) {
            Some(&b'"') => true,
            Some(&b'r') => matches!(b.get(i + 2), Some(&b'"') | Some(&b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Scan a plain `"..."` string starting at `i` (the opening quote).
fn scan_string(src: &str, i: usize, mut line: usize) -> (String, usize, usize) {
    let b = src.as_bytes();
    let mut j = i + 1;
    let start = j;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => break,
            b'\n' => {
                line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    let end = j.min(b.len());
    (src[start..end].to_string(), end + 1, line)
}

/// Scan `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` starting at `i`.
fn scan_raw_or_byte(src: &str, i: usize, mut line: usize) -> (String, usize, usize) {
    let b = src.as_bytes();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = b.get(j) == Some(&b'r');
    if !raw {
        // Plain byte string `b"..."`.
        return scan_string(src, j, line);
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    // Opening quote.
    j += 1;
    let start = j;
    let mut closer = Vec::with_capacity(hashes + 1);
    closer.push(b'"');
    closer.resize(hashes + 1, b'#');
    while j < b.len() {
        if b[j] == b'\n' {
            line += 1;
        }
        if b[j] == b'"' && b[j..].starts_with(&closer) {
            return (src[start..j].to_string(), j + closer.len(), line);
        }
        j += 1;
    }
    (src[start..].to_string(), b.len(), line)
}

/// Pull every `lint:allow(rule)` out of a comment's text. Documentation
/// comments (`///`, `//!`, `/**`, `/*!`) are prose *about* suppressions,
/// not suppressions — they are never recorded, so writing the marker in
/// rustdoc can't silently disarm a rule (or trip `unused-suppression`).
fn record_allows(comment: &str, line: usize, allows: &mut BTreeMap<usize, BTreeSet<String>>) {
    let doc = ["///", "//!", "/**", "/*!"].iter().any(|p| comment.starts_with(p));
    if doc && !comment.starts_with("/**/") {
        return;
    }
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        if let Some(end) = after.find(')') {
            allows.entry(line).or_default().insert(after[..end].trim().to_string());
            rest = &after[end..];
        } else {
            break;
        }
    }
}

/// Per-token flag: is this token inside a `#[cfg(test)]` / `#[test]`
/// brace-matched region?
pub(crate) fn mark_test_regions(toks: &[(usize, Tok)]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_depths: Vec<i64> = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if is_test_attr(toks, k) {
            pending = true;
        }
        match &toks[k].1 {
            Tok::Punct('{') => {
                depth += 1;
                if pending {
                    region_depths.push(depth);
                    pending = false;
                }
            }
            Tok::Punct('}') => {
                if region_depths.last() == Some(&depth) {
                    region_depths.pop();
                    // The closing brace itself still belongs to the region.
                    in_test[k] = true;
                }
                depth -= 1;
            }
            // `#[cfg(test)] use ...;` — no braced item follows.
            Tok::Punct(';') if pending && region_depths.is_empty() => pending = false,
            _ => {}
        }
        if !region_depths.is_empty() {
            in_test[k] = true;
        }
        k += 1;
    }
    in_test
}

/// Does `#[cfg(test)]` or `#[test]` start at token `k`?
fn is_test_attr(toks: &[(usize, Tok)], k: usize) -> bool {
    let pat_cfg = ["#", "[", "cfg", "(", "test", ")", "]"];
    let pat_test = ["#", "[", "test", "]"];
    matches_toks(toks, k, &pat_cfg) || matches_toks(toks, k, &pat_test)
}

pub(crate) fn matches_toks(toks: &[(usize, Tok)], k: usize, pat: &[&str]) -> bool {
    if k + pat.len() > toks.len() {
        return false;
    }
    pat.iter().enumerate().all(|(n, want)| match &toks[k + n].1 {
        Tok::Ident(s) => s == want,
        Tok::Punct(c) => want.len() == 1 && *c == want.chars().next().unwrap_or(' '),
        Tok::Str(_) => false,
    })
}

/// Apply `// lint:allow(rule)` suppressions to `raw` findings for one
/// file: a finding is dropped when its line (or the line above it)
/// carries a matching allow. Every allow that suppressed nothing becomes
/// an `unused-suppression` finding — a stale allow is a disarmed rule
/// nobody is looking at.
pub(crate) fn apply_suppressions(rel_path: &str, lexed: &Lexed, raw: Vec<Finding>) -> Vec<Finding> {
    let mut used: BTreeSet<(usize, &str)> = BTreeSet::new();
    let mut out = Vec::new();
    for f in &raw {
        let mut suppressed = false;
        for l in [f.line, f.line.saturating_sub(1)] {
            if lexed.allows.get(&l).is_some_and(|set| set.contains(&f.rule)) {
                suppressed = true;
                // Borrow the rule name out of `raw` (outlives this loop).
                used.insert((l, f.rule.as_str()));
            }
        }
        if !suppressed {
            out.push(f.clone());
        }
    }
    for (line, rules) in &lexed.allows {
        for rule in rules {
            if !used.contains(&(*line, rule.as_str())) {
                out.push(Finding::source(
                    rel_path,
                    *line,
                    "unused-suppression",
                    format!("lint:allow({rule}) suppresses nothing; remove it"),
                ));
            }
        }
    }
    out
}

/// Lint one source file. `rel_path` is the repo-relative path used in
/// findings; `crate_name` selects which rules apply.
pub fn lint_source(rel_path: &str, crate_name: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let in_test = mark_test_regions(&lexed.toks);
    let raw = layer2_raw(rel_path, crate_name, &lexed, &in_test);
    apply_suppressions(rel_path, &lexed, raw)
}

/// The layer-2 rules over one lexed file, *before* suppressions.
pub(crate) fn layer2_raw(
    rel_path: &str,
    crate_name: &str,
    lexed: &Lexed,
    in_test: &[bool],
) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    let push = |_lexed: &Lexed, line: usize, rule: &str, msg: String, out: &mut Vec<Finding>| {
        out.push(Finding::source(rel_path, line, rule, msg));
    };

    for k in 0..toks.len() {
        let (line, tok) = &toks[k];
        // wall-clock: Ident::now( — everywhere but crates/bench, tests
        // included (replay determinism).
        if crate_name != "bench" {
            if let Tok::Ident(id) = tok {
                if matches!(id.as_str(), "SystemTime" | "Instant" | "Utc" | "Local")
                    && matches_toks(toks, k + 1, &[":", ":", "now"])
                {
                    push(
                        lexed,
                        *line,
                        "wall-clock",
                        format!("{id}::now reads the wall clock; use the SimClock"),
                        &mut out,
                    );
                }
            }
        }
        // no-unwrap: hot-path crates, non-test code only.
        if HOT_PATH_CRATES.contains(&crate_name) && !in_test[k] {
            if let Tok::Ident(id) = tok {
                let unwrapish = (id == "unwrap" || id == "expect")
                    && k > 0
                    && toks[k - 1].1 == Tok::Punct('.')
                    && matches_toks(toks, k + 1, &["("]);
                if unwrapish {
                    push(
                        lexed,
                        *line,
                        "no-unwrap",
                        format!(".{id}() can panic on a hot path; propagate the error"),
                        &mut out,
                    );
                }
                if id == "panic" && matches_toks(toks, k + 1, &["!"]) {
                    push(
                        lexed,
                        *line,
                        "no-unwrap",
                        "panic! takes the pipeline down; return an error".to_string(),
                        &mut out,
                    );
                }
            }
        }
        // metric-name: registration sites with a string literal name.
        // Tests are exempt — they deliberately register
        // malformed names to exercise the renderer's degradation path.
        if in_test[k] {
            continue;
        }
        if let Some((name, name_line)) = registration_name(toks, k) {
            if !omni_exporters::valid_metric_name(&name) {
                push(
                    lexed,
                    name_line,
                    "metric-name",
                    format!("metric name {name:?} is not a valid Prometheus metric name"),
                    &mut out,
                );
            }
        }
    }
    out
}

/// If a metric registration site starts at token `k`, return its
/// string-literal name and the line it sits on. Recognized shapes:
/// `.counter("name"`, `.gauge("name"`, `.histogram("name"`,
/// `.ingest_sample("name"`, and `gauge("name"` / `counter("name"` after
/// `MetricFamily::` or `PageFamily::` (the family an exporter writes in
/// place).
fn registration_name(toks: &[(usize, Tok)], k: usize) -> Option<(String, usize)> {
    let grab = |at: usize| match toks.get(at) {
        Some((line, Tok::Str(s))) => Some((s.clone(), *line)),
        _ => None,
    };
    match &toks[k].1 {
        Tok::Ident(id) if REGISTER_METHODS.contains(&id.as_str()) => {
            if k > 0 && toks[k - 1].1 == Tok::Punct('.') && matches_toks(toks, k + 1, &["("]) {
                return grab(k + 2);
            }
            None
        }
        Tok::Ident(id) if id == "MetricFamily" || id == "PageFamily" => {
            if matches_toks(toks, k + 1, &[":", ":"]) {
                if let Some((_, Tok::Ident(m))) = toks.get(k + 3) {
                    if (m == "gauge" || m == "counter") && matches_toks(toks, k + 4, &["("]) {
                        return grab(k + 5);
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// Walk `<root>/crates/*/src/**/*.rs`, run the layer-2 rules on each
/// file and the layer-3 concurrency analysis across all of them, then
/// apply suppressions per file (emitting `unused-suppression` for stale
/// allows). `root` is the workspace root.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let (ws, mut out) = crate::workspace::Workspace::load(root);

    // Raw findings per file: layer 2 first, then the workspace-wide
    // concurrency pass distributed back onto the files its findings
    // anchor to (so their suppressions apply).
    let mut raw: std::collections::BTreeMap<&str, Vec<Finding>> =
        ws.files.iter().map(|f| (f.rel_path.as_str(), Vec::new())).collect();
    for f in &ws.files {
        raw.get_mut(f.rel_path.as_str()).expect("just inserted").extend(layer2_raw(
            &f.rel_path,
            &f.crate_name,
            &f.lexed,
            &f.in_test,
        ));
    }
    for finding in crate::concurrency::analyze(&ws) {
        match raw.get_mut(finding.file.as_str()) {
            Some(v) => v.push(finding),
            None => out.push(finding),
        }
    }
    for f in &ws.files {
        let file_raw = raw.remove(f.rel_path.as_str()).unwrap_or_default();
        out.extend(apply_suppressions(&f.rel_path, &f.lexed, file_raw));
    }
    crate::normalize(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("crates/loki/src/x.rs", "loki", src)
    }

    #[test]
    fn flags_unwrap_on_hot_path() {
        let f = lint("fn f() { x.unwrap(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unwrap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn allows_unwrap_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
        let attr = "#[test]\nfn t() { x.expect(\"ok\"); }\n";
        assert!(lint(attr).is_empty());
    }

    #[test]
    fn non_test_code_after_test_region_still_checked() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\nfn f() { b.unwrap(); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn suppression_comment_works_on_line_and_line_above() {
        let same = "fn f() { x.unwrap(); } // lint:allow(no-unwrap)\n";
        assert!(lint(same).is_empty());
        let above = "// invariant: never empty. lint:allow(no-unwrap)\nfn f() { x.unwrap(); }\n";
        assert!(lint(above).is_empty());
        // A mismatched allow suppresses nothing — the original finding
        // survives AND the stale allow is flagged.
        let wrong_rule = "// lint:allow(wall-clock)\nfn f() { x.unwrap(); }\n";
        let f = lint(wrong_rule);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "no-unwrap"));
        assert!(f.iter().any(|x| x.rule == "unused-suppression" && x.line == 1));
    }

    #[test]
    fn doc_comments_never_record_suppressions() {
        // Rustdoc explaining the marker must not disarm rules on the
        // next line, nor count as a stale suppression.
        let src = "/// write `// lint:allow(no-unwrap)` to suppress\nfn f() { x.unwrap(); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap");
    }

    #[test]
    fn ignores_strings_and_comments() {
        let src = "fn f() { let s = \".unwrap()\"; // .unwrap()\n /* x.unwrap() */ }\n";
        assert!(lint(src).is_empty());
        let raw = "fn f() { let s = r#\"a.unwrap() \"quoted\" \"#; }\n";
        assert!(lint(raw).is_empty());
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) { y.unwrap(); }\n";
        assert_eq!(lint(src).len(), 1);
        let chars = "fn f() { let c = '\\''; let q = '\"'; z.unwrap(); }\n";
        assert_eq!(lint(chars).len(), 1);
    }

    #[test]
    fn wall_clock_flagged_everywhere_but_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = lint_source("crates/model/src/x.rs", "model", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        let bench = lint_source("crates/bench/src/x.rs", "bench", src);
        assert!(bench.is_empty());
        // Tests are not exempt: replay determinism covers them too.
        let in_test = "#[cfg(test)]\nmod t { fn f() { Instant::now(); } }\n";
        assert_eq!(lint_source("crates/model/src/x.rs", "model", in_test).len(), 1);
    }

    #[test]
    fn bad_metric_name_flagged() {
        let src = "fn f(r: &Registry) { r.counter(\"bad.name\", \"h\", labels!()); }\n";
        let f = lint_source("crates/model/src/x.rs", "model", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "metric-name");
        // A site that registers through a table row spells no literal,
        // so there is nothing for the rule to check.
        let row = "fn f(r: &Registry) { fam::STEPS.counter(r, labels!()).inc(); }\n";
        assert!(lint_source("crates/core/src/x.rs", "core", row).is_empty());
        // A page family written in place names its family in a `const`.
        for (shape, findings) in
            [("PageFamily::gauge(\"bad-name\"", 1), ("PageFamily::counter(\"ok\"", 0)]
        {
            let src = format!("const F: PageFamily = {shape}, \"h\");\n");
            let f = lint_source("crates/exporters/src/x.rs", "exporters", &src);
            assert_eq!(f.len(), findings, "{shape}: {f:?}");
        }
    }
}
