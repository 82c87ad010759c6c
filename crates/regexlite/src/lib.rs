//! A small regular-expression engine.
//!
//! Powers every regex surface in the reproduction: LogQL line filters
//! (`|~`, `!~`), label matchers (`=~`, `!~`), the LogQL `regexp` stage's
//! named capture groups, and Alertmanager route matchers.
//!
//! Supported syntax (the RE2-ish subset those surfaces need):
//!
//! * literals, `.` (any char except newline), escapes (`\d \w \s \D \W \S
//!   \n \r \t` and escaped metacharacters)
//! * character classes `[a-z0-9_]`, negated classes `[^...]`, class escapes
//! * groups `(...)`, non-capturing `(?:...)`, named `(?P<name>...)`
//! * alternation `a|b`, repetition `* + ?` and bounded `{n}`, `{n,}`,
//!   `{n,m}`, with lazy variants (`*?`, `+?`, ...)
//! * anchors `^` and `$`
//!
//! The matcher is a classic backtracking VM with an explicit step budget:
//! on pathological patterns it fails *loudly* ([`MatchError::BudgetExhausted`])
//! instead of hanging the query path.

mod ast;
mod matcher;
mod parser;

pub use ast::{Ast, ClassItem};
pub use matcher::{Captures, MatchError};
pub use parser::RegexParseError;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    program: matcher::Program,
    anchored: matcher::Program,
    pattern: String,
    /// Names of capture groups, indexed by group number (0 = whole match).
    group_names: Vec<Option<String>>,
    /// A literal substring every match must contain, extracted at compile
    /// time. Texts that don't contain it are rejected by a plain substring
    /// scan before the backtracking VM ever runs — the dominant cost on
    /// log lines that don't match.
    prefilter: Option<String>,
}

/// Commit the literal run being built into `best` if it is longer, then
/// reset the run.
fn commit_run(run: &mut String, best: &mut String) {
    if run.len() > best.len() {
        std::mem::swap(run, best);
    }
    run.clear();
}

/// Walk the AST in match order, growing `run` across adjacent literals.
/// Nodes that make the following text unpredictable (alternation, classes,
/// `.`  wildcards, optional repeats) break the run; anchors and the empty
/// node are zero-width and keep it alive. A repeat with `min >= 1` must
/// match its body at least once, so the body's own required literal is a
/// candidate even though the run around it breaks.
fn literal_scan(ast: &Ast, run: &mut String, best: &mut String) {
    match ast {
        Ast::Literal(c) => run.push(*c),
        Ast::Empty | Ast::AnchorStart | Ast::AnchorEnd => {}
        Ast::Concat(nodes) => {
            for n in nodes {
                literal_scan(n, run, best);
            }
        }
        Ast::Group { node, .. } => literal_scan(node, run, best),
        Ast::Repeat { node, min, .. } if *min >= 1 => {
            commit_run(run, best);
            let mut inner = String::new();
            literal_scan(node, &mut inner, best);
            commit_run(&mut inner, best);
        }
        _ => commit_run(run, best),
    }
}

/// The longest literal substring every match of `ast` must contain, if
/// any adjacent literal run survives the walk.
fn required_literal(ast: &Ast) -> Option<String> {
    let mut run = String::new();
    let mut best = String::new();
    literal_scan(ast, &mut run, &mut best);
    commit_run(&mut run, &mut best);
    if best.is_empty() {
        None
    } else {
        Some(best)
    }
}

impl Regex {
    /// Compile a pattern.
    pub fn new(pattern: &str) -> Result<Self, RegexParseError> {
        let (ast, group_names) = parser::parse(pattern)?;
        let to_err = |e: MatchError| RegexParseError { offset: 0, message: e.to_string() };
        let program = matcher::compile(&ast, group_names.len(), false).map_err(to_err)?;
        let anchored = matcher::compile(&ast, group_names.len(), true).map_err(to_err)?;
        let prefilter = required_literal(&ast);
        Ok(Self { program, anchored, pattern: pattern.to_string(), group_names, prefilter })
    }

    /// The literal substring every match must contain, when the compiler
    /// managed to extract one — the prefilter that short-circuits
    /// non-matching texts without running the VM.
    pub fn required_literal(&self) -> Option<&str> {
        self.prefilter.as_deref()
    }

    /// Prefilter check: `false` means the text cannot possibly match.
    #[inline]
    fn might_match(&self, text: &str) -> bool {
        match &self.prefilter {
            Some(lit) => text.contains(lit.as_str()),
            None => true,
        }
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups, including group 0 (the whole match).
    pub fn group_count(&self) -> usize {
        self.group_names.len()
    }

    /// Names of the capture groups (index 0 is the implicit whole-match
    /// group and is always unnamed).
    pub fn group_names(&self) -> &[Option<String>] {
        &self.group_names
    }

    /// Unanchored search: does the pattern match anywhere in `text`?
    /// Budget-exhausted patterns report `false` (the conservative answer
    /// for a filter).
    pub fn is_match(&self, text: &str) -> bool {
        self.might_match(text) && matcher::run(&self.program, text).ok().flatten().is_some()
    }

    /// Anchored match over the *entire* input, the semantics Prometheus
    /// label matchers use (`=~"foo.*"` must match the whole value).
    pub fn is_full_match(&self, text: &str) -> bool {
        self.might_match(text) && matches!(matcher::run(&self.anchored, text), Ok(Some(_)))
    }

    /// First match with capture groups, or `None`.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        if !self.might_match(text) {
            return None;
        }
        matcher::run(&self.program, text)
            .ok()
            .flatten()
            .map(|spans| Captures::new(text, spans, &self.group_names))
    }

    /// Like [`Regex::captures`] but surfacing budget exhaustion.
    pub fn try_captures<'t>(&self, text: &'t str) -> Result<Option<Captures<'t>>, MatchError> {
        if !self.might_match(text) {
            return Ok(None);
        }
        Ok(matcher::run(&self.program, text)?
            .map(|spans| Captures::new(text, spans, &self.group_names)))
    }

    /// Byte range of the first match, if any.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        if !self.might_match(text) {
            return None;
        }
        matcher::run(&self.program, text)
            .ok()
            .flatten()
            .and_then(|caps| caps.first().copied().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap_or_else(|e| panic!("pattern {p:?} failed: {e}"))
    }

    #[test]
    fn group_nesting_is_bounded_not_a_stack_overflow() {
        // Regression: 100 000 nested `(` overflowed the parser's stack and
        // aborted the process.
        let nested = |n| format!("{}a{}", "(?:".repeat(n), ")".repeat(n));
        assert!(re(&nested(parser::MAX_DEPTH)).is_full_match("a"));
        let err = Regex::new(&nested(parser::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, 3 * parser::MAX_DEPTH + 1, "at the group one too deep");
        assert!(err.message.contains("nest deeper than 128"), "{err}");
        for hostile in ["(".repeat(100_000), "(a|".repeat(100_000), "[(".repeat(100_000)] {
            assert!(Regex::new(&hostile).is_err());
        }
    }

    #[test]
    fn literals_and_dot() {
        assert!(re("leak").is_match("a leak was detected"));
        assert!(!re("leak").is_match("all dry"));
        assert!(re("l.ak").is_match("look: leak"));
        assert!(!re("l.ak").is_match("l\nak")); // dot excludes newline
    }

    #[test]
    fn classes() {
        assert!(re("[a-z]+[0-9]+").is_match("x1002"));
        assert!(re("[^0-9]").is_match("abc"));
        assert!(!re("^[^0-9]+$").is_match("abc1"));
        assert!(re(r"x\d+c\d+r\d+b\d+").is_match("switch x1002c1r7b0 offline"));
        assert!(re(r"\w+").is_match("under_score"));
        assert!(re(r"\s").is_match("a b"));
        assert!(!re(r"\S").is_match(" \t\n"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("(warning|critical): (leak|offline)");
        assert!(r.is_match("critical: offline detected"));
        assert!(!r.is_match("info: leak"));
        let caps = r.captures("status critical: leak now").unwrap();
        assert_eq!(caps.group(1), Some("critical"));
        assert_eq!(caps.group(2), Some("leak"));
    }

    #[test]
    fn named_groups() {
        let r = re(r"problem:(?P<problem>\w+), xname:(?P<xname>\w+)");
        let caps = r.captures("problem:fm_switch_offline, xname:x1002c1r7b0").unwrap();
        assert_eq!(caps.name("problem"), Some("fm_switch_offline"));
        assert_eq!(caps.name("xname"), Some("x1002c1r7b0"));
        assert_eq!(caps.name("missing"), None);
    }

    #[test]
    fn repetitions() {
        assert!(re("ab{2}c").is_match("abbc"));
        assert!(!re("^ab{2}c$").is_match("abc"));
        assert!(re("a{2,}").is_match("aaa"));
        assert!(!re("^a{2,3}$").is_match("aaaa"));
        assert!(re("^a{0,2}$").is_match(""));
        assert!(re("colou?r").is_match("color"));
        assert!(re("(ab)+").is_match("ababab"));
    }

    #[test]
    fn lazy_vs_greedy() {
        let greedy = re(r#""(.*)""#);
        let caps = greedy.captures(r#"say "a" and "b" now"#).unwrap();
        assert_eq!(caps.group(1), Some(r#"a" and "b"#));
        let lazy = re(r#""(.*?)""#);
        let caps = lazy.captures(r#"say "a" and "b" now"#).unwrap();
        assert_eq!(caps.group(1), Some("a"));
    }

    #[test]
    fn anchors() {
        assert!(re("^abc$").is_match("abc"));
        assert!(!re("^abc$").is_match("xabc"));
        assert!(re("^ab").is_match("abc"));
        assert!(re("bc$").is_match("abc"));
    }

    #[test]
    fn full_match_semantics() {
        let r = re("perl.*");
        assert!(r.is_full_match("perlmutter"));
        assert!(!r.is_full_match("my perlmutter"));
        assert!(re("").is_full_match(""));
    }

    #[test]
    fn leftmost_first() {
        assert_eq!(re("a+").find("xxaaayy"), Some((2, 5)));
        assert_eq!(re("").find("abc"), Some((0, 0)));
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(re(r"CrayAlerts\.1\.0").is_match("CrayAlerts.1.0.CabinetLeakDetected"));
        assert!(!re(r"^CrayAlerts\.1\.0$").is_match("CrayAlertsX1X0"));
        assert!(re(r"\[critical\]").is_match("[critical] problem"));
        assert!(re(r"a\{2\}").is_match("a{2}"));
    }

    #[test]
    fn unicode_text() {
        assert!(re("naïve").is_match("a naïve plan"));
        assert!(re("n.ïve").is_match("naïve"));
        assert!(re("日本").is_match("日本語"));
    }

    #[test]
    fn parse_errors() {
        for p in ["(", ")", "a{2", "a{3,1}", "[a-", "a**", "(?P<", "(?P<1a>x)", "\\"] {
            assert!(Regex::new(p).is_err(), "should reject {p:?}");
        }
        // `{` not opening a quantifier is a literal brace, like RE2.
        assert!(Regex::new("a{").unwrap().is_match("a{"));
        assert!(Regex::new("a{x}").unwrap().is_match("a{x}"));
    }

    #[test]
    fn pathological_pattern_fails_loudly_not_forever() {
        // Classic exponential backtracking case; the budget converts it
        // into an explicit error instead of a hang.
        let r = re("(a+)+$");
        let text = "a".repeat(40) + "b";
        match r.try_captures(&text) {
            Err(MatchError::BudgetExhausted) => {}
            Ok(None) => {} // small enough to finish is fine too
            other => panic!("unexpected: {other:?}"),
        }
        assert!(!r.is_match(&text));
    }

    #[test]
    fn prefilter_extracts_longest_required_literal() {
        assert_eq!(re("leak detected").required_literal(), Some("leak detected"));
        assert_eq!(re("leak.*detected").required_literal(), Some("detected"));
        assert_eq!(re("(warning|critical): leak").required_literal(), Some(": leak"));
        assert_eq!(re("^CabinetLeak$").required_literal(), Some("CabinetLeak"));
        assert_eq!(re(r"problem:(?P<p>\w+)").required_literal(), Some("problem:"));
        // One mandatory copy of a repeated body counts.
        assert_eq!(re("(leak)+x").required_literal(), Some("leak"));
        // Nothing extractable: every position is a wildcard or choice.
        assert_eq!(re("a|b").required_literal(), None);
        assert_eq!(re(r"\d+").required_literal(), None);
        assert_eq!(re(".*").required_literal(), None);
    }

    #[test]
    fn prefilter_preserves_match_semantics() {
        // `ab+c`: matches "abbc", which contains "ab" and "bc" but not
        // "abc" — the extractor must not weld runs across a repeat.
        let r = re("ab+c");
        assert!(r.is_match("xx abbc yy"));
        assert!(!r.is_match("ac"));
        // Prefilter-rejected text behaves exactly like a VM miss on every
        // entry point.
        let r = re("leak.*detected");
        assert!(!r.is_match("all dry"));
        assert!(r.captures("all dry").is_none());
        assert!(r.find("all dry").is_none());
        assert!(matches!(r.try_captures("all dry"), Ok(None)));
        assert!(!r.is_full_match("all dry"));
        // And prefilter-passing text still goes through the VM.
        assert!(r.is_match("leak was detected"));
        assert!(!r.is_match("detected before the leak")); // order matters
    }

    #[test]
    fn group_metadata() {
        let r = re(r"(?P<a>x)(y)(?:z)");
        assert_eq!(r.group_count(), 3); // whole match + a + unnamed
        assert_eq!(r.group_names()[1], Some("a".to_string()));
        assert_eq!(r.group_names()[2], None);
    }
}
