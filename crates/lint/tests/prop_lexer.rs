//! Property tests for the source-lint front end: the lexer and rule
//! engine behind [`omni_lint::lint_source`] must never panic on
//! arbitrary token soup, must be fully deterministic, and must keep
//! finding seeded defects no matter what noise surrounds them.
//!
//! The noise alphabet is built from self-contained atoms — balanced
//! string/char literals, line comments, single punctuation — so a random
//! line can never open a block comment or an unterminated literal that
//! would swallow a seeded defect on a later line.

use omni_lint::{lint_source, normalize, Finding};
use proptest::prelude::*;

fn lint(src: &str) -> Vec<Finding> {
    normalize(lint_source("crates/core/src/prop.rs", "core", src))
}

/// One safe source atom. Lowercase idents only: the wall-clock rule
/// anchors on capitalized type names, so noise cannot fake its trigger.
fn atom() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-z_][a-z0-9_]{0,8}",
        "[0-9]{1,6}",
        "\"[a-z ]{0,10}\"",
        prop::sample::select(vec![
            "{", "}", "(", ")", ";", ".", ",", "::", "=", "&", "<", ">", "'x'", "let", "fn",
            "impl", "struct", "-"
        ])
        .prop_map(str::to_string),
    ]
    .boxed()
}

/// A block of noise lines, each a space-joined run of atoms.
fn soup() -> BoxedStrategy<Vec<String>> {
    prop::collection::vec(prop::collection::vec(atom(), 0..12).prop_map(|l| l.join(" ")), 0..20)
        .boxed()
}

proptest! {
    #[test]
    fn arbitrary_soup_never_panics_and_is_deterministic(lines in soup()) {
        let src = lines.join("\n");
        let first = lint(&src);
        // Deterministic across runs over the same input.
        prop_assert_eq!(&first, &lint(&src));
        // Already in canonical order, and every line number is in range.
        let mut sorted = first.clone();
        sorted.sort();
        prop_assert_eq!(&first, &sorted);
        let n_lines = src.lines().count().max(1);
        prop_assert!(first.iter().all(|f| f.line >= 1 && f.line <= n_lines));
    }

    #[test]
    fn seeded_wall_clock_survives_surrounding_noise(pre in soup(), post in soup()) {
        let mut lines = pre;
        lines.push("fn f ( ) { let t = SystemTime :: now ( ) ; }".to_string());
        let seeded_line = lines.len();
        lines.extend(post);
        let findings = lint(&lines.join("\n"));
        prop_assert!(
            findings.iter().any(|f| f.rule == "wall-clock" && f.line == seeded_line),
            "seeded wall-clock at line {seeded_line} not found in: {findings:?}"
        );
    }

    #[test]
    fn allow_comment_suppresses_seeded_finding(pre in soup()) {
        let mut lines = pre;
        lines.push(
            "fn f ( ) { let t = Instant :: now ( ) ; } // lint:allow(wall-clock)".to_string(),
        );
        let seeded_line = lines.len();
        let findings = lint(&lines.join("\n"));
        // The seeded finding is suppressed, and the allow is counted as
        // used (no unused-suppression for this line either).
        prop_assert!(
            !findings.iter().any(|f| f.rule == "wall-clock" && f.line == seeded_line),
            "allow failed to suppress: {findings:?}"
        );
        prop_assert!(
            !findings.iter().any(|f| f.rule == "unused-suppression" && f.line == seeded_line),
            "used allow misreported as unused: {findings:?}"
        );
    }

    #[test]
    fn unbalanced_quotes_confine_damage_to_later_lines(pre in soup(), tail in "[a-z \"]{0,20}") {
        // A lone quote opens a string literal that may swallow the rest
        // of the file — but everything BEFORE it must still be reported
        // identically to linting the prefix alone.
        let mut lines = pre.clone();
        lines.push("fn f ( ) { let t = Utc :: now ( ) ; }".to_string());
        let seeded_line = lines.len();
        let prefix_findings = lint(&lines.join("\n"));
        lines.push(format!("\" {tail}"));
        let findings = lint(&lines.join("\n"));
        prop_assert!(
            findings.iter().any(|f| f.rule == "wall-clock" && f.line == seeded_line)
        );
        for f in &prefix_findings {
            prop_assert!(
                findings.contains(f),
                "finding lost after trailing garbage: {f:?} vs {findings:?}"
            );
        }
    }
}
