//! Property tests for the regex engine.

use omni_regexlite::Regex;
use proptest::prelude::*;

/// Escape a literal so it must match itself.
fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

proptest! {
    #[test]
    fn compiler_never_panics(pattern in "\\PC{0,40}") {
        let _ = Regex::new(&pattern);
    }

    #[test]
    fn arbitrary_bytes_return_and_never_abort(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Lossy UTF-8: whatever bytes a query, a rule file or a dashboard
        // can carry into a `|~`.
        let _ = Regex::new(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn a_flipped_byte_in_a_valid_pattern_never_aborts(
        pattern in prop::sample::select(vec![
            r"^(?P<host>x\d+c\d+)s(\d+)b\d+$",
            r"leak|(fan|psu) fail(ed)?",
            r"[a-z]{2,4}\s*=\s*(\w+)",
        ]),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = pattern.as_bytes().to_vec();
        let i = at % bytes.len();
        bytes[i] = byte;
        let _ = Regex::new(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn group_nesting_past_the_bound_is_refused_not_overflowed(
        depth in 0usize..4_000,
        opener in prop::sample::select(vec!["(", "(?:", "(?P<g>", "(a|"]),
    ) {
        let pattern = format!("{}a{}", opener.repeat(depth), ")".repeat(depth));
        let compiled = Regex::new(&pattern);
        if depth > 128 {
            prop_assert!(compiled.is_err());
        } else {
            prop_assert!(compiled.is_ok(), "{} levels of {:?}", depth, opener);
        }
    }

    #[test]
    fn matcher_never_panics(pattern in "[a-c()|*+?\\[\\]{},0-9^$.]{0,15}", text in "[a-c]{0,30}") {
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match(&text);
            let _ = re.captures(&text);
        }
    }

    #[test]
    fn escaped_literal_matches_itself(text in "\\PC{0,30}") {
        // Skip inputs with newline-ish control chars (Dot semantics aside,
        // literals should still match; nothing here uses Dot).
        let re = Regex::new(&escape(&text)).unwrap();
        prop_assert!(re.is_match(&text));
        prop_assert!(re.is_full_match(&text));
    }

    #[test]
    fn substring_search_agrees_with_str_contains(
        needle in "[a-b]{1,4}",
        hay in "[a-c]{0,30}",
    ) {
        let re = Regex::new(&needle).unwrap();
        prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
    }

    #[test]
    fn find_returns_leftmost_occurrence(needle in "[a-b]{1,3}", hay in "[a-c]{0,20}") {
        let re = Regex::new(&needle).unwrap();
        if let Some(pos) = hay.find(&needle) {
            prop_assert_eq!(re.find(&hay), Some((pos, pos + needle.len())));
        } else {
            prop_assert_eq!(re.find(&hay), None);
        }
    }

    #[test]
    fn star_matches_repetitions(c in prop::sample::select(vec!['a', 'b']), n in 0usize..20) {
        let text: String = c.to_string().repeat(n);
        let re = Regex::new(&format!("^{c}*$")).unwrap();
        prop_assert!(re.is_match(&text));
        let re_plus = Regex::new(&format!("^{c}+$")).unwrap();
        prop_assert_eq!(re_plus.is_match(&text), n > 0);
    }

    #[test]
    fn bounded_repeat_counts(n in 0u32..8, lo in 0u32..5, hi in 0u32..8) {
        prop_assume!(lo <= hi);
        let text: String = "a".repeat(n as usize);
        let re = Regex::new(&format!("^a{{{lo},{hi}}}$")).unwrap();
        prop_assert_eq!(re.is_match(&text), n >= lo && n <= hi);
    }
}
