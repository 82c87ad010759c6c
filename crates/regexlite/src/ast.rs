//! Regex abstract syntax tree.

use std::sync::Arc;

/// One item inside a character class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassItem {
    /// A single character.
    Char(char),
    /// An inclusive range `a-z`.
    Range(char, char),
    /// `\d` — ASCII digits.
    Digit,
    /// `\w` — word characters.
    Word,
    /// `\s` — whitespace.
    Space,
}

impl ClassItem {
    /// Whether the item matches a character.
    pub fn matches(&self, c: char) -> bool {
        match *self {
            ClassItem::Char(x) => c == x,
            ClassItem::Range(lo, hi) => (lo..=hi).contains(&c),
            ClassItem::Digit => c.is_ascii_digit(),
            ClassItem::Word => c.is_ascii_alphanumeric() || c == '_',
            ClassItem::Space => c.is_whitespace(),
        }
    }
}

/// Parsed regular-expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A literal character.
    Literal(char),
    /// `.` — any character except `\n`.
    AnyChar,
    /// A character class; `negated` flips the match.
    Class {
        /// The class items, shared by every copy a repeat compiles.
        items: Arc<[ClassItem]>,
        /// Whether the class is `[^...]`.
        negated: bool,
    },
    /// Sequence of sub-expressions.
    Concat(Vec<Ast>),
    /// Ordered alternation (leftmost-first).
    Alt(Vec<Ast>),
    /// Repetition of a sub-expression.
    Repeat {
        /// Repeated node.
        node: Box<Ast>,
        /// Minimum count.
        min: u32,
        /// Maximum count, or `None` for unbounded.
        max: Option<u32>,
        /// Greedy (`*`) vs lazy (`*?`).
        greedy: bool,
    },
    /// Capturing or non-capturing group.
    Group {
        /// Capture index (1-based); `None` for `(?:...)`.
        index: Option<usize>,
        /// Grouped node.
        node: Box<Ast>,
    },
    /// `^`
    AnchorStart,
    /// `$`
    AnchorEnd,
}
