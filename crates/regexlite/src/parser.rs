//! Recursive-descent regex parser.

use crate::ast::{Ast, ClassItem};
use std::fmt;

/// Maximum group nesting — far above any real pattern, and a guard against
/// stack exhaustion on hostile pattern text (a query's `|~`, a rule file
/// or a dashboard all hand this parser text from outside).
pub(crate) const MAX_DEPTH: usize = 128;

/// Error produced when a pattern fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexParseError {
    /// Byte position in the pattern.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RegexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for RegexParseError {}

/// Parse a pattern into an AST plus the capture-group name table
/// (index 0 = whole match, always unnamed).
pub fn parse(pattern: &str) -> Result<(Ast, Vec<Option<String>>), RegexParseError> {
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
        group_names: vec![None], // group 0
        depth: 0,
    };
    let ast = p.alternation()?;
    if p.pos != p.chars.len() {
        return Err(p.err("unexpected ')'"));
    }
    Ok((ast, p.group_names))
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    group_names: Vec<Option<String>>,
    /// Groups open at `pos`.
    depth: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> RegexParseError {
        RegexParseError { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alternation(&mut self) -> Result<Ast, RegexParseError> {
        let mut branches = vec![self.concat()?];
        while self.eat('|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 { branches.pop().unwrap() } else { Ast::Alt(branches) })
    }

    fn concat(&mut self) -> Result<Ast, RegexParseError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().unwrap(),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexParseError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.pos += 1;
                (0, None)
            }
            Some('+') => {
                self.pos += 1;
                (1, None)
            }
            Some('?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some('{') => {
                // `{` not followed by a digit is a literal brace in most
                // engines; we require the quantifier form to be complete.
                let save = self.pos;
                self.pos += 1;
                match self.bounded_repeat() {
                    Ok(r) => r,
                    Err(e) => {
                        // Distinguish "not a quantifier at all" ({x) from a
                        // malformed quantifier ({2).
                        if self.chars.get(save + 1).is_some_and(|c| c.is_ascii_digit()) {
                            return Err(e);
                        }
                        self.pos = save;
                        return Ok(atom);
                    }
                }
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::Repeat { .. }) {
            return Err(self.err("nested quantifier (use a group)"));
        }
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty) {
            return Err(self.err("quantifier has nothing to repeat"));
        }
        if let Some(m) = max {
            if m < min {
                return Err(self.err("quantifier max below min"));
            }
        }
        let greedy = !self.eat('?');
        Ok(Ast::Repeat { node: Box::new(atom), min, max, greedy })
    }

    fn bounded_repeat(&mut self) -> Result<(u32, Option<u32>), RegexParseError> {
        let min = self.number()?;
        if self.eat('}') {
            return Ok((min, Some(min)));
        }
        if !self.eat(',') {
            return Err(self.err("expected ',' or '}' in quantifier"));
        }
        if self.eat('}') {
            return Ok((min, None));
        }
        let max = self.number()?;
        if !self.eat('}') {
            return Err(self.err("expected '}' in quantifier"));
        }
        Ok((min, Some(max)))
    }

    fn number(&mut self) -> Result<u32, RegexParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start || self.pos - start > 4 {
            return Err(self.err("expected a (small) number"));
        }
        Ok(self.chars[start..self.pos].iter().collect::<String>().parse().unwrap())
    }

    fn atom(&mut self) -> Result<Ast, RegexParseError> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some('(') => self.group(),
            Some('[') => self.class(),
            Some('.') => Ok(Ast::AnyChar),
            Some('^') => Ok(Ast::AnchorStart),
            Some('$') => Ok(Ast::AnchorEnd),
            Some('\\') => self.escape(),
            Some(c @ ('*' | '+' | '?')) => Err(self.err(format!("dangling quantifier {c:?}"))),
            Some(c) => Ok(Ast::Literal(c)),
        }
    }

    fn group(&mut self) -> Result<Ast, RegexParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("groups nest deeper than {MAX_DEPTH}")));
        }
        let index = if self.eat('?') {
            match self.bump() {
                Some(':') => None,
                Some('P') => {
                    if !self.eat('<') {
                        return Err(self.err("expected '<' after (?P"));
                    }
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                        self.pos += 1;
                    }
                    let name: String = self.chars[start..self.pos].iter().collect();
                    if name.is_empty() || name.chars().next().unwrap().is_ascii_digit() {
                        return Err(self.err("invalid group name"));
                    }
                    if !self.eat('>') {
                        return Err(self.err("expected '>' after group name"));
                    }
                    self.group_names.push(Some(name));
                    Some(self.group_names.len() - 1)
                }
                Some('<') => {
                    // Also accept the (?<name>...) spelling.
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                        self.pos += 1;
                    }
                    let name: String = self.chars[start..self.pos].iter().collect();
                    if name.is_empty() || name.chars().next().unwrap().is_ascii_digit() {
                        return Err(self.err("invalid group name"));
                    }
                    if !self.eat('>') {
                        return Err(self.err("expected '>' after group name"));
                    }
                    self.group_names.push(Some(name));
                    Some(self.group_names.len() - 1)
                }
                _ => return Err(self.err("unsupported group flag")),
            }
        } else {
            self.group_names.push(None);
            Some(self.group_names.len() - 1)
        };
        self.depth += 1;
        let inner = self.alternation()?;
        self.depth -= 1;
        if !self.eat(')') {
            return Err(self.err("missing ')'"));
        }
        Ok(Ast::Group { index, node: Box::new(inner) })
    }

    fn class(&mut self) -> Result<Ast, RegexParseError> {
        let negated = self.eat('^');
        let mut items = Vec::new();
        // A leading ']' is a literal.
        if self.eat(']') {
            items.push(ClassItem::Char(']'));
        }
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated character class")),
                Some(']') => {
                    self.pos += 1;
                    break;
                }
                Some('\\') => {
                    self.pos += 1;
                    match self.bump() {
                        Some('d') => items.push(ClassItem::Digit),
                        Some('w') => items.push(ClassItem::Word),
                        Some('s') => items.push(ClassItem::Space),
                        Some('n') => items.push(ClassItem::Char('\n')),
                        Some('r') => items.push(ClassItem::Char('\r')),
                        Some('t') => items.push(ClassItem::Char('\t')),
                        Some(c) => items.push(ClassItem::Char(c)),
                        None => return Err(self.err("trailing backslash in class")),
                    }
                }
                Some(lo) => {
                    self.pos += 1;
                    if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                        self.pos += 1; // '-'
                        let hi =
                            self.bump().ok_or_else(|| self.err("unterminated range in class"))?;
                        if hi < lo {
                            return Err(self.err("reversed range in class"));
                        }
                        items.push(ClassItem::Range(lo, hi));
                    } else {
                        items.push(ClassItem::Char(lo));
                    }
                }
            }
        }
        if items.is_empty() && !negated {
            return Err(self.err("empty character class"));
        }
        Ok(Ast::Class { items, negated })
    }

    fn escape(&mut self) -> Result<Ast, RegexParseError> {
        match self.bump() {
            None => Err(self.err("trailing backslash")),
            Some('d') => Ok(Ast::Class { items: vec![ClassItem::Digit], negated: false }),
            Some('D') => Ok(Ast::Class { items: vec![ClassItem::Digit], negated: true }),
            Some('w') => Ok(Ast::Class { items: vec![ClassItem::Word], negated: false }),
            Some('W') => Ok(Ast::Class { items: vec![ClassItem::Word], negated: true }),
            Some('s') => Ok(Ast::Class { items: vec![ClassItem::Space], negated: false }),
            Some('S') => Ok(Ast::Class { items: vec![ClassItem::Space], negated: true }),
            Some('n') => Ok(Ast::Literal('\n')),
            Some('r') => Ok(Ast::Literal('\r')),
            Some('t') => Ok(Ast::Literal('\t')),
            Some('0') => Ok(Ast::Literal('\0')),
            Some(c) if c.is_ascii_alphanumeric() => {
                Err(self.err(format!("unsupported escape \\{c}")))
            }
            Some(c) => Ok(Ast::Literal(c)),
        }
    }
}
