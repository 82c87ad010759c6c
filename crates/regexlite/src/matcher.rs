//! Backtracking regex VM.
//!
//! The AST is compiled to a small instruction program; matching runs a
//! depth-first backtracking interpreter with an explicit stack and a step
//! budget. Star loops carry a progress check so empty-matching bodies
//! cannot spin forever.

use crate::ast::{Ast, ClassItem};
use std::fmt;
use std::sync::Arc;

/// Hard limit on compiled program size; `{1000}{1000}`-style expansion
/// bombs hit this instead of exhausting memory.
const MAX_PROGRAM: usize = 65_536;

/// Default step budget per `search` call.
const STEP_BUDGET: usize = 1_000_000;

/// Matching failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// The pattern compiled to an excessively large program.
    ProgramTooLarge,
    /// The backtracking budget was exhausted (pathological pattern/input).
    BudgetExhausted,
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::ProgramTooLarge => write!(f, "regex program too large"),
            MatchError::BudgetExhausted => write!(f, "regex step budget exhausted"),
        }
    }
}

impl std::error::Error for MatchError {}

#[derive(Debug, Clone)]
enum Inst {
    Char(char),
    Any,
    Class {
        items: Arc<[ClassItem]>,
        negated: bool,
    },
    /// Record current position into capture slot `n`.
    Save(usize),
    Jmp(usize),
    /// Try `a` first, then `b` on backtrack.
    Split(usize, usize),
    AnchorStart,
    AnchorEnd,
    /// Record current position into progress slot `n` (star-loop guard).
    Mark(usize),
    /// Fail this thread if position equals progress slot `n`.
    Progress(usize),
    Match,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    insts: Vec<Inst>,
    n_caps: usize,
    n_marks: usize,
}

struct Compiler {
    insts: Vec<Inst>,
    n_marks: usize,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> Result<usize, MatchError> {
        if self.insts.len() >= MAX_PROGRAM {
            return Err(MatchError::ProgramTooLarge);
        }
        self.insts.push(inst);
        Ok(self.insts.len() - 1)
    }

    fn compile(&mut self, ast: &Ast) -> Result<(), MatchError> {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => {
                self.push(Inst::Char(*c))?;
            }
            Ast::AnyChar => {
                self.push(Inst::Any)?;
            }
            Ast::Class { items, negated } => {
                self.push(Inst::Class { items: items.clone(), negated: *negated })?;
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.compile(p)?;
                }
            }
            Ast::Alt(branches) => {
                // split b1, (split b2, (... bN))
                let mut jumps = Vec::new();
                for (i, b) in branches.iter().enumerate() {
                    if i + 1 < branches.len() {
                        let split = self.push(Inst::Split(0, 0))?;
                        let body = self.insts.len();
                        self.compile(b)?;
                        jumps.push(self.push(Inst::Jmp(0))?);
                        let next = self.insts.len();
                        self.insts[split] = Inst::Split(body, next);
                    } else {
                        self.compile(b)?;
                    }
                }
                let end = self.insts.len();
                for j in jumps {
                    self.insts[j] = Inst::Jmp(end);
                }
            }
            Ast::Group { index, node } => {
                if let Some(idx) = index {
                    self.push(Inst::Save(idx * 2))?;
                    self.compile(node)?;
                    self.push(Inst::Save(idx * 2 + 1))?;
                } else {
                    self.compile(node)?;
                }
            }
            Ast::AnchorStart => {
                self.push(Inst::AnchorStart)?;
            }
            Ast::AnchorEnd => {
                self.push(Inst::AnchorEnd)?;
            }
            Ast::Repeat { node, min, max, greedy } => {
                self.compile_repeat(node, *min, *max, *greedy)?;
            }
        }
        Ok(())
    }

    fn compile_repeat(
        &mut self,
        node: &Ast,
        min: u32,
        max: Option<u32>,
        greedy: bool,
    ) -> Result<(), MatchError> {
        // Mandatory copies.
        for _ in 0..min {
            self.compile(node)?;
        }
        match max {
            Some(max) => {
                // (max - min) optional copies: split over each.
                let mut splits = Vec::new();
                for _ in min..max {
                    let split = self.push(Inst::Split(0, 0))?;
                    let body = self.insts.len();
                    self.compile(node)?;
                    splits.push((split, body));
                }
                let end = self.insts.len();
                for (split, body) in splits {
                    self.insts[split] =
                        if greedy { Inst::Split(body, end) } else { Inst::Split(end, body) };
                }
            }
            None => {
                // Kleene star with progress guard:
                //   L1: Split(L2, L4)
                //   L2: Mark(m); <node>; Progress(m); Jmp(L1)
                //   L4:
                let mark = self.n_marks;
                self.n_marks += 1;
                let l1 = self.push(Inst::Split(0, 0))?;
                let l2 = self.push(Inst::Mark(mark))?;
                self.compile(node)?;
                self.push(Inst::Progress(mark))?;
                self.push(Inst::Jmp(l1))?;
                let l4 = self.insts.len();
                self.insts[l1] = if greedy { Inst::Split(l2, l4) } else { Inst::Split(l4, l2) };
            }
        }
        Ok(())
    }
}

/// Compile an AST into a program. `n_groups` includes group 0. With
/// `anchored`, the whole input must be consumed (Prometheus label-matcher
/// semantics).
pub(crate) fn compile(ast: &Ast, n_groups: usize, anchored: bool) -> Result<Program, MatchError> {
    let mut c = Compiler { insts: Vec::new(), n_marks: 0 };
    if anchored {
        c.push(Inst::AnchorStart)?;
    }
    c.push(Inst::Save(0))?;
    c.compile(ast)?;
    c.push(Inst::Save(1))?;
    if anchored {
        c.push(Inst::AnchorEnd)?;
    }
    c.push(Inst::Match)?;
    Ok(Program { insts: c.insts, n_caps: n_groups * 2, n_marks: c.n_marks })
}

/// Backtracking thread state saved on the stack.
#[derive(Clone)]
struct Frame {
    pc: usize,
    pos: usize,
    caps: Vec<usize>,
    marks: Vec<usize>,
}

const UNSET: usize = usize::MAX;

/// Capture byte spans of one match: index 0 is the whole match.
pub(crate) type CaptureSpans = Vec<Option<(usize, usize)>>;

/// Run the program over `text`, trying each start position (unanchored
/// leftmost-first search). Returns capture byte spans on success.
pub(crate) fn run(prog: &Program, text: &str) -> Result<Option<CaptureSpans>, MatchError> {
    // Decode once: positions are indices into `chars`, `offsets[i]` is the
    // byte offset of char i, with a sentinel at the end.
    let chars: Vec<char> = text.chars().collect();
    let mut offsets: Vec<usize> = Vec::with_capacity(chars.len() + 1);
    {
        let mut o = 0;
        for c in &chars {
            offsets.push(o);
            o += c.len_utf8();
        }
        offsets.push(o);
    }

    let mut budget = STEP_BUDGET;
    for start in 0..=chars.len() {
        if let Some(caps) = run_from(prog, &chars, start, &mut budget)? {
            let spans = caps
                .chunks(2)
                .map(|c| {
                    if c[0] == UNSET || c[1] == UNSET {
                        None
                    } else {
                        Some((offsets[c[0]], offsets[c[1]]))
                    }
                })
                .collect();
            return Ok(Some(spans));
        }
    }
    Ok(None)
}

fn run_from(
    prog: &Program,
    chars: &[char],
    start: usize,
    budget: &mut usize,
) -> Result<Option<Vec<usize>>, MatchError> {
    let mut stack: Vec<Frame> = vec![Frame {
        pc: 0,
        pos: start,
        caps: vec![UNSET; prog.n_caps],
        marks: vec![UNSET; prog.n_marks],
    }];

    'threads: while let Some(mut f) = stack.pop() {
        loop {
            if *budget == 0 {
                return Err(MatchError::BudgetExhausted);
            }
            *budget -= 1;
            match &prog.insts[f.pc] {
                Inst::Char(c) => {
                    if chars.get(f.pos) == Some(c) {
                        f.pos += 1;
                        f.pc += 1;
                    } else {
                        continue 'threads;
                    }
                }
                Inst::Any => match chars.get(f.pos) {
                    Some(&c) if c != '\n' => {
                        f.pos += 1;
                        f.pc += 1;
                    }
                    _ => continue 'threads,
                },
                Inst::Class { items, negated } => {
                    let Some(&c) = chars.get(f.pos) else { continue 'threads };
                    let hit = items.iter().any(|i| i.matches(c));
                    if hit != *negated {
                        f.pos += 1;
                        f.pc += 1;
                    } else {
                        continue 'threads;
                    }
                }
                Inst::Save(slot) => {
                    f.caps[*slot] = f.pos;
                    f.pc += 1;
                }
                Inst::Jmp(t) => f.pc = *t,
                Inst::Split(a, b) => {
                    let mut alt = f.clone();
                    alt.pc = *b;
                    stack.push(alt);
                    f.pc = *a;
                }
                Inst::AnchorStart => {
                    if f.pos == 0 {
                        f.pc += 1;
                    } else {
                        continue 'threads;
                    }
                }
                Inst::AnchorEnd => {
                    if f.pos == chars.len() {
                        f.pc += 1;
                    } else {
                        continue 'threads;
                    }
                }
                Inst::Mark(m) => {
                    f.marks[*m] = f.pos;
                    f.pc += 1;
                }
                Inst::Progress(m) => {
                    if f.marks[*m] == f.pos {
                        // Loop body matched nothing; kill the thread to
                        // stop an infinite empty loop.
                        continue 'threads;
                    }
                    f.pc += 1;
                }
                Inst::Match => return Ok(Some(f.caps)),
            }
        }
    }
    Ok(None)
}

/// Capture groups of one successful match.
#[derive(Debug)]
pub struct Captures<'t> {
    text: &'t str,
    spans: Vec<Option<(usize, usize)>>,
    names: Vec<Option<String>>,
}

impl<'t> Captures<'t> {
    pub(crate) fn new(
        text: &'t str,
        spans: Vec<Option<(usize, usize)>>,
        names: &[Option<String>],
    ) -> Self {
        Self { text, spans, names: names.to_vec() }
    }

    /// Byte span of group `i` (0 = whole match).
    pub fn get(&self, i: usize) -> Option<(usize, usize)> {
        self.spans.get(i).copied().flatten()
    }

    /// Matched text of group `i`.
    pub fn group(&self, i: usize) -> Option<&'t str> {
        self.get(i).map(|(s, e)| &self.text[s..e])
    }

    /// Matched text of a named group.
    pub fn name(&self, name: &str) -> Option<&'t str> {
        let idx = self.names.iter().position(|n| n.as_deref() == Some(name))?;
        self.group(idx)
    }

    /// All `(name, text)` pairs for named groups that participated in the
    /// match — the LogQL `regexp` stage extracts exactly these.
    pub fn named_pairs(&self) -> Vec<(&str, &'t str)> {
        self.names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                let name = n.as_deref()?;
                self.group(i).map(|text| (name, text))
            })
            .collect()
    }

    /// Number of groups (including group 0).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when there are no groups (never the case for a real match).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}
