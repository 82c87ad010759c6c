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
                    // Slot numbers must fit a backtracking entry's key.
                    if idx * 2 + 1 > SLOT as usize {
                        return Err(MatchError::ProgramTooLarge);
                    }
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

/// One backtracking stack entry in 8 bytes: a thread to resume (its
/// program counter and position), or the old value of a capture or
/// progress slot. The slots are one shared array each; a write to either
/// while a thread waits below pushes the slot's old value, so
/// backtracking to that thread undoes every write made since it was
/// pushed. Positions are stored relative to the start position — one
/// search never moves further than its step budget — with [`UNSET32`]
/// for an unset slot; the top two bits of `key` say which kind it is.
#[derive(Clone, Copy)]
struct Entry {
    key: u32,
    val: u32,
}

/// `key` tags: a thread's key is its program counter (`MAX_PROGRAM` keeps
/// it below `CAP`), a restore entry's is a tag and the slot number.
const CAP: u32 = 1 << 30;
const MARK: u32 = 2 << 30;
const SLOT: u32 = CAP - 1;

const UNSET: usize = usize::MAX;
const UNSET32: u32 = u32::MAX;

const _: () = assert!(MAX_PROGRAM < CAP as usize);
// A search advances at most one char per step.
const _: () = assert!(STEP_BUDGET < UNSET32 as usize);

/// Capture byte spans of one match: index 0 is the whole match.
pub(crate) type CaptureSpans = Vec<Option<(usize, usize)>>;

/// Match state reused across the start positions of one search.
struct Vm<'p> {
    prog: &'p Program,
    /// Capture slots, absolute char positions.
    caps: Vec<usize>,
    /// Progress slots, absolute char positions.
    marks: Vec<usize>,
    stack: Vec<Entry>,
}

/// Run the program over `text`, trying each start position (unanchored
/// leftmost-first search). Returns capture byte spans on success.
pub(crate) fn run(prog: &Program, text: &str) -> Result<Option<CaptureSpans>, MatchError> {
    // Decode once: positions are indices into `chars`.
    let chars: Vec<char> = text.chars().collect();
    let mut vm = Vm {
        prog,
        caps: vec![UNSET; prog.n_caps],
        marks: vec![UNSET; prog.n_marks],
        stack: Vec::new(),
    };
    let mut budget = STEP_BUDGET;
    for start in 0..=chars.len() {
        if vm.run_from(&chars, start, &mut budget)? {
            // Byte offset of every char position, with the end's last.
            let offsets: Vec<usize> = std::iter::once(0)
                .chain(chars.iter().scan(0, |o, c| {
                    *o += c.len_utf8();
                    Some(*o)
                }))
                .collect();
            let spans = vm
                .caps
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

impl Vm<'_> {
    /// One start position: true with `caps` holding the match, false if
    /// no thread matches.
    fn run_from(
        &mut self,
        chars: &[char],
        start: usize,
        budget: &mut usize,
    ) -> Result<bool, MatchError> {
        let Vm { prog, caps, marks, stack } = self;
        caps.fill(UNSET);
        marks.fill(UNSET);
        stack.clear();
        let rel = |abs: usize| if abs == UNSET { UNSET32 } else { (abs - start) as u32 };
        let abs = |rel: u32| if rel == UNSET32 { UNSET } else { start + rel as usize };
        let (mut pc, mut pos) = (0, start);

        'threads: loop {
            loop {
                if *budget == 0 {
                    return Err(MatchError::BudgetExhausted);
                }
                *budget -= 1;
                match &prog.insts[pc] {
                    Inst::Char(c) => {
                        if chars.get(pos) == Some(c) {
                            pos += 1;
                            pc += 1;
                        } else {
                            break;
                        }
                    }
                    Inst::Any => match chars.get(pos) {
                        Some(&c) if c != '\n' => {
                            pos += 1;
                            pc += 1;
                        }
                        _ => break,
                    },
                    Inst::Class { items, negated } => {
                        let Some(&c) = chars.get(pos) else { break };
                        let hit = items.iter().any(|i| i.matches(c));
                        if hit != *negated {
                            pos += 1;
                            pc += 1;
                        } else {
                            break;
                        }
                    }
                    Inst::Save(slot) => {
                        // Only a waiting thread needs the old value back.
                        if !stack.is_empty() {
                            stack.push(Entry { key: CAP | *slot as u32, val: rel(caps[*slot]) });
                        }
                        caps[*slot] = pos;
                        pc += 1;
                    }
                    Inst::Jmp(t) => pc = *t,
                    Inst::Split(a, b) => {
                        stack.push(Entry { key: *b as u32, val: rel(pos) });
                        pc = *a;
                    }
                    Inst::AnchorStart => {
                        if pos == 0 {
                            pc += 1;
                        } else {
                            break;
                        }
                    }
                    Inst::AnchorEnd => {
                        if pos == chars.len() {
                            pc += 1;
                        } else {
                            break;
                        }
                    }
                    Inst::Mark(m) => {
                        if !stack.is_empty() {
                            stack.push(Entry { key: MARK | *m as u32, val: rel(marks[*m]) });
                        }
                        marks[*m] = pos;
                        pc += 1;
                    }
                    Inst::Progress(m) => {
                        if marks[*m] == pos {
                            // Loop body matched nothing; kill the thread to
                            // stop an infinite empty loop.
                            break;
                        }
                        pc += 1;
                    }
                    Inst::Match => return Ok(true),
                }
            }
            // The thread died: undo writes down to the next waiting
            // thread, which costs no step, and resume it.
            loop {
                let Some(Entry { key, val }) = stack.pop() else { return Ok(false) };
                let slot = (key & SLOT) as usize;
                match key & !SLOT {
                    CAP => caps[slot] = abs(val),
                    MARK => marks[slot] = abs(val),
                    _ => {
                        (pc, pos) = (key as usize, abs(val));
                        continue 'threads;
                    }
                }
            }
        }
    }
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
