//! Layer 3: workspace-aware concurrency analysis.
//!
//! Where layer 2 looks at one file at a time, this pass builds a model of
//! the whole workspace — every lock declaration, every function, every
//! call — and checks the lock discipline the runtime witness
//! (`omni_model::lockwitness`) enforces dynamically:
//!
//! - **Lock classes.** Every `Mutex`/`RwLock` struct field becomes a
//!   named class `crate.Struct.field`; every `OrderedMutex`/
//!   `OrderedRwLock` field resolves to its declared class from the
//!   `declare_lock_order!` table (matched at the
//!   `Ordered*::new(&classes::NAME, ..)` constructor site).
//! - **May-hold-while-acquiring graph.** A guard-liveness walk over each
//!   function body (and each closure of a `const`/`static` initializer,
//!   such as a stage table) records which classes can be held when another is
//!   acquired — directly, or through a call whose transitive
//!   `may_acquire` set (a fixpoint over the call graph) contains a lock.
//! - **`lock-cycle`** (error): a cycle in that graph, or a single edge
//!   that contradicts the declared `LOCK_ORDER` ranks — either way two
//!   rank-respecting threads can deadlock.
//! - **`double-lock`** (error): a class acquired while a guard of the
//!   same class is live — self-deadlock with `std::sync` primitives.
//! - **`lock-held-across-call`** (error): a guard live across a call
//!   that may block — condvar wait, channel recv, thread join, a
//!   scheduler admission wait, or a cold-tier object GET (`read_store`,
//!   the store half of Loki's chunk reader). The condvar shape
//!   `g = g.wait(&cv)` is exempt for the guard being waited on (the wait
//!   releases it).
//! - **`lock-table-drift`** (warning): a `declare_lock_order!` entry no
//!   wrapper lock is constructed with — a stale rank nobody holds.
//! - **`nondet-iter`** (warning): iteration over a `HashMap`/`HashSet`
//!   whose order can escape into output. Exempt: order-insensitive
//!   terminals (`sum`/`count`/`min`/`max`/`any`/`all`), collecting into
//!   a keyed map/set, and collect-then-sort within the next three
//!   statements.
//! - **`unsynced-atomic`** (warning): `load`/`store` with
//!   `Ordering::Relaxed` on an atomic whose name says it publishes data
//!   (`seq`, `head`, `tail`, `commit`, …) — Relaxed orders nothing, so
//!   the data it guards may not be visible. RMW `fetch_*` counters are
//!   not matched.
//!
//! # Call resolution
//!
//! Functions are indexed as `(crate, impl type, name)` — impl blocks are
//! tracked, so `self.m()` and `Self::m()` resolve exactly to the
//! enclosing type's method. A call through a struct field
//! (`self.wal.append(..)`, or a chain through a guard like
//! `self.bridge.lock().pump(..)`) resolves against the field's declared
//! type idents. `Type::m()` resolves by type name across the file's
//! crate scope (its own crate plus every `omni_*` crate it mentions).
//! Calls on plain locals stay unresolved rather than guessing — except
//! that a local sharing a field's name (the `let st = self.state.write()`
//! idiom) resolves like the field.
//!
//! Known precision limits (deliberate for a lexer-level analysis, and
//! why the runtime witness exists at all): guards returned from helper
//! functions are not tracked as held in the caller; calls on unresolved
//! locals contribute no lock edges; a field name bound to two different
//! lock classes in one crate is dropped from the analysis as ambiguous.

use crate::rustlint::{matches_toks, Tok};
use crate::workspace::{SourceFile, Workspace};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Method/function names treated as potentially blocking, with the
/// human-readable reason used in findings. `join` only counts with empty
/// argument lists (thread join), so `Path::join`/`slice::join` don't trip
/// it.
const BLOCKING_NAMES: &[(&str, &str)] = &[
    ("wait", "a condvar wait"),
    ("wait_timeout", "a condvar wait"),
    ("recv", "a channel receive"),
    ("recv_timeout", "a channel receive"),
    ("join", "a thread join"),
    ("park", "a thread park"),
    ("sleep", "a sleep"),
    ("read_store", "a cold-tier object GET"),
];

/// Names never resolved through a field or free-call path: they collide
/// with std container/iterator/conversion methods, and a lexer cannot
/// tell a `HashMap::get` from a workspace `fn get`. (Exact `self.m()` /
/// `Self::m()` resolution bypasses this list — there the target is
/// unambiguous.)
const UBIQUITOUS: &[&str] = &[
    "all",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "chain",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "default",
    "drop",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "last",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "or_default",
    "or_insert",
    "partial_cmp",
    "pop",
    "push",
    "remove",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "split",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "zip",
];

/// Iterator-producing methods on hash collections whose order is
/// nondeterministic.
const ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
];

/// The subset of [`ITER_METHODS`] that `Vec`/slices also have. For these,
/// an ident known to name a sequence somewhere in the crate is skipped —
/// the lexer cannot tell which binding a shadowing local refers to.
const UNIVERSAL_ITER: &[&str] = &["drain", "into_iter", "iter", "iter_mut"];

/// Order-insensitive chain terminals that make hash iteration safe.
const ORDER_FREE_TERMINALS: &[&str] = &["all", "any", "count", "max", "min", "sum"];

/// Type names that, appearing in the iterating statement, mean the
/// result lands in a keyed (or unordered) container — order-insensitive.
const KEYED_SINKS: &[&str] = &["BTreeMap", "BTreeSet", "HashMap", "HashSet"];

/// Snake-case components that mark an atomic as publication-style: a
/// reader of such an atomic expects the data behind it to be visible.
const PUBLICATION_COMPONENTS: &[&str] = &[
    "commit",
    "cursor",
    "epoch",
    "generation",
    "head",
    "publish",
    "published",
    "ready",
    "seq",
    "tail",
];

/// Trailing components that mark an atomic as a plain counter/metric,
/// where Relaxed is exactly right.
const COUNTER_SUFFIXES: &[&str] = &[
    "accepted", "bytes", "count", "drops", "failures", "hits", "in", "misses", "ns", "offered",
    "out", "rejected", "retries", "total", "windows",
];

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "else", "enum", "fn", "for", "if", "impl", "in", "let",
    "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct", "trait",
    "type", "unsafe", "use", "where", "while",
];

/// One lock class: either declared in `declare_lock_order!` (has a rank)
/// or synthesized from a plain `Mutex`/`RwLock` field (no rank).
#[derive(Debug)]
struct Class {
    name: String,
    rank: Option<u16>,
}

/// Where a (crate, field) name points after indexing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FieldBinding {
    One(usize),
    /// Two structs in one crate share the field name with different
    /// classes — acquisitions through it are dropped as ambiguous.
    Ambiguous,
}

/// `(crate, impl type or "" for free fns, name)`.
type FuncKey = (String, String, String);

/// One function body: file index plus token range (inside the braces).
#[derive(Debug, Clone, Copy)]
struct Body {
    file: usize,
    start: usize,
    end: usize,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq)]
enum CallTarget {
    /// `self.m(..)` — exact: the enclosing impl type.
    SelfMethod,
    /// `Type::m(..)` or `Self::m(..)`.
    Qualified(String),
    /// `x.m(..)` where `x` may be a struct field (possibly through a
    /// `.lock()/.read()/.write()` chain) — resolved via field types.
    Field(String),
    /// Receiver unknowable at the lexer level (plain local, literal,
    /// index expression, …).
    Unknown,
    /// `m(..)` with no receiver — a free function.
    Free,
}

#[derive(Debug, Clone)]
struct Call {
    name: String,
    argless: bool,
    target: CallTarget,
}

#[derive(Debug, Default)]
struct FuncNode {
    bodies: Vec<Body>,
    calls: Vec<Call>,
    may_acquire: BTreeSet<usize>,
    /// Why this function may block, if it can (fixpoint over callees).
    blocks: Option<String>,
}

struct Model<'a> {
    ws: &'a Workspace,
    classes: Vec<Class>,
    class_by_name: BTreeMap<String, usize>,
    /// Declared `declare_lock_order!` entries: const ident -> class id,
    /// plus the declaration site for drift reporting.
    declared: BTreeMap<String, (usize, usize, usize)>, // ident -> (class, file, line)
    field_class: BTreeMap<(String, String), FieldBinding>,
    /// Every struct field's capitalized type idents, per crate — the
    /// receiver-resolution table.
    field_types: BTreeMap<(String, String), BTreeSet<String>>,
    /// Idents (per crate) whose declared type involves HashMap/HashSet.
    hash_idents: BTreeSet<(String, String)>,
    /// Idents (per crate) that also name a `Vec`/`VecDeque`/slice
    /// somewhere — another struct field, an annotated local, a slice
    /// param, or a hash map's value type. An ident in both sets is
    /// ambiguous: `.iter()`-family methods on it are not reported.
    nonhash_idents: BTreeSet<(String, String)>,
    funcs: BTreeMap<FuncKey, FuncNode>,
    /// Per file: crate names in resolution scope (own + omni_* mentions).
    scopes: Vec<BTreeSet<String>>,
    /// Ordered fields awaiting a constructor binding: (crate, struct,
    /// field) — fall back to a plain class if none is found.
    ordered_pending: Vec<(String, String, String)>,
    /// Declared class idents some wrapper was constructed with.
    constructed: BTreeSet<String>,
}

impl Model<'_> {
    fn intern(&mut self, name: &str, rank: Option<u16>) -> usize {
        if let Some(&id) = self.class_by_name.get(name) {
            return id;
        }
        let id = self.classes.len();
        self.classes.push(Class { name: name.to_string(), rank });
        self.class_by_name.insert(name.to_string(), id);
        id
    }

    fn bind_field(&mut self, crate_name: &str, field: &str, class: usize) {
        let key = (crate_name.to_string(), field.to_string());
        match self.field_class.get(&key) {
            None => {
                self.field_class.insert(key, FieldBinding::One(class));
            }
            Some(FieldBinding::One(existing)) if *existing != class => {
                self.field_class.insert(key, FieldBinding::Ambiguous);
            }
            _ => {}
        }
    }

    /// Resolve a call from a body of `from` to the function nodes it may
    /// reach.
    fn resolve(&self, from: &FuncKey, call: &Call) -> Vec<&FuncNode> {
        let (own_crate, own_type, _) = from;
        let scope = self.caller_scope(from);
        let mut keys: BTreeSet<FuncKey> = BTreeSet::new();
        match &call.target {
            CallTarget::SelfMethod => {
                keys.insert((own_crate.clone(), own_type.clone(), call.name.clone()));
            }
            CallTarget::Qualified(ty) => {
                let ty = if ty == "Self" { own_type.clone() } else { ty.clone() };
                for c in &scope {
                    keys.insert((c.clone(), ty.clone(), call.name.clone()));
                }
            }
            CallTarget::Field(field) => {
                if UBIQUITOUS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                if let Some(types) = self.field_types.get(&(own_crate.clone(), field.clone())) {
                    for ty in types {
                        for c in &scope {
                            keys.insert((c.clone(), ty.clone(), call.name.clone()));
                        }
                    }
                }
            }
            CallTarget::Free => {
                if UBIQUITOUS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                for c in &scope {
                    keys.insert((c.clone(), String::new(), call.name.clone()));
                }
            }
            CallTarget::Unknown => {}
        }
        keys.iter().filter_map(|k| self.funcs.get(k)).collect()
    }

    /// The crate scope of a function: union of its bodies' file scopes.
    fn caller_scope(&self, key: &FuncKey) -> BTreeSet<String> {
        let mut scope = BTreeSet::new();
        scope.insert(key.0.clone());
        if let Some(node) = self.funcs.get(key) {
            for b in &node.bodies {
                scope.extend(self.scopes[b.file].iter().cloned());
            }
        }
        scope
    }
}

/// Entry point: run the concurrency analysis over the workspace,
/// returning raw (pre-suppression) findings.
pub(crate) fn analyze(ws: &Workspace) -> Vec<Finding> {
    let mut m = Model {
        ws,
        classes: Vec::new(),
        class_by_name: BTreeMap::new(),
        declared: BTreeMap::new(),
        field_class: BTreeMap::new(),
        field_types: BTreeMap::new(),
        hash_idents: BTreeSet::new(),
        nonhash_idents: BTreeSet::new(),
        funcs: BTreeMap::new(),
        scopes: Vec::new(),
        ordered_pending: Vec::new(),
        constructed: BTreeSet::new(),
    };

    for (fi, f) in ws.files.iter().enumerate() {
        index_declared_order(&mut m, fi, f);
        m.scopes.push(file_scope(f));
    }
    for (fi, f) in ws.files.iter().enumerate() {
        index_structs(&mut m, f);
        index_constructors(&mut m, f);
        index_functions(&mut m, fi, f);
        index_const_closures(&mut m, fi, f);
    }
    // Ordered fields whose constructor the lexer never saw still need a
    // class so acquisitions through them stay tracked.
    let pending = std::mem::take(&mut m.ordered_pending);
    for (krate, strukt, field) in pending {
        let key = (krate.clone(), field.clone());
        if !m.field_class.contains_key(&key) {
            let id = m.intern(&format!("{krate}.{strukt}.{field}"), None);
            m.bind_field(&krate, &field, id);
        }
    }

    collect_direct(&mut m);
    fixpoint(&mut m);

    let mut findings = Vec::new();
    let mut edges: BTreeMap<(usize, usize), (String, usize, Option<String>)> = BTreeMap::new();
    walk_all_guards(&m, &mut edges, &mut findings);
    for f in &ws.files {
        nondet_iter(&m, f, &mut findings);
        unsynced_atomic(f, &mut findings);
    }
    cycle_findings(&m, &edges, &mut findings);
    table_drift(&m, &mut findings);
    findings
}

/// Crates whose functions a file's calls may resolve to: its own crate
/// plus every `omni_*` crate the file mentions.
fn file_scope(f: &SourceFile) -> BTreeSet<String> {
    let mut scope = BTreeSet::new();
    scope.insert(f.crate_name.clone());
    for (_, tok) in &f.lexed.toks {
        if let Tok::Ident(id) = tok {
            if let Some(rest) = id.strip_prefix("omni_") {
                scope.insert(rest.to_string());
            }
        }
    }
    scope
}

/// Parse `declare_lock_order! { IDENT = "name", ... }` tables. Rank is
/// the entry's position, mirroring the macro.
fn index_declared_order(m: &mut Model, fi: usize, f: &SourceFile) {
    let toks = &f.lexed.toks;
    let mut k = 0;
    while k < toks.len() {
        if let Tok::Ident(id) = &toks[k].1 {
            if id == "declare_lock_order" && matches_toks(toks, k + 1, &["!", "{"]) {
                let mut j = k + 3;
                let mut rank: u16 = 0;
                while j + 2 < toks.len() {
                    match (&toks[j].1, &toks[j + 1].1, &toks[j + 2].1) {
                        (Tok::Ident(ident), Tok::Punct('='), Tok::Str(name)) => {
                            let class = m.intern(name, Some(rank));
                            m.declared.insert(ident.clone(), (class, fi, toks[j].0));
                            rank += 1;
                            j += 3;
                            // Skip the trailing comma if present.
                            if matches!(toks.get(j), Some((_, Tok::Punct(',')))) {
                                j += 1;
                            }
                        }
                        (Tok::Punct('}'), _, _) => break,
                        _ => break,
                    }
                }
                k = j;
                continue;
            }
        }
        k += 1;
    }
}

/// Index struct fields: plain `Mutex`/`RwLock` fields become classes
/// immediately; `Ordered*` fields go to `ordered_pending`; every field's
/// capitalized type idents feed receiver resolution; HashMap/HashSet
/// fields and bindings land in `hash_idents`.
fn index_structs(m: &mut Model, f: &SourceFile) {
    let toks = &f.lexed.toks;
    let mut k = 0;
    while k < toks.len() {
        if f.in_test[k] {
            k += 1;
            continue;
        }
        let Tok::Ident(id) = &toks[k].1 else {
            k += 1;
            continue;
        };
        if id != "struct" {
            // Local/let/param hash bindings: `name : ... HashMap <`, and
            // sequence bindings (`name : Vec <`, `name : &[`) for the
            // ambiguity set.
            if matches!(toks.get(k + 1), Some((_, Tok::Punct('<')))) {
                if let Some(owner) = binding_ident_before(toks, k) {
                    if id == "HashMap" || id == "HashSet" {
                        m.hash_idents.insert((f.crate_name.clone(), owner));
                    } else if matches!(id.as_str(), "Vec" | "VecDeque" | "BTreeMap" | "BTreeSet") {
                        m.nonhash_idents.insert((f.crate_name.clone(), owner));
                    }
                }
            }
            // Slice param/binding: `name : [` or `name : & [`.
            let colon = matches!(toks.get(k + 1), Some((_, Tok::Punct(':'))))
                && !matches!(toks.get(k + 2), Some((_, Tok::Punct(':'))));
            if colon {
                let slice = matches!(
                    (toks.get(k + 2), toks.get(k + 3)),
                    (Some((_, Tok::Punct('['))), _)
                        | (Some((_, Tok::Punct('&'))), Some((_, Tok::Punct('['))))
                );
                if slice {
                    m.nonhash_idents.insert((f.crate_name.clone(), id.clone()));
                }
            }
            k += 1;
            continue;
        }
        let Some((_, Tok::Ident(strukt))) = toks.get(k + 1) else {
            k += 1;
            continue;
        };
        // Find the struct body opening brace (skip generics); a `;` or
        // `(` first means unit/tuple struct — no named fields.
        let mut j = k + 2;
        let mut body = None;
        while j < toks.len() {
            match &toks[j].1 {
                Tok::Punct('{') => {
                    body = Some(j);
                    break;
                }
                Tok::Punct(';') | Tok::Punct('(') => break,
                _ => j += 1,
            }
        }
        let Some(open) = body else {
            k = j;
            continue;
        };
        // Parse fields at depth 1: `ident : <type tokens until , or }>`.
        let mut depth = 1usize;
        let mut j = open + 1;
        while j < toks.len() && depth > 0 {
            match &toks[j].1 {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                Tok::Ident(field)
                    if depth == 1
                        && matches!(toks.get(j + 1), Some((_, Tok::Punct(':'))))
                        && !matches!(toks.get(j + 2), Some((_, Tok::Punct(':')))) =>
                {
                    // Collect the type token window.
                    let mut t = j + 2;
                    let mut angle = 0i32;
                    let mut paren = 0i32;
                    let mut has = BTreeSet::new();
                    while t < toks.len() {
                        match &toks[t].1 {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => angle -= 1,
                            Tok::Punct('(') => paren += 1,
                            Tok::Punct(')') => paren -= 1,
                            Tok::Punct(',') if angle <= 0 && paren <= 0 => break,
                            Tok::Punct('}') if paren <= 0 => break,
                            Tok::Ident(ty) => {
                                has.insert(ty.clone());
                            }
                            _ => {}
                        }
                        t += 1;
                    }
                    let caps: BTreeSet<String> = has
                        .iter()
                        .filter(|ty| ty.starts_with(char::is_uppercase))
                        .cloned()
                        .collect();
                    if !caps.is_empty() {
                        m.field_types
                            .entry((f.crate_name.clone(), field.clone()))
                            .or_default()
                            .extend(caps);
                    }
                    if has.contains("HashMap") || has.contains("HashSet") {
                        m.hash_idents.insert((f.crate_name.clone(), field.clone()));
                    }
                    if ["Vec", "VecDeque", "BTreeMap", "BTreeSet"].iter().any(|t| has.contains(*t))
                    {
                        m.nonhash_idents.insert((f.crate_name.clone(), field.clone()));
                    }
                    if has.contains("OrderedMutex") || has.contains("OrderedRwLock") {
                        m.ordered_pending.push((
                            f.crate_name.clone(),
                            strukt.clone(),
                            field.clone(),
                        ));
                    } else if has.contains("Mutex") || has.contains("RwLock") {
                        let name = format!("{}.{}.{}", f.crate_name, strukt, field);
                        let id = m.intern(&name, None);
                        m.bind_field(&f.crate_name, field, id);
                    }
                    j = t;
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        k = j;
    }
}

/// For a `HashMap`/`HashSet` type token at `k`, walk back over wrapper
/// type idents and path segments to the `ident :` or `ident =` that owns
/// it. Returns the owning ident, if the shape matches a binding.
fn binding_ident_before(toks: &[(usize, Tok)], k: usize) -> Option<String> {
    const WRAPPERS: &[&str] =
        &["Arc", "Box", "Mutex", "Option", "OrderedMutex", "OrderedRwLock", "RwLock", "mut"];
    let mut j = k;
    loop {
        if j == 0 {
            return None;
        }
        match &toks[j - 1].1 {
            Tok::Punct('<') | Tok::Punct('&') => j -= 1,
            // Path segment `std :: collections ::` — skip `:: ident`.
            Tok::Punct(':') if j >= 3 && toks[j - 2].1 == Tok::Punct(':') => {
                if matches!(&toks[j - 3].1, Tok::Ident(_)) {
                    j -= 3;
                } else {
                    return None;
                }
            }
            Tok::Ident(w) if WRAPPERS.contains(&w.as_str()) => j -= 1,
            Tok::Punct(':') => {
                // Single colon: `field : Type`.
                return match toks.get(j.wrapping_sub(2)) {
                    Some((_, Tok::Ident(owner))) => Some(owner.clone()),
                    _ => None,
                };
            }
            Tok::Punct('=') => {
                // `let name = HashMap::new()` — name sits before `=`.
                return match toks.get(j.wrapping_sub(2)) {
                    Some((_, Tok::Ident(owner))) if owner != "let" && owner != "mut" => {
                        Some(owner.clone())
                    }
                    _ => None,
                };
            }
            _ => return None,
        }
    }
}

/// Bind ordered wrapper fields to declared classes at their constructor
/// sites: `field: [Arc::new(] Ordered*::new(&classes::IDENT, ..`.
fn index_constructors(m: &mut Model, f: &SourceFile) {
    let toks = &f.lexed.toks;
    for k in 0..toks.len() {
        let Tok::Ident(id) = &toks[k].1 else { continue };
        if id != "OrderedMutex" && id != "OrderedRwLock" {
            continue;
        }
        if !matches_toks(toks, k + 1, &[":", ":", "new", "(", "&", "classes", ":", ":"]) {
            continue;
        }
        let Some((_, Tok::Ident(class_ident))) = toks.get(k + 9) else { continue };
        m.constructed.insert(class_ident.clone());
        if f.in_test[k] {
            continue;
        }
        let Some(&(class, _, _)) = m.declared.get(class_ident) else { continue };
        // Walk back over `Arc :: new (`-style wrappers to the field name.
        let mut j = k;
        while j >= 5
            && toks[j - 1].1 == Tok::Punct('(')
            && matches!(&toks[j - 2].1, Tok::Ident(n) if n == "new")
            && toks[j - 3].1 == Tok::Punct(':')
            && toks[j - 4].1 == Tok::Punct(':')
            && matches!(&toks[j - 5].1, Tok::Ident(_))
        {
            j -= 5;
        }
        if j >= 2 && toks[j - 1].1 == Tok::Punct(':') && toks[j - 2].1 != Tok::Punct(':') {
            if let Some((_, Tok::Ident(field))) = toks.get(j.wrapping_sub(2)) {
                m.bind_field(&f.crate_name, field, class);
            }
        }
    }
}

/// Impl block spans in one file: `(body_open, body_close, type name)`.
fn impl_spans(toks: &[(usize, Tok)]) -> Vec<(usize, usize, String)> {
    let mut spans = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        let is_impl = matches!(&toks[k].1, Tok::Ident(id) if id == "impl");
        if !is_impl {
            k += 1;
            continue;
        }
        // The implemented type is the last ident at angle-depth 0 before
        // the body brace: handles `impl Foo`, `impl<T> Foo<T>`,
        // `impl Trait for Foo<'_>`.
        let mut angle = 0i32;
        let mut j = k + 1;
        let mut ty = None;
        while j < toks.len() {
            match &toks[j].1 {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct('{') if angle <= 0 => break,
                Tok::Punct(';') => break,
                Tok::Ident(id) if angle <= 0 && id != "for" && id != "where" => {
                    ty = Some(id.clone());
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].1 != Tok::Punct('{') {
            k = j;
            continue;
        }
        let open = j;
        let mut depth = 1usize;
        let mut end = open + 1;
        while end < toks.len() && depth > 0 {
            match &toks[end].1 {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            end += 1;
        }
        if let Some(ty) = ty {
            spans.push((open, end, ty));
        }
        k = open + 1;
    }
    spans
}

/// Record every non-test `fn` with its body token range, keyed by
/// `(crate, enclosing impl type, name)`.
fn index_functions(m: &mut Model, fi: usize, f: &SourceFile) {
    let toks = &f.lexed.toks;
    let impls = impl_spans(toks);
    let mut k = 0;
    while k < toks.len() {
        let is_fn = matches!(&toks[k].1, Tok::Ident(id) if id == "fn");
        if !is_fn || f.in_test[k] {
            k += 1;
            continue;
        }
        let Some((_, Tok::Ident(name))) = toks.get(k + 1) else {
            k += 1;
            continue;
        };
        // Find the body's opening brace; a `;` first is a bodyless
        // trait/extern signature.
        let mut j = k + 2;
        let mut open = None;
        while j < toks.len() {
            match &toks[j].1 {
                Tok::Punct('{') => {
                    open = Some(j);
                    break;
                }
                Tok::Punct(';') => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            k = j + 1;
            continue;
        };
        let mut depth = 1usize;
        let mut end = open + 1;
        while end < toks.len() && depth > 0 {
            match &toks[end].1 {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            end += 1;
        }
        // Innermost impl span containing the fn keyword.
        let ty = impls
            .iter()
            .filter(|(o, c, _)| *o < k && k < *c)
            .max_by_key(|(o, _, _)| *o)
            .map(|(_, _, t)| t.clone())
            .unwrap_or_default();
        let node = m.funcs.entry((f.crate_name.clone(), ty, name.clone())).or_default();
        node.bodies.push(Body { file: fi, start: open + 1, end: end.saturating_sub(1) });
        k = open + 1;
    }
}

/// Record the closures of every non-test `const`/`static` initializer as
/// bodies of a function named after the item: a table of `fn` pointers
/// (`omni_core::stack::STAGES`) is code that runs like a method body.
/// Each closure is a body of its own, so a temporary guard ends with the
/// closure that took it.
fn index_const_closures(m: &mut Model, fi: usize, f: &SourceFile) {
    let toks = &f.lexed.toks;
    let punct = |i: usize, c: char| toks.get(i).is_some_and(|t| t.1 == Tok::Punct(c));
    // Index of the first `,` / `;` / unmatched closer at bracket depth 0
    // from `i` on (`stop_at_comma` false: the first unmatched closer).
    let end_of = |mut i: usize, stop_at_comma: bool| {
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i].1 {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') if depth == 0 => break,
                Tok::Punct(')' | ']' | '}') => depth -= 1,
                Tok::Punct(',' | ';') if depth == 0 && stop_at_comma => break,
                _ => {}
            }
            i += 1;
        }
        i
    };
    let mut k = 0;
    while k < toks.len() {
        let item = matches!(&toks[k].1, Tok::Ident(id) if id == "const" || id == "static");
        let name = match toks.get(k + 1) {
            Some((_, Tok::Ident(name))) if item && !f.in_test[k] && punct(k + 2, ':') => name,
            _ => {
                k += 1;
                continue;
            }
        };
        let Some(eq) = (k + 3..toks.len()).find(|&i| punct(i, '=') || punct(i, ';')) else {
            break;
        };
        let semi = end_of(eq, true);
        let key = (f.crate_name.clone(), String::new(), name.clone());
        let mut c = eq + 1;
        while c < semi {
            let opens = punct(c, '|')
                && (matches!(&toks[c - 1].1, Tok::Punct('(' | '[' | ',' | '=' | '{'))
                    || matches!(&toks[c - 1].1, Tok::Ident(id) if id == "move"));
            if !opens {
                c += 1;
                continue;
            }
            // Parameters run to the next `|`; a braced body ends at its
            // matching brace, an expression body at the next `,`.
            let params_end = (c + 1..semi).find(|&i| punct(i, '|')).unwrap_or(semi);
            let (start, end) = if punct(params_end + 1, '{') {
                (params_end + 2, end_of(params_end + 2, false))
            } else {
                (params_end + 1, end_of(params_end + 1, true))
            };
            m.funcs.entry(key.clone()).or_default().bodies.push(Body { file: fi, start, end });
            c = end + 1;
        }
        k = semi + 1;
    }
}

/// Is token `k` an acquisition `field.(lock|read|write)()` of a tracked
/// lock field? Returns the class and the method name.
fn acquisition_at(m: &Model, f: &SourceFile, k: usize) -> Option<(usize, &'static str)> {
    let toks = &f.lexed.toks;
    let Tok::Ident(field) = &toks[k].1 else { return None };
    let method = match toks.get(k + 2) {
        Some((_, Tok::Ident(mth))) => match mth.as_str() {
            "lock" => "lock",
            "read" => "read",
            "write" => "write",
            _ => return None,
        },
        _ => return None,
    };
    if toks.get(k + 1).map(|t| &t.1) != Some(&Tok::Punct('.'))
        || !matches_toks(toks, k + 3, &["(", ")"])
    {
        return None;
    }
    let _ = method;
    match m.field_class.get(&(f.crate_name.clone(), field.clone())) {
        Some(FieldBinding::One(class)) => Some((*class, method)),
        _ => None,
    }
}

/// Is token `k` a call `name(`, `.name(` or `Path::name(`? Classifies
/// the receiver for resolution. Skips keywords and `fn` definitions.
fn call_at(toks: &[(usize, Tok)], k: usize) -> Option<Call> {
    let Tok::Ident(name) = &toks[k].1 else { return None };
    if KEYWORDS.contains(&name.as_str()) {
        return None;
    }
    if !matches!(toks.get(k + 1), Some((_, Tok::Punct('(')))) {
        return None;
    }
    let argless = matches!(toks.get(k + 2), Some((_, Tok::Punct(')'))));
    let target = match (k >= 1).then(|| &toks[k - 1].1) {
        Some(Tok::Ident(prev)) if prev == "fn" => return None,
        Some(Tok::Punct('.')) => match chain_base(toks, k) {
            Some(base) if base == "self" => CallTarget::SelfMethod,
            Some(base) => CallTarget::Field(base),
            None => CallTarget::Unknown,
        },
        Some(Tok::Punct(':'))
            if k >= 3
                && toks[k - 2].1 == Tok::Punct(':')
                && matches!(&toks[k - 3].1, Tok::Ident(_)) =>
        {
            match &toks[k - 3].1 {
                Tok::Ident(ty) if ty.starts_with(char::is_uppercase) => {
                    CallTarget::Qualified(ty.clone())
                }
                _ => CallTarget::Unknown, // module path `mod::f(..)`
            }
        }
        _ => CallTarget::Free,
    };
    Some(Call { name: name.clone(), argless, target })
}

/// Walk back from a method call at `k` through guard/adapter chains
/// (`self.x.lock().unwrap().m(` → base `x`). Returns the base receiver
/// ident (`self` for direct `self.m(`), or None if the chain starts from
/// something unknowable.
fn chain_base(toks: &[(usize, Tok)], k: usize) -> Option<String> {
    const PASSTHROUGH: &[&str] = &["as_mut", "as_ref", "expect", "lock", "read", "unwrap", "write"];
    let mut cur = k; // index of a method ident whose receiver we follow
    loop {
        if cur < 2 || toks[cur - 1].1 != Tok::Punct('.') {
            return None;
        }
        match &toks[cur - 2].1 {
            Tok::Ident(base) => {
                // `self.field.m(` — the field is the receiver.
                if base == "self" && cur == k {
                    return Some("self".to_string());
                }
                return Some(base.clone());
            }
            Tok::Punct(')') => {
                // Find the matching '(' and require a passthrough method
                // before it; then follow that method's receiver.
                let mut depth = 1i32;
                let mut j = cur - 2;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match &toks[j].1 {
                        Tok::Punct(')') => depth += 1,
                        Tok::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                if j == 0 {
                    return None;
                }
                match &toks[j - 1].1 {
                    Tok::Ident(mth) if PASSTHROUGH.contains(&mth.as_str()) => cur = j - 1,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
}

/// Classify the binding of the acquisition at `k` (`field . m ( )`
/// starting at `k`): a guard is let-bound only when the lock expression
/// (modulo `.unwrap()`/`.expect(..)`) is the whole right-hand side;
/// `let x = m.lock().map(..)` consumes the guard inside the statement,
/// so it is a temporary. Returns (is_temporary, binding name).
fn guard_binding(toks: &[(usize, Tok)], body_start: usize, k: usize) -> (bool, Option<String>) {
    // Does the chain end right after the acquisition?
    let mut j = k + 5; // token after `field . m ( )`
    loop {
        match toks.get(j).map(|t| &t.1) {
            Some(Tok::Punct(';')) => break, // clean statement end
            Some(Tok::Punct('.')) => match toks.get(j + 1) {
                Some((_, Tok::Ident(mth))) if mth == "unwrap" || mth == "expect" => {
                    // Skip `(args)`.
                    if toks.get(j + 2).map(|t| &t.1) != Some(&Tok::Punct('(')) {
                        return (true, None);
                    }
                    let mut depth = 1i32;
                    let mut t = j + 3;
                    while t < toks.len() && depth > 0 {
                        match &toks[t].1 {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => depth -= 1,
                            _ => {}
                        }
                        t += 1;
                    }
                    j = t;
                }
                _ => return (true, None), // chain continues — temporary
            },
            _ => return (true, None),
        }
    }
    // Scan back to the statement start for a `let name =` binding.
    let mut j = k;
    while j > body_start {
        j -= 1;
        match &toks[j].1 {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            Tok::Ident(id) if id == "let" => {
                let mut n = j + 1;
                if matches!(&toks[n].1, Tok::Ident(x) if x == "mut") {
                    n += 1;
                }
                return match &toks[n].1 {
                    Tok::Ident(name) => (false, Some(name.clone())),
                    _ => (false, None), // destructuring — lives to block end
                };
            }
            _ => {}
        }
    }
    (true, None)
}

/// Collect each function's direct acquisitions and outgoing calls.
fn collect_direct(m: &mut Model) {
    let keys: Vec<FuncKey> = m.funcs.keys().cloned().collect();
    for key in keys {
        let bodies = m.funcs[&key].bodies.clone();
        let mut direct = BTreeSet::new();
        let mut calls = Vec::new();
        for b in &bodies {
            let f = &m.ws.files[b.file];
            let toks = &f.lexed.toks;
            let mut k = b.start;
            while k < b.end {
                if let Some((class, _)) = acquisition_at(m, f, k) {
                    direct.insert(class);
                    k += 4;
                    continue;
                }
                if let Some(call) = call_at(toks, k) {
                    calls.push(call);
                }
                k += 1;
            }
        }
        let node = m.funcs.get_mut(&key).expect("key from keys()");
        node.may_acquire = direct;
        node.calls = calls;
    }
}

/// Propagate `may_acquire` and blocking reasons over the call graph to a
/// fixpoint.
fn fixpoint(m: &mut Model) {
    let keys: Vec<FuncKey> = m.funcs.keys().cloned().collect();
    // Seed blocking reasons from direct blocking-name calls.
    for key in &keys {
        let node = &m.funcs[key];
        let mut reason = None;
        for call in &node.calls {
            if let Some((_, why)) = BLOCKING_NAMES
                .iter()
                .find(|(n, _)| *n == call.name && (*n != "join" || call.argless))
            {
                reason = Some(format!("{why} (`{}`)", call.name));
                break;
            }
        }
        if reason.is_some() {
            m.funcs.get_mut(key).expect("key").blocks = reason;
        }
    }
    // Iterate to fixpoint.
    loop {
        let mut changed = false;
        for key in &keys {
            let calls = m.funcs[key].calls.clone();
            let mut acq = m.funcs[key].may_acquire.clone();
            let mut blocks = m.funcs[key].blocks.clone();
            for call in &calls {
                for callee in m.resolve(key, call) {
                    for c in &callee.may_acquire {
                        acq.insert(*c);
                    }
                    if blocks.is_none() {
                        if let Some(why) = &callee.blocks {
                            blocks = Some(format!("{why} via `{}`", call.name));
                        }
                    }
                }
            }
            let node = m.funcs.get_mut(key).expect("key");
            if acq.len() != node.may_acquire.len() || blocks != node.blocks {
                node.may_acquire = acq;
                node.blocks = blocks;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

#[derive(Debug)]
struct LiveGuard {
    class: usize,
    name: Option<String>,
    depth: usize,
    temp: bool,
    acq_line: usize,
}

/// The heart of the analysis: walk every function body tracking which
/// guards are live, and emit double-lock / order-violation /
/// held-across-call findings plus may-hold-while-acquiring edges.
fn walk_all_guards(
    m: &Model,
    edges: &mut BTreeMap<(usize, usize), (String, usize, Option<String>)>,
    findings: &mut Vec<Finding>,
) {
    for (key, node) in &m.funcs {
        for b in &node.bodies {
            walk_body(m, key, *b, edges, findings);
        }
    }
}

fn walk_body(
    m: &Model,
    key: &FuncKey,
    b: Body,
    edges: &mut BTreeMap<(usize, usize), (String, usize, Option<String>)>,
    findings: &mut Vec<Finding>,
) {
    let f = &m.ws.files[b.file];
    let toks = &f.lexed.toks;
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut k = b.start;
    while k < b.end {
        match &toks[k].1 {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                // A block closing back to a temporary's depth ends the
                // statement that produced it (`if let Some(x) =
                // m.read().get(k) { .. }` — the scrutinee guard dies at
                // the closing brace, before any code that follows).
                guards.retain(|g| g.depth <= depth && !(g.temp && g.depth == depth));
            }
            Tok::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth == depth));
            }
            Tok::Ident(id) if id == "drop" && matches_toks(toks, k + 1, &["("]) => {
                if let Some((_, Tok::Ident(victim))) = toks.get(k + 2) {
                    if matches_toks(toks, k + 3, &[")"]) {
                        guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
                    }
                }
            }
            _ => {}
        }
        if let Some((class, _)) = acquisition_at(m, f, k) {
            let line = toks[k].0;
            for g in &guards {
                record_contention(m, f, line, g, class, None, edges, findings);
            }
            let (temp, name) = guard_binding(toks, b.start, k);
            guards.push(LiveGuard { class, name, depth, temp, acq_line: line });
            k += 4;
            continue;
        }
        if let Some(call) = call_at(toks, k) {
            if !guards.is_empty() {
                let receiver = match toks.get(k.wrapping_sub(2)) {
                    Some((_, Tok::Ident(r))) if k >= 2 && toks[k - 1].1 == Tok::Punct('.') => {
                        Some(r.as_str())
                    }
                    _ => None,
                };
                call_with_guards(m, key, f, toks[k].0, &call, receiver, &guards, edges, findings);
            }
        }
        k += 1;
    }
}

/// Record what holding guard `g` while acquiring `class` means: a
/// double-lock, a declared-order contradiction, and/or a graph edge.
#[allow(clippy::too_many_arguments)]
fn record_contention(
    m: &Model,
    f: &SourceFile,
    line: usize,
    g: &LiveGuard,
    class: usize,
    via: Option<&str>,
    edges: &mut BTreeMap<(usize, usize), (String, usize, Option<String>)>,
    findings: &mut Vec<Finding>,
) {
    let held = &m.classes[g.class];
    let acq = &m.classes[class];
    let via_note = via.map(|v| format!(" via call to `{v}`")).unwrap_or_default();
    if g.class == class {
        findings.push(Finding::source(
            &f.rel_path,
            line,
            "double-lock",
            format!(
                "lock class `{}` re-acquired{via_note} while the guard from line {} is still \
                 live; with std primitives this self-deadlocks (readers can deadlock against \
                 a queued writer)",
                held.name, g.acq_line
            ),
        ));
        return;
    }
    edges
        .entry((g.class, class))
        .or_insert_with(|| (f.rel_path.clone(), line, via.map(str::to_string)));
    if let (Some(ra), Some(rb)) = (held.rank, acq.rank) {
        if ra >= rb {
            findings.push(Finding::source(
                &f.rel_path,
                line,
                "lock-cycle",
                format!(
                    "acquiring `{}` (rank {rb}){via_note} while holding `{}` (rank {ra}) \
                     contradicts the declared LOCK_ORDER; any thread taking them in declared \
                     order can deadlock against this path",
                    acq.name, held.name
                ),
            ));
        }
    }
}

/// Handle a call made with guards live: held-across-blocking findings
/// and call-mediated acquisition edges.
#[allow(clippy::too_many_arguments)]
fn call_with_guards(
    m: &Model,
    key: &FuncKey,
    f: &SourceFile,
    line: usize,
    call: &Call,
    receiver: Option<&str>,
    guards: &[LiveGuard],
    edges: &mut BTreeMap<(usize, usize), (String, usize, Option<String>)>,
    findings: &mut Vec<Finding>,
) {
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    let mut block_reason: Option<String> = None;
    if let Some((_, why)) =
        BLOCKING_NAMES.iter().find(|(n, _)| *n == call.name && (*n != "join" || call.argless))
    {
        block_reason = Some((*why).to_string());
    }
    for node in m.resolve(key, call) {
        reached.extend(node.may_acquire.iter().copied());
        if block_reason.is_none() {
            if let Some(why) = &node.blocks {
                block_reason = Some(why.clone());
            }
        }
    }
    if let Some(why) = &block_reason {
        for g in guards {
            // `g = g.wait(&cv)` releases the waited-on guard for the
            // duration of the wait — the witness models this too.
            let waited_on = matches!(call.name.as_str(), "wait" | "wait_timeout")
                && receiver.is_some()
                && g.name.as_deref() == receiver;
            if waited_on {
                continue;
            }
            findings.push(Finding::source(
                &f.rel_path,
                line,
                "lock-held-across-call",
                format!(
                    "guard on `{}` (acquired line {}) is held across `{}`, which may block \
                     ({why}); release the lock first or restructure into snapshot-then-call",
                    m.classes[g.class].name, g.acq_line, call.name
                ),
            ));
        }
    }
    for class in reached {
        for g in guards {
            record_contention(m, f, line, g, class, Some(&call.name), edges, findings);
        }
    }
}

/// Report strongly connected components of the may-hold-while-acquiring
/// graph as `lock-cycle` findings (size ≥ 2; self-edges were already
/// reported as double-lock).
fn cycle_findings(
    m: &Model,
    edges: &BTreeMap<(usize, usize), (String, usize, Option<String>)>,
    findings: &mut Vec<Finding>,
) {
    let n = m.classes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        adj[a].push(b);
    }
    // Tarjan's SCC, iterative.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, child cursor)
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = work.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() >= 2 {
                        sccs.push(comp);
                    }
                }
            }
        }
    }
    for mut comp in sccs {
        comp.sort_by(|a, b| m.classes[*a].name.cmp(&m.classes[*b].name));
        let members: Vec<&str> = comp.iter().map(|&c| m.classes[c].name.as_str()).collect();
        let in_comp: BTreeSet<usize> = comp.iter().copied().collect();
        let mut sites: Vec<String> = Vec::new();
        let mut anchor: Option<(&String, usize)> = None;
        for (&(a, b), (file, line, via)) in edges {
            if in_comp.contains(&a) && in_comp.contains(&b) {
                let via_note = via.as_deref().map(|v| format!(" via `{v}`")).unwrap_or_default();
                sites.push(format!(
                    "{}:{} holds `{}` acquiring `{}`{via_note}",
                    file, line, m.classes[a].name, m.classes[b].name
                ));
                let better = match anchor {
                    None => true,
                    Some((af, al)) => (file.as_str(), *line) < (af.as_str(), al),
                };
                if better {
                    anchor = Some((file, *line));
                }
            }
        }
        let (file, line) = anchor.map(|(f, l)| (f.clone(), l)).unwrap_or_default();
        findings.push(Finding::source(
            &file,
            line,
            "lock-cycle",
            format!(
                "cycle in the may-hold-while-acquiring graph among {{{}}}: {}",
                members.join(", "),
                sites.join("; ")
            ),
        ));
    }
}

/// `lock-table-drift`: declared classes no wrapper lock is built with.
fn table_drift(m: &Model, findings: &mut Vec<Finding>) {
    for (ident, (class, fi, line)) in &m.declared {
        if !m.constructed.contains(ident) {
            findings.push(Finding::source(
                &m.ws.files[*fi].rel_path,
                *line,
                "lock-table-drift",
                format!(
                    "LOCK_ORDER entry `{ident}` (`{}`) has no OrderedMutex/OrderedRwLock \
                     constructed with it; remove the stale rank or wire the lock through it",
                    m.classes[*class].name
                ),
            ));
        }
    }
}

/// `nondet-iter` over one file (non-test code).
fn nondet_iter(m: &Model, f: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &f.lexed.toks;
    for k in 0..toks.len() {
        if f.in_test[k] {
            continue;
        }
        let Tok::Ident(ident) = &toks[k].1 else { continue };
        if !m.hash_idents.contains(&(f.crate_name.clone(), ident.clone())) {
            continue;
        }
        // Follow the postfix chain from the ident looking for an
        // iterator-producing method within the first few segments
        // (handles `map.keys()` and `lock.read().values()` alike).
        let Some(method) = chain_iter_method(toks, k) else { continue };
        // `.iter()`-family methods exist on sequences too; if the name
        // also binds a Vec/slice somewhere in the crate, a shadowing
        // local is likelier than a hash map — skip. Map-specific methods
        // (`keys`, `values`, …) fire regardless.
        if UNIVERSAL_ITER.contains(&method)
            && m.nonhash_idents.contains(&(f.crate_name.clone(), ident.clone()))
        {
            continue;
        }
        let stmt_start = statement_start(toks, k);
        let is_for =
            toks[stmt_start..k].iter().any(|(_, t)| matches!(t, Tok::Ident(i) if i == "for"));
        let line = toks[k].0;
        if is_for {
            findings.push(Finding::source(
                &f.rel_path,
                line,
                "nondet-iter",
                format!(
                    "for-loop over `{ident}.{method}()` iterates a HashMap/HashSet in \
                     nondeterministic order; iterate a sorted key snapshot instead"
                ),
            ));
            continue;
        }
        let stmt_end = statement_end(toks, k);
        let stmt = &toks[stmt_start..stmt_end];
        let order_free = stmt.iter().any(|(_, t)| match t {
            Tok::Ident(i) => {
                ORDER_FREE_TERMINALS.contains(&i.as_str()) || KEYED_SINKS.contains(&i.as_str())
            }
            _ => false,
        });
        if order_free {
            continue;
        }
        if sorted_soon_after(toks, stmt_start, stmt_end) {
            continue;
        }
        findings.push(Finding::source(
            &f.rel_path,
            line,
            "nondet-iter",
            format!(
                "`{ident}.{method}()` iterates a HashMap/HashSet in nondeterministic order and \
                 the result's order escapes; sort it, collect into a BTree map/set, or reduce \
                 with an order-insensitive terminal"
            ),
        ));
    }
}

/// From a hash ident at `k`, scan the postfix chain (`.m(args)` up to 3
/// segments) for an iterator-producing method. Returns its name.
fn chain_iter_method(toks: &[(usize, Tok)], k: usize) -> Option<&'static str> {
    let mut j = k + 1;
    for _ in 0..3 {
        if !matches!(toks.get(j), Some((_, Tok::Punct('.')))) {
            return None;
        }
        let Some((_, Tok::Ident(mth))) = toks.get(j + 1) else { return None };
        if let Some(hit) = ITER_METHODS.iter().find(|m| **m == mth.as_str()) {
            return Some(hit);
        }
        // Skip the argument list to the next segment.
        if !matches!(toks.get(j + 2), Some((_, Tok::Punct('(')))) {
            return None;
        }
        let mut depth = 1i32;
        let mut t = j + 3;
        while t < toks.len() && depth > 0 {
            match &toks[t].1 {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                _ => {}
            }
            t += 1;
        }
        j = t;
    }
    None
}

/// Index of the first token of the statement containing `k` (right
/// after the previous `;`, `{` or `}` at any depth).
fn statement_start(toks: &[(usize, Tok)], k: usize) -> usize {
    let mut j = k;
    while j > 0 {
        match &toks[j - 1].1 {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return j,
            _ => j -= 1,
        }
    }
    0
}

/// Index one past the statement containing `k`: the next `;` at the same
/// brace depth (capped to keep the scan local).
fn statement_end(toks: &[(usize, Tok)], k: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    let cap = (k + 400).min(toks.len());
    while j < cap {
        match &toks[j].1 {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            Tok::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    cap
}

/// Collect-then-sort exemption: the statement binds `let name = ..` (or
/// feeds `name.extend(..)`) and one of the next three statements calls
/// `name.sort*()`.
fn sorted_soon_after(toks: &[(usize, Tok)], stmt_start: usize, stmt_end: usize) -> bool {
    // The sink name: a `let` binding, or the receiver of `.extend(`.
    let name = match toks.get(stmt_start..) {
        Some([(_, Tok::Ident(l)), rest @ ..]) if l == "let" => match rest {
            [(_, Tok::Ident(m)), (_, Tok::Ident(n)), ..] if m == "mut" => Some(n.clone()),
            [(_, Tok::Ident(n)), ..] => Some(n.clone()),
            _ => None,
        },
        Some([(_, Tok::Ident(sink)), (_, Tok::Punct('.')), (_, Tok::Ident(e)), ..])
            if e == "extend" =>
        {
            Some(sink.clone())
        }
        _ => None,
    };
    let Some(name) = name else { return false };
    let mut stmts_seen = 0;
    let mut j = stmt_end;
    let cap = (stmt_end + 200).min(toks.len());
    while j + 2 < cap && stmts_seen < 3 {
        if let (Tok::Ident(a), Tok::Punct('.'), Tok::Ident(mth)) =
            (&toks[j].1, &toks[j + 1].1, &toks[j + 2].1)
        {
            if *a == name && mth.starts_with("sort") {
                return true;
            }
        }
        if toks[j].1 == Tok::Punct(';') {
            stmts_seen += 1;
        }
        j += 1;
    }
    false
}

/// `unsynced-atomic` over one file (non-test code).
fn unsynced_atomic(f: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &f.lexed.toks;
    for k in 0..toks.len() {
        if f.in_test[k] {
            continue;
        }
        let Tok::Ident(name) = &toks[k].1 else { continue };
        let method = match toks.get(k + 2) {
            Some((_, Tok::Ident(mth))) if mth == "load" || mth == "store" => mth.clone(),
            _ => continue,
        };
        if toks.get(k + 1).map(|t| &t.1) != Some(&Tok::Punct('.'))
            || !matches!(toks.get(k + 3), Some((_, Tok::Punct('('))))
        {
            continue;
        }
        // Relaxed among the arguments?
        let mut depth = 1i32;
        let mut j = k + 4;
        let mut relaxed = false;
        while j < toks.len() && depth > 0 {
            match &toks[j].1 {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                Tok::Ident(i) if i == "Relaxed" => relaxed = true,
                _ => {}
            }
            j += 1;
        }
        if !relaxed {
            continue;
        }
        let lower = name.to_ascii_lowercase();
        let comps: Vec<&str> = lower.split('_').filter(|c| !c.is_empty()).collect();
        let publication = comps.iter().any(|c| PUBLICATION_COMPONENTS.contains(c));
        let counter = comps.last().is_some_and(|c| COUNTER_SUFFIXES.contains(c));
        if publication && !counter {
            findings.push(Finding::source(
                &f.rel_path,
                toks[k].0,
                "unsynced-atomic",
                format!(
                    "`{name}.{method}(Ordering::Relaxed)` on a publication-style atomic: \
                     Relaxed orders nothing, so data published through `{name}` may not be \
                     visible to readers; use Acquire/Release (or guard it with a lock)"
                ),
            ));
        }
    }
}
