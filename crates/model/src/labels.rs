//! Label sets: the stream/series identity shared by Loki and the TSDB.
//!
//! The paper: "Every log has one or more labels. If logs share the same
//! combination of unique labels, they are called a log stream." A label set
//! here is an always-sorted list of key/value pairs with a stable 64-bit
//! fingerprint, so that the same combination of labels maps to the same
//! stream (and the same ingester shard) everywhere in the pipeline.

use crate::{fnv1a64_extend, FNV_OFFSET};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// An ordered set of `key=value` labels that knows its own fingerprint.
///
/// Stored as a sorted `Vec` rather than a map: label sets are small (the
/// paper explicitly argues for *few* labels per stream), and a sorted vec
/// is cheaper to compare and iterate. The vec sits behind an `Arc`: a
/// label set is built once where a record enters the pipeline and then
/// copied many times (stream → query row → matrix → results cache →
/// every cache hit → WAL frame), so `clone` is a reference count and
/// mutation (`insert` / `remove`) is copy-on-write — the first write to a
/// shared handle copies the pairs, a uniquely held one mutates in place.
///
/// The [`fingerprint`](Self::fingerprint) lives beside the pairs inside
/// the `Arc`: computed on first use, shared by every clone, and cleared by
/// every mutation. So a stream's identity is hashed once, and every map
/// keyed by a label set — both stores' series tables, the WAL's series
/// table, a tenant's active streams, an Alertmanager group's alerts, the
/// rule engine's active alerts, the query path's group maps — hashes one
/// `u64`. Equality is by content: identical handles are equal at once,
/// two known fingerprints that differ are unequal at once, and otherwise
/// the pairs decide, so a fingerprint collision is never a false
/// equality. A stream is named by its label set everywhere, on disk too
/// (a chunk key carries it); the fingerprint only places a stream on a
/// shard or salts a hash. Ordering is by content, because every
/// label-sorted row order on the read path depends on it, and the chunk
/// store's keys sort by it.
#[derive(Clone, Default)]
pub struct LabelSet {
    inner: Arc<Inner>,
}

/// What a [`LabelSet`] handle shares.
#[derive(Clone, Default)]
struct Inner {
    pairs: Vec<(String, String)>,
    /// The fingerprint of `pairs`, once someone asked for it.
    fingerprint: OnceLock<u64>,
}

impl LabelSet {
    /// The empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pairs for writing: copied first if another handle shares them,
    /// and the cached fingerprint dropped, since the write changes it.
    fn pairs_mut(&mut self) -> &mut Vec<(String, String)> {
        let inner = Arc::make_mut(&mut self.inner);
        inner.fingerprint.take();
        &mut inner.pairs
    }

    /// Build from an iterator of pairs; later duplicates overwrite earlier.
    pub fn from_pairs<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        let mut set = Self::new();
        for (k, v) in pairs {
            set.insert(k, v);
        }
        set
    }

    /// Insert or overwrite a label.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.inner.pairs.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.pairs_mut()[i].1 = value,
            Err(i) => self.pairs_mut().insert(i, (key, value)),
        }
    }

    /// Remove a label, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        match self.inner.pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => Some(self.pairs_mut().remove(i).1),
            Err(_) => None,
        }
    }

    /// Look up a label value.
    pub fn get(&self, key: &str) -> Option<&str> {
        let pairs = &self.inner.pairs;
        pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| pairs[i].1.as_str())
    }

    /// Whether the label exists.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.inner.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.pairs.is_empty()
    }

    /// Iterate over `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.inner.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Stable 64-bit fingerprint of the whole set. Equal sets have equal
    /// fingerprints on every node, which is what the distributor uses for
    /// shard placement.
    ///
    /// FNV-1a over `k 0xfe v 0xff …` in key order: the value
    /// [`crate::fnv1a64`] gives for that buffer, without building it. It
    /// is computed once per distinct set and then read from the set
    /// itself, by this handle and every clone of it.
    pub fn fingerprint(&self) -> u64 {
        *self.inner.fingerprint.get_or_init(|| fingerprint_of(&self.inner.pairs))
    }

    /// A copy of this set restricted to the given keys (`by` clause).
    pub fn project(&self, keys: &[String]) -> LabelSet {
        self.filtered(|k| keys.iter().any(|key| key == k))
    }

    /// A copy of this set with the given keys removed (`without` clause).
    pub fn without(&self, keys: &[String]) -> LabelSet {
        self.filtered(|k| !keys.iter().any(|key| key == k))
    }

    /// The pairs whose key passes `keep`; still sorted, so no re-insert.
    fn filtered(&self, keep: impl Fn(&str) -> bool) -> LabelSet {
        let pairs = self.inner.pairs.iter().filter(|(k, _)| keep(k)).cloned().collect();
        LabelSet { inner: Arc::new(Inner { pairs, fingerprint: OnceLock::new() }) }
    }

    /// Merge `other` into a copy of `self`; labels in `other` win.
    pub fn merged_with(&self, other: &LabelSet) -> LabelSet {
        let mut out = self.clone();
        for (k, v) in other.iter() {
            out.insert(k, v);
        }
        out
    }

    /// Approximate in-memory footprint of the label data in bytes.
    pub fn bytes(&self) -> usize {
        self.inner.pairs.iter().map(|(k, v)| k.len() + v.len()).sum()
    }
}

/// FNV-1a over `k 0xfe v 0xff …`, streamed pair by pair.
fn fingerprint_of(pairs: &[(String, String)]) -> u64 {
    pairs.iter().fold(FNV_OFFSET, |h, (k, v)| {
        let h = fnv1a64_extend(fnv1a64_extend(h, k.as_bytes()), &[0xfe]);
        fnv1a64_extend(fnv1a64_extend(h, v.as_bytes()), &[0xff])
    })
}

impl PartialEq for LabelSet {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        match (self.inner.fingerprint.get(), other.inner.fingerprint.get()) {
            (Some(a), Some(b)) if a != b => false,
            _ => self.inner.pairs == other.inner.pairs,
        }
    }
}

impl Eq for LabelSet {}

impl Ord for LabelSet {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return Ordering::Equal;
        }
        self.inner.pairs.cmp(&other.inner.pairs)
    }
}

impl PartialOrd for LabelSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for LabelSet {
    /// The fingerprint alone: equal sets have equal fingerprints, and it
    /// is computed once per set rather than once per lookup.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelSet").field("pairs", &self.inner.pairs).finish()
    }
}

impl fmt::Display for LabelSet {
    /// Prometheus/Loki selector syntax: `{a="b", c="d"}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        write!(f, "}}")
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for LabelSet {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

/// Fluent builder for label sets.
///
/// ```
/// use omni_model::LabelSetBuilder;
/// let labels = LabelSetBuilder::new()
///     .label("cluster", "perlmutter")
///     .label("data_type", "redfish_event")
///     .build();
/// assert_eq!(labels.get("cluster"), Some("perlmutter"));
/// ```
#[derive(Debug, Default)]
pub struct LabelSetBuilder {
    set: LabelSet,
}

impl LabelSetBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a label.
    pub fn label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set.insert(key, value);
        self
    }

    /// Finish and return the set.
    pub fn build(self) -> LabelSet {
        self.set
    }
}

/// Convenience macro for building a [`LabelSet`] literal.
#[macro_export]
macro_rules! labels {
    () => { $crate::LabelSet::new() };
    ($($k:expr => $v:expr),+ $(,)?) => {{
        let mut set = $crate::LabelSet::new();
        $( set.insert($k, $v); )+
        set
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_sorts_and_overwrites() {
        let mut s = LabelSet::new();
        s.insert("z", "1");
        s.insert("a", "2");
        s.insert("z", "3");
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![("a", "2"), ("z", "3")]);
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = LabelSet::from_pairs([("x", "1"), ("y", "2")]);
        let b = LabelSet::from_pairs([("y", "2"), ("x", "1")]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_key_value_boundary() {
        // ("ab","c") must not collide with ("a","bc").
        let a = LabelSet::from_pairs([("ab", "c")]);
        let b = LabelSet::from_pairs([("a", "bc")]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// What `fingerprint` computed before it streamed: FNV-1a over one
    /// scratch buffer holding `k 0xfe v 0xff …`.
    fn buffered_fingerprint(s: &LabelSet) -> u64 {
        let mut buf = Vec::new();
        for (k, v) in s.iter() {
            buf.extend_from_slice(k.as_bytes());
            buf.push(0xfe);
            buf.extend_from_slice(v.as_bytes());
            buf.push(0xff);
        }
        crate::fnv1a64(&buf)
    }

    #[test]
    fn streamed_fingerprint_equals_the_buffered_hash() {
        // Shard placement, WAL contents, object keys and the benchmark
        // digest all depend on this value: streaming must not move it.
        let mut sets = vec![
            LabelSet::new(),
            LabelSet::from_pairs([("x", "1"), ("y", "2")]),
            LabelSet::from_pairs([("ab", "c")]),
            LabelSet::from_pairs([("a", "bc")]),
            LabelSet::from_pairs([("cluster", "perlmutter"), ("app", "fm")]),
        ];
        // Seeded random sets over an alphabet that includes the bytes next
        // to the separators (U+00FE / U+00FF encode as 0xc3 0xbe / 0xbf)
        // and other non-ASCII text.
        const ALPHABET: [&str; 10] =
            ["a", "Z", "_", "0", "\u{fe}", "\u{ff}", "\u{fd}", "é", "日", "\u{1f600}"];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for _ in 0..300 {
            let word = |next: &mut dyn FnMut(u64) -> u64| -> String {
                (0..next(6)).map(|_| ALPHABET[next(10) as usize]).collect()
            };
            let pairs: Vec<(String, String)> =
                (0..next(7)).map(|_| (word(&mut next), word(&mut next))).collect();
            sets.push(LabelSet::from_pairs(pairs));
        }
        for s in &sets {
            assert_eq!(s.fingerprint(), buffered_fingerprint(s), "{s}");
        }
        assert_eq!(LabelSet::new().fingerprint(), crate::fnv1a64(&[]));
    }

    #[test]
    fn clone_shares_and_mutation_copies_on_write() {
        let a = LabelSet::from_pairs([("a", "1"), ("b", "2")]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.inner, &b.inner), "clone is a reference count");
        b.insert("c", "3");
        b.remove("a");
        assert_eq!(a, LabelSet::from_pairs([("a", "1"), ("b", "2")]), "the original is untouched");
        assert_eq!(b, LabelSet::from_pairs([("b", "2"), ("c", "3")]));
        assert!(a < b, "ordering is by content");
    }

    /// A set whose cached fingerprint is forced to `fp`: a collision on
    /// demand, which FNV-1a will not hand a test over short strings.
    fn with_forced_fingerprint(pairs: &[(&str, &str)], fp: u64) -> LabelSet {
        let set = LabelSet::from_pairs(pairs.iter().copied());
        assert!(set.inner.fingerprint.set(fp).is_ok(), "a fresh set has no fingerprint yet");
        set
    }

    fn hash_of(s: &LabelSet) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_fingerprint_collision_is_never_a_false_equality() {
        let a = with_forced_fingerprint(&[("app", "a")], 7);
        let b = with_forced_fingerprint(&[("app", "b")], 7);
        assert_eq!(hash_of(&a), hash_of(&b), "the collision reaches the hasher");
        assert_ne!(a, b, "equal fingerprints, different pairs: the pairs decide");
        assert_eq!(a.cmp(&b), Ordering::Less, "ordering ignores the fingerprint");
        assert_eq!(a, with_forced_fingerprint(&[("app", "a")], 7));
        let map: std::collections::HashMap<LabelSet, u32> = [(a.clone(), 1), (b.clone(), 2)].into();
        assert_eq!((map.len(), map[&a], map[&b]), (2, 1, 2));
    }

    #[test]
    fn equality_needs_no_fingerprint_and_a_write_drops_only_the_writers() {
        let a = LabelSet::from_pairs([("x", "1"), ("y", "2")]);
        let b = LabelSet::from_pairs([("y", "2"), ("x", "1")]);
        assert_eq!(a, b, "neither fingerprint computed: the pairs decide");
        assert!(a.inner.fingerprint.get().is_none() && b.inner.fingerprint.get().is_none());
        let fp = a.fingerprint();
        assert_eq!(a, b, "one side known");
        let mut c = a.clone();
        c.insert("z", "3");
        assert_eq!(a.inner.fingerprint.get(), Some(&fp), "the shared original keeps its own");
        assert!(c.inner.fingerprint.get().is_none(), "the written copy forgets the old one");
        assert_eq!(c.fingerprint(), buffered_fingerprint(&c));
        assert_ne!(a, c);
    }

    const KEYS: [&str; 4] = ["a", "b", "c", "\u{fe}"];
    const VALUES: [&str; 3] = ["1", "", "\u{ff}"];

    proptest! {
        /// After any sequence of writes — on a uniquely held set and on
        /// one whose pairs a clone shares — every set's fingerprint equals
        /// a fresh computation, and `Eq`, `Ord` and `Hash` agree with the
        /// content definitions across every pair of sets seen. A write
        /// that keeps the cached fingerprint fails it, and so does `Ord`
        /// by fingerprint. `Eq` trusting two equal fingerprints without
        /// the pairs needs a collision, so the forced-collision test
        /// above is what fails for that one.
        #[test]
        fn the_stored_fingerprint_is_always_the_fresh_one(
            ops in prop::collection::vec((0u8..7, 0usize..4, 0usize..3), 1..40),
        ) {
            let mut set = LabelSet::new();
            let mut seen: Vec<LabelSet> = Vec::new();
            for (op, k, v) in ops {
                let (key, value) = (KEYS[k], VALUES[v]);
                match op {
                    0 => set.insert(key, value),
                    1 => {
                        set.remove(key);
                    }
                    // Share the pairs, with the fingerprint already cached,
                    // before the next write.
                    2 => {
                        set.fingerprint();
                        seen.push(set.clone());
                    }
                    3 => set = set.project(&[key.to_string(), KEYS[(k + v) % 4].to_string()]),
                    4 => set = set.without(&[key.to_string()]),
                    5 => set = set.merged_with(&LabelSet::from_pairs([(key, value)])),
                    _ => {
                        let mut pairs: Vec<(&str, &str)> = set.iter().collect();
                        pairs.reverse();
                        set = LabelSet::from_pairs(pairs);
                    }
                }
                prop_assert_eq!(set.fingerprint(), buffered_fingerprint(&set));
            }
            seen.push(set);
            for x in &seen {
                prop_assert_eq!(x.fingerprint(), buffered_fingerprint(x));
                for y in &seen {
                    fn content(s: &LabelSet) -> Vec<(&str, &str)> {
                        s.iter().collect()
                    }
                    prop_assert_eq!(x == y, content(x) == content(y));
                    prop_assert_eq!(x.cmp(y), content(x).cmp(&content(y)));
                    if x == y {
                        prop_assert_eq!(hash_of(x), hash_of(y));
                    }
                }
            }
        }
    }

    #[test]
    fn project_and_without() {
        let s = LabelSet::from_pairs([("a", "1"), ("b", "2"), ("c", "3")]);
        let by = s.project(&["a".into(), "c".into()]);
        assert_eq!(by.len(), 2);
        assert_eq!(by.get("b"), None);
        let wo = s.without(&["b".into()]);
        assert_eq!(wo, by);
    }

    #[test]
    fn display_selector_syntax() {
        let s = LabelSet::from_pairs([("cluster", "perlmutter"), ("app", "fm")]);
        assert_eq!(s.to_string(), "{app=\"fm\", cluster=\"perlmutter\"}");
    }

    #[test]
    fn labels_macro() {
        let s = crate::labels!("a" => "1", "b" => "2");
        assert_eq!(s.get("a"), Some("1"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merged_with_other_wins() {
        let a = LabelSet::from_pairs([("k", "old"), ("x", "1")]);
        let b = LabelSet::from_pairs([("k", "new")]);
        let m = a.merged_with(&b);
        assert_eq!(m.get("k"), Some("new"));
        assert_eq!(m.get("x"), Some("1"));
    }

    #[test]
    fn remove_returns_value() {
        let mut s = LabelSet::from_pairs([("a", "1")]);
        assert_eq!(s.remove("a"), Some("1".to_string()));
        assert_eq!(s.remove("a"), None);
        assert!(s.is_empty());
    }
}
