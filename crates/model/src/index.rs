//! The label index: "Loki indexes the timestamp and labels only" (§IV-A).
//!
//! An inverted index from `(label, value)` to series ids, shared by both
//! stores: a [`crate::SeriesTable`] indexes its series by slot with it, in
//! a Loki ingester shard and in a TSDB shard alike. Only label metadata is indexed — never line content;
//! that asymmetry against full-text stores is experiment C4.

use crate::LabelSet;
use std::collections::{BTreeMap, BTreeSet};

/// Inverted label index for one shard of either store.
#[derive(Debug, Default)]
pub struct LabelIndex {
    /// (name, value) → series ids.
    postings: BTreeMap<(String, String), BTreeSet<u64>>,
    /// All series ids (for matchers that can't use postings).
    all: BTreeSet<u64>,
}

impl LabelIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a stream's labels under its id.
    pub fn insert(&mut self, labels: &LabelSet, id: u64) {
        for (k, v) in labels.iter() {
            self.postings.entry((k.to_string(), v.to_string())).or_default().insert(id);
        }
        self.all.insert(id);
    }

    /// Remove a stream.
    pub fn remove(&mut self, labels: &LabelSet, id: u64) {
        for (k, v) in labels.iter() {
            if let Some(set) = self.postings.get_mut(&(k.to_string(), v.to_string())) {
                set.remove(&id);
                if set.is_empty() {
                    self.postings.remove(&(k.to_string(), v.to_string()));
                }
            }
        }
        self.all.remove(&id);
    }

    /// Candidate ids for a set of equality constraints: the
    /// intersection of their postings. With no constraints, all streams.
    /// An equality on the empty value narrows nothing: a selector treats
    /// a missing label as `""`, so `{slot=""}` matches every stream
    /// without `slot`, and those have no posting to look up.
    pub fn candidates<'a>(&self, equalities: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<u64> {
        let mut result: Option<BTreeSet<u64>> = None;
        for (name, value) in equalities.filter(|(_, value)| !value.is_empty()) {
            let set = self
                .postings
                .get(&(name.to_string(), value.to_string()))
                .cloned()
                .unwrap_or_default();
            result = Some(match result {
                None => set,
                Some(prev) => prev.intersection(&set).copied().collect(),
            });
            if result.as_ref().is_some_and(|s| s.is_empty()) {
                return Vec::new();
            }
        }
        match result {
            Some(set) => set.into_iter().collect(),
            None => self.all.iter().copied().collect(),
        }
    }

    /// All values seen for a label name (Grafana's label browser).
    pub fn label_values(&self, name: &str) -> Vec<String> {
        self.postings
            .range((name.to_string(), String::new())..)
            .take_while(|((k, _), _)| k == name)
            .map(|((_, v), _)| v.clone())
            .collect()
    }

    /// All label names present.
    pub fn label_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.postings.keys().map(|(k, _)| k.clone()).collect();
        names.dedup();
        names
    }

    /// Number of index entries (postings keys) — the "small index" the
    /// paper contrasts with full-text indexing.
    pub fn entry_count(&self) -> usize {
        self.postings.len()
    }

    /// Approximate memory footprint of the index in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|((k, v), set)| k.len() + v.len() + set.len() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Number of indexed streams.
    pub fn stream_count(&self) -> usize {
        self.all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    #[test]
    fn insert_and_lookup() {
        let mut idx = LabelIndex::new();
        let a = labels!("app" => "fm", "cluster" => "perlmutter");
        let b = labels!("app" => "loki", "cluster" => "perlmutter");
        idx.insert(&a, 1);
        idx.insert(&b, 2);
        assert_eq!(idx.candidates([("app", "fm")].into_iter()), vec![1]);
        assert_eq!(idx.candidates([("cluster", "perlmutter")].into_iter()), vec![1, 2]);
        assert_eq!(idx.candidates([("app", "fm"), ("cluster", "perlmutter")].into_iter()), vec![1]);
        assert!(idx.candidates([("app", "nope")].into_iter()).is_empty());
    }

    #[test]
    fn no_constraints_returns_all() {
        let mut idx = LabelIndex::new();
        idx.insert(&labels!("a" => "1"), 7);
        idx.insert(&labels!("b" => "2"), 8);
        assert_eq!(idx.candidates(std::iter::empty()), vec![7, 8]);
    }

    #[test]
    fn equality_on_the_empty_value_does_not_narrow() {
        let mut idx = LabelIndex::new();
        idx.insert(&labels!("job" => "x"), 1);
        idx.insert(&labels!("job" => "x", "slot" => "3"), 2);
        idx.insert(&labels!("job" => "y"), 3);
        // The caller's matcher pass drops 2; the index must keep 1.
        assert_eq!(idx.candidates([("job", "x"), ("slot", "")].into_iter()), vec![1, 2]);
        assert_eq!(idx.candidates([("slot", "")].into_iter()), vec![1, 2, 3]);
    }

    #[test]
    fn remove_cleans_postings() {
        let mut idx = LabelIndex::new();
        let l = labels!("app" => "fm");
        idx.insert(&l, 1);
        idx.remove(&l, 1);
        assert!(idx.candidates([("app", "fm")].into_iter()).is_empty());
        assert_eq!(idx.entry_count(), 0);
        assert_eq!(idx.stream_count(), 0);
    }

    #[test]
    fn label_values_and_names() {
        let mut idx = LabelIndex::new();
        idx.insert(&labels!("app" => "fm", "env" => "prod"), 1);
        idx.insert(&labels!("app" => "loki"), 2);
        assert_eq!(idx.label_values("app"), vec!["fm", "loki"]);
        assert_eq!(idx.label_names(), vec!["app", "env"]);
        assert!(idx.label_values("nope").is_empty());
    }

    #[test]
    fn entry_count_tracks_cardinality() {
        let mut idx = LabelIndex::new();
        for i in 0..100 {
            idx.insert(&labels!("id" => format!("{i}")), i);
        }
        // 100 distinct values -> 100 postings entries.
        assert_eq!(idx.entry_count(), 100);
        assert!(idx.approx_bytes() > 0);
    }
}
