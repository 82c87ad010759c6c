//! Full-text inverted-index log store — the Elasticsearch-style baseline.
//!
//! §III-A of the paper argues Loki's design point: "In contrast with
//! other logging platforms, Loki does not index the text of the logs but
//! allows indexing the metadata about the logs by creating labels ... a
//! small index and compressed chunks significantly reduce the costs for
//! storage and the log query times." To measure that trade-off
//! (experiment C4) we need the *other* side: a store that tokenizes every
//! line and maintains a term → documents inverted index, like a search
//! engine would.
//!
//! The comparison is honest in both directions: full-text pays a large
//! index and slower ingest, but answers needle-in-haystack term queries
//! without scanning.

use omni_model::{LabelSet, Timestamp};
use std::collections::HashMap;

/// One stored document.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Document id (insertion order).
    pub id: u32,
    /// Entry timestamp.
    pub ts: Timestamp,
    /// Source labels (stored, not inverted — the term index is the point).
    pub labels: LabelSet,
    /// The raw line.
    pub line: String,
}

/// Tokenize a line the way search engines do: lowercase alphanumeric
/// runs, dropping one-character tokens.
pub fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in line.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c.to_ascii_lowercase());
        } else if !cur.is_empty() {
            if cur.len() > 1 {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    if cur.len() > 1 {
        out.push(cur);
    }
    out
}

/// The full-text store.
#[derive(Debug, Default)]
pub struct FullTextStore {
    docs: Vec<Document>,
    /// term → sorted doc ids.
    postings: HashMap<String, Vec<u32>>,
    /// Total bytes of raw lines.
    line_bytes: usize,
}

impl FullTextStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one entry, indexing every token of the line.
    pub fn ingest(&mut self, labels: LabelSet, ts: Timestamp, line: impl Into<String>) -> u32 {
        let line = line.into();
        let id = self.docs.len() as u32;
        for token in tokenize(&line) {
            let posting = self.postings.entry(token).or_default();
            if posting.last() != Some(&id) {
                posting.push(id);
            }
        }
        self.line_bytes += line.len();
        self.docs.push(Document { id, ts, labels, line });
        id
    }

    /// Documents whose lines contain `term` (single-token lookup — the
    /// needle query full-text indexing exists for).
    pub fn search_term(&self, term: &str) -> Vec<&Document> {
        let term = term.to_ascii_lowercase();
        self.postings
            .get(&term)
            .map(|ids| ids.iter().map(|&i| &self.docs[i as usize]).collect())
            .unwrap_or_default()
    }

    /// Documents in `(start, end]` containing a term, like a filtered
    /// Kibana query.
    pub fn search_term_in_range(
        &self,
        term: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<&Document> {
        self.search_term(term).into_iter().filter(|d| d.ts > start && d.ts <= end).collect()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of distinct indexed terms — the dimension that explodes
    /// relative to Loki's label index.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Approximate index memory: term bytes + posting entries.
    pub fn index_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|(term, ids)| term.len() + ids.len() * std::mem::size_of::<u32>())
            .sum()
    }

    /// Raw line bytes stored (uncompressed — this baseline does not
    /// compress).
    pub fn stored_bytes(&self) -> usize {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::labels;

    #[test]
    fn tokenizer_behaviour() {
        assert_eq!(
            tokenize("[critical] problem:fm_switch_offline, xname:x1002c1r7b0"),
            vec!["critical", "problem", "fm_switch_offline", "xname", "x1002c1r7b0"]
        );
        assert_eq!(tokenize("a b c"), Vec::<String>::new()); // 1-char dropped
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("MixedCase TOKENS"), vec!["mixedcase", "tokens"]);
    }

    #[test]
    fn ingest_and_term_search() {
        let mut s = FullTextStore::new();
        s.ingest(labels!("host" => "x1"), 1, "leak detected in cabinet");
        s.ingest(labels!("host" => "x2"), 2, "all systems nominal");
        let hits = s.search_term("leak");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].labels.get("host"), Some("x1"));
        assert!(s.search_term("quench").is_empty());
        // Case-insensitive.
        assert_eq!(s.search_term("LEAK").len(), 1);
    }

    #[test]
    fn range_filter() {
        let mut s = FullTextStore::new();
        for i in 0..10 {
            s.ingest(LabelSet::new(), i, "tick event");
        }
        assert_eq!(s.search_term_in_range("tick", 2, 5).len(), 3);
    }

    #[test]
    fn duplicate_tokens_counted_once_per_doc() {
        let mut s = FullTextStore::new();
        s.ingest(LabelSet::new(), 1, "leak leak leak");
        assert_eq!(s.search_term("leak").len(), 1);
    }

    #[test]
    fn index_grows_with_vocabulary() {
        let mut s = FullTextStore::new();
        for i in 0..1000 {
            s.ingest(LabelSet::new(), i, format!("unique_token_{i} common_word"));
        }
        // 1000 unique + 1 common.
        assert_eq!(s.term_count(), 1001);
        assert!(s.index_bytes() > 10_000);
        assert_eq!(s.search_term("common_word").len(), 1000);
    }
}
