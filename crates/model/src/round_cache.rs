//! A cache that forgets what a round did not use: text keys → values,
//! evicted by rounds.
//!
//! Three callers keep one: vmagent's scrape cache (a page line's series
//! text → its series ref and labels; a round is one scrape), the metric
//! bridge's series cache (a reading's wire identity → its series ref and
//! labels; a round is one pump) and the log bridge's label cache (a
//! message's `(topic, key)` → its stream's label set; a round is one
//! pump).
//!
//! - *Key buffer.* A caller writes its key into the buffer
//!   [`key`](RoundCache::key) hands out, which the cache reuses, so a hit
//!   allocates nothing. [`hit`](RoundCache::hit) and
//!   [`insert`](RoundCache::insert) both read the key from it.
//! - *Seen-marks.* A hit or an insert marks its entry seen in the current
//!   round.
//! - *Rounds.* [`end_round`](RoundCache::end_round) evicts every entry
//!   the last `horizon` rounds (this one included) did not mark, provided
//!   this round marked anything (a round that touched nothing, such as a
//!   pump that found an empty bus, says nothing about which keys are
//!   live), and starts the next round.
//!   [`abandon_round`](RoundCache::abandon_round) starts the next round
//!   and evicts nothing: vmagent abandons a scrape whose page failed.
//! - *Horizon.* [`new`](RoundCache::new) keeps an entry for one round: a
//!   scrape page and a sensor sweep repeat every key every round. A caller
//!   whose rounds sample their keys at random (a pump of log lines from
//!   hosts drawn per line) sets a longer one with
//!   [`with_horizon`](RoundCache::with_horizon), so a key that recurs
//!   within it stays cached.
//!
//! A miss costs the caller one resolve; what a caller stores must never
//! depend on whether it hit.

use std::collections::HashMap;

/// Text-keyed cache evicted by rounds; see the module doc.
pub struct RoundCache<V> {
    key: String,
    entries: HashMap<Box<str>, Entry<V>>,
    /// The current round, the clock `Entry::seen` is read against.
    round: u64,
    /// How many rounds, the current one included, an entry outlives its
    /// last mark.
    horizon: u64,
    /// Whether the current round marked any entry.
    touched: bool,
}

struct Entry<V> {
    value: V,
    seen: u64,
}

impl<V> Default for RoundCache<V> {
    fn default() -> Self {
        Self::with_horizon(1)
    }
}

impl<V> RoundCache<V> {
    /// An empty cache that evicts what one round did not mark.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that evicts what the last `horizon` rounds did not
    /// mark (at least one).
    pub fn with_horizon(horizon: u64) -> Self {
        let horizon = horizon.max(1);
        Self { key: String::new(), entries: HashMap::new(), round: 0, horizon, touched: false }
    }

    /// The key buffer, cleared, for the caller to write the next key into.
    pub fn key(&mut self) -> &mut String {
        self.key.clear();
        &mut self.key
    }

    /// The entry under the key buffer, marked seen, if any.
    pub fn hit(&mut self) -> Option<&mut V> {
        let entry = self.entries.get_mut(self.key.as_str())?;
        entry.seen = self.round;
        self.touched = true;
        Some(&mut entry.value)
    }

    /// Cache `value` under the key buffer, seen this round; replaces any
    /// entry already there.
    pub fn insert(&mut self, value: V) -> &mut V {
        self.touched = true;
        let entry = Entry { value, seen: self.round };
        let slot = self.entries.entry(self.key.as_str().into()).insert_entry(entry);
        &mut slot.into_mut().value
    }

    /// Evict the entries the last `horizon` rounds did not mark, if this
    /// round marked any, and start the next round.
    pub fn end_round(&mut self) {
        if self.touched {
            let (round, horizon) = (self.round, self.horizon);
            self.entries.retain(|_, entry| round - entry.seen < horizon);
        }
        self.abandon_round();
    }

    /// Start the next round, evicting nothing.
    pub fn abandon_round(&mut self) {
        self.round += 1;
        self.touched = false;
    }

    /// Every held key, sorted.
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.entries.keys().map(|k| &**k).collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(cache: &mut RoundCache<u32>, key: &str) -> Option<u32> {
        cache.key().push_str(key);
        cache.hit().copied()
    }

    fn insert<'a>(cache: &'a mut RoundCache<u32>, key: &str, value: u32) -> &'a mut u32 {
        cache.key().push_str(key);
        cache.insert(value)
    }

    #[test]
    fn a_round_keeps_what_it_marked() {
        let mut cache = RoundCache::new();
        insert(&mut cache, "a", 1);
        *insert(&mut cache, "b", 2) += 1;
        cache.end_round();
        assert_eq!((hit(&mut cache, "a"), hit(&mut cache, "b")), (Some(1), Some(3)));
        cache.end_round();
        assert_eq!(hit(&mut cache, "a"), Some(1));
        assert_eq!(hit(&mut cache, "c"), None, "a miss marks nothing");
        cache.end_round();
        assert_eq!(cache.keys(), ["a"]);
    }

    #[test]
    fn an_untouched_or_abandoned_round_evicts_nothing() {
        let mut cache = RoundCache::new();
        insert(&mut cache, "a", 1);
        cache.end_round();
        cache.end_round();
        assert_eq!(cache.keys(), ["a"], "the empty round said nothing about `a`");
        insert(&mut cache, "b", 2);
        cache.abandon_round();
        assert_eq!(cache.keys(), ["a", "b"]);
        assert_eq!(hit(&mut cache, "b"), Some(2));
        cache.end_round();
        assert_eq!(cache.keys(), ["b"]);
    }

    #[test]
    fn a_horizon_keeps_an_entry_that_many_rounds() {
        let mut cache = RoundCache::with_horizon(3);
        insert(&mut cache, "a", 1);
        insert(&mut cache, "b", 2);
        cache.end_round();
        for _ in 0..2 {
            hit(&mut cache, "b");
            cache.end_round();
        }
        assert_eq!(cache.keys(), ["a", "b"], "`a` was marked in the last three rounds");
        hit(&mut cache, "b");
        cache.end_round();
        assert_eq!(cache.keys(), ["b"], "three rounds passed `a` by");
        cache.end_round();
        cache.abandon_round();
        hit(&mut cache, "c");
        cache.end_round();
        assert_eq!(cache.keys(), ["b"], "no round since the last mark marked anything");
        insert(&mut cache, "c", 3);
        cache.end_round();
        assert_eq!(cache.keys(), ["c"]);
    }
}
