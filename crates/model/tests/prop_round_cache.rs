//! The round-evicting cache is a plain map plus explicit seen-marks. A
//! [`RoundCache`] of a random horizon and a reference — a `BTreeMap` from
//! key to value and the rounds since the key's last mark, and a flag for
//! whether the round marked anything — take the same ops: hits (which bump
//! the value they find, as a caller refreshing a series ref does), inserts
//! (fresh and over a held key), ended rounds and abandoned rounds. Every
//! hit must return what the reference holds, and after every op the held
//! keys must be the reference's.
//!
//! Keys include the empty string, a prefix of another key and keys holding
//! a NUL, as the callers' composite keys do.
//!
//! Mutations this catches: an end of round that evicts after a round that
//! marked nothing, one that keeps unmarked entries, an abandoned round that
//! evicts, a miss that marks, an insert that is not marked seen, marks that
//! outlive their round, a horizon off by one either way.

use omni_model::RoundCache;
use proptest::prelude::*;
use std::collections::BTreeMap;

const KEYS: [&str; 6] = ["", "a", "ab", "a\0b", "syslog\0nid0001", "\0"];

/// The reference: key → (value, rounds ended since its last mark), the
/// rounds an entry outlives its last mark, and whether the round marked
/// anything.
struct Model {
    entries: BTreeMap<&'static str, (u32, u64)>,
    horizon: u64,
    touched: bool,
}

impl Model {
    fn hit(&mut self, key: &'static str) -> Option<u32> {
        let (value, idle) = self.entries.get_mut(key)?;
        *value += 1;
        *idle = 0;
        self.touched = true;
        Some(*value)
    }

    fn insert(&mut self, key: &'static str, value: u32) {
        self.entries.insert(key, (value, 0));
        self.touched = true;
    }

    fn end_round(&mut self, evict: bool) {
        if evict && self.touched {
            let horizon = self.horizon;
            self.entries.retain(|_, (_, idle)| *idle < horizon);
        }
        for (_, idle) in self.entries.values_mut() {
            *idle += 1;
        }
        self.touched = false;
    }

    fn keys(&self) -> Vec<String> {
        self.entries.keys().map(|k| k.to_string()).collect()
    }
}

fn held(cache: &RoundCache<u32>) -> Vec<String> {
    cache.keys().into_iter().map(str::to_string).collect()
}

proptest! {
    /// An op is `(kind, key, value)`: 0–3 a hit, 4–5 an insert, 6 ends the
    /// round, 7 abandons it.
    #[test]
    fn the_cache_is_a_map_with_seen_marks(
        horizon in 1u64..5,
        ops in prop::collection::vec((0u8..8, 0usize..6, 0u32..1_000), 1..120),
    ) {
        let mut cache =
            if horizon == 1 { RoundCache::new() } else { RoundCache::with_horizon(horizon) };
        let mut model = Model { entries: BTreeMap::new(), horizon, touched: false };
        for (i, &(kind, k, value)) in ops.iter().enumerate() {
            let key = KEYS[k];
            match kind {
                0..=3 => {
                    cache.key().push_str(key);
                    let got = cache.hit().map(|v| {
                        *v += 1;
                        *v
                    });
                    prop_assert_eq!(got, model.hit(key), "op {} {:?}", i, ops[i]);
                }
                4 | 5 => {
                    cache.key().push_str(key);
                    prop_assert_eq!(*cache.insert(value), value);
                    model.insert(key, value);
                }
                6 => {
                    cache.end_round();
                    model.end_round(true);
                }
                _ => {
                    cache.abandon_round();
                    model.end_round(false);
                }
            }
            prop_assert_eq!(held(&cache), model.keys(), "op {} {:?}", i, ops[i]);
        }
    }
}
