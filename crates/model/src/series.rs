//! The series table both stores keep their streams and series in: a slab
//! of slots found by content.
//!
//! A Loki ingester shard holds its streams here and a TSDB shard its
//! series. A series is found by its label set: the map hashes the set's
//! cached fingerprint and compares pairs, so two sets whose fingerprints
//! collide stay two series. The [`LabelIndex`] names series by slot, and
//! every sweep ([`SeriesTable::iter`], [`SeriesTable::iter_mut`]) walks
//! the slots in order, so a sweep's order is a function of what was
//! inserted and retired, never of a hash.
//!
//! [`SeriesTable::remove`] frees a slot and bumps its generation, so a
//! [`SeriesId`] to a retired series is refused, never resolved to
//! whatever reuses the slot.

use crate::{LabelIndex, LabelSet};
use std::collections::HashMap;

/// Where a series lives: its slot, and the slot's generation when the id
/// was handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId {
    slot: u32,
    generation: u64,
}

/// A place in the slab. Removal empties it, bumps its generation and puts
/// it on the free list.
struct Slot<T> {
    generation: u64,
    series: Option<(LabelSet, T)>,
}

/// Series of one shard, keyed by label set; `T` is what a series holds
/// besides its labels.
pub struct SeriesTable<T> {
    slots: Vec<Slot<T>>,
    /// Empty slots, reused last freed first.
    free: Vec<u32>,
    /// Label set → slot.
    by_labels: HashMap<LabelSet, u32>,
    index: LabelIndex,
}

impl<T> Default for SeriesTable<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            by_labels: HashMap::new(),
            index: LabelIndex::new(),
        }
    }
}

impl<T> SeriesTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live series.
    pub fn len(&self) -> usize {
        self.by_labels.len()
    }

    /// Whether no series is live.
    pub fn is_empty(&self) -> bool {
        self.by_labels.is_empty()
    }

    /// The series with exactly `labels`.
    pub fn find(&self, labels: &LabelSet) -> Option<SeriesId> {
        let &slot = self.by_labels.get(labels)?;
        Some(SeriesId { slot, generation: self.slots[slot as usize].generation })
    }

    /// The series with exactly `labels`, opened with `open()` if it has
    /// none yet.
    pub fn resolve(&mut self, labels: &LabelSet, open: impl FnOnce() -> T) -> (SeriesId, &mut T) {
        let id = match self.find(labels) {
            Some(id) => id,
            None => self.insert(labels.clone(), open()),
        };
        let (_, value) = self.slots[id.slot as usize].series.as_mut().expect("found or inserted");
        (id, value)
    }

    /// Open a series for `labels`, which must not have one yet.
    fn insert(&mut self, labels: LabelSet, value: T) -> SeriesId {
        debug_assert!(!self.by_labels.contains_key(&labels), "one series per label set");
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot { generation: 0, series: None });
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 series per table")
            }
        };
        self.index.insert(&labels, u64::from(slot));
        self.by_labels.insert(labels.clone(), slot);
        let entry = &mut self.slots[slot as usize];
        entry.series = Some((labels, value));
        SeriesId { slot, generation: entry.generation }
    }

    /// The series `id` names, unless it was removed since.
    pub fn get_mut(&mut self, id: SeriesId) -> Option<&mut T> {
        match self.slots.get_mut(id.slot as usize)? {
            Slot { generation, series: Some((_, value)) } if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Retire the series `id` names: out of the map and the index, its
    /// slot freed under a new generation. `None` if it was already gone.
    pub fn remove(&mut self, id: SeriesId) -> Option<(LabelSet, T)> {
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let (labels, value) = slot.series.take()?;
        slot.generation += 1;
        self.index.remove(&labels, u64::from(id.slot));
        self.by_labels.remove(&labels);
        self.free.push(id.slot);
        Some((labels, value))
    }

    /// Every live series, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SeriesId, &LabelSet, &T)> {
        self.slots.iter().zip(0..).filter_map(|(slot, i)| {
            let (labels, value) = slot.series.as_ref()?;
            Some((SeriesId { slot: i, generation: slot.generation }, labels, value))
        })
    }

    /// Every live series for writing, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SeriesId, &LabelSet, &mut T)> {
        self.slots.iter_mut().zip(0..).filter_map(|(slot, i)| {
            let (labels, value) = slot.series.as_mut()?;
            Some((SeriesId { slot: i, generation: slot.generation }, &*labels, value))
        })
    }

    /// The series the index names for a set of equality constraints (see
    /// [`LabelIndex::candidates`]), in slot order. They still have to be
    /// checked against the whole selector.
    pub fn candidates<'a>(
        &self,
        equalities: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> impl Iterator<Item = (&LabelSet, &T)> {
        self.index.candidates(equalities).into_iter().map(|slot| {
            // Index and slab change together: a slot the index names with
            // no series in it is a bug, not a miss.
            let (labels, value) =
                self.slots[slot as usize].series.as_ref().expect("indexed slot is live");
            (labels, value)
        })
    }

    /// The label index over the live series (label browsing, C4's size).
    pub fn index(&self) -> &LabelIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    #[test]
    fn sets_whose_fingerprints_collide_are_two_series() {
        let (a, b) = (labels!("a" => "27d9f96af16d5676"), labels!("a" => "1ba910bbd8e288a5"));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut table = SeriesTable::new();
        let ia = table.resolve(&a, || 1).0;
        assert_eq!(table.find(&b), None);
        let ib = table.resolve(&b, || 2).0;
        assert_ne!(ia, ib);
        assert_eq!((table.find(&a), table.find(&b)), (Some(ia), Some(ib)));
        assert_eq!(table.resolve(&a, || unreachable!()), (ia, &mut 1));
        assert_eq!(table.resolve(&b, || unreachable!()), (ib, &mut 2));
        assert_eq!(table.len(), 2);
        let got: Vec<_> = table.candidates([("a", "1ba910bbd8e288a5")].into_iter()).collect();
        assert_eq!(got, [(&b, &2)]);
    }

    #[test]
    fn a_removed_series_id_is_refused_and_its_slot_reused() {
        let mut table = SeriesTable::new();
        let a = table.resolve(&labels!("s" => "a"), || "a").0;
        let b = table.resolve(&labels!("s" => "b"), || "b").0;
        assert_eq!(table.remove(a), Some((labels!("s" => "a"), "a")));
        assert_eq!(table.remove(a), None, "removed once");
        assert_eq!(table.find(&labels!("s" => "a")), None);
        assert_eq!(table.index().label_values("s"), ["b"]);
        // C takes A's slot; A's id must not reach it.
        let c = table.resolve(&labels!("s" => "c"), || "c").0;
        assert_eq!(table.get_mut(a), None);
        assert_eq!(table.get_mut(c), Some(&mut "c"));
        // Sweeps walk the slots: C sits where A was, before B.
        let order: Vec<_> = table.iter().map(|(id, _, v)| (id, *v)).collect();
        assert_eq!(order, [(c, "c"), (b, "b")]);
        for (_, _, v) in table.iter_mut() {
            *v = "x";
        }
        assert_eq!(table.get_mut(b), Some(&mut "x"));
    }
}
