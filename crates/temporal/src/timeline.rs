//! Per-`(entity, attribute)` timelines.
//!
//! A timeline records, in validity-start order, every fact ever
//! asserted for one `(entity, attribute)` pair. As-of lookups binary
//! search the start positions and then scan the (usually tiny) run of
//! candidates whose intervals could contain the probe instant.
//!
//! Most timelines are *disjoint*: each interval ends at or before the
//! next one starts, as a cardinality-one attribute's are when every
//! value replaces the last. The store tells a timeline when an insert
//! may break that ([`Timeline::mark_overlapping`]); until then, lookups
//! start at the last entry starting at or before the probe, because no
//! earlier entry can reach past it.

use crate::fact::FactId;
use fenestra_base::time::Timestamp;

/// One timeline entry: where a fact's validity starts, and which fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Validity start of the fact.
    pub start: Timestamp,
    /// The fact in the store arena.
    pub id: FactId,
}

/// Ordered record of all facts for one `(entity, attribute)` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Entries sorted by `start` (ties broken by insertion order).
    entries: Vec<TimelineEntry>,
    /// Whether two intervals may overlap (see the module docs). Never
    /// cleared: a conservative `true` only costs a longer scan.
    overlapping: bool,
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Number of facts ever recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the timeline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a fact starting at `start`, keeping start order. Most
    /// insertions are appends (the engine feeds the store in event-time
    /// order), so we check the tail first.
    pub fn insert(&mut self, start: Timestamp, id: FactId) {
        let entry = TimelineEntry { start, id };
        match self.entries.last() {
            Some(last) if last.start <= start => self.entries.push(entry),
            _ => {
                // Out-of-order insert: place after all entries with
                // start <= new start to preserve insertion order among
                // equal starts.
                let pos = self.entries.partition_point(|e| e.start <= start);
                self.entries.insert(pos, entry);
            }
        }
    }

    /// Remove an entry by fact id (used by GC). Returns whether it was
    /// present.
    pub fn remove(&mut self, id: FactId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// All entries, in start order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Record that an insert may have made two intervals overlap: from
    /// now on, lookups scan every earlier entry.
    pub fn mark_overlapping(&mut self) {
        self.overlapping = true;
    }

    /// Whether every interval ends at or before the next one starts
    /// (as far as the store has told this timeline).
    pub fn is_disjoint(&self) -> bool {
        !self.overlapping
    }

    /// Index of the first entry that can overlap anything at or after
    /// `from`, among the first `end` entries: `0` unless the timeline
    /// is disjoint, then the last entry starting at or before `from`.
    fn first_reaching(&self, from: Timestamp, end: usize) -> usize {
        if self.overlapping {
            return 0;
        }
        let at_or_before = self.entries.partition_point(|e| e.start <= from);
        at_or_before.saturating_sub(1).min(end)
    }

    /// Iterate the fact ids whose validity *could* contain `t`, newest
    /// first: every entry with `start <= t`, or on a disjoint timeline
    /// only the newest of them. The caller still checks
    /// `validity.contains(t)` against the arena (intervals may have
    /// closed before `t`).
    pub fn candidates_at(&self, t: Timestamp) -> impl Iterator<Item = FactId> + '_ {
        let end = self.entries.partition_point(|e| e.start <= t);
        let begin = self.first_reaching(t, end);
        self.entries[begin..end].iter().rev().map(|e| e.id)
    }

    /// The entries whose validity *could* overlap `[from, to)`, in
    /// start order: those starting before `to`, less, on a disjoint
    /// timeline, those ending before the last one starting at or
    /// before `from`.
    pub fn overlapping(&self, from: Timestamp, to: Timestamp) -> &[TimelineEntry] {
        let end = self.entries.partition_point(|e| e.start < to);
        &self.entries[self.first_reaching(from, end)..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    #[test]
    fn append_in_order() {
        let mut tl = Timeline::new();
        tl.insert(ts(1), FactId(0));
        tl.insert(ts(5), FactId(1));
        tl.insert(ts(5), FactId(2));
        tl.insert(ts(9), FactId(3));
        let ids: Vec<u64> = tl.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let mut tl = Timeline::new();
        tl.insert(ts(10), FactId(0));
        tl.insert(ts(5), FactId(1));
        tl.insert(ts(7), FactId(2));
        let starts: Vec<u64> = tl.entries().iter().map(|e| e.start.0).collect();
        assert_eq!(starts, vec![5, 7, 10]);
    }

    #[test]
    fn candidates_at_is_newest_first_and_bounded() {
        let mut tl = Timeline::new();
        tl.mark_overlapping();
        tl.insert(ts(1), FactId(0));
        tl.insert(ts(5), FactId(1));
        tl.insert(ts(9), FactId(2));
        let c: Vec<u64> = tl.candidates_at(ts(6)).map(|f| f.0).collect();
        assert_eq!(c, vec![1, 0], "newest first, excludes starts after t");
        let c: Vec<u64> = tl.candidates_at(ts(0)).map(|f| f.0).collect();
        assert!(c.is_empty());
        let c: Vec<u64> = tl.candidates_at(ts(9)).map(|f| f.0).collect();
        assert_eq!(c, vec![2, 1, 0], "start == t is included");
    }

    #[test]
    fn remove_by_id() {
        let mut tl = Timeline::new();
        tl.insert(ts(1), FactId(7));
        assert!(tl.remove(FactId(7)));
        assert!(!tl.remove(FactId(7)));
        assert!(tl.is_empty());
    }

    #[test]
    fn overlapping_excludes_later_starts() {
        let mut tl = Timeline::new();
        tl.mark_overlapping();
        tl.insert(ts(1), FactId(0));
        tl.insert(ts(5), FactId(1));
        tl.insert(ts(9), FactId(2));
        let c: Vec<u64> = tl
            .overlapping(ts(6), ts(9))
            .iter()
            .map(|e| e.id.0)
            .collect();
        assert_eq!(c, vec![0, 1], "start >= `to` cannot overlap [from, to)");
    }

    #[test]
    fn disjoint_lookups_start_at_the_last_start_at_or_before_the_probe() {
        let mut tl = Timeline::new();
        for (start, id) in [(1, 0), (5, 1), (5, 2), (9, 3)] {
            tl.insert(ts(start), FactId(id));
        }
        assert!(tl.is_disjoint());
        let ids = |es: &[TimelineEntry]| es.iter().map(|e| e.id.0).collect::<Vec<_>>();
        assert_eq!(ids(tl.overlapping(ts(6), ts(20))), vec![2, 3]);
        assert_eq!(ids(tl.overlapping(ts(5), ts(6))), vec![2]);
        assert_eq!(ids(tl.overlapping(ts(4), ts(6))), vec![0, 1, 2]);
        assert_eq!(ids(tl.overlapping(ts(0), ts(6))), vec![0, 1, 2]);
        assert!(tl.overlapping(ts(0), ts(1)).is_empty());
        let c: Vec<u64> = tl.candidates_at(ts(7)).map(|f| f.0).collect();
        assert_eq!(c, vec![2], "only the newest start at or before 7");
        tl.mark_overlapping();
        assert_eq!(ids(tl.overlapping(ts(6), ts(20))), vec![0, 1, 2, 3]);
        let c: Vec<u64> = tl.candidates_at(ts(7)).map(|f| f.0).collect();
        assert_eq!(c, vec![2, 1, 0]);
    }
}
