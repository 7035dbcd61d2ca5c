//! The in-memory write buffer: a sorted memtable over live upserts and
//! tombstone deletes.
//!
//! A [`Memtable`] mirrors the segment layout in RAM, maintaining both
//! region orders the on-disk format keeps: an **id-ordered table**
//! (object → state, where the state is a live grade or a tombstone) for
//! random access, and a **grade-descending skeleton** (descending grade,
//! ties by ascending object id — exactly the paper's sorted-access tie
//! order) over the live entries for sorted access. Both are ordinary
//! B-tree structures, so every upsert and delete is `O(log n)` and the
//! sorted stream falls out by iteration.
//!
//! A memtable serves the full `GradedSource + SetAccess` contract over
//! its *live* entries — tombstones answer random access with a miss and
//! never appear in the sorted stream. Tombstones still matter to the
//! layered merge in [`crate::live`]: a tombstone **shadows** older layers
//! (frozen memtables and the base segment), which is why the table keeps
//! them while the skeleton does not.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, SetAccess, SourceError};
use garlic_core::{GradedEntry, ObjectId};

use crate::wal::WalOp;

/// What a memtable knows about one object it has absorbed a write for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEntry {
    /// The object's current grade.
    Live(Grade),
    /// The object was deleted: shadow any older layer's entry.
    Tombstone,
}

impl MemEntry {
    /// The live grade, if this entry is not a tombstone.
    pub fn grade(self) -> Option<Grade> {
        match self {
            MemEntry::Live(grade) => Some(grade),
            MemEntry::Tombstone => None,
        }
    }
}

/// An in-memory sorted write buffer (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    /// Id-ordered table region: every object this memtable has an opinion
    /// about, tombstones included.
    table: BTreeMap<ObjectId, MemEntry>,
    /// Grade-descending skeleton over live entries only; `Reverse` turns
    /// the B-tree's ascending iteration into descending grades, and the
    /// second key keeps ties in ascending id order.
    skeleton: BTreeSet<(Reverse<Grade>, ObjectId)>,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Applies one logged op, returning the object's previous state in
    /// this memtable (`None` if this is the first write for the object).
    pub fn apply(&mut self, op: WalOp) -> Option<MemEntry> {
        match op {
            WalOp::Upsert { object, grade } => self.upsert(object, grade),
            WalOp::Delete { object } => self.delete(object),
        }
    }

    /// Inserts or overwrites `object`'s grade; returns its previous state.
    pub fn upsert(&mut self, object: ObjectId, grade: Grade) -> Option<MemEntry> {
        let previous = self.table.insert(object, MemEntry::Live(grade));
        if let Some(MemEntry::Live(old)) = previous {
            self.skeleton.remove(&(Reverse(old), object));
        }
        self.skeleton.insert((Reverse(grade), object));
        previous
    }

    /// Tombstones `object`; returns its previous state.
    pub fn delete(&mut self, object: ObjectId) -> Option<MemEntry> {
        let previous = self.table.insert(object, MemEntry::Tombstone);
        if let Some(MemEntry::Live(old)) = previous {
            self.skeleton.remove(&(Reverse(old), object));
        }
        previous
    }

    /// This memtable's state for `object`: a live grade, a tombstone, or
    /// `None` when it holds no write for the object (older layers decide).
    pub fn get(&self, object: ObjectId) -> Option<MemEntry> {
        self.table.get(&object).copied()
    }

    /// Number of objects with *any* state here — live or tombstoned. This
    /// is the freeze-threshold size (it tracks memory), not the graded
    /// length.
    pub fn ops_len(&self) -> usize {
        self.table.len()
    }

    /// Iterates every `(object, state)` pair in ascending id order,
    /// tombstones included — what the layered merge and the compactor
    /// consume.
    pub fn table_iter(&self) -> impl Iterator<Item = (ObjectId, MemEntry)> + '_ {
        self.table.iter().map(|(&object, &state)| (object, state))
    }

    /// Iterates live entries in skeleton order (descending grade,
    /// ascending id).
    pub fn entries_desc(&self) -> impl Iterator<Item = GradedEntry> + '_ {
        self.skeleton
            .iter()
            .map(|&(Reverse(grade), object)| GradedEntry { object, grade })
    }
}

impl GradedSource for Memtable {
    fn len(&self) -> usize {
        self.skeleton.len()
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let before = out.len();
        out.extend(self.entries_desc().skip(start).take(count));
        Ok(out.len() - before)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        out.extend(
            objects
                .iter()
                .map(|&object| self.get(object).and_then(MemEntry::grade)),
        );
        Ok(())
    }
}

impl SetAccess for Memtable {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        // Grade-1 entries are the skeleton's prefix.
        Ok(self
            .entries_desc()
            .take_while(|e| e.grade == Grade::ONE)
            .map(|e| e.object)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    #[test]
    fn serves_the_skeleton_tie_order() {
        let mut mem = Memtable::new();
        mem.upsert(ObjectId(5), g(0.5));
        mem.upsert(ObjectId(1), g(0.9));
        mem.upsert(ObjectId(3), g(0.5));
        mem.upsert(ObjectId(0), g(0.0));
        let stream: Vec<_> = mem.entries_desc().collect();
        let objects: Vec<u64> = stream.iter().map(|e| e.object.0).collect();
        // Descending grade; the 0.5 tie breaks by ascending id.
        assert_eq!(objects, vec![1, 3, 5, 0]);
        assert_eq!(mem.sorted_access(1).unwrap().object, ObjectId(3));
        let mut batch = Vec::new();
        assert_eq!(mem.sorted_batch(1, 2, &mut batch), 2);
        assert_eq!(batch, stream[1..3]);
    }

    #[test]
    fn upsert_overwrites_and_delete_tombstones() {
        let mut mem = Memtable::new();
        assert_eq!(mem.upsert(ObjectId(2), g(0.4)), None);
        assert_eq!(
            mem.upsert(ObjectId(2), g(0.8)),
            Some(MemEntry::Live(g(0.4)))
        );
        assert_eq!(mem.len(), 1, "an overwrite is not a second entry");
        assert_eq!(mem.random_access(ObjectId(2)), Some(g(0.8)));
        assert_eq!(mem.delete(ObjectId(2)), Some(MemEntry::Live(g(0.8))));
        assert_eq!(mem.random_access(ObjectId(2)), None);
        assert_eq!(mem.get(ObjectId(2)), Some(MemEntry::Tombstone));
        assert_eq!(mem.len(), 0);
        assert_eq!(mem.ops_len(), 1, "the tombstone still occupies the table");
        // Deleting an object the memtable never saw records the shadow.
        assert_eq!(mem.delete(ObjectId(9)), None);
        assert_eq!(mem.get(ObjectId(9)), Some(MemEntry::Tombstone));
    }

    #[test]
    fn matching_set_is_the_grade_one_prefix() {
        let mut mem = Memtable::new();
        mem.upsert(ObjectId(4), Grade::ONE);
        mem.upsert(ObjectId(2), g(0.5));
        mem.upsert(ObjectId(1), Grade::ONE);
        assert_eq!(mem.matching_set(), vec![ObjectId(1), ObjectId(4)]);
    }
}
