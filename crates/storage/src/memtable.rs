//! The in-memory write buffer: one id-ordered table of live upserts and
//! tombstone deletes.
//!
//! A [`Memtable`] keeps a single order, the id order the WAL replay, the
//! layered merge in [`crate::live`] and the compactor all consume: object
//! → state, where the state is a live grade or a tombstone. Every upsert
//! and delete is one `O(log n)` B-tree insert. Nothing reads a memtable in
//! grade order; the snapshot sorts the combined overlay of every layer
//! once, when it is built.
//!
//! Tombstones are kept because they **shadow** older layers (frozen
//! memtables and the base segment).

use std::collections::BTreeMap;

use garlic_agg::Grade;
use garlic_core::ObjectId;

use crate::wal::WalOp;

/// What a memtable knows about one object it has absorbed a write for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemEntry {
    /// The object's current grade.
    Live(Grade),
    /// The object was deleted: shadow any older layer's entry.
    Tombstone,
}

impl MemEntry {
    /// The live grade, if this entry is not a tombstone.
    pub(crate) fn grade(self) -> Option<Grade> {
        match self {
            MemEntry::Live(grade) => Some(grade),
            MemEntry::Tombstone => None,
        }
    }
}

/// An in-memory write buffer (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    /// Every object this memtable has an opinion about, tombstones
    /// included, in ascending id order.
    table: BTreeMap<ObjectId, MemEntry>,
}

impl Memtable {
    /// Applies one logged op, returning the object's previous state in
    /// this memtable (`None` if this is the first write for the object).
    pub(crate) fn apply(&mut self, op: WalOp) -> Option<MemEntry> {
        let state = match op {
            WalOp::Upsert { grade, .. } => MemEntry::Live(grade),
            WalOp::Delete { .. } => MemEntry::Tombstone,
        };
        self.table.insert(op.object(), state)
    }

    /// This memtable's state for `object`: a live grade, a tombstone, or
    /// `None` when it holds no write for the object (older layers decide).
    pub(crate) fn get(&self, object: ObjectId) -> Option<MemEntry> {
        self.table.get(&object).copied()
    }

    /// Number of objects with *any* state here — live or tombstoned. This
    /// is the freeze-threshold size (it tracks memory), not the graded
    /// length.
    pub(crate) fn ops_len(&self) -> usize {
        self.table.len()
    }

    /// Iterates every `(object, state)` pair in ascending id order,
    /// tombstones included — what the layered merge and the compactor
    /// consume.
    pub(crate) fn table_iter(&self) -> impl Iterator<Item = (ObjectId, MemEntry)> + '_ {
        self.table.iter().map(|(&object, &state)| (object, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn upsert(object: u64, grade: Grade) -> WalOp {
        WalOp::Upsert {
            object: ObjectId(object),
            grade,
        }
    }

    fn delete(object: u64) -> WalOp {
        WalOp::Delete {
            object: ObjectId(object),
        }
    }

    #[test]
    fn upsert_overwrites_and_delete_tombstones() {
        let mut mem = Memtable::default();
        assert_eq!(mem.apply(upsert(2, g(0.4))), None);
        assert_eq!(mem.apply(upsert(2, g(0.8))), Some(MemEntry::Live(g(0.4))));
        assert_eq!(mem.get(ObjectId(2)), Some(MemEntry::Live(g(0.8))));
        assert_eq!(mem.ops_len(), 1, "an overwrite is not a second entry");
        assert_eq!(mem.apply(delete(2)), Some(MemEntry::Live(g(0.8))));
        assert_eq!(mem.get(ObjectId(2)), Some(MemEntry::Tombstone));
        assert_eq!(mem.ops_len(), 1, "the tombstone still occupies the table");
        // Deleting an object the memtable never saw records the shadow.
        assert_eq!(mem.apply(delete(9)), None);
        assert_eq!(mem.get(ObjectId(9)), Some(MemEntry::Tombstone));
    }
}
