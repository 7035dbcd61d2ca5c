//! Graded sets — the central semantic object of the paper (Section 2).
//!
//! "A graded set is a set of pairs `(x, g)` where `x` is an object ... and
//! `g` (the grade) is a real number in the interval `[0, 1]`. It is sometimes
//! convenient to think of a graded set as corresponding to a sorted list,
//! where the objects are sorted by their grades. Thus, a graded set is a
//! generalization of both a set and a sorted list."

use garlic_agg::Grade;
use std::collections::HashMap;

use crate::object::ObjectId;

/// One `(object, grade)` pair of a graded set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradedEntry {
    /// The object.
    pub object: ObjectId,
    /// Its grade under the query this set answers.
    pub grade: Grade,
}

impl GradedEntry {
    /// Creates an entry.
    pub fn new(object: impl Into<ObjectId>, grade: Grade) -> Self {
        GradedEntry {
            object: object.into(),
            grade,
        }
    }

    /// The skeleton order: descending grade, ties by ascending object id.
    /// `Less` means `self` ranks before `other` in every sorted stream.
    #[inline]
    pub fn skeleton_cmp(&self, other: &GradedEntry) -> std::cmp::Ordering {
        other
            .grade
            .cmp(&self.grade)
            .then(self.object.cmp(&other.object))
    }
}

/// A graded (fuzzy) set: objects with grades in `[0, 1]`, stored sorted by
/// descending grade (ties broken by ascending object id so iteration order is
/// deterministic — one fixed *skeleton* in the paper's terminology).
///
/// Every object appears at most once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradedSet {
    entries: Vec<GradedEntry>,
}

impl GradedSet {
    /// Builds a graded set from arbitrary-order pairs, sorting by descending
    /// grade (ties by ascending object id).
    ///
    /// # Panics
    /// Panics if an object appears more than once.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ObjectId, Grade)>) -> Self {
        let mut entries: Vec<GradedEntry> = pairs
            .into_iter()
            .map(|(object, grade)| GradedEntry { object, grade })
            .collect();
        entries.sort_by(GradedEntry::skeleton_cmp);
        for w in entries.windows(2) {
            assert_ne!(
                w[0].object, w[1].object,
                "object {} graded twice",
                w[0].object
            );
        }
        GradedSet { entries }
    }

    /// Builds a graded set where object `i`'s grade is `grades[i]`.
    pub fn from_grades(grades: &[Grade]) -> Self {
        GradedSet::from_pairs(
            grades
                .iter()
                .enumerate()
                .map(|(i, &g)| (ObjectId::from(i), g)),
        )
    }

    /// Number of graded objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in descending-grade order.
    pub fn iter(&self) -> impl Iterator<Item = GradedEntry> + '_ {
        self.entries.iter().copied()
    }

    /// Linear-scan lookup of an object's grade. For repeated random access
    /// build an index with [`GradedSet::to_map`] (or use a
    /// [`crate::access::MemorySource`]).
    pub fn grade_of(&self, object: ObjectId) -> Option<Grade> {
        self.entries
            .iter()
            .find(|e| e.object == object)
            .map(|e| e.grade)
    }

    /// The top-`k` prefix — the paper's `X^i_k` projection, with grades.
    pub fn prefix(&self, k: usize) -> &[GradedEntry] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// The full ranking as a slice, best first. This is what native cursors
    /// stream from (one slice copy per batch instead of per-rank lookups).
    pub fn as_slice(&self) -> &[GradedEntry] {
        &self.entries
    }

    /// Hash index from object to grade (for random access).
    pub fn to_map(&self) -> HashMap<ObjectId, Grade> {
        self.entries.iter().map(|e| (e.object, e.grade)).collect()
    }
}

impl FromIterator<(ObjectId, Grade)> for GradedSet {
    fn from_iter<I: IntoIterator<Item = (ObjectId, Grade)>>(iter: I) -> Self {
        GradedSet::from_pairs(iter)
    }
}

impl IntoIterator for GradedSet {
    type Item = GradedEntry;
    type IntoIter = std::vec::IntoIter<GradedEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn sample() -> GradedSet {
        GradedSet::from_pairs([
            (ObjectId(0), g(0.2)),
            (ObjectId(1), g(0.9)),
            (ObjectId(2), g(0.5)),
        ])
    }

    #[test]
    fn sorted_descending() {
        let s = sample();
        assert!(s.as_slice().windows(2).all(|w| w[0].grade >= w[1].grade));
        assert_eq!(s.as_slice()[0].object, ObjectId(1));
        assert_eq!(s.as_slice()[2].object, ObjectId(0));
        assert_eq!(s.as_slice().get(3), None);
    }

    #[test]
    fn ties_break_by_object_id() {
        let s = GradedSet::from_pairs([
            (ObjectId(5), g(0.5)),
            (ObjectId(3), g(0.5)),
            (ObjectId(4), g(0.5)),
        ]);
        let ids: Vec<_> = s.iter().map(|e| e.object).collect();
        assert_eq!(ids, vec![ObjectId(3), ObjectId(4), ObjectId(5)]);
    }

    #[test]
    #[should_panic]
    fn duplicate_objects_rejected() {
        GradedSet::from_pairs([(ObjectId(1), g(0.4)), (ObjectId(1), g(0.6))]);
    }

    #[test]
    fn grade_lookup() {
        let s = sample();
        assert_eq!(s.grade_of(ObjectId(2)), Some(g(0.5)));
        assert_eq!(s.grade_of(ObjectId(9)), None);
        assert_eq!(s.to_map()[&ObjectId(1)], g(0.9));
    }

    #[test]
    fn prefix_clamps() {
        let s = sample();
        assert_eq!(s.prefix(2).len(), 2);
        assert_eq!(s.prefix(10).len(), 3);
        assert_eq!(s.prefix(0).len(), 0);
    }

    #[test]
    fn from_grades_indexes_objects() {
        let s = GradedSet::from_grades(&[g(0.1), g(0.8)]);
        assert_eq!(s.as_slice()[0].object, ObjectId(1));
        assert_eq!(s.len(), 2);
    }
}
