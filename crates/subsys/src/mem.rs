//! A precomputed in-memory subsystem: one materialised graded list per
//! attribute.
//!
//! The paper's model only requires that a subsystem expose each subquery's
//! graded set through sorted and random access; *how* the grades came to be
//! is the subsystem's business. [`VectorSubsystem`] is the degenerate —
//! and, for workloads and benchmarks, the most useful — case: the grades
//! are computed ahead of time and evaluation is a handle clone.
//!
//! It is also the type that shows off the owned answer API: `evaluate`
//! returns `Arc::clone` of the materialised ranking, so a thousand
//! concurrent queries over the same attribute share one allocation instead
//! of regrading the universe per query.

use std::collections::BTreeMap;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource, SetAccess};
use garlic_core::ShardedSource;

use crate::api::{AtomicQuery, Subsystem, SubsystemError};

/// One registered ranking: its owned answer handle (one `Arc`, upcast to
/// a plain graded list for `evaluate`) plus statistics precomputed at
/// registration (crispness gates set access; the exact-match count is
/// planner selectivity). All are O(N) to derive, so they are derived once
/// here, not per query.
#[derive(Clone)]
struct AttributeList {
    set: Arc<dyn SetAccess>,
    crisp: bool,
    ones: usize,
}

impl AttributeList {
    fn new(source: MemorySource) -> Self {
        let (crisp, ones) = list_stats(source.graded_set().iter().map(|e| e.grade));
        AttributeList {
            set: Arc::new(source),
            crisp,
            ones,
        }
    }
}

impl std::fmt::Debug for AttributeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttributeList")
            .field("len", &self.set.len())
            .field("crisp", &self.crisp)
            .field("ones", &self.ones)
            .finish()
    }
}

/// One registration-time pass over the grades: crispness fails at the
/// first fractional grade, and the grade-1 count is the exact-match count.
fn list_stats(grades: impl Iterator<Item = Grade>) -> (bool, usize) {
    let mut crisp = true;
    let mut ones = 0usize;
    for grade in grades {
        crisp &= grade.is_crisp();
        if grade == Grade::ONE {
            ones += 1;
        }
    }
    (crisp, ones)
}

/// A subsystem serving precomputed graded lists, keyed by attribute.
///
/// The atomic query's *target* is deliberately ignored: each attribute has
/// exactly one ranking, fixed at construction. That matches how the
/// workload generators of `garlic-workload` produce independent or
/// correlated lists for the Section 5 experiments.
#[derive(Debug, Clone)]
pub struct VectorSubsystem {
    name: String,
    universe: usize,
    lists: BTreeMap<String, AttributeList>,
}

impl VectorSubsystem {
    /// An empty subsystem over a universe of `universe` objects.
    pub fn new(name: &str, universe: usize) -> Self {
        VectorSubsystem {
            name: name.to_owned(),
            universe,
            lists: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) the ranking of `attribute`.
    ///
    /// # Panics
    /// Panics if `grades.len()` differs from the universe size.
    pub fn with_list(mut self, attribute: &str, grades: &[Grade]) -> Self {
        assert_eq!(
            grades.len(),
            self.universe,
            "list length must match the universe size"
        );
        self.lists.insert(
            attribute.to_owned(),
            AttributeList::new(MemorySource::from_grades(grades)),
        );
        self
    }

    /// Adds (or replaces) the ranking of `attribute` from a prebuilt source.
    ///
    /// # Panics
    /// Panics if the source's length differs from the universe size.
    pub fn with_source(mut self, attribute: &str, source: MemorySource) -> Self {
        assert_eq!(
            source.len(),
            self.universe,
            "source length must match the universe size"
        );
        self.lists
            .insert(attribute.to_owned(), AttributeList::new(source));
        self
    }

    /// Adds (or replaces) the ranking of `attribute` as a
    /// [`ShardedSource`] over `shards` contiguous object-id ranges —
    /// observably identical to [`with_list`](Self::with_list) over the
    /// same grades (entries, tie order, billed accesses), but served by a
    /// k-way merge that reads each shard only as deep as the merged
    /// prefix needs (threshold early termination).
    ///
    /// # Panics
    /// Panics if `grades.len()` differs from the universe size, the
    /// universe is empty, or `shards` is zero.
    pub fn with_sharded_list(mut self, attribute: &str, grades: &[Grade], shards: usize) -> Self {
        assert_eq!(
            grades.len(),
            self.universe,
            "list length must match the universe size"
        );
        let (crisp, ones) = list_stats(grades.iter().copied());
        let set = Arc::new(ShardedSource::from_grades(grades, shards));
        self.lists
            .insert(attribute.to_owned(), AttributeList { set, crisp, ones });
        self
    }
}

impl Subsystem for VectorSubsystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<String> {
        self.lists.keys().cloned().collect()
    }

    fn universe_size(&self) -> usize {
        self.universe
    }

    /// Evaluation is an `Arc::clone` of the materialised ranking — no
    /// regrading, no copying, shared by every concurrent caller.
    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        self.lists
            .get(&query.attribute)
            .map(|list| Arc::clone(&list.set) as Arc<dyn GradedSource>)
            .ok_or_else(|| SubsystemError::UnknownAttribute {
                attribute: query.attribute.clone(),
                subsystem: self.name.clone(),
            })
    }

    /// Crispness is precomputed at registration, so a list of 0/1 grades
    /// (a materialised classical predicate) is planner-visible as crisp —
    /// the same contract [`crate::disk::DiskSubsystem`] reads from its
    /// segment footers.
    fn is_crisp(&self, attribute: &str) -> bool {
        self.lists.get(attribute).is_some_and(|l| l.crisp)
    }

    fn evaluate_set(&self, query: &AtomicQuery) -> Result<Arc<dyn SetAccess>, SubsystemError> {
        let list =
            self.lists
                .get(&query.attribute)
                .ok_or_else(|| SubsystemError::UnknownAttribute {
                    attribute: query.attribute.clone(),
                    subsystem: self.name.clone(),
                })?;
        if !list.crisp {
            return Err(SubsystemError::Unsupported {
                reason: format!(
                    "{}.{} is not crisp, so it offers no set access",
                    self.name, query.attribute
                ),
            });
        }
        Ok(Arc::clone(&list.set))
    }

    /// The exact grade-1 count, precomputed at registration.
    fn estimate_matches(&self, query: &AtomicQuery) -> Option<usize> {
        self.lists.get(&query.attribute).map(|l| l.ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Target;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn subsystem() -> VectorSubsystem {
        VectorSubsystem::new("mem", 3)
            .with_list("A", &[g(0.1), g(0.9), g(0.5)])
            .with_list("B", &[g(0.7), g(0.2), g(0.4)])
    }

    #[test]
    fn serves_its_attributes() {
        let s = subsystem();
        assert_eq!(s.attributes(), vec!["A".to_owned(), "B".to_owned()]);
        assert_eq!(s.universe_size(), 3);
        let src = s
            .evaluate(&AtomicQuery::new("A", Target::text("anything")))
            .unwrap();
        assert_eq!(src.len(), 3);
        assert_eq!(src.sorted_access(0).unwrap().object.0, 1);
        assert!(s
            .evaluate(&AtomicQuery::new("C", Target::text("x")))
            .is_err());
    }

    #[test]
    fn answer_handles_serve_batched_random_access() {
        // The Arc<dyn GradedSource> handle must route random_batch to the
        // concrete source (positionally aligned, misses included), so the
        // engine's batched completion works through subsystem answers.
        let s = subsystem();
        let src = s
            .evaluate(&AtomicQuery::new("A", Target::text("t")))
            .unwrap();
        use garlic_core::ObjectId;
        let probes = [ObjectId(1), ObjectId(9), ObjectId(0), ObjectId(1)];
        let mut batched = Vec::new();
        src.random_batch(&probes, &mut batched);
        let looped: Vec<_> = probes.iter().map(|&p| src.random_access(p)).collect();
        assert_eq!(batched, looped);
        assert_eq!(batched[1], None);
    }

    #[test]
    fn evaluation_shares_one_allocation() {
        let s = subsystem();
        let q = AtomicQuery::new("A", Target::text("t"));
        let a = s.evaluate(&q).unwrap();
        let b = s.evaluate(&q).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "answers are clones of one handle");
    }

    #[test]
    #[should_panic(expected = "universe size")]
    fn mismatched_list_length_panics() {
        let _ = VectorSubsystem::new("mem", 3).with_list("A", &[g(0.1)]);
    }

    #[test]
    fn sharded_lists_answer_identically_to_flat_lists() {
        let grades: Vec<Grade> = (0..97).map(|i| g((i % 7) as f64 / 6.0)).collect();
        let flat = VectorSubsystem::new("mem", 97).with_list("A", &grades);
        let q = AtomicQuery::new("A", Target::text("t"));
        let want = flat.evaluate(&q).unwrap();
        for shards in [1, 2, 3, 7] {
            let sharded = VectorSubsystem::new("mem", 97).with_sharded_list("A", &grades, shards);
            let got = sharded.evaluate(&q).unwrap();
            assert_eq!(got.len(), want.len());
            let mut a = Vec::new();
            let mut b = Vec::new();
            got.sorted_batch(0, 97, &mut a);
            want.sorted_batch(0, 97, &mut b);
            assert_eq!(a, b, "S={shards}: entries and tie order");
            use garlic_core::ObjectId;
            let probes: Vec<ObjectId> = (0..100u64).map(ObjectId).collect();
            let mut pa = Vec::new();
            let mut pb = Vec::new();
            got.random_batch(&probes, &mut pa);
            want.random_batch(&probes, &mut pb);
            assert_eq!(pa, pb, "S={shards}: fence-routed probes");
            assert_eq!(
                sharded.estimate_matches(&q),
                flat.estimate_matches(&q),
                "S={shards}"
            );
        }
    }

    #[test]
    fn sharded_crisp_lists_serve_set_access() {
        let grades: Vec<Grade> = (0..20).map(|i| Grade::from_bool(i % 3 == 0)).collect();
        let s = VectorSubsystem::new("mem", 20).with_sharded_list("K", &grades, 4);
        assert!(s.is_crisp("K"));
        let q = AtomicQuery::new("K", Target::text("t"));
        let mut set = s.evaluate_set(&q).unwrap().matching_set();
        set.sort();
        let expect: Vec<garlic_core::ObjectId> = (0..20)
            .filter(|i| i % 3 == 0)
            .map(|i| garlic_core::ObjectId(i as u64))
            .collect();
        assert_eq!(set, expect);
        assert_eq!(s.estimate_matches(&q), Some(expect.len()));
    }

    #[test]
    fn crisp_lists_serve_set_access() {
        let s = VectorSubsystem::new("mem", 3)
            .with_list("Fuzzy", &[g(0.1), g(0.9), g(0.5)])
            .with_list("Crisp", &[g(1.0), g(0.0), g(1.0)]);
        assert!(s.is_crisp("Crisp"));
        assert!(!s.is_crisp("Fuzzy"));
        assert!(!s.is_crisp("Missing"));
        let set = s
            .evaluate_set(&AtomicQuery::new("Crisp", Target::text("t")))
            .unwrap();
        use garlic_core::ObjectId;
        assert_eq!(set.matching_set(), vec![ObjectId(0), ObjectId(2)]);
        assert!(matches!(
            s.evaluate_set(&AtomicQuery::new("Fuzzy", Target::text("t"))),
            Err(SubsystemError::Unsupported { .. })
        ));
        assert_eq!(
            s.estimate_matches(&AtomicQuery::new("Crisp", Target::text("t"))),
            Some(2)
        );
        assert_eq!(
            s.estimate_matches(&AtomicQuery::new("Fuzzy", Target::text("t"))),
            Some(0)
        );
    }
}
