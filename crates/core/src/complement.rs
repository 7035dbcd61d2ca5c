//! Negated atomic queries as ranked sources.
//!
//! Section 7 observes that for the negation `¬Q` under the standard rule
//! `μ_{¬Q}(x) = 1 − μ_Q(x)`, the sorted order of `¬Q` is exactly the
//! *reverse* of the sorted order of `Q` ("the top object according to the
//! permutation π_Q is the bottom object according to π_{¬Q}").
//!
//! [`ComplementSource`] implements that observation as an adapter: it turns
//! any [`GradedSource`] for `Q` into a full sorted/random-access source for
//! `¬Q` at zero extra storage. Combined with negation-normal form (see
//! `garlic-middleware`), this lets algorithm A₀ evaluate *any* Boolean
//! query whose negations sit on atoms — including the provably hard
//! `Q ∧ ¬Q`, where A₀ is correct but necessarily linear (Theorem 7.1).

use garlic_agg::Grade;

use crate::access::{GradedSource, SourceError};
use crate::graded_set::GradedEntry;
use crate::object::ObjectId;

/// The graded source of `¬Q`, derived from the source of `Q`: grades are
/// complemented, sorted access runs the underlying list backwards.
///
/// Each sorted access here costs one sorted access on the underlying list
/// (the subsystem streams from its bottom); each random access costs one
/// random access. The Section 5 cost model is therefore preserved
/// one-to-one, which is what makes Theorem 7.1's lower bound meaningful
/// for this adapter.
#[derive(Debug, Clone)]
pub struct ComplementSource<S> {
    inner: S,
}

impl<S: GradedSource> ComplementSource<S> {
    /// Wraps the source of `Q` as the source of `¬Q`.
    pub fn new(inner: S) -> Self {
        ComplementSource { inner }
    }

    /// The underlying source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: GradedSource> GradedSource for ComplementSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    /// One batched read of the *tail* of the underlying list, emitted in
    /// reverse with complemented grades: the worst object under Q is the
    /// best under ¬Q.
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let n = self.inner.len();
        if start >= n {
            return Ok(0);
        }
        let take = count.min(n - start);
        // Complement ranks [start, start + take) are inner ranks
        // (n - start - take, n - start], walked backwards.
        let mut tail = Vec::with_capacity(take);
        let got = self
            .inner
            .try_sorted_batch(n - start - take, take, &mut tail)?;
        debug_assert_eq!(got, take, "inner list advertised {n} entries");
        out.extend(tail.iter().rev().map(|e| GradedEntry {
            object: e.object,
            grade: e.grade.complement(),
        }));
        Ok(take)
    }

    /// One batched probe of the underlying list, complementing the hits in
    /// place — so a block-grouping inner source (e.g. a disk segment) keeps
    /// its one-fetch-per-block plan under negation.
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        let base = out.len();
        self.inner.try_random_batch(objects, out)?;
        for grade in &mut out[base..] {
            *grade = grade.map(Grade::complement);
        }
        Ok(())
    }

    // The reversed stream cannot translate a bound to the inner list's
    // orientation block-for-block, so bounded reads keep the trait's
    // chunked default over `try_sorted_batch`.

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemorySource;
    use crate::algorithms::fa::fagin_topk;
    use crate::algorithms::naive::naive_topk;
    use garlic_agg::iterated::min_agg;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn base() -> MemorySource {
        MemorySource::from_grades(&[g(0.9), g(0.2), g(0.6), g(0.4)])
    }

    #[test]
    fn sorted_access_is_reversed_and_complemented() {
        let c = ComplementSource::new(base());
        // Base sorted order: 0(.9), 2(.6), 3(.4), 1(.2).
        // Complement order: 1(.8), 3(.6), 2(.4), 0(.1).
        let order: Vec<(u64, f64)> = (0..4)
            .map(|r| {
                let e = c.sorted_access(r).unwrap();
                (e.object.0, e.grade.value())
            })
            .collect();
        assert_eq!(order[0].0, 1);
        assert!((order[0].1 - 0.8).abs() < 1e-12);
        assert_eq!(order[3].0, 0);
        assert!((order[3].1 - 0.1).abs() < 1e-12);
        assert_eq!(c.sorted_access(4), None);
    }

    #[test]
    fn complement_grades_descend() {
        let c = ComplementSource::new(base());
        let grades: Vec<Grade> = (0..4).map(|r| c.sorted_access(r).unwrap().grade).collect();
        assert!(grades.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn batched_streaming_matches_positional_reversal() {
        let c = ComplementSource::new(base());
        for batch_size in 1..=5 {
            let mut cursor = crate::access::SortedCursor::new(&c);
            let mut streamed = Vec::new();
            while cursor.next_batch(&mut streamed, batch_size) > 0 {}
            let positional: Vec<GradedEntry> =
                (0..4).map(|r| c.sorted_access(r).unwrap()).collect();
            assert_eq!(streamed, positional, "batch size {batch_size}");
        }
    }

    #[test]
    fn random_access_complements() {
        let c = ComplementSource::new(base());
        assert!(c
            .random_access(ObjectId(0))
            .unwrap()
            .approx_eq(g(0.1), 1e-12));
        assert_eq!(c.random_access(ObjectId(99)), None);
    }

    #[test]
    fn batched_random_access_complements_like_the_per_object_path() {
        let c = ComplementSource::new(base());
        let probes = [ObjectId(0), ObjectId(99), ObjectId(2), ObjectId(0)];
        let mut batched = Vec::new();
        c.random_batch(&probes, &mut batched);
        let looped: Vec<Option<Grade>> = probes.iter().map(|&p| c.random_access(p)).collect();
        assert_eq!(batched, looped);
    }

    #[test]
    fn double_complement_is_identity() {
        let cc = ComplementSource::new(ComplementSource::new(base()));
        for r in 0..4 {
            let orig = base().sorted_access(r).unwrap();
            let twice = cc.sorted_access(r).unwrap();
            assert_eq!(orig.object, twice.object);
            assert!(orig.grade.approx_eq(twice.grade, 1e-12));
        }
    }

    #[test]
    fn hard_query_via_complement_matches_semantics() {
        // Q ∧ ¬Q over the complement adapter: the winner is the object
        // with grade closest to 1/2 (here object 2, min(.6, .4) = .4).
        let q = base();
        let not_q = ComplementSource::new(base());
        let sources: Vec<Box<dyn GradedSource>> = vec![Box::new(q), Box::new(not_q)];
        let fast = fagin_topk(&sources, &min_agg(), 1).unwrap();
        let slow = naive_topk(&sources, &min_agg(), 1).unwrap();
        assert!(fast.same_grades(&slow, 1e-12));
        assert_eq!(fast.best().unwrap().object, ObjectId(2));
        assert!(fast.best().unwrap().grade.approx_eq(g(0.4), 1e-12));
    }
}
