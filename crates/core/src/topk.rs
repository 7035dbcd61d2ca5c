//! Top-k answers.
//!
//! Section 4 defines "the top k answers": k objects with the highest grades,
//! together with those grades; when there are ties, *any* k objects such that
//! every omitted object's grade is no larger than every included one. The
//! tie-tolerant comparison helpers here implement exactly that acceptance
//! criterion, which the test-suite uses to compare every algorithm against
//! the naive baseline.

use garlic_agg::Grade;

use crate::graded_set::GradedEntry;
use crate::object::ObjectId;

/// An entry ordered *worst first* under the skeleton order: a max-heap's
/// top is the weakest of the entries kept, the one a better candidate
/// evicts.
#[derive(PartialEq, Eq)]
pub(crate) struct Worst(pub(crate) GradedEntry);

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.skeleton_cmp(&other.0)
    }
}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A top-k answer: at most `k` `(object, grade)` pairs in descending grade
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    entries: Vec<GradedEntry>,
}

impl TopK {
    /// Wraps entries that are already the chosen answer, sorting them by
    /// descending grade (ties by object id, for deterministic output).
    pub fn from_entries(mut entries: Vec<GradedEntry>) -> Self {
        entries.sort_by(GradedEntry::skeleton_cmp);
        TopK { entries }
    }

    /// Selects the `k` best from candidate `(object, grade)` pairs
    /// (ties broken arbitrarily — here, by ascending object id).
    ///
    /// Runs in `O(n log k)` with a bounded heap of `k` entries instead of
    /// sorting all `n` candidates: the heap is ordered by the same total
    /// `(grade desc, object asc)` key the full sort used, so the selected
    /// entries — including tie order — are bit-identical to sorting and
    /// truncating.
    pub fn select(candidates: impl IntoIterator<Item = (ObjectId, Grade)>, k: usize) -> Self {
        use std::collections::BinaryHeap;

        if k == 0 {
            // Drain the iterator's side effects are irrelevant; empty answer.
            return TopK {
                entries: Vec::new(),
            };
        }
        let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k + 1);
        for (object, grade) in candidates {
            let entry = Worst(GradedEntry { object, grade });
            if heap.len() < k {
                heap.push(entry);
            } else if entry < *heap.peek().expect("heap holds k > 0 entries") {
                heap.pop();
                heap.push(entry);
            }
        }
        // `into_sorted_vec` is ascending in `Worst` order — i.e. best first.
        let entries: Vec<GradedEntry> = heap.into_sorted_vec().into_iter().map(|w| w.0).collect();
        TopK { entries }
    }

    /// Number of answers (== k unless the database was smaller than k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The answers, best first.
    pub fn entries(&self) -> &[GradedEntry] {
        &self.entries
    }

    /// Consumes the answer, returning its entries (best first) without
    /// copying.
    pub fn into_entries(self) -> Vec<GradedEntry> {
        self.entries
    }

    /// The single best answer, if any.
    pub fn best(&self) -> Option<GradedEntry> {
        self.entries.first().copied()
    }

    /// The objects, best first.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.entries.iter().map(|e| e.object).collect()
    }

    /// The grades, best first.
    pub fn grades(&self) -> Vec<Grade> {
        self.entries.iter().map(|e| e.grade).collect()
    }

    /// Tie-tolerant equivalence: two answers are interchangeable iff their
    /// grade sequences agree (Section 4's definition makes the grade
    /// multiset of any valid top-k answer unique even when the object sets
    /// differ).
    pub fn same_grades(&self, other: &TopK, eps: f64) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.grade.approx_eq(b.grade, eps))
    }
}

impl std::fmt::Display for TopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(f, "{:>3}. {}  grade {}", i + 1, e.object, e.grade)?;
        }
        Ok(())
    }
}

/// Errors reported by the query-evaluation algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKError {
    /// `k` was zero.
    ZeroK,
    /// `k` exceeded the database size (the paper assumes `k <= N`).
    KTooLarge {
        /// Requested k.
        k: usize,
        /// Database size.
        n: usize,
    },
    /// No sources were supplied.
    NoSources,
    /// The sources disagree on the database size.
    MismatchedSources {
        /// The sizes observed.
        sizes: Vec<usize>,
    },
    /// The algorithm requires a specific arity (e.g. Ullman's needs m = 2).
    WrongArity {
        /// What the algorithm needs.
        expected: usize,
        /// What it was given.
        actual: usize,
    },
    /// The aggregation function lacks a property the algorithm relies on
    /// (e.g. the filtered strategy needs a zero annihilator).
    UnsupportedAggregation {
        /// Why the aggregation was rejected.
        reason: &'static str,
    },
    /// A source's fallible read path reported a runtime I/O failure (after
    /// its retry policy was exhausted). The engine's partial progress is
    /// preserved: if the failure was transient, the same call can be
    /// retried and resumes where it stopped.
    SourceFailed(crate::access::SourceError),
    /// The engine's cooperative deadline expired between batch rounds. The
    /// engine state is consistent: clearing or extending the deadline and
    /// retrying the call resumes the identical stream.
    DeadlineExceeded,
}

impl std::fmt::Display for TopKError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopKError::ZeroK => write!(f, "k must be at least 1"),
            TopKError::KTooLarge { k, n } => {
                write!(f, "k = {k} exceeds the database size N = {n}")
            }
            TopKError::NoSources => write!(f, "at least one source is required"),
            TopKError::MismatchedSources { sizes } => {
                write!(f, "sources grade different object sets: sizes {sizes:?}")
            }
            TopKError::WrongArity { expected, actual } => {
                write!(f, "algorithm requires m = {expected} sources, got {actual}")
            }
            TopKError::UnsupportedAggregation { reason } => {
                write!(f, "unsupported aggregation function: {reason}")
            }
            TopKError::SourceFailed(e) => write!(f, "{e}"),
            TopKError::DeadlineExceeded => {
                write!(f, "query deadline exceeded between engine batch rounds")
            }
        }
    }
}

impl std::error::Error for TopKError {}

/// Validates the common preconditions shared by all algorithms and returns
/// the database size `N`.
pub(crate) fn validate_inputs<S: crate::access::GradedSource>(
    sources: &[S],
    k: usize,
) -> Result<usize, TopKError> {
    if sources.is_empty() {
        return Err(TopKError::NoSources);
    }
    let n = sources[0].len();
    if sources.iter().any(|s| s.len() != n) {
        return Err(TopKError::MismatchedSources {
            sizes: sources.iter().map(|s| s.len()).collect(),
        });
    }
    if k == 0 {
        return Err(TopKError::ZeroK);
    }
    if k > n {
        return Err(TopKError::KTooLarge { k, n });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemorySource;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    #[test]
    fn select_takes_best() {
        let t = TopK::select(
            [
                (ObjectId(0), g(0.1)),
                (ObjectId(1), g(0.9)),
                (ObjectId(2), g(0.5)),
            ],
            2,
        );
        assert_eq!(t.objects(), vec![ObjectId(1), ObjectId(2)]);
        assert_eq!(t.best().unwrap().grade, g(0.9));
    }

    #[test]
    fn bounded_heap_select_matches_full_sort_including_tie_order() {
        // Many deliberate grade collisions so the k-cut lands inside ties;
        // the heap selection must reproduce the sort-and-truncate answer
        // entry for entry.
        let candidates: Vec<(ObjectId, Grade)> = (0..97u64)
            .map(|i| {
                (
                    ObjectId((i * 31) % 97),
                    Grade::clamped((i % 5) as f64 / 4.0),
                )
            })
            .collect();
        for k in [0, 1, 2, 5, 48, 96, 97, 200] {
            let heap = TopK::select(candidates.iter().copied(), k);
            let mut sorted: Vec<GradedEntry> = candidates
                .iter()
                .map(|&(object, grade)| GradedEntry { object, grade })
                .collect();
            sorted.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.object.cmp(&b.object)));
            sorted.truncate(k);
            assert_eq!(heap.entries(), &sorted[..], "k = {k}");
        }
    }

    #[test]
    fn same_grades_tolerates_object_swaps() {
        let a = TopK::select([(ObjectId(0), g(0.5)), (ObjectId(1), g(0.5))], 1);
        let b = TopK::select([(ObjectId(1), g(0.5)), (ObjectId(2), g(0.5))], 1);
        assert!(a.same_grades(&b, 0.0));
    }

    #[test]
    fn same_grades_detects_mismatch() {
        let a = TopK::select([(ObjectId(0), g(0.5))], 1);
        let b = TopK::select([(ObjectId(0), g(0.6))], 1);
        assert!(!a.same_grades(&b, 1e-9));
        assert!(a.same_grades(&b, 0.2));
    }

    #[test]
    fn validation_errors() {
        let s = vec![MemorySource::from_grades(&[g(0.1), g(0.2)])];
        assert_eq!(validate_inputs(&s, 0), Err(TopKError::ZeroK));
        assert_eq!(
            validate_inputs(&s, 3),
            Err(TopKError::KTooLarge { k: 3, n: 2 })
        );
        assert_eq!(validate_inputs(&s, 2), Ok(2));
        let empty: Vec<MemorySource> = vec![];
        assert_eq!(validate_inputs(&empty, 1), Err(TopKError::NoSources));

        let mismatched = vec![
            MemorySource::from_grades(&[g(0.1), g(0.2)]),
            MemorySource::from_grades(&[g(0.1)]),
        ];
        assert!(matches!(
            validate_inputs(&mismatched, 1),
            Err(TopKError::MismatchedSources { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = format!("{}", TopKError::KTooLarge { k: 5, n: 3 });
        assert!(msg.contains("k = 5"));
        assert!(msg.contains("N = 3"));
    }
}
