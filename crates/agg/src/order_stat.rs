//! Order-statistic aggregations and identity (13) of the paper.
//!
//! Remark 6.1 evaluates the 3-ary median through the identity
//!
//! ```text
//! median(a1,a2,a3) = max{ min{a1,a2}, min{a1,a3}, min{a2,a3} }      (13)
//! ```
//!
//! which generalises: the j-th largest of m values equals the maximum over
//! all j-element subsets of the minimum within the subset. That identity is
//! what lets the median be computed in O(√(Nk)) by running algorithm A0'
//! once per subset — see `garlic_core::algorithms::order_stat`.

use crate::grade::Grade;
use crate::traits::Aggregation;

/// The j-th largest argument (1-based): `j = 1` is max, `j = m` is min,
/// `j = ⌈m/2⌉` is the (upper) median for odd `m`.
///
/// Monotone always; strict only when `j = m` (i.e. when it degenerates to
/// min) — which is why Remark 6.1's median escapes the lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KthLargest {
    j: usize,
}

impl KthLargest {
    /// Creates the aggregation selecting the j-th largest argument
    /// (1-based).
    ///
    /// # Panics
    /// Panics if `j == 0`.
    pub fn new(j: usize) -> Self {
        assert!(j >= 1, "order statistic index is 1-based");
        KthLargest { j }
    }

    /// The median order statistic for arity `m`: the ⌈m/2⌉-th largest.
    /// For odd `m` this is the textbook median; for even `m` it is the lower
    /// median, matching [`crate::means::MedianAgg`].
    pub fn median_for_arity(m: usize) -> Self {
        assert!(m >= 1);
        KthLargest { j: m / 2 + 1 }
    }

    /// The 1-based index `j`.
    pub fn j(&self) -> usize {
        self.j
    }
}

impl Aggregation for KthLargest {
    fn name(&self) -> String {
        format!("{}-th-largest", self.j)
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        self.combine_reusing(grades, &mut Vec::new())
    }

    fn combine_reusing(&self, grades: &[Grade], scratch: &mut Vec<Grade>) -> Grade {
        assert!(
            self.j <= grades.len(),
            "{}-th largest of only {} arguments",
            self.j,
            grades.len()
        );
        scratch.clear();
        scratch.extend_from_slice(grades);
        // Select, don't sort: the j-th largest is the (j-1)-th index of the
        // descending order.
        let (_, jth, _) = scratch.select_nth_unstable_by(self.j - 1, |a, b| b.cmp(a));
        *jth
    }

    fn is_strict(&self, arity: usize) -> bool {
        self.j == arity
    }

    fn zero_annihilates(&self, arity: usize) -> bool {
        // Only min (j = m) is forced to zero by a single zero argument.
        self.j == arity
    }
}

/// Evaluates the j-th largest via identity (13): the max over all j-element
/// subsets of the min within the subset. Exponential in general — this is
/// the *specification*, used in tests to validate both [`KthLargest`] and
/// the subset-decomposition algorithm in `garlic-core`.
pub fn kth_largest_via_subsets(j: usize, grades: &[Grade]) -> Grade {
    assert!(j >= 1 && j <= grades.len());
    let mut best = Grade::ZERO;
    for subset in subsets_of_size(grades.len(), j) {
        // `j ≥ 1`, so every subset is non-empty and folding from ONE is its min.
        let min_in_subset = subset
            .iter()
            .map(|&i| grades[i])
            .fold(Grade::ONE, Grade::min);
        best = best.max(min_in_subset);
    }
    best
}

/// All index subsets of `{0, .., n-1}` with exactly `size` elements, in
/// lexicographic order. Used by the order-statistic algorithm decomposition.
pub fn subsets_of_size(n: usize, size: usize) -> Vec<Vec<usize>> {
    assert!(size <= n, "subset size {size} exceeds ground set {n}");
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn recurse(
        n: usize,
        size: usize,
        start: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        // Prune: not enough elements left to finish the subset.
        let needed = size - current.len();
        for i in start..=(n - needed) {
            current.push(i);
            recurse(n, size, i + 1, current, out);
            current.pop();
        }
    }
    if size == 0 {
        out.push(Vec::new());
    } else {
        recurse(n, size, 0, &mut current, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::grade_grid;
    use crate::means::MedianAgg;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    #[test]
    fn kth_largest_selects_correctly() {
        let v = [g(0.2), g(0.9), g(0.5)];
        assert_eq!(KthLargest::new(1).combine(&v), g(0.9));
        assert_eq!(KthLargest::new(2).combine(&v), g(0.5));
        assert_eq!(KthLargest::new(3).combine(&v), g(0.2));
    }

    #[test]
    fn median_for_arity_matches_median_agg() {
        let cases: Vec<Vec<Grade>> = vec![
            vec![g(0.3)],
            vec![g(0.3), g(0.7), g(0.5)],
            vec![g(0.1), g(0.2), g(0.9), g(0.4), g(0.6)],
        ];
        for c in cases {
            let med = KthLargest::median_for_arity(c.len());
            assert_eq!(med.combine(&c), MedianAgg.combine(&c), "arity {}", c.len());
        }
    }

    #[test]
    fn strictness_only_at_min() {
        assert!(!KthLargest::new(1).is_strict(3)); // max
        assert!(!KthLargest::new(2).is_strict(3)); // median
        assert!(KthLargest::new(3).is_strict(3)); // min
    }

    #[test]
    fn identity_13_for_median_of_three() {
        // The paper's stated identity, checked exhaustively on a grid.
        for a in grade_grid(6) {
            for b in grade_grid(6) {
                for c in grade_grid(6) {
                    let v = [a, b, c];
                    assert_eq!(
                        kth_largest_via_subsets(2, &v),
                        KthLargest::new(2).combine(&v),
                        "identity (13) fails at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_generalises_to_all_j() {
        let v = [g(0.15), g(0.95), g(0.4), g(0.7), g(0.55)];
        for j in 1..=v.len() {
            assert_eq!(
                kth_largest_via_subsets(j, &v),
                KthLargest::new(j).combine(&v),
                "j = {j}"
            );
        }
    }

    #[test]
    fn subsets_counting() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(5, 3).len(), 10);
        assert_eq!(subsets_of_size(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets_of_size(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn subsets_are_sorted_and_unique() {
        let subs = subsets_of_size(6, 3);
        for s in &subs {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
        let mut dedup = subs.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), subs.len());
    }
}
