//! Ullman's algorithm (Section 9) — exploiting extra distributional
//! knowledge for `m = 2`, `t = min`.
//!
//! Stream list 1 under sorted access; probe list 2 by random access for each
//! object as it appears; stop as soon as an object's list-2 grade is at
//! least its list-1 grade. No unseen object can then beat the best object
//! seen, because unseen objects have list-1 grade (hence overall grade)
//! bounded by the current stream grade.
//!
//! The performance depends on the grade distributions (the paper's whole
//! point — Section 9 is about how *additional assumptions* change the
//! optimal strategy):
//!
//! * list-1 grades bounded above by, say, 0.9 and list-2 grades uniform →
//!   expected **constant** cost (≈ 10 objects for the 0.9 bound);
//! * both lists uniform → Θ(√N) expected cost (Ariel Landau's analysis),
//!   i.e. no better than A₀.
//!
//! Experiment E09 reproduces both regimes.

use std::collections::BinaryHeap;

use garlic_agg::Grade;

use crate::access::GradedSource;
use crate::graded_set::GradedEntry;
use crate::object::ObjectId;
use crate::topk::{validate_inputs, TopK, TopKError, Worst};

/// Diagnostics from a run of Ullman's algorithm.
#[derive(Debug, Clone)]
pub struct UllmanRun {
    /// The top-k answers.
    pub topk: TopK,
    /// How many objects were streamed from list 1 before stopping.
    pub probes: usize,
}

/// Ullman's algorithm exactly as stated in Section 9 (top-1 only):
/// stop at the first object whose list-2 grade reaches its list-1 grade.
pub fn ullman_top1<S>(sources: &[S]) -> Result<TopK, TopKError>
where
    S: GradedSource,
{
    require_two(sources)?;
    let n = validate_inputs(sources, 1)?;

    let mut best: Option<(ObjectId, Grade)> = None;
    for rank in 0..n {
        let (entry, g2) = step(sources, rank)?;
        let overall = entry.grade.min(g2);
        if best.is_none_or(|(_, g)| overall > g) {
            best = Some((entry.object, overall));
        }
        // "Stop if and when an object x is found such that μ_{A2}(x) >= μ_{A1}(x)."
        if g2 >= entry.grade {
            break;
        }
    }
    let (object, grade) = best.expect("N >= 1");
    Ok(TopK::select([(object, grade)], 1))
}

/// The natural top-k generalisation (the paper notes "it is easy to see how
/// to modify this algorithm to obtain the top k answers"): stop once `k`
/// seen objects have overall grades at least the current list-1 stream
/// grade — no unseen object can beat them.
pub fn ullman_topk<S>(sources: &[S], k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
{
    ullman_run(sources, k).map(|run| run.topk)
}

/// [`ullman_topk`] with diagnostics. The k best seen objects live in a
/// k-entry heap, so `n` probes cost `O(n log k)` bookkeeping.
pub fn ullman_run<S>(sources: &[S], k: usize) -> Result<UllmanRun, TopKError>
where
    S: GradedSource,
{
    require_two(sources)?;
    let n = validate_inputs(sources, k)?;

    // The k best seen so far in the skeleton order `TopK::select` uses,
    // worst on top — so the answer is the one a selection over everything
    // seen would make, and the k-th best grade is one peek.
    let mut best: BinaryHeap<Worst> = BinaryHeap::with_capacity(k);
    let mut probes = 0;
    for rank in 0..n {
        let (entry, g2) = step(sources, rank)?;
        probes += 1;
        let seen = Worst(GradedEntry::new(entry.object, entry.grade.min(g2)));
        if best.len() < k {
            best.push(seen);
        } else if let Some(mut worst) = best.peek_mut().filter(|worst| seen < **worst) {
            *worst = seen;
        }

        // Threshold: unseen objects have list-1 grade <= entry.grade, so
        // overall grade <= entry.grade; stop once k seen objects reach it.
        let kth = best.peek().filter(|_| best.len() == k);
        if kth.is_some_and(|Worst(kth)| kth.grade >= entry.grade) {
            break;
        }
    }
    let seen = best.into_iter().map(|Worst(e)| (e.object, e.grade));
    Ok(UllmanRun {
        topk: TopK::select(seen, k),
        probes,
    })
}

/// One step of Section 9's stream through the fallible batched core: list
/// 1's entry at `rank` (one sorted access) and that object's list-2 grade
/// (one random access; a miss grades zero, as in the engine).
fn step<S: GradedSource>(sources: &[S], rank: usize) -> Result<(GradedEntry, Grade), TopKError> {
    let (mut entry, mut grade) = (Vec::with_capacity(1), Vec::with_capacity(1));
    sources[0]
        .try_sorted_batch(rank, 1, &mut entry)
        .map_err(TopKError::SourceFailed)?;
    let entry: GradedEntry = *entry.first().expect("rank < N");
    sources[1]
        .try_random_batch(&[entry.object], &mut grade)
        .map_err(TopKError::SourceFailed)?;
    Ok((entry, grade[0].unwrap_or(Grade::ZERO)))
}

fn require_two<S: GradedSource>(sources: &[S]) -> Result<(), TopKError> {
    if sources.len() != 2 {
        return Err(TopKError::WrongArity {
            expected: 2,
            actual: sources.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, total_stats, MemorySource};
    use crate::algorithms::naive::naive_topk;
    use garlic_agg::iterated::min_agg;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn sources() -> Vec<MemorySource> {
        vec![
            MemorySource::from_grades(&[g(1.0), g(0.8), g(0.6), g(0.4), g(0.2)]),
            MemorySource::from_grades(&[g(0.3), g(0.5), g(0.7), g(0.9), g(0.1)]),
        ]
    }

    #[test]
    fn top1_agrees_with_naive() {
        let fast = ullman_top1(&sources()).unwrap();
        let slow = naive_topk(&sources(), &min_agg(), 1).unwrap();
        assert!(fast.same_grades(&slow, 0.0));
    }

    #[test]
    fn topk_agrees_with_naive() {
        for k in 1..=5 {
            let fast = ullman_topk(&sources(), k).unwrap();
            let slow = naive_topk(&sources(), &min_agg(), k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }

    #[test]
    fn stops_immediately_on_early_witness() {
        // Object 0 has grades (1.0, 1.0): the very first probe satisfies
        // μ2 >= μ1 and the answer is found with one probe per list.
        let s = counted(vec![
            MemorySource::from_grades(&[g(1.0), g(0.5), g(0.4)]),
            MemorySource::from_grades(&[g(1.0), g(0.2), g(0.3)]),
        ]);
        let top = ullman_top1(&s).unwrap();
        assert_eq!(top.best().unwrap().object, ObjectId(0));
        let stats = total_stats(&s);
        assert_eq!(stats.sorted, 1);
        assert_eq!(stats.random, 1);
    }

    #[test]
    fn run_reports_probe_count() {
        let run = ullman_run(&sources(), 1).unwrap();
        // List 1 order: 0(1.0), 1(.8), 2(.6), 3(.4).
        // Probes: obj0 g2=.3 <1.0; obj1 g2=.5<.8; obj2 g2=.7>=.6 stop.
        assert_eq!(run.probes, 3);
        assert_eq!(run.topk.best().unwrap().object, ObjectId(2));
    }

    #[test]
    fn requires_exactly_two_lists() {
        let three = vec![
            MemorySource::from_grades(&[g(0.1)]),
            MemorySource::from_grades(&[g(0.1)]),
            MemorySource::from_grades(&[g(0.1)]),
        ];
        assert!(matches!(
            ullman_top1(&three),
            Err(TopKError::WrongArity { expected: 2, .. })
        ));
    }

    #[test]
    fn exhausts_gracefully_when_no_witness_appears() {
        // List-2 grades always strictly below list-1 grades: the paper's
        // "if such an object x is never found, then continue until all
        // objects have been seen".
        let s = vec![
            MemorySource::from_grades(&[g(0.9), g(0.8), g(0.7)]),
            MemorySource::from_grades(&[g(0.1), g(0.2), g(0.3)]),
        ];
        let fast = ullman_top1(&s).unwrap();
        let slow = naive_topk(&s, &min_agg(), 1).unwrap();
        assert!(fast.same_grades(&slow, 0.0));
    }
}
