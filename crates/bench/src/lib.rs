//! # garlic-bench — the paper ledger and two perf gates
//!
//! [`paper::CLAIMS`] holds the paper's quantitative claims as one table.
//! Each row names its paper section and claim, runs the experiment that
//! measures it, and checks the measured shape: a fitted exponent, a flat
//! column, an order, an exact equality, or a Wilson-interval comparison.
//! `EXPERIMENTS.md` is generated from the same table, and `cargo test`
//! runs every row at its small size. Run one row, or all of them, with
//! `cargo run --release -p garlic-bench --bin paper -- e01` (or `-- all`).
//!
//! This library also holds the shared measurement plumbing: workload
//! builders for the experiments and the interleaved clock of the two
//! self-checking `gate_*` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

use garlic_agg::Aggregation;
use garlic_core::access::MemorySource;
use garlic_core::algorithms::fa::{fagin_run, FaRun};
use garlic_core::AccessStats;
use garlic_workload::distributions::UniformGrades;
use garlic_workload::scoring::ScoringDatabase;
use garlic_workload::skeleton::Skeleton;

/// Everything measured in one algorithm trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Access counts across all lists.
    pub stats: AccessStats,
    /// A₀'s uniform stop depth `T` (0 when not applicable).
    pub depth: usize,
}

/// An independent-lists database: a random skeleton of `m` lists over `n`
/// objects with uniform grades, drawn from `seed`.
pub fn independent_database(m: usize, n: usize, seed: u64) -> ScoringDatabase {
    let mut rng = garlic_workload::seeded_rng(seed);
    let skeleton = Skeleton::random(m, n, &mut rng);
    ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng)
}

/// [`independent_database`]'s lists as in-memory sources.
pub fn independent_workload(m: usize, n: usize, seed: u64) -> Vec<MemorySource> {
    independent_database(m, n, seed).to_sources()
}

/// Runs one A₀ trial on an independent uniform workload.
pub fn fa_trial<A: Aggregation>(m: usize, n: usize, k: usize, agg: &A, seed: u64) -> Trial {
    let sources = independent_workload(m, n, seed);
    let run: FaRun = fagin_run(&sources, agg, k).expect("valid trial parameters");
    Trial {
        stats: run.stats,
        depth: run.stop_depth,
    }
}

/// Mean unweighted middleware cost of A₀ over `trials` seeds.
pub fn fa_mean_cost<A: Aggregation>(
    m: usize,
    n: usize,
    k: usize,
    agg: &A,
    trials: usize,
    seed0: u64,
) -> f64 {
    let total: u64 = (0..trials)
        .map(|t| fa_trial(m, n, k, agg, seed0 + t as u64).stats.unweighted())
        .sum();
    total as f64 / trials as f64
}

/// Median wall-clock nanoseconds of `a` and of `b`, timed in alternating
/// rounds — the order flips every round, so machine drift lands on both
/// sides instead of one — after one untimed warm-up round. The shared
/// clock of the two self-checking gates (`gate_*` binaries).
pub fn interleaved_medians(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut sides: [(&mut dyn FnMut(), Vec<f64>); 2] = [(&mut a, vec![]), (&mut b, vec![])];
    for round in 0..=rounds {
        for i in 0..2 {
            let (run, times) = &mut sides[(i + round) % 2];
            let t = std::time::Instant::now();
            run();
            if round > 0 {
                times.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    let [a, b] = sides.map(|(_, times)| garlic_stats::quantile(&times, 0.5));
    (a, b)
}

/// A gate's verdict: `numerator <= bound × denominator`, printed either
/// way; the caller turns the returned verdict into the process exit code.
pub fn gate_holds(what: &str, numerator_ns: f64, denominator_ns: f64, bound: f64) -> bool {
    let ratio = numerator_ns / denominator_ns;
    let holds = ratio <= bound;
    println!(
        "{what}: {numerator_ns:.0} ns / {denominator_ns:.0} ns = {ratio:.3}x (bound {bound}x) {}",
        if holds { "ok" } else { "FAIL" }
    );
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use garlic_agg::iterated::min_agg;

    #[test]
    fn fa_trial_runs_and_counts() {
        let t = fa_trial(2, 200, 5, &min_agg(), 1);
        assert!(t.stats.sorted > 0);
        assert!(t.depth >= 1 && t.depth <= 200);
        // Sorted cost is exactly m * depth for round-robin A0.
        assert_eq!(t.stats.sorted, 2 * t.depth as u64);
    }

    #[test]
    fn mean_cost_is_positive_and_sublinear_at_scale() {
        let mean = fa_mean_cost(2, 400, 1, &min_agg(), 5, 10);
        assert!(mean > 0.0);
        assert!(mean < 2.0 * 400.0, "cost should be well below m*N");
    }

    #[test]
    fn workload_is_reproducible() {
        let a = fa_trial(2, 100, 1, &min_agg(), 42);
        let b = fa_trial(2, 100, 1, &min_agg(), 42);
        assert_eq!(a.stats, b.stats);
    }
}
