//! # garlic-bench — the experiment harness
//!
//! One binary per quantitative claim in the paper (see `EXPERIMENTS.md` at
//! the workspace root for the claim ↔ binary index); this library holds the
//! shared measurement plumbing.
//!
//! Run any experiment with
//! `cargo run --release -p garlic-bench --bin exp01_cost_vs_n`.
//! Each accepts an optional trial-count argument and `--csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use garlic_agg::Aggregation;
use garlic_core::access::{counted, total_stats, CountingSource, MemorySource};
use garlic_core::algorithms::fa::{fagin_run, FaOptions, FaRun};
use garlic_core::AccessStats;
use garlic_workload::distributions::{GradeDistribution, UniformGrades};
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

/// Builds an independent-lists workload: random skeleton, grades from the
/// given distribution, counted sources.
pub fn independent_workload(
    m: usize,
    n: usize,
    dist: &dyn GradeDistribution,
    seed: u64,
) -> Vec<CountingSource<MemorySource>> {
    let mut rng = garlic_workload::seeded_rng(seed);
    let skeleton = Skeleton::random(m, n, &mut rng);
    let db = ScoringDatabase::from_skeleton(&skeleton, dist, &mut rng);
    counted(db.to_sources())
}

/// Runs one A₀ trial on an independent uniform workload.
pub fn fa_trial<A: Aggregation>(m: usize, n: usize, k: usize, agg: &A, seed: u64) -> Trial {
    let sources = independent_workload(m, n, &UniformGrades, seed);
    let run: FaRun =
        fagin_run(&sources, agg, k, FaOptions::default()).expect("valid trial parameters");
    Trial {
        stats: total_stats(&sources),
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

/// Parses the common experiment CLI:
/// `[trials] [--csv] [--json] [--small]`.
pub struct ExpArgs {
    /// Number of trials per configuration.
    pub trials: usize,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Emit machine-readable JSON instead of an aligned table (for CI
    /// artifact archiving; wins over `--csv`).
    pub json: bool,
    /// Run a reduced-size configuration (perf-smoke mode for CI).
    pub small: bool,
}

impl ExpArgs {
    /// Parses `std::env::args`, with a default trial count.
    pub fn parse(default_trials: usize) -> ExpArgs {
        Self::from_iter(default_trials, std::env::args().skip(1))
    }

    /// [`ExpArgs::parse`] over an explicit argument list (testable).
    pub fn from_iter(default_trials: usize, args: impl IntoIterator<Item = String>) -> ExpArgs {
        let mut parsed = ExpArgs {
            trials: default_trials,
            csv: false,
            json: false,
            small: false,
        };
        for arg in args {
            match arg.as_str() {
                "--csv" => parsed.csv = true,
                "--json" => parsed.json = true,
                "--small" => parsed.small = true,
                other => {
                    if let Ok(t) = other.parse::<usize>() {
                        parsed.trials = t.max(1);
                    }
                }
            }
        }
        parsed
    }
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

/// Prints an experiment header then the table (or CSV / JSON).
pub fn emit(id: &str, claim: &str, args: &ExpArgs, table: &garlic_stats::Table, notes: &[&str]) {
    if args.json {
        print!("{}", table.to_json());
        return;
    }
    if args.csv {
        print!("{}", table.to_csv());
        return;
    }
    println!("== {id} ==");
    println!("paper claim: {claim}");
    println!("trials per row: {}", args.trials);
    println!();
    print!("{}", table.render());
    for note in notes {
        println!("note: {note}");
    }
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

    #[test]
    fn exp_args_parse_flags_and_trials() {
        let args = ExpArgs::from_iter(5, ["3", "--json", "--small"].map(str::to_owned));
        assert_eq!(args.trials, 3);
        assert!(args.json);
        assert!(args.small);
        assert!(!args.csv);
        let defaults = ExpArgs::from_iter(5, std::iter::empty());
        assert_eq!(defaults.trials, 5);
        assert!(!defaults.json && !defaults.small && !defaults.csv);
    }
}
