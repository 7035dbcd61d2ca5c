//! The experiments behind [`CLAIMS`](super::CLAIMS), one function per row.
//! Each builds the table and notes the row prints and records its checks;
//! `small` swaps in the reduced sweep `cargo test` runs. A table row (and
//! the header) is written as one string of `;`-separated cells.

use std::ops::Range;
use std::sync::Arc;

use garlic_agg::iterated::{all_iterated_tnorms, min_agg, IteratedTCoNorm};
use garlic_agg::means::{ArithmeticMean, GeometricMean, MedianAgg};
use garlic_agg::tconorms::Maximum;
use garlic_agg::{Aggregation, Grade};
use garlic_core::access::MemorySource;
use garlic_core::algorithms::fa::{fagin_run, fagin_shrunk_run};
use garlic_core::algorithms::fa_min::fagin_min_run;
use garlic_core::algorithms::naive::naive_topk;
use garlic_core::algorithms::{order_stat::order_statistic_run, ullman::ullman_run};
use garlic_core::complement::ComplementSource;
use garlic_core::{AccessStats, CostModel, EngineSession, GradedSource, ShardedSource, TopKError};
use garlic_middleware::{parse_query, Catalog, Garlic};
use garlic_stats::bounds::{cost_scale, wimmers_depth_threshold, wimmers_dominant_tail};
use garlic_stats::table::fmt_prob;
use garlic_stats::{exceedance, log_log_fit, wilson_interval, LinearFit};
use garlic_storage::{BlockCache, SegmentSource, SegmentWriter};
use garlic_subsys::QbicStore;
use garlic_workload::correlation::{hard_query_database, latent_database, spearman_rho};
use garlic_workload::distributions::UniformGrades;
use garlic_workload::distributions::{BoundedGrades, CrispGrades, GradeDistribution};
use garlic_workload::lemma51::*;
use garlic_workload::{scoring::ScoringDatabase, seeded_rng, skeleton::Skeleton};

use super::Outcome;
use crate::{fa_mean_cost, fa_trial, independent_database, independent_workload};

/// `points` sizes from `first`, each `2^log2_step` times the last.
fn sweep(first: usize, log2_step: usize, points: usize) -> Vec<usize> {
    (0..points).map(|i| first << (log2_step * i)).collect()
}

/// The log-log fit of `ys` against `xs`; its slope is the measured exponent.
fn exponent(xs: &[usize], ys: &[f64]) -> LinearFit {
    log_log_fit(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>(), ys)
}

/// The mean over seeds `seeds` of `cost(seed)`.
fn mean(seeds: Range<u64>, cost: impl FnMut(u64) -> u64) -> f64 {
    let trials = seeds.end - seeds.start;
    seeds.map(cost).sum::<u64>() as f64 / trials as f64
}

/// Seeds `seed0 .. seed0 + trials`.
fn seeds(seed0: u64, trials: usize) -> Range<u64> {
    seed0..seed0 + trials as u64
}

/// The Section 5 bill of a first page of `k` from `session`, as the
/// session meters it.
fn page_bill<S, A>(session: Result<EngineSession<S, A>, TopKError>, k: usize) -> AccessStats
where
    S: GradedSource,
    A: Aggregation,
{
    let mut session = session.expect("valid trial parameters");
    session.next_batch(k).expect("valid trial parameters");
    session.stats()
}

/// A₀'s (min) bill on `lists` for a page of `k`.
fn a0_bill<S: GradedSource>(lists: &[S], k: usize) -> AccessStats {
    fagin_run(lists, &min_agg(), k)
        .expect("valid trial parameters")
        .stats
}

/// The Wilson interval of `hits` successes in `trials` that the checks
/// use: z = 3 (99.7 %), so that the dozen interval checks of one row do not
/// add up to a likely false alarm.
fn wilson(hits: usize, trials: usize) -> (f64, f64) {
    wilson_interval(hits, trials, 3.0)
}

/// A₀'s (min) per-list bill on `lists`.
fn bills<S: GradedSource>(lists: &[S], k: usize) -> Vec<AccessStats> {
    let session = EngineSession::new(lists.iter().collect(), min_agg());
    let mut session = session.expect("valid trial parameters");
    session.next_batch(k).expect("valid trial parameters");
    session.per_source_stats().to_vec()
}

/// Whether A₀'s per-list bill for every k in `ks`, on the database of
/// `(m, n, seed)`, is bit-equal on its memory lists, on segments and on
/// 4-shard sources.
fn bills_agree(m: usize, n: usize, ks: &[usize], seed: u64) -> bool {
    let db = independent_database(m, n, seed);
    let dir = format!("garlic-paper-{}-{m}-{n}-{seed}", std::process::id());
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (writer, cache) = (SegmentWriter::new(), Arc::new(BlockCache::new(1 << 12)));
    let (mut segments, mut shards) = (Vec::new(), Vec::new());
    for (i, list) in db.lists().iter().enumerate() {
        let path = dir.join(format!("{i}.seg"));
        writer
            .write_graded_set(&path, list)
            .expect("segment written");
        segments.push(SegmentSource::open(&path, cache.clone()).expect("segment opens"));
        let pairs = list.iter().map(|e| (e.object, e.grade)).collect();
        shards.push(ShardedSource::from_pairs(pairs, 4));
    }
    let memory = db.to_sources();
    let agree = ks.iter().all(|&k| {
        let bill = bills(&memory, k);
        bill == bills(&segments, k) && bill == bills(&shards, k)
    });
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    agree
}

impl Outcome {
    /// Fits the log-log slope of `ys` in `xs` and checks it is `expect ±
    /// tol`, widened by twice the fit's standard error: `tol` absorbs the
    /// bias of small N, the standard error the scatter of a sweep with too
    /// few trials to resolve the slope.
    fn slope(&mut self, what: &str, xs: &[usize], ys: &[f64], expect: f64, tol: f64) -> LinearFit {
        let fit = exponent(xs, ys);
        let slope = fit.slope;
        // SSE / Sxx = slope² (1/R² - 1); a perfect fit has no error, and
        // the NaN of a flat fit (0 · ∞) counts as none.
        let se2 = slope * slope * (1.0 / fit.r_squared - 1.0) / (xs.len() as f64 - 2.0);
        let two_se = 2.0 * se2.sqrt().max(0.0);
        let what = format!("{what} {slope:.3} (2 s.e. {two_se:.3}), expected {expect:.3} ± {tol}");
        self.check((slope - expect).abs() <= tol + two_se, what);
        fit
    }

    /// The `--small` check of rows e01–e03: every trial at every size bills
    /// bit-equal on the three backends.
    fn backends(&mut self, m: usize, ns: &[usize], ks: &[usize], seeds: Range<u64>) {
        let agree = |n| seeds.clone().all(|seed| bills_agree(m, n, ks, seed));
        let what = format!("m = {m}: every trial's bill is bit-equal on a segment and 4 shards");
        self.check(ns.iter().all(|&n| agree(n)), what);
    }
}

pub(super) fn e01(trials: usize, small: bool) -> Outcome {
    let ns = sweep(1000, 1, if small { 4 } else { 8 }); // 1k .. 128k
    let ks = [1, 10, 100];
    let mut out = Outcome::new("E01: A0 cost vs N (m = 2)", "k;N;mean cost;cost/sqrt(Nk)");
    for k in ks {
        let cost = |&n| fa_mean_cost(2, n, k, &min_agg(), trials, 1996);
        let costs: Vec<f64> = ns.iter().map(cost).collect();
        for (&n, mean) in ns.iter().zip(&costs) {
            let per_sqrt_nk = mean / ((n * k) as f64).sqrt();
            out.row(format!("{k};{n};{mean:.1};{per_sqrt_nk:.3}"));
        }
        let fit = out.slope(&format!("k = {k}: slope in N"), &ns, &costs, 0.5, 0.15);
        let (slope, r2) = (fit.slope, fit.r_squared);
        out.note(format!(
            "k = {k}: measured exponent {slope:.3} (paper predicts (m-1)/m = 0.5), R^2 = {r2:.4}"
        ));
    }
    if small {
        out.backends(2, &ns, &ks, seeds(1996, trials));
    }
    out
}

pub(super) fn e02(trials: usize, small: bool) -> Outcome {
    let (first, points) = if small { (1000, 4) } else { (4000, 5) };
    let ns = sweep(first, 1, points); // 4k .. 64k (small: 1k .. 8k)
    let mut out = Outcome::new("E02: A0 cost exponent vs m", "m;N;mean cost");
    let mut slopes = Vec::new();
    for m in 2..=5 {
        let cost = |&n| fa_mean_cost(m, n, 10, &min_agg(), trials, 2024);
        let costs: Vec<f64> = ns.iter().map(cost).collect();
        for (n, c) in ns.iter().zip(&costs) {
            out.row(format!("{m};{n};{c:.1}"));
        }
        let (what, predicted) = (format!("m = {m}: slope in N"), (m as f64 - 1.0) / m as f64);
        let fit = out.slope(&what, &ns, &costs, predicted, 0.15);
        let (slope, r2) = (fit.slope, fit.r_squared);
        out.note(format!("m = {m}: measured exponent {slope:.3} vs predicted (m-1)/m = {predicted:.3} (R^2 = {r2:.4})"));
        slopes.push(slope);
        if small {
            out.backends(m, &ns, &[10], seeds(2024, trials));
        }
    }
    let grows = slopes.windows(2).all(|w| w[0] < w[1]);
    out.check(grows, "the slope grows with m");
    out
}

pub(super) fn e03(trials: usize, small: bool) -> Outcome {
    let n = if small { 4096 } else { 65_536 };
    let ks = sweep(1, 2, if small { 5 } else { 7 }); // 1, 4, .., 4096
    let title = format!("E03: A0 cost vs k (N = {n})");
    let mut out = Outcome::new(title, "m;k;mean cost;cost/(N^((m-1)/m) k^(1/m))");
    for m in [2, 3] {
        let cost = |&k| fa_mean_cost(m, n, k, &min_agg(), trials, 777);
        let costs: Vec<f64> = ks.iter().map(cost).collect();
        for (&k, mean) in ks.iter().zip(&costs) {
            let scaled = mean / cost_scale(n as f64, m, k as f64);
            out.row(format!("{m};{k};{mean:.1};{scaled:.3}"));
        }
        let (what, predicted) = (format!("m = {m}: slope in k"), 1.0 / m as f64);
        let fit = out.slope(&what, &ks, &costs, predicted, 0.15);
        let (slope, r2) = (fit.slope, fit.r_squared);
        out.note(format!("m = {m}: measured k-exponent {slope:.3} vs predicted 1/m = {predicted:.3} (R^2 = {r2:.4})"));
        if small {
            out.backends(m, &[n], &ks, seeds(777, trials));
        }
    }
    out
}

pub(super) fn e04(trials: usize, small: bool) -> Outcome {
    let n = if small { 1000 } else { 10_000 };
    let title = format!("E04: sorted-depth tail vs the Wimmers bound (m = 2, N = {n})");
    let headers =
        "k;c;threshold c*sqrt(Nk);empirical P[T > thr];95% Wilson upper;e^(-c^2 k) (dominant term)";
    let mut out = Outcome::new(title, headers);
    for k in [1, 10] {
        let depth = |seed| fa_trial(2, n, k, &min_agg(), seed).depth as f64;
        let depths: Vec<f64> = seeds(31_000, trials).map(depth).collect();
        for c in [0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
            let thr = wimmers_depth_threshold(c, n as f64, k as f64);
            let p = exceedance(&depths, thr);
            let hits = (p * trials as f64).round() as usize;
            let upper = wilson_interval(hits, trials, 1.96).1;
            let curve = wimmers_dominant_tail(c, k as f64);
            let probs = [p, upper, curve].map(fmt_prob).join(";");
            out.row(format!("{k};{c:.2};{thr:.0};{probs}"));
            // e^(-c^2 k) bounds the tail for k = 1, and for every k at c >= 2.
            if k == 1 || c >= 2.0 {
                let what = format!("k = {k}, c = {c}: Wilson interval (z = 3) reaches e^(-c^2 k)");
                out.check(wilson(hits, trials).0 <= curve, what);
            }
        }
    }
    out.note("the empirical tail should sit at or below the dominant-term curve");
    out.note("at c >= 2 no exceedance should be observable at these trial counts");
    out
}

pub(super) fn e05(trials: usize, small: bool) -> Outcome {
    let n = if small { 2000 } else { 10_000 };
    let k = 1;
    let title = format!("E05: the lower-bound depth T* (N = {n}, k = 1)");
    let headers = "m;theta;empirical P[T* <= theta*scale];Theorem 6.4 bound theta^m";
    let mut out = Outcome::new(title, headers);
    for m in [2, 3] {
        let (mut t_stars, mut a0_matches_tstar) = (Vec::with_capacity(trials), true);
        for t in 0..trials {
            let mut rng = seeded_rng(50_000 + t as u64);
            let skeleton = Skeleton::random(m, n, &mut rng);
            let t_star = skeleton.matching_depth(k);
            t_stars.push(t_star as f64);
            // Spot-check A0 depth-optimality on a subsample.
            if t % 50 == 0 {
                let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
                let run = fagin_run(&db.to_sources(), &min_agg(), k).unwrap();
                a0_matches_tstar &= run.stop_depth == t_star;
            }
        }
        let scale = cost_scale(n as f64, m, k as f64);
        for theta in [0.25, 0.5, 0.75, 1.0] {
            // P[T* <= theta*scale] = 1 - P[T* > theta*scale].
            let p = 1.0 - exceedance(&t_stars, theta * scale);
            let bound = theta.powi(m as i32);
            let probs = [p, bound].map(fmt_prob).join(";");
            out.row(format!("{m};{theta:.2};{probs}"));
            let below = t_stars.iter().filter(|&&t| t <= theta * scale).count();
            let what = format!("m = {m}, theta = {theta}: Wilson interval (z = 3) of P[T* <= theta*scale] reaches theta^m");
            out.check(wilson(below, trials).0 <= bound, what);
        }
        out.note(format!(
            "m = {m}: A0 stop depth == T* on every sampled skeleton: {a0_matches_tstar}"
        ));
        let mean_t_star = t_stars.iter().sum::<f64>() / t_stars.len() as f64;
        let ratio = mean_t_star / scale;
        out.note(format!("m = {m}: mean T* = {mean_t_star:.1} vs scale N^((m-1)/m)k^(1/m) = {scale:.1} (ratio {ratio:.3})"));
        let what = format!("m = {m}: A0 stops exactly at T* on every sampled skeleton");
        out.check(a0_matches_tstar, what);
    }
    out
}

pub(super) fn e06(trials: usize, small: bool) -> Outcome {
    let ns = sweep(1000, 1, if small { 4 } else { 6 }); // 1k .. 32k
    let headers = "N;A0 cost;naive cost;A0/naive;A0 cost/N";
    let mut out = Outcome::new("E06: the hard query Q AND NOT Q", headers);
    let mut a0_costs = Vec::new();
    for &n in &ns {
        let (mut a0, mut naive) = (0, 0);
        for seed in seeds(60_000, trials) {
            let db = hard_query_database(n, &mut seeded_rng(seed));
            a0 += a0_bill(&db.to_sources(), 1).unweighted();
            let scan = EngineSession::scan(db.to_sources(), min_agg());
            naive += page_bill(scan, 1).unweighted();
        }
        let (a0, naive) = (a0 as f64 / trials as f64, naive as f64 / trials as f64);
        a0_costs.push(a0);
        let (ratio, per_n) = (a0 / naive, a0 / n as f64);
        out.row(format!("{n};{a0:.0};{naive:.0};{ratio:.3};{per_n:.3}"));
        let what = format!("N = {n}: A0 and the naive scan bill exactly 2N");
        out.check(a0 == 2.0 * n as f64 && naive == a0, what);
    }
    let slope = exponent(&ns, &a0_costs).slope;
    out.note(format!("measured exponent {slope:.3} (Theorem 7.1 predicts 1.0 — linear); compare 0.5 on independent lists (E01)"));
    out
}

pub(super) fn e07(trials: usize, small: bool) -> Outcome {
    let ns = sweep(1000, 2, if small { 3 } else { 5 }); // 1k .. 256k
    let k = 10;
    let headers = "m;N;sorted cost;random cost;m*k";
    let mut out = Outcome::new("E07: disjunction via B0 (k = 10)", headers);
    let mut exact = true;
    for m in [2, 3, 5] {
        for &n in &ns {
            // Cost is deterministic; one trial suffices but we verify all.
            let (mut sorted, mut random) = (0, 0);
            for seed in seeds(70_000, trials) {
                let lists = independent_workload(m, n, seed);
                let b0 = EngineSession::<_, IteratedTCoNorm<Maximum>>::max(lists);
                let stats = page_bill(b0, k);
                exact &= stats.sorted == (m * k) as u64 && stats.random == 0;
                (sorted, random) = (sorted + stats.sorted, random + stats.random);
            }
            let t = trials as u64;
            out.row(format!("{m};{n};{};{};{}", sorted / t, random / t, m * k));
        }
    }
    out.note("every row's sorted cost must equal m*k exactly, at every N");
    let what = "every trial bills exactly m*k sorted and 0 random accesses";
    out.check(exact, what);
    out
}

pub(super) fn e08(trials: usize, small: bool) -> Outcome {
    let ns = sweep(1000, 1, if small { 4 } else { 6 }); // 1k .. 32k
    let (k, m) = (10, 3);
    let headers = "N;median alg;generic A0;naive 3N;median/sqrt(Nk)";
    let mut out = Outcome::new("E08: the median query, m = 3 (k = 10)", headers);
    let (mut med_costs, mut a0_costs) = (Vec::new(), Vec::new());
    for &n in &ns {
        // The median of three is the second largest grade.
        let med = mean(seeds(80_000, trials), |seed| {
            let run = order_statistic_run(&independent_workload(m, n, seed), m / 2 + 1, k);
            run.unwrap().stats.unweighted()
        });
        let a0 = mean(seeds(80_000, trials), |seed| {
            let run = fagin_run(&independent_workload(m, n, seed), &MedianAgg, k);
            run.unwrap().stats.unweighted()
        });
        let what = format!("N = {n}: the median algorithm is cheaper than generic A0");
        out.check(med < a0, what);
        med_costs.push(med);
        a0_costs.push(a0);
        let (naive, per_sqrt_nk) = (3 * n, med / ((n * k) as f64).sqrt());
        out.row(format!("{n};{med:.0};{a0:.0};{naive};{per_sqrt_nk:.3}"));
    }
    let med = out.slope("median algorithm: slope in N", &ns, &med_costs, 0.5, 0.15);
    let a0 = out.slope("generic A0: slope in N", &ns, &a0_costs, 2.0 / 3.0, 0.15);
    let (med, a0) = (med.slope, a0.slope);
    out.note(format!(
        "median-algorithm exponent {med:.3} (Remark 6.1 predicts 0.5)"
    ));
    out.note(format!("generic-A0 exponent {a0:.3} (Theorem 5.3 predicts (m-1)/m = 0.667 — A0 cannot exploit non-strictness)"));
    out
}

/// Ullman's probe counts on one Section 9 database per seed, with list
/// grades from `dists`; whether every run stopped at the earliest safe
/// depth; and A₀'s mean cost on the same databases.
fn section9(
    n: usize,
    dists: [&dyn GradeDistribution; 2],
    seeds: Range<u64>,
) -> (Vec<usize>, bool, f64) {
    let (mut probes, mut earliest) = (Vec::new(), true);
    let a0 = mean(seeds, |seed| {
        let mut rng = seeded_rng(seed);
        let skeleton = Skeleton::random(2, n, &mut rng);
        let db = ScoringDatabase::from_skeleton_per_list(&skeleton, &dists, &mut rng);
        let run = ullman_run(&db.to_sources(), 1).unwrap();
        // Unseen objects grade at most the stream grade, so the first
        // depth where the best seen grade reaches it is the earliest stop.
        let (stream, other, mut best) = (&db.lists()[0], &db.lists()[1], Grade::ZERO);
        let safe = stream.iter().position(|e| {
            best = best.max(e.grade.min(other.grade_of(e.object).unwrap_or(Grade::ZERO)));
            best >= e.grade
        });
        earliest &= run.probes == safe.map_or(n, |depth| depth + 1);
        probes.push(run.probes);
        a0_bill(&db.to_sources(), 1).unweighted()
    });
    (probes, earliest, a0)
}

pub(super) fn e09(trials: usize, small: bool) -> Outcome {
    let ns = sweep(1000, 1, if small { 4 } else { 6 }); // 1k .. 32k
    let (bounded, uniform) = (BoundedGrades::new(0.9), UniformGrades);
    let headers = "N;bounded: probes;uniform: probes;uniform probes/sqrt(N);A0 cost (uniform)";
    let title = "E09: Ullman's algorithm, Section 9 regimes (k = 1)";
    let mut out = Outcome::new(title, headers);
    let (mut uniform_probes, mut long_runs, mut earliest) = (Vec::new(), 0, true);
    for &n in &ns {
        let (probes_b, stop_b, _) = section9(n, [&bounded, &uniform], seeds(90_000, trials));
        let (probes_u, stop_u, a0) = section9(n, [&uniform, &uniform], seeds(91_000, trials));
        earliest &= stop_b && stop_u;
        long_runs += probes_b.iter().filter(|&&p| p > 20).count();
        let [pb, pu] = [probes_b, probes_u].map(|p| p.iter().sum::<usize>() as f64 / trials as f64);
        uniform_probes.push(pu);
        let per_sqrt_n = pu / (n as f64).sqrt();
        out.row(format!("{n};{pb:.1};{pu:.1};{per_sqrt_n:.3};{a0:.0}"));
    }
    out.check(
        earliest,
        "every run stops at the earliest depth where the best seen grade reaches the stream grade",
    );
    let runs = trials * ns.len();
    let what = format!("bounded regime: {long_runs} of {runs} runs probe more than 20 objects; Wilson interval (z = 3) reaches 0.9^20");
    out.check(wilson(long_runs, runs).0 <= 0.9f64.powi(20), what);
    let what = "uniform regime: probe slope in N";
    let slope = out.slope(what, &ns, &uniform_probes, 0.5, 0.15).slope;
    out.note("bounded regime: probes should hover near 10 at every N (constant cost)");
    out.note(format!(
        "uniform regime: probe exponent {slope:.3} (Landau predicts 0.5 — no better than A0)"
    ));
    out
}

pub(super) fn e10(trials: usize, small: bool) -> Outcome {
    let (n, k) = (if small { 4096 } else { 32_768 }, 10);
    let title = format!("E10: aggregation-function robustness (m = 2, N = {n}, k = 10)");
    let headers = "aggregation;mean A0 cost;agrees with naive;cost == min-rule cost";
    let mut out = Outcome::new(title, headers);
    let mut aggs: Vec<Box<dyn Aggregation>> = all_iterated_tnorms();
    aggs.push(Box::new(ArithmeticMean));
    aggs.push(Box::new(GeometricMean));
    let (mut min_cost, mut all_agree, mut all_equal) = (None, true, true);
    for agg in &aggs {
        let mut agrees = true;
        let mean = mean(seeds(100_000, trials), |seed| {
            let sources = independent_workload(2, n, seed);
            let fast = fagin_run(&sources, agg, k).unwrap();
            let slow = naive_topk(&sources, agg, k).unwrap();
            agrees &= fast.topk.same_grades(&slow, 1e-9);
            fast.stats.unweighted()
        });
        let same = mean == *min_cost.get_or_insert(mean);
        (all_agree, all_equal) = (all_agree && agrees, all_equal && same);
        out.row(format!("{};{mean:.1};{agrees};{same}", agg.name()));
    }
    out.note("every aggregation must agree with its naive reference");
    out.note("every row's cost must equal the min rule's cost exactly");
    let what =
        "every aggregation returns its naive reference's grades and bills the min rule's cost";
    out.check(all_agree && all_equal, what);
    out
}

/// One of row e11's A₀ variants: its bill for a given k on the lists.
type Variant = fn(&[MemorySource], usize) -> AccessStats;

pub(super) fn e11(trials: usize, small: bool) -> Outcome {
    let (n, k) = (if small { 4096 } else { 32_768 }, 10);
    let title = format!("E11: A0 refinements (N = {n}, k = 10)");
    let mut out = Outcome::new(title, "m;variant;sorted;random;total;vs A0");
    let variants: [(&str, Variant); 3] = [
        ("A0", a0_bill),
        ("A0 + shrink Ti", |s, k| {
            fagin_shrunk_run(s, &min_agg(), k).unwrap().stats
        }),
        ("A0' (min)", |s, k| fagin_min_run(s, k).unwrap().stats),
    ];
    for m in [2, 3, 4] {
        let mut bills = [AccessStats::default(); 3];
        for (bill, (_, run)) in bills.iter_mut().zip(variants) {
            for seed in seeds(110_000, trials) {
                *bill += run(&independent_workload(m, n, seed), k);
            }
        }
        let per_trial = |total: u64| total as f64 / trials as f64;
        let base_total = per_trial(bills[0].unweighted());
        for ((name, _), bill) in variants.iter().zip(&bills) {
            let (sorted, random) = (per_trial(bill.sorted), per_trial(bill.random));
            let (total, ratio) = (sorted + random, (sorted + random) / base_total);
            let cells = format!("{m};{name};{sorted:.1};{random:.1};{total:.1};{ratio:.3}x");
            out.row(cells);
        }
        let what = format!("m = {m}: the three variants bill the same sorted accesses");
        out.check(bills.iter().all(|b| b.sorted == bills[0].sorted), what);
        let ordered = bills[2].random <= bills[1].random && bills[1].random <= bills[0].random;
        let what = format!("m = {m}: random accesses order A0' <= shrunk A0 <= A0");
        out.check(ordered, what);
    }
    out.note("all variants return identical answer grades (asserted by the test-suite)");
    out
}

pub(super) fn e12(trials: usize, small: bool) -> Outcome {
    let (n, k) = (if small { 2048 } else { 16_384 }, 10);
    let title = format!("E12: correlation sweep (m = 2, N = {n}, k = 10)");
    let headers = "target rho;measured rho;mean A0 cost;cost/sqrt(Nk);cost/N";
    let mut out = Outcome::new(title, headers);
    let mut costs = Vec::new();
    for rho in [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut measured = 0.0;
        let cost = mean(seeds(120_000, trials), |seed| {
            let db = latent_database(2, n, rho, &mut seeded_rng(seed));
            measured += spearman_rho(&db, 0, 1);
            a0_bill(&db.to_sources(), k).unweighted()
        });
        costs.push(cost);
        let (rho_hat, per_sqrt_nk) = (measured / trials as f64, cost / ((n * k) as f64).sqrt());
        let per_n = cost / n as f64;
        out.row(format!(
            "{rho:.2};{rho_hat:.3};{cost:.0};{per_sqrt_nk:.2};{per_n:.3}"
        ));
    }
    out.note("cost must decrease monotonically in rho");
    out.note(
        "at rho = +1 the cost approaches ~2k (+ random accesses); at rho = -1 it approaches ~2N",
    );
    let falling = costs.windows(2).all(|w| w[0] > w[1]);
    out.check(falling, "the cost falls strictly as rho rises");
    let (linear, exact) = (costs[0] >= n as f64, costs[8] == 2.0 * k as f64);
    out.check(linear, "at rho = -1 the cost is at least N (linear)");
    out.check(exact, "at rho = +1 the cost is exactly 2k");
    out
}

pub(super) fn e13(trials: usize, small: bool) -> Outcome {
    let (n, k) = (if small { 4000 } else { 20_000 }, 10);
    let title = format!("E13: filtered strategy vs A0' (N = {n}, k = 10)");
    let mut out = Outcome::new(title, "selectivity;|S|;filtered cost;A0' cost;winner");
    let mut winners = String::new();
    for p in [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5] {
        let matches = CrispGrades::new(p).matches(n);
        let (mut filtered_cost, mut fa_cost) = (0, 0);
        for seed in seeds(130_000, trials) {
            let mut rng = seeded_rng(seed);
            let skeleton = Skeleton::random(2, n, &mut rng);
            // List 0: crisp predicate along skeleton list 0, its top
            // `matches` graded 1 and the rest 0.
            let crisp = MemorySource::from_pairs(
                (skeleton.list(0).iter().enumerate())
                    .map(|(rank, object)| (object, Grade::from_bool(rank < matches))),
            );
            // List 1: fuzzy grades along skeleton list 1.
            let grades = UniformGrades.descending_grades(n, &mut rng);
            let fuzzy = MemorySource::from_pairs(skeleton.list(1).iter().zip(grades));
            let lists = [crisp, fuzzy];
            // Filtered strategy.
            let filtered = EngineSession::filtered(lists.to_vec(), 0, min_agg());
            filtered_cost += page_bill(filtered, k.min(n)).unweighted();
            // A0' on the same two lists.
            fa_cost += fagin_min_run(&lists, k).unwrap().stats.unweighted();
        }
        let filtered = filtered_cost as f64 / trials as f64;
        let fa = fa_cost as f64 / trials as f64;
        let winner = if filtered < fa { "filtered" } else { "A0'" };
        winners.push(winner.as_bytes()[0] as char);
        out.row(format!("{p};{matches};{filtered:.0};{fa:.0};{winner}"));
        let what = format!("selectivity {p}: the filtered strategy bills exactly 2|S|");
        out.check(filtered == 2.0 * matches as f64, what);
    }
    out.note("the winner column should flip from 'filtered' to \"A0'\" as selectivity rises");
    let flips_once = winners.starts_with('f') && winners.ends_with('A') && !winners.contains("Af");
    let what = "the winner flips once, from filtered to A0', as the selectivity rises";
    out.check(flips_once, what);
    out
}

pub(super) fn e14(trials: usize, small: bool) -> Outcome {
    let (n, k) = (if small { 2048 } else { 16_384 }, 10);
    // Measure access stats once per trial; re-weigh afterwards.
    let (mut fa_stats, mut naive_stats) = (Vec::new(), Vec::new());
    for seed in seeds(140_000, trials) {
        fa_stats.push(a0_bill(&independent_workload(2, n, seed), k));
        let scan = EngineSession::scan(independent_workload(2, n, seed), min_agg());
        naive_stats.push(page_bill(scan, k));
    }
    let title = format!("E14: cost-model weighting sweep (m = 2, N = {n}, k = 10)");
    let mut out = Outcome::new(title, "c1 (sorted);c2 (random);A0 cost;naive cost;speedup");
    let (mut bracketed, mut speedups) = (true, Vec::new());
    for (c1, c2) in [(1, 1), (1, 10), (10, 1), (1, 100), (100, 1)] {
        let (c1, c2) = (c1 as f64, c2 as f64);
        let model = CostModel::new(c1, c2);
        let mut cost = |stats: &[AccessStats]| {
            for s in stats {
                let (weighted, plain) = (model.middleware_cost(*s), s.unweighted() as f64);
                bracketed &= c1.min(c2) * plain <= weighted && weighted <= c1.max(c2) * plain;
            }
            stats.iter().map(|s| model.middleware_cost(*s)).sum::<f64>() / trials as f64
        };
        let (fa, naive) = (cost(&fa_stats), cost(&naive_stats));
        let speedup = naive / fa;
        out.row(format!("{c1:.0};{c2:.0};{fa:.0};{naive:.0};{speedup:.1}x"));
        if c2 <= c1 {
            out.check(
                naive > fa,
                format!("(c1, c2) = ({c1}, {c2}): A0 beats the naive scan"),
            );
        }
        speedups.push((c2 / c1, naive / fa));
    }
    out.note("the naive scan uses 0 random accesses, so extreme c2 weightings are its best case:");
    out.note("at (1, 100) it can win at this N — Θ-optimality is asymptotic, and the crossover N grows with c2/c1");
    out.note("for every weighting A0 wins again once N is large enough (its cost is O(sqrt(Nk)) in *both* access kinds)");
    out.check(
        bracketed,
        "every weighted cost lies within min(c1, c2) and max(c1, c2) times the unweighted one",
    );
    speedups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let falling = speedups.windows(2).all(|w| w[0].1 > w[1].1);
    out.check(falling, "A0's speedup falls strictly as c2/c1 rises");
    out
}

pub(super) fn e15(trials: usize, small: bool) -> Outcome {
    let ns = sweep(1000, 1, if small { 4 } else { 6 }); // 1k .. 32k
    let k = 10;
    let headers = "N;A AND NOT B (indep);Q AND NOT Q (self);naive 2N";
    let title = "E15: negation pushdown (complement sources), k = 10";
    let mut out = Outcome::new(title, headers);
    let (mut indep_costs, mut self_costs) = (Vec::new(), Vec::new());
    for &n in &ns {
        let (mut indep, mut selfneg) = (0, 0);
        for seed in seeds(150_000, trials) {
            let mut sources = independent_database(2, n, seed).to_sources();
            let b = sources.pop().expect("two lists");
            let a = sources.pop().expect("two lists");
            // A ∧ ¬B: complement the independent second list; Q ∧ ¬Q:
            // complement the SAME list (the §7 hard pairing).
            for (negated, cost) in [(b, &mut indep), (a.clone(), &mut selfneg)] {
                let negated = Box::new(ComplementSource::new(negated));
                let pair: [Box<dyn GradedSource>; 2] = [Box::new(a.clone()), negated];
                *cost += a0_bill(&pair, k).unweighted();
            }
        }
        let (indep, selfneg) = (indep as f64 / trials as f64, selfneg as f64 / trials as f64);
        indep_costs.push(indep);
        self_costs.push(selfneg);
        out.row(format!("{n};{indep:.0};{selfneg:.0};{}", 2 * n));
        let what = format!("N = {n}: Q AND NOT Q bills exactly 2N");
        out.check(selfneg == 2.0 * n as f64, what);
    }
    let indep = out.slope("A AND NOT B: slope in N", &ns, &indep_costs, 0.5, 0.15);
    let indep = indep.slope;
    let selfneg = exponent(&ns, &self_costs).slope;
    out.note(format!(
        "A AND NOT B exponent {indep:.3} — sublinear, Theorem 5.3 applies to the complemented list"
    ));
    out.note(format!("Q AND NOT Q exponent {selfneg:.3} — linear, Theorem 7.1's hard query (same machinery, correlated lists)"));
    out
}

pub(super) fn e16(trials: usize, _small: bool) -> Outcome {
    // Configurations satisfying the lemma's l1 <= N/10 hypothesis, plus one
    // deliberate violation to show where statement D needs it.
    let configs = [
        Lemma51Params::new(1000, 100, 100), // M = 10, boundary l1 = N/10
        Lemma51Params::new(4000, 400, 200), // M = 20
        Lemma51Params::new(4000, 200, 100), // M = 5
        Lemma51Params::new(400, 80, 80),    // M = 16 — VIOLATES l1 <= N/10
    ];
    let headers = "N;l1;l2;M;hyp ok;direct;P1;P2;P3;P4;e^(-M/10)";
    let mut out = Outcome::new("E16: Lemma 5.1's domination chain", headers);
    let processes = [
        sample_intersection,
        process1_heads,
        process2_heads,
        process3_heads,
        process4_heads,
    ];
    for (seed, p) in (160_000u64..).step_by(10).zip(configs) {
        let tail = |(j, process)| tail_at_most(process, p, trials, seed + j);
        let tails: Vec<f64> = (0..).zip(processes).map(tail).collect();
        let (m, hyp) = (p.expected_intersection(), p.satisfies_hypothesis());
        let probs: Vec<String> = tails.iter().map(|&q| fmt_prob(q)).collect();
        let (n, l1, l2, bound) = (p.n, p.l1, p.l2, p.bound());
        out.row(format!(
            "{n};{l1};{l2};{m};{hyp};{};{}",
            probs.join(";"),
            fmt_prob(bound)
        ));
        if hyp {
            let interval = |q: f64| wilson((q * trials as f64).round() as usize, trials);
            let below_next = |w: &[f64]| interval(w[0]).0 <= interval(w[1]).1;
            let what = format!("N = {n}, l1 = {l1}, l2 = {l2}:");
            let chain = format!("{what} no column is significantly above the next (Wilson, z = 3)");
            out.check(tails.windows(2).all(below_next), chain);
            let p4 = format!("{what} P4's interval reaches below e^(-M/10)");
            out.check(interval(tails[4]).0 < bound, p4);
        }
    }
    out.note("where the l1 <= N/10 hypothesis holds, each probability column weakly dominates the one to its left");
    out.note(
        "the final bound column must strictly dominate everything in hypothesis-satisfying rows",
    );
    out.note("the last row violates the hypothesis: statement D's P3 <= P4 ordering can flip there (the lemma needs its hypothesis!)");
    out
}

pub(super) fn e17(trials: usize, small: bool) -> Outcome {
    // `--small` is the CI perf-smoke configuration: the same pipeline at
    // 1k..4k so the job finishes in seconds while still fitting a slope.
    let ns = sweep(1000, 1, if small { 3 } else { 6 }); // 1k ..
    let k = 10;
    let queries = [
        (
            "conjunction (A0')",
            "Color = red AND Texture = striped",
            "FaMin",
        ),
        ("disjunction (B0)", "Color = red OR Color = blue", "B0Max"),
        (
            "nested (A0, thresh.)",
            "Color = red AND (Shape = round OR Texture = smooth)",
            "FaGeneric",
        ),
    ];
    let headers = "query;N;strategy;mean cost;cost/scale";
    let mut out = Outcome::new("E17: full middleware stack scaling (k = 10)", headers);
    let mut slopes = Vec::new();
    for (label, text, intended) in queries {
        let query = parse_query(text).expect("example queries parse");
        let m = query.atoms().len();
        let mut costs = Vec::new();
        for &n in &ns {
            let mut strategy = String::new();
            let mean = mean(seeds(170_000, trials), |seed| {
                let mut catalog = Catalog::new();
                catalog
                    .register(QbicStore::synthetic("qbic", n, &mut seeded_rng(seed)))
                    .unwrap();
                let result = Garlic::new(catalog).top_k(&query, k).unwrap();
                strategy = format!("{:?}", result.plan.strategy);
                result.stats.unweighted()
            });
            costs.push(mean);
            let what = format!("{label}, N = {n}: the planner picks {intended}");
            out.check(strategy == intended, what);
            out.row(format!(
                "{label};{n};{strategy};{mean:.0};{:.3}",
                mean / cost_scale(n as f64, m, k as f64)
            ));
        }
        let fit = match intended {
            "FaMin" => out.slope("conjunction: slope in N", &ns, &costs, 0.5, 0.2),
            _ => exponent(&ns, &costs),
        };
        out.note(format!(
            "{label}: end-to-end cost exponent {:.3}",
            fit.slope
        ));
        slopes.push((fit.slope, costs));
    }
    let flat = slopes[1].1.iter().all(|&c| c == 2.0 * k as f64);
    out.check(flat, "the disjunction bills exactly 2k at every N");
    let nested = slopes[2].0;
    out.check(
        nested <= 2.0 / 3.0 + 0.15,
        format!("nested: slope in N {nested:.3} is at most 2/3 + 0.15"),
    );
    out
}
