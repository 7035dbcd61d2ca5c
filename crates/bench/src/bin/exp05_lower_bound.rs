//! E05 — the matching lower bound (Theorems 6.4–6.6).
//!
//! Lemma 6.2: any correct algorithm for a *strict* query that spends less
//! than `N` total accesses must drive its sorted depth `T` to the point
//! where `|∩ᵢ X^i_T| ≥ k`. That depth, `T*`, is a property of the skeleton
//! alone — so we measure its distribution directly and check:
//!
//! 1. A₀ stops exactly at `T*` (it is depth-optimal, not just
//!    order-optimal);
//! 2. Theorem 6.4's anti-concentration: `Pr[T* ≤ θ·N^((m−1)/m)k^(1/m)]
//!    ≤ θ^m` — no algorithm is likely to get away with a small constant.

use garlic_agg::iterated::min_agg;
use garlic_bench::{emit, ExpArgs};
use garlic_core::access::{counted, total_stats};
use garlic_core::algorithms::fa::fagin_run;
use garlic_stats::bounds::cost_scale;
use garlic_stats::table::{fmt_f64, fmt_prob};
use garlic_stats::{exceedance, Table};
use garlic_workload::distributions::UniformGrades;
use garlic_workload::scoring::ScoringDatabase;
use garlic_workload::skeleton::Skeleton;

fn main() {
    let args = ExpArgs::parse(500);
    let n = 10_000;
    let k = 1;
    let thetas = [0.25, 0.5, 0.75, 1.0];

    let mut table = Table::new(&[
        "m",
        "theta",
        "empirical P[T* <= theta*scale]",
        "Theorem 6.4 bound theta^m",
    ]);
    let mut notes_owned = Vec::new();
    for m in [2usize, 3] {
        let mut t_stars = Vec::with_capacity(args.trials);
        let mut a0_matches_tstar = true;
        for t in 0..args.trials {
            let mut rng = garlic_workload::seeded_rng(50_000 + t as u64);
            let skeleton = Skeleton::random(m, n, &mut rng);
            let t_star = skeleton.matching_depth(k);
            t_stars.push(t_star as f64);

            // Spot-check A0 depth-optimality on a subsample.
            if t % 50 == 0 {
                let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
                let sources = counted(db.to_sources());
                let run = fagin_run(&sources, &min_agg(), k).unwrap();
                if run.stop_depth != t_star {
                    a0_matches_tstar = false;
                }
                let _ = total_stats(&sources);
            }
        }
        let scale = cost_scale(n as f64, m, k as f64);
        for &theta in &thetas {
            // P[T* <= theta*scale] = 1 - P[T* > theta*scale].
            let p = 1.0 - exceedance(&t_stars, theta * scale);
            table.add_row(vec![
                m.to_string(),
                fmt_f64(theta, 2),
                fmt_prob(p),
                fmt_prob(theta.powi(m as i32)),
            ]);
        }
        notes_owned.push(format!(
            "m = {m}: A0 stop depth == T* on every sampled skeleton: {a0_matches_tstar}"
        ));
        notes_owned.push(format!(
            "m = {m}: mean T* = {} vs scale N^((m-1)/m)k^(1/m) = {} (ratio {})",
            fmt_f64(t_stars.iter().sum::<f64>() / t_stars.len() as f64, 1),
            fmt_f64(scale, 1),
            fmt_f64(
                t_stars.iter().sum::<f64>() / t_stars.len() as f64 / scale,
                3
            ),
        ));
    }

    let notes: Vec<&str> = notes_owned.iter().map(String::as_str).collect();
    emit(
        "E05: the lower-bound depth T* (N = 10000, k = 1)",
        "Theorem 6.4: P[cost <= min(c1,c2)*theta*N^((m-1)/m)k^(1/m)] <= theta^m for strict queries",
        &args,
        &table,
        &notes,
    );
}
