//! Watch Theorem 5.3 emerge: sweep the database size and print A0's
//! measured middleware cost next to the √(Nk) prediction, plus the fitted
//! exponent. A miniature, chatty version of experiment E01.
//!
//! ```sh
//! cargo run --release --example cost_explorer
//! ```

use garlic::agg::iterated::min_agg;
use garlic::core::algorithms::fa::fagin_run;
use garlic::stats::log_log_fit;
use garlic::workload::distributions::UniformGrades;
use garlic::workload::scoring::ScoringDatabase;
use garlic::workload::skeleton::Skeleton;

fn main() {
    let k = 10;
    let m = 2;
    let trials = 10;
    println!("A0 over m = {m} independent lists, k = {k}, {trials} trials per size\n");
    println!(
        "{:>8}  {:>12}  {:>14}  {:>10}",
        "N", "mean cost", "sqrt(N*k)", "ratio"
    );

    let mut ns = Vec::new();
    let mut costs = Vec::new();
    for exp in 0..7 {
        let n = 1000usize << exp;
        let mut total = 0u64;
        for t in 0..trials {
            let mut rng = garlic::workload::seeded_rng(9000 + t);
            let skeleton = Skeleton::random(m, n, &mut rng);
            let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
            let run = fagin_run(&db.to_sources(), &min_agg(), k).expect("valid parameters");
            total += run.stats.unweighted();
        }
        let mean = total as f64 / trials as f64;
        let scale = ((n * k) as f64).sqrt();
        println!(
            "{n:>8}  {mean:>12.1}  {scale:>14.1}  {:>10.3}",
            mean / scale
        );
        ns.push(n as f64);
        costs.push(mean);
    }

    let fit = log_log_fit(&ns, &costs);
    println!(
        "\nfitted: cost ≈ {:.2} · N^{:.3}   (paper: Θ(N^0.5) for m = 2)",
        fit.intercept.exp(),
        fit.slope
    );
    println!("R² = {:.4}", fit.r_squared);
    println!(
        "\nDoubling the database multiplies A0's cost by ~{:.2} — not 2.",
        2f64.powf(fit.slope)
    );
}
