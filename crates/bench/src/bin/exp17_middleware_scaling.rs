//! E17 (integration) — the full Garlic stack at scale: parsed text queries
//! planned and executed through catalog → planner → subsystem, verifying
//! that the end-to-end middleware cost keeps the Theorem 5.3 shape that
//! E01 measured for the bare algorithm (at most: the nested positive query
//! runs A₀ with a threshold stop, whose sorted phase can end before A₀'s),
//! and that each query shape lands on its intended strategy.

use garlic_bench::{emit, ExpArgs};
use garlic_middleware::{parse_query, Catalog, Garlic};
use garlic_stats::bounds::cost_scale;
use garlic_stats::table::fmt_f64;
use garlic_stats::{log_log_fit, Table};
use garlic_subsys::QbicStore;

fn main() {
    let args = ExpArgs::parse(5);
    // `--small` is the CI perf-smoke configuration: the same pipeline at
    // 1k..4k so the job finishes in seconds while still fitting a slope.
    let points = if args.small { 3 } else { 6 };
    let ns: Vec<usize> = (0..points).map(|i| 1000 << i).collect(); // 1k ..
    let k = 10;

    let queries = [
        ("conjunction (A0')", "Color = red AND Texture = striped"),
        ("disjunction (B0)", "Color = red OR Color = blue"),
        (
            "nested (A0, thresh.)",
            "Color = red AND (Shape = round OR Texture = smooth)",
        ),
    ];

    let mut table = Table::new(&["query", "N", "strategy", "mean cost", "cost/scale"]);
    let mut notes_owned = Vec::new();
    for (label, text) in queries {
        let query = parse_query(text).expect("example queries parse");
        let m = query.atoms().len();
        let mut costs = Vec::new();
        for &n in &ns {
            let mut total = 0u64;
            let mut strategy = String::new();
            for t in 0..args.trials {
                let mut rng = garlic_workload::seeded_rng(170_000 + t as u64);
                let store = QbicStore::synthetic("qbic", n, &mut rng);
                let mut catalog = Catalog::new();
                catalog.register(store).unwrap();
                let garlic = Garlic::new(catalog);
                let result = garlic.top_k(&query, k).unwrap();
                total += result.stats.unweighted();
                strategy = format!("{:?}", result.plan.strategy);
            }
            let mean = total as f64 / args.trials as f64;
            costs.push(mean);
            let scale = cost_scale(n as f64, m, k as f64);
            table.add_row(vec![
                label.to_owned(),
                n.to_string(),
                strategy,
                fmt_f64(mean, 0),
                fmt_f64(mean / scale, 3),
            ]);
        }
        let fit = log_log_fit(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), &costs);
        notes_owned.push(format!(
            "{label}: end-to-end cost exponent {}",
            fmt_f64(fit.slope, 3)
        ));
    }

    let notes: Vec<&str> = notes_owned.iter().map(String::as_str).collect();
    emit(
        "E17: full middleware stack scaling (k = 10)",
        "integration: parsed queries through catalog/planner/executor keep the Theorem 5.3 cost shape; B0 queries stay flat",
        &args,
        &table,
        &notes,
    );
}
