//! E06 — the provably hard query `Q ∧ ¬Q` (Theorem 7.1): its middleware
//! cost is Θ(N); the naive linear algorithm is essentially optimal.
//!
//! We generate the exact Section 7 instance (list 2 the reverse of list 1,
//! grades complementary and pairwise distinct) and run A₀ on it. The
//! intersection of prefixes stays empty until depth ≈ N/2, so A₀'s cost —
//! like every correct algorithm's — grows linearly, in stark contrast to
//! the √N of independent lists (E01).

use garlic_agg::iterated::min_agg;
use garlic_bench::{emit, ExpArgs};
use garlic_core::access::{counted, total_stats};
use garlic_core::algorithms::{fa::fagin_run, naive::naive_topk};
use garlic_stats::table::fmt_f64;
use garlic_stats::{log_log_fit, Table};
use garlic_workload::correlation::hard_query_database;

fn main() {
    let args = ExpArgs::parse(10);
    let ns: Vec<usize> = (0..6).map(|i| 1000 << i).collect(); // 1k .. 32k
    let k = 1;

    let mut table = Table::new(&["N", "A0 cost", "naive cost", "A0/naive", "A0 cost/N"]);
    let mut a0_costs = Vec::new();
    for &n in &ns {
        let mut a0_total = 0u64;
        let mut naive_total = 0u64;
        for t in 0..args.trials {
            let mut rng = garlic_workload::seeded_rng(60_000 + t as u64);
            let db = hard_query_database(n, &mut rng);

            let sources = counted(db.to_sources());
            fagin_run(&sources, &min_agg(), k).unwrap();
            a0_total += total_stats(&sources).unweighted();

            let sources = counted(db.to_sources());
            naive_topk(&sources, &min_agg(), k).unwrap();
            naive_total += total_stats(&sources).unweighted();
        }
        let a0 = a0_total as f64 / args.trials as f64;
        let naive = naive_total as f64 / args.trials as f64;
        a0_costs.push(a0);
        table.add_row(vec![
            n.to_string(),
            fmt_f64(a0, 0),
            fmt_f64(naive, 0),
            fmt_f64(a0 / naive, 3),
            fmt_f64(a0 / n as f64, 3),
        ]);
    }

    let fit = log_log_fit(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), &a0_costs);
    let note = format!(
        "measured exponent {} (Theorem 7.1 predicts 1.0 — linear); compare 0.5 on independent lists (E01)",
        fmt_f64(fit.slope, 3)
    );
    emit(
        "E06: the hard query Q AND NOT Q",
        "Theorem 7.1: middleware cost Θ(N); the naive algorithm is optimal up to a constant",
        &args,
        &table,
        &[&note],
    );
}
