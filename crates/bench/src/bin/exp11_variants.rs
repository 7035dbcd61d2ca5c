//! E11 — the constant-factor refinements of Section 4: per-list depth
//! shrinking ("find Tᵢ ≤ T ... which could lead to fewer random accesses")
//! and algorithm A₀′ (Proposition 4.3: random access only for the pivot
//! list's candidates).
//!
//! All three variants share an identical sorted phase; the random-access
//! column is where they separate.

use garlic_agg::iterated::min_agg;
use garlic_bench::{emit, independent_workload, ExpArgs};
use garlic_core::access::total_stats;
use garlic_core::algorithms::fa::{fagin_run, fagin_shrunk_run};
use garlic_core::algorithms::fa_min::fagin_min_run;
use garlic_stats::table::fmt_f64;
use garlic_stats::Table;
use garlic_workload::distributions::UniformGrades;

fn main() {
    let args = ExpArgs::parse(20);
    let n = 32_768;
    let k = 10;

    let mut table = Table::new(&["m", "variant", "sorted", "random", "total", "vs A0"]);
    for m in [2usize, 3, 4] {
        let mut rows = [(0u64, 0u64); 3]; // (sorted, random) per variant
        for t in 0..args.trials {
            let seed = 110_000 + t as u64;

            let sources = independent_workload(m, n, &UniformGrades, seed);
            fagin_run(&sources, &min_agg(), k).unwrap();
            let s = total_stats(&sources);
            rows[0].0 += s.sorted;
            rows[0].1 += s.random;

            let sources = independent_workload(m, n, &UniformGrades, seed);
            fagin_shrunk_run(&sources, &min_agg(), k).unwrap();
            let s = total_stats(&sources);
            rows[1].0 += s.sorted;
            rows[1].1 += s.random;

            let sources = independent_workload(m, n, &UniformGrades, seed);
            fagin_min_run(&sources, k).unwrap();
            let s = total_stats(&sources);
            rows[2].0 += s.sorted;
            rows[2].1 += s.random;
        }
        let names = ["A0", "A0 + shrink Ti", "A0' (min)"];
        let base_total = (rows[0].0 + rows[0].1) as f64 / args.trials as f64;
        for (i, name) in names.iter().enumerate() {
            let sorted = rows[i].0 as f64 / args.trials as f64;
            let random = rows[i].1 as f64 / args.trials as f64;
            table.add_row(vec![
                m.to_string(),
                (*name).to_owned(),
                fmt_f64(sorted, 1),
                fmt_f64(random, 1),
                fmt_f64(sorted + random, 1),
                format!("{}x", fmt_f64((sorted + random) / base_total, 3)),
            ]);
        }
    }

    emit(
        "E11: A0 refinements (N = 32768, k = 10)",
        "Section 4: per-list Ti and the A0' candidate set cut random accesses by constant factors; sorted cost is shared",
        &args,
        &table,
        &["all variants return identical answer grades (asserted by the test-suite)"],
    );
}
