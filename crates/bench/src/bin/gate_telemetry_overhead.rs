//! Self-checking gate: production telemetry costs at most 5 %.
//!
//! The identical A₀ conjunction (N = 100k, two of three lists, k = 10)
//! runs through the middleware with a metrics registry attached and
//! unattached — one registry check plus one histogram record *per query*,
//! never per entry. The sides are timed interleaved in one process; the
//! binary exits non-zero when `attached > 1.05 × unattached`. `bench_e2e`
//! cannot see this: its own tracing wrappers cost more than the bound.

use std::hint::black_box;

use garlic_bench::{gate_holds, interleaved_medians};
use garlic_middleware::{Catalog, Garlic, GarlicQuery, Telemetry};
use garlic_subsys::{Target, VectorSubsystem};
use garlic_workload::distributions::UniformGrades;
use garlic_workload::scoring::ScoringDatabase;
use garlic_workload::skeleton::Skeleton;

const N: usize = 100_000;
const K: usize = 10;
const BOUND: f64 = 1.05;
const ROUNDS: usize = 31;
const QUERIES_PER_ROUND: usize = 16;

fn main() {
    let mut rng = garlic_workload::seeded_rng(24117);
    let skeleton = Skeleton::random(3, N, &mut rng);
    let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
    let mut subsystem = VectorSubsystem::new("vectors", N);
    for (attr, source) in ["A", "B", "C"].into_iter().zip(db.to_sources()) {
        subsystem = subsystem.with_source(attr, source);
    }
    let mut catalog = Catalog::new();
    catalog.register(subsystem).unwrap();
    let plain = Garlic::new(catalog);
    let attached = plain.clone().with_telemetry(Telemetry::new());
    let query = GarlicQuery::and(
        GarlicQuery::atom("A", Target::text("t")),
        GarlicQuery::atom("B", Target::text("t")),
    );

    let round = |g: &Garlic| {
        for _ in 0..QUERIES_PER_ROUND {
            black_box(g.top_k(black_box(&query), K).unwrap().answers.len());
        }
    };
    let (at, un) = interleaved_medians(ROUNDS, || round(&attached), || round(&plain));
    if !gate_holds("telemetry attached / unattached", at, un, BOUND) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_fails_above_five_percent_and_holds_below_it() {
        assert!(gate_holds("synthetic", 1049.0, 1000.0, BOUND));
        assert!(!gate_holds("synthetic", 1051.0, 1000.0, BOUND));
    }
}
