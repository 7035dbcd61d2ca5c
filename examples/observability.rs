//! The telemetry layer end to end: attach one registry to the middleware,
//! EXPLAIN a few queries (executed traces with per-source Section 5
//! bills), serve a concurrent batch, and dump the accumulated registry as
//! Prometheus text — counters, gauges, and latency quantiles from every
//! layer that recorded into it.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::sync::Arc;

use garlic::middleware::{Catalog, Garlic, GarlicQuery, GarlicService, QueryRequest, Telemetry};
use garlic::subsys::{Target, VectorSubsystem};
use garlic::Grade;

fn main() {
    // A deterministic 20k-object corpus over three graded attributes.
    let n = 20_000;
    let mut rng = garlic_workload::seeded_rng(1996);
    use rand::Rng;
    let mut sub = VectorSubsystem::new("vectors", n);
    for attr in ["Color", "Shape", "Texture"] {
        let grades: Vec<Grade> = (0..n)
            .map(|_| Grade::clamped(rng.gen_range(0..=1000) as f64 / 1000.0))
            .collect();
        sub = sub.with_list(attr, &grades);
    }
    let mut catalog = Catalog::new();
    catalog.register(sub).unwrap();

    // One registry for the whole process. `with_telemetry` is the only
    // switch: without it every recording site below is dead code.
    let telemetry = Telemetry::new();
    let garlic = Garlic::new(catalog).with_telemetry(Arc::clone(&telemetry));

    // 1. EXPLAIN — a request with `trace` set: plan + *execute* + render
    //    the span tree next to the answers. The per-source
    //    S/R counts in the trace are read from the same engine-session
    //    bill the result's stats sum — they cannot drift.
    let atom = |a: &str| GarlicQuery::atom(a, Target::text("t"));
    let queries = [
        GarlicQuery::and(atom("Color"), atom("Shape")),
        GarlicQuery::or(atom("Color"), atom("Texture")),
        GarlicQuery::and(atom("Color"), GarlicQuery::not(atom("Shape"))),
    ];
    for query in &queries {
        let request = QueryRequest {
            trace: true,
            ..QueryRequest::new(query, 10)
        };
        let result = garlic.run(&request).unwrap();
        let ex = result.explain.as_ref().expect("a traced request explains");
        println!("{ex}");
        let summed = ex
            .per_source
            .iter()
            .fold(garlic::AccessStats::default(), |acc, (_, s)| acc + *s);
        assert_eq!(summed, result.stats, "trace counts are the billed counts");
        println!(
            "   billed {} == sum of {} per-source spans\n",
            result.stats,
            ex.per_source.len()
        );
    }

    // 2. A concurrent service batch over the same instrumented middleware:
    //    the service layer adds queue depth and per-query latency.
    let service = GarlicService::new(garlic);
    let batch: Vec<(GarlicQuery, usize)> = (0..12)
        .map(|i| {
            (
                GarlicQuery::and(atom("Color"), atom(["Shape", "Texture"][i % 2])),
                5 + 5 * i,
            )
        })
        .collect();
    let requests: Vec<_> = batch
        .iter()
        .map(|(q, k)| QueryRequest::new(q, *k))
        .collect();
    let results = service.serve_batch(&requests);
    println!(
        "== served {} queries on {} worker threads",
        results.len(),
        service.threads()
    );

    // 3. The registry, scraped. Counters/gauges/histograms from the
    //    middleware and service layers land here; a disk-backed catalog
    //    would add cache hit rates, I/O retries, and shard fan-out under
    //    `storage.*` through the same snapshot.
    let snap = telemetry.snapshot();
    println!("\n== telemetry snapshot (Prometheus exposition)");
    print!("{}", snap.to_prometheus());
    println!(
        "\n(JSON form: {} bytes via snapshot.to_json())",
        snap.to_json().len()
    );
}
