//! The multi-user middleware, literally: one shared catalog, a
//! `GarlicService` executing a batch of independent queries on a scoped
//! thread pool, and several "user" threads issuing their own queries
//! against the same service — with per-query Section 5 access counts
//! identical to what a sequential run would report.
//!
//! ```sh
//! cargo run --release --example service_demo
//! ```

use std::sync::Arc;

use garlic::middleware::{parse_query, Catalog, Garlic, GarlicService, QueryRequest};
use garlic::subsys::cd_store::{demo_albums, demo_subsystems};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let (relational, qbic, text) = demo_subsystems(&mut rng);
    let albums = demo_albums();
    let name_of = |i: usize| format!("{} — {}", albums[i].title, albums[i].artist);

    // One owned catalog: 'static, Send + Sync, shared by every thread below.
    let mut catalog = Catalog::new();
    catalog.register(relational).unwrap();
    catalog.register(qbic).unwrap();
    catalog.register(text).unwrap();
    let service = GarlicService::new(Garlic::new(catalog));
    println!(
        "service over {} subsystems, {} worker threads\n",
        service.garlic().catalog().subsystems().len(),
        service.threads()
    );

    // 1. A batch of independent queries, executed concurrently. Results
    //    come back in request order, each with its own measured cost.
    let texts = [
        r#"Artist = "Beatles" AND AlbumColor = red"#,
        "AlbumColor = red AND Shape = round",
        "AlbumColor = blue OR Shape = round",
        r#"Review ~ "psychedelic rock" AND AlbumColor = red"#,
        "AlbumColor = green AND NOT Shape = round",
        r#"Artist = "Kinks""#,
        "Shape = oval AND AlbumColor = orange",
        r#"Review ~ "gentle folk" OR AlbumColor = purple"#,
    ];
    let queries: Vec<_> = texts
        .iter()
        .map(|t| parse_query(t).expect("demo queries parse"))
        .collect();
    let batch: Vec<_> = queries.iter().map(|q| QueryRequest::new(q, 2)).collect();

    println!("== batch of {} queries, served concurrently", batch.len());
    for (text, result) in texts.iter().zip(service.serve_batch(&batch)) {
        let result = result.expect("demo queries execute");
        let best = result
            .answers
            .best()
            .map(|e| format!("{} ({})", name_of(e.object.index()), e.grade))
            .unwrap_or_else(|| "no match".to_owned());
        println!("   {text:<55} -> {best:<40} cost {}", result.stats);
    }

    // 2. The same service shared by concurrent "users": clone handles are
    //    cheap, sessions are independent, answers deterministic.
    println!("\n== four user threads sharing the service");
    let service = Arc::new(service);
    std::thread::scope(|scope| {
        for (user, text) in texts.iter().take(4).enumerate() {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let query = parse_query(text).expect("demo queries parse");
                let result = service.top_k(&query, 1).expect("demo queries execute");
                let answer = result
                    .answers
                    .best()
                    .map(|e| name_of(e.object.index()))
                    .unwrap_or_else(|| "no match".to_owned());
                println!("   user {user}: {text:<55} -> {answer}");
            });
        }
    });
}
