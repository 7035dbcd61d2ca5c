//! Federated search: every extension in one walkthrough — weighted
//! conjunctions ([FW97], §4), negation pushdown (NNF + complement sources,
//! §7's π_¬Q observation), and paged "next k" browsing (§4's continue-
//! where-we-left-off) — across three subsystems.
//!
//! ```sh
//! cargo run --release --example federated_search
//! ```

use garlic::middleware::{Catalog, Garlic, GarlicQuery, PlannerOptions, QueryRequest};
use garlic::subsys::cd_store::{demo_albums, demo_subsystems};
use garlic::subsys::Target;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let (relational, qbic, text) = demo_subsystems(&mut rng);
    let albums = demo_albums();
    let name_of = |i: usize| format!("{} — {}", albums[i].title, albums[i].artist);

    let mut catalog = Catalog::new();
    catalog.register(relational.clone()).unwrap();
    catalog.register(qbic.clone()).unwrap();
    catalog.register(text.clone()).unwrap();
    let garlic = Garlic::with_options(
        catalog,
        PlannerOptions {
            negation_pushdown: true,
            ..Default::default()
        },
    );

    // 1. Weighted conjunction: colour twice as important as review match.
    println!("== weighted: red covers (x2) with rock reviews (x1)");
    let red_rock = GarlicQuery::and(
        GarlicQuery::atom("AlbumColor", Target::text("red")),
        GarlicQuery::atom("Review", Target::terms(&["rock"])),
    );
    let weighted = garlic
        .run(&QueryRequest {
            weights: &[2.0, 1.0],
            ..QueryRequest::new(&red_rock, 3)
        })
        .unwrap();
    for e in weighted.answers.entries() {
        println!("   {:<30} grade {}", name_of(e.object.index()), e.grade);
    }
    println!("   cost: {}\n", weighted.stats);

    // 2. Negation pushdown: red covers that are NOT round — planned as A0
    //    over a complemented (reversed) shape list, not a full scan.
    println!("== negated: red covers that are NOT round (NNF pushdown)");
    let q = GarlicQuery::and(
        GarlicQuery::atom("AlbumColor", Target::text("red")),
        GarlicQuery::not(GarlicQuery::atom("Shape", Target::text("round"))),
    );
    let negated = garlic.top_k(&q, 3).unwrap();
    println!("   strategy: {:?}", negated.plan.strategy);
    for e in negated.answers.entries() {
        println!("   {:<30} grade {}", name_of(e.object.index()), e.grade);
    }
    println!("   cost: {}\n", negated.stats);

    // 3. Paged browsing: "show me 4, then the next 4" — total cost equals
    //    one top-8 evaluation thanks to A0's resumability.
    println!("== paged: psychedelic-or-rock reviews AND red-ish covers, 2 pages of 4");
    let browse = GarlicQuery::and(
        GarlicQuery::atom("AlbumColor", Target::text("red")),
        GarlicQuery::or(
            GarlicQuery::atom("Review", Target::terms(&["psychedelic"])),
            GarlicQuery::atom("Review", Target::terms(&["rock"])),
        ),
    );
    let mut session = garlic.open_session(&QueryRequest::new(&browse, 8)).unwrap();
    for p in 1..=2 {
        println!("   page {p}:");
        for e in session.next_batch(4).unwrap().entries() {
            println!("     {:<28} grade {}", name_of(e.object.index()), e.grade);
        }
    }
    println!("   total cost across both pages: {}", session.stats());
}
