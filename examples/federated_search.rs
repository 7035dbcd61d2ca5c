//! Federated search: every extension in one walkthrough — weighted
//! conjunctions ([FW97], §4), negation pushdown (NNF + complement sources,
//! §7's π_¬Q observation), and paged "next k" browsing (§4's continue-
//! where-we-left-off) — across three subsystems.
//!
//! ```sh
//! cargo run --release --example federated_search
//! ```

use garlic::middleware::{Catalog, Garlic, GarlicQuery, PlannerOptions};
use garlic::subsys::cd_store::{demo_albums, demo_subsystems};
use garlic::subsys::{AtomicQuery, Target};
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
    let weighted = garlic
        .top_k_weighted(
            &[
                (AtomicQuery::new("AlbumColor", Target::text("red")), 2.0),
                (AtomicQuery::new("Review", Target::terms(&["rock"])), 1.0),
            ],
            3,
        )
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
    let (pages, stats) = garlic.top_k_paged(&browse, &[4, 4]).unwrap();
    for (p, page) in pages.iter().enumerate() {
        println!("   page {}:", p + 1);
        for e in page.entries() {
            println!("     {:<28} grade {}", name_of(e.object.index()), e.grade);
        }
    }
    println!("   total cost across both pages: {stats}");
}
