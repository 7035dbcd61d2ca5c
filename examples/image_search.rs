//! Image search at scale: `(Color = "red") AND (Shape = "round")` over a
//! synthetic QBIC collection of 5000 images — the exact query Section 4
//! uses to motivate algorithm A0 — comparing the middleware cost of A0'
//! against the naive scan.
//!
//! ```sh
//! cargo run --release --example image_search
//! ```

use garlic::agg::iterated::min_agg;
use garlic::core::access::{counted, total_stats};
use garlic::core::algorithms::{fa_min::fagin_min_run, naive::naive_topk};
use garlic::subsys::{AtomicQuery, QbicStore, Subsystem, Target};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let store = QbicStore::synthetic("qbic", 5000, &mut rng);
    println!("indexed {} synthetic images", store.len());

    let color_q = AtomicQuery::new("Color", Target::text("red"));
    let shape_q = AtomicQuery::new("Shape", Target::text("round"));

    // Each atomic query is answered by the subsystem as a graded set.
    let color = store.evaluate(&color_q).expect("known colour");
    let shape = store.evaluate(&shape_q).expect("known shape");

    // Fagin's Algorithm, min-specialised (A0'), with its own bill.
    let run = fagin_min_run(&[color, shape], 10).expect("valid query");
    let fa_cost = run.stats;

    println!("\ntop 10 red AND round images (min rule):");
    for e in run.topk.entries() {
        let img = store.image(e.object).unwrap();
        println!(
            "  image {:>4}  grade {}  (roundness {:.2}, elongation {:.2})",
            e.object.0, e.grade, img.roundness, img.elongation
        );
    }

    println!("\nA0' diagnostics:");
    println!("  sorted depth T:     {}", run.stop_depth);
    println!("  threshold g0:       {}", run.threshold);
    println!("  candidates probed:  {}", run.candidates);
    println!("  middleware cost:    {fa_cost}");

    // The naive baseline pays 2N.
    let color = store.evaluate(&color_q).unwrap();
    let shape = store.evaluate(&shape_q).unwrap();
    // The scan consumes every entry it reads, so a meter around each list
    // counts its bill.
    let naive_sources = counted(vec![color, shape]);
    let reference = naive_topk(&naive_sources, &min_agg(), 10).unwrap();
    let naive_cost = total_stats(&naive_sources);
    println!("  naive cost:         {naive_cost}");
    println!(
        "  speedup:            {:.1}x",
        naive_cost.unweighted() as f64 / fa_cost.unweighted() as f64
    );

    assert!(
        run.topk.same_grades(&reference, 1e-12),
        "A0' must agree with the naive reference"
    );
    println!("\nanswers verified against the naive reference ✓");
}
