//! Quickstart: top-k over two ranked lists with Fagin's Algorithm.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use garlic::agg::iterated::min_agg;
use garlic::core::access::MemorySource;
use garlic::core::algorithms::fa::fagin_run;
use garlic::Grade;

fn main() {
    // Two subsystems grade the same five objects: one by colour match, one
    // by shape match (the paper's (Color="red") AND (Shape="round")).
    let g = |v: f64| Grade::new(v).expect("grade in [0,1]");
    let color = MemorySource::from_grades(&[g(0.95), g(0.30), g(0.80), g(0.60), g(0.10)]);
    let shape = MemorySource::from_grades(&[g(0.20), g(0.90), g(0.75), g(0.85), g(0.40)]);

    // The standard fuzzy conjunction takes the min of the two grades. The
    // run bills its own middleware cost (Section 5): the entries it
    // consumed by sorted access and the grades it probed.
    let run = fagin_run(&[color, shape], &min_agg(), 3).expect("valid query");

    println!("top 3 under (Color = red) AND (Shape = round), min rule:");
    print!("{}", run.topk);
    println!("middleware cost: {}", run.stats);
    println!("(the naive algorithm would retrieve all 2 x 5 = 10 entries)");
}
