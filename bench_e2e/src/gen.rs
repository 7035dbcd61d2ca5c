//! Seeded inputs: the corpus, the query trace and the write stream.
//!
//! Everything here is a pure function of `(seed, Scale)`. The program under
//! test sees only what these functions return.

use garlic_agg::Grade;
use garlic_workload::correlation::latent_database;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Fuzzy attributes `F0..F5`.
pub const FUZZY: usize = 6;
/// Crisp attributes `C0` (1 % selectivity) and `C1` (5 %).
pub const CRISP_SELECTIVITY: [f64; 2] = [0.01, 0.05];
/// Rank correlation of the latent-factor corpus.
pub const RHO: f64 = 0.5;
/// Objects upserted in every attribute by one write round.
pub const WRITE_ROUND_OBJECTS: usize = 64;
/// A write round runs before every this-many-th query on `live_mixed`.
pub const QUERIES_PER_WRITE_ROUND: usize = 4;

/// All attribute names, fuzzy first.
pub fn attribute_names() -> Vec<String> {
    (0..FUZZY)
        .map(|i| format!("F{i}"))
        .chain((0..CRISP_SELECTIVITY.len()).map(|i| format!("C{i}")))
        .collect()
}

/// How much work one run does. Fixed per mode, never derived from time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Objects in the universe.
    pub n: usize,
    /// Queries in the trace (one pass runs all of them).
    pub queries: usize,
    /// Set-ups per end-to-end run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Whether results of this scale may be compared with other runs.
    pub comparable: bool,
}

impl Scale {
    /// The scale every committed number is measured at. One pass takes
    /// about 2 s on `flat_warm` and 3 s on `live_mixed` here, so a run fits
    /// three set-ups and at least three measured passes into its budget.
    pub const FULL: Scale = Scale {
        n: 100_000,
        queries: 600,
        setup_reps: 3,
        comparable: true,
    };
    /// `--quick`: a smoke run, stamped not comparable.
    pub const QUICK: Scale = Scale {
        n: 20_000,
        queries: 100,
        setup_reps: 1,
        comparable: false,
    };
}

/// Derives an independent stream for one input from the run seed.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The corpus: one dense grade vector per attribute (`grades[a][object]`),
/// in [`attribute_names`] order.
pub fn corpus(seed: u64, n: usize) -> Vec<Vec<Grade>> {
    let mut rng = stream(seed, 1);
    let db = latent_database(FUZZY, n, RHO, &mut rng);
    let mut lists: Vec<Vec<Grade>> = db
        .lists()
        .iter()
        .map(|set| {
            let mut grades = vec![Grade::ZERO; n];
            for entry in set.iter() {
                grades[entry.object.index()] = entry.grade;
            }
            grades
        })
        .collect();
    for selectivity in CRISP_SELECTIVITY {
        lists.push(
            (0..n)
                .map(|_| Grade::from_bool(rng.gen_bool(selectivity)))
                .collect(),
        );
    }
    lists
}

/// Zipf weights of ranks `0..n`: rank `r` weighs `1 / (r + 1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(s))
        .collect()
}

/// Every ordered choice of `arity` distinct ranks, with the probability
/// that drawing ranks one at a time without replacement, each in proportion
/// to its weight, produces exactly that choice. The probabilities sum to 1.
pub fn ordered_draws(weights: &[f64], arity: usize) -> Vec<(Vec<usize>, f64)> {
    let mut draws = vec![(Vec::new(), 1.0)];
    for _ in 0..arity {
        draws = draws
            .into_iter()
            .flat_map(|(picked, p): (Vec<usize>, f64)| {
                let left: f64 = (0..weights.len())
                    .filter(|rank| !picked.contains(rank))
                    .map(|rank| weights[rank])
                    .sum();
                (0..weights.len())
                    .filter(|rank| !picked.contains(rank))
                    .map(|rank| {
                        let mut next = picked.clone();
                        next.push(rank);
                        (next, p * weights[rank] / left)
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
    }
    draws
}

/// The query shapes of the trace, named after the strategy the planner
/// picks for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// `Fi = x AND Fj = y`.
    And2,
    /// `Fi = x AND Fj = y AND Fk = z`.
    And3,
    /// `Fi = x OR Fj = y`.
    Or2,
    /// `Fi = x AND (Fj = y OR Fk = z)`.
    Compound,
    /// `Cc = yes AND Fi = x`.
    Filtered,
    /// `Fi = x AND NOT Fj = y`.
    Negated,
}

impl Shape {
    /// Fuzzy attributes a query of this shape names.
    fn arity(self) -> usize {
        match self {
            Shape::Filtered => 1,
            Shape::And2 | Shape::Or2 | Shape::Negated => 2,
            Shape::And3 | Shape::Compound => 3,
        }
    }
}

/// Share of the trace each shape takes, in percent.
pub const SHAPE_MIX: [(Shape, f64); 6] = [
    (Shape::And2, 40.0),
    (Shape::And3, 10.0),
    (Shape::Or2, 15.0),
    (Shape::Compound, 18.0),
    (Shape::Filtered, 15.0),
    (Shape::Negated, 2.0),
];

/// Share of each shape's queries asking for each page size, in percent.
pub const K_MIX: [(usize, f64); 4] = [(10, 70.0), (50, 20.0), (100, 8.0), (1000, 2.0)];

/// Splits `total` into whole parts proportional to `weights`, handing the
/// rounding remainder to the largest fractions first (earlier parts win
/// ties), so the parts sum to `total` exactly.
pub fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut parts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let assigned: usize = parts.iter().sum();
    for &i in by_remainder.iter().take(total.saturating_sub(assigned)) {
        parts[i] += 1;
    }
    parts
}

/// One query of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceQuery {
    /// The query as the client sends it.
    pub text: String,
    /// Page size.
    pub k: usize,
    /// The shape it was generated from.
    pub shape: Shape,
}

/// The query trace.
///
/// Attribute popularity is Zipf(1) over `F0..F5`; an attribute appears at
/// most once per query because two atoms over one attribute would read the
/// same list twice. Nothing about the mix is sampled: the shape mix is
/// apportioned exactly, within each shape the page-size mix, and within
/// each of those the attribute choice. Two seeds therefore ask the same questions
/// the same number of times. They differ in the order of the trace, in the
/// target literals, and in the corpus the questions are asked of. Sampling
/// the mix instead moved `accesses_per_query` and every latency quantile by
/// several percent from seed to seed, because a handful of expensive
/// queries carry most of the cost.
pub fn trace(seed: u64, queries: usize) -> Vec<TraceQuery> {
    let mut rng = stream(seed, 2);
    let popularity = zipf_weights(FUZZY, 1.0);
    let shape_weights: Vec<f64> = SHAPE_MIX.iter().map(|&(_, w)| w).collect();
    let k_weights: Vec<f64> = K_MIX.iter().map(|&(_, w)| w).collect();
    let mut out = Vec::with_capacity(queries);
    for (&(shape, _), count) in SHAPE_MIX.iter().zip(apportion(queries, &shape_weights)) {
        // A crisp filter is either of the two, equally often.
        let crisp = match shape {
            Shape::Filtered => CRISP_SELECTIVITY.len(),
            _ => 1,
        };
        let mut choices = Vec::new();
        for (fuzzy, p) in ordered_draws(&popularity, shape.arity()) {
            for c in 0..crisp {
                choices.push((fuzzy.clone(), c, p / crisp as f64));
            }
        }
        let choice_weights: Vec<f64> = choices.iter().map(|choice| choice.2).collect();
        for (&(k, _), with_k) in K_MIX.iter().zip(apportion(count, &k_weights)) {
            for ((fuzzy, c, _), times) in choices.iter().zip(apportion(with_k, &choice_weights)) {
                for _ in 0..times {
                    let text = query_text(shape, fuzzy, *c, &mut rng);
                    out.push(TraceQuery { text, k, shape });
                }
            }
        }
    }
    out.shuffle(&mut rng);
    out
}

fn query_text(shape: Shape, fuzzy: &[usize], crisp: usize, rng: &mut StdRng) -> String {
    // Targets are ignored by the disk subsystem (one ranking per attribute)
    // but still cross the lexer and parser, in all three value forms.
    let target = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => format!("t{}", rng.gen_range(0..1000)),
        1 => format!("\"v {}\"", rng.gen_range(0..1000)),
        _ => format!("{}", rng.gen_range(0..1000)),
    };
    let f: Vec<String> = fuzzy
        .iter()
        .map(|i| format!("F{i} = {}", target(rng)))
        .collect();
    match shape {
        Shape::And2 => format!("{} AND {}", f[0], f[1]),
        Shape::And3 => format!("{} AND {} AND {}", f[0], f[1], f[2]),
        Shape::Or2 => format!("{} OR {}", f[0], f[1]),
        Shape::Compound => format!("{} AND ({} OR {})", f[0], f[1], f[2]),
        Shape::Filtered => format!("C{crisp} = yes AND {}", f[0]),
        Shape::Negated => format!("{} AND NOT {}", f[0], f[1]),
    }
}

/// One upsert of the write stream: `object` takes, in every attribute, the
/// grades `donor` holds at that moment. Copying whole rows keeps the
/// corpus's joint distribution (correlation, crispness, selectivity) as the
/// run rewrites it, so query cost does not drift with the amount written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCopy {
    /// The object overwritten.
    pub object: u32,
    /// The object whose row is copied.
    pub donor: u32,
}

/// An endless, seeded stream of write rounds.
#[derive(Debug)]
pub struct WriteStream {
    rng: StdRng,
    n: usize,
}

impl WriteStream {
    /// The stream for `seed` over a universe of `n` objects.
    pub fn new(seed: u64, n: usize) -> Self {
        WriteStream {
            rng: stream(seed, 3),
            n,
        }
    }

    /// The next round: [`WRITE_ROUND_OBJECTS`] distinct objects, each with
    /// a donor.
    pub fn next_round(&mut self) -> Vec<RowCopy> {
        let mut round: Vec<RowCopy> = Vec::with_capacity(WRITE_ROUND_OBJECTS);
        while round.len() < WRITE_ROUND_OBJECTS.min(self.n) {
            let object = self.rng.gen_range(0..self.n) as u32;
            let donor = self.rng.gen_range(0..self.n) as u32;
            if round.iter().all(|w| w.object != object) {
                round.push(RowCopy { object, donor });
            }
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_bytes(seed: u64) -> Vec<u8> {
        trace(seed, 200)
            .iter()
            .flat_map(|q| format!("{}|{}\n", q.text, q.k).into_bytes())
            .collect()
    }

    fn write_bytes(seed: u64) -> Vec<u8> {
        let mut stream = WriteStream::new(seed, 5000);
        (0..10)
            .flat_map(|_| stream.next_round())
            .flat_map(|w| [w.object.to_le_bytes(), w.donor.to_le_bytes()].concat())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(trace_bytes(7), trace_bytes(7));
        assert_ne!(trace_bytes(7), trace_bytes(8));
        assert_eq!(write_bytes(7), write_bytes(7));
        assert_ne!(write_bytes(7), write_bytes(8));
        assert_eq!(corpus(7, 300), corpus(7, 300));
        assert_ne!(corpus(7, 300), corpus(8, 300));
    }

    #[test]
    fn corpus_has_six_fuzzy_and_two_crisp_lists() {
        let lists = corpus(3, 20_000);
        assert_eq!(lists.len(), attribute_names().len());
        assert!(lists[..FUZZY]
            .iter()
            .all(|l| l.iter().any(|g| !g.is_crisp())));
        for (list, selectivity) in lists[FUZZY..].iter().zip(CRISP_SELECTIVITY) {
            assert!(list.iter().all(|g| g.is_crisp()));
            let ones = list.iter().filter(|&&g| g == Grade::ONE).count() as f64;
            let expected = selectivity * list.len() as f64;
            assert!(
                (ones - expected).abs() < 0.25 * expected,
                "{ones} vs {expected}"
            );
        }
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        assert_eq!(
            apportion(1000, &[40.0, 10.0, 15.0, 18.0, 15.0, 2.0]),
            [400, 100, 150, 180, 150, 20]
        );
        assert_eq!(apportion(20, &[70.0, 20.0, 8.0, 2.0]), [14, 4, 2, 0]);
        assert_eq!(apportion(3, &[1.0, 1.0]), [2, 1]);
        for total in 0..200 {
            let parts = apportion(total, &[0.7, 0.2, 0.08, 0.02]);
            assert_eq!(parts.iter().sum::<usize>(), total);
        }
    }

    /// What a query asks, without its literals: shape, page size and the
    /// attributes it names, in order.
    fn questions(seed: u64, queries: usize) -> Vec<(Shape, usize, Vec<String>)> {
        let mut asked: Vec<(Shape, usize, Vec<String>)> = trace(seed, queries)
            .into_iter()
            .map(|q| {
                let attributes = q
                    .text
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .filter(|word| {
                        word.len() == 2 && (word.starts_with('F') || word.starts_with('C'))
                    })
                    .map(str::to_owned)
                    .collect();
                (q.shape, q.k, attributes)
            })
            .collect();
        asked.sort();
        asked
    }

    #[test]
    fn seeds_ask_the_same_questions_in_another_order() {
        let asked = questions(1, 600);
        assert_eq!(asked, questions(2, 600));
        assert_eq!(asked.len(), 600);
        let count = |shape, k| asked.iter().filter(|q| q.0 == shape && q.1 == k).count();
        assert_eq!(count(Shape::And2, 10), 168);
        assert_eq!(count(Shape::Negated, 10) + count(Shape::Negated, 50), 11);
        assert!(asked.iter().any(|q| q.1 == 1000));
        // No query names an attribute twice.
        for (_, _, attributes) in &asked {
            let mut distinct = attributes.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), attributes.len(), "{attributes:?}");
        }
    }

    #[test]
    fn ordered_draws_are_a_distribution_with_zipf_marginals() {
        let weights = zipf_weights(6, 1.0);
        let harmonic: f64 = (1..=6).map(|r| 1.0 / r as f64).sum();
        for arity in 1..=3 {
            let draws = ordered_draws(&weights, arity);
            assert_eq!(draws.len(), [6, 30, 120][arity - 1]);
            let total: f64 = draws.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
            for rank in 0..6 {
                let first: f64 = draws
                    .iter()
                    .filter(|(picked, _)| picked[0] == rank)
                    .map(|(_, p)| p)
                    .sum();
                let expected = 1.0 / ((rank + 1) as f64 * harmonic);
                assert!((first - expected).abs() < 1e-12, "{arity} {rank}");
            }
        }
    }

    #[test]
    fn attribute_frequencies_in_the_trace_follow_one_over_rank() {
        let harmonic: f64 = (1..=6).map(|r| 1.0 / r as f64).sum();
        let asked = questions(4, 6000);
        let leading: Vec<&String> = asked
            .iter()
            .filter(|q| q.0 == Shape::And2)
            .map(|q| &q.2[0])
            .collect();
        for rank in 0..6 {
            let count = leading
                .iter()
                .filter(|a| **a == &format!("F{rank}"))
                .count();
            let expected = leading.len() as f64 / ((rank + 1) as f64 * harmonic);
            assert!(
                (count as f64 - expected).abs() < 0.05 * expected,
                "F{rank}: {count} vs {expected}"
            );
        }
    }

    #[test]
    fn write_rounds_touch_distinct_objects_inside_the_universe() {
        let mut stream = WriteStream::new(5, 100);
        for _ in 0..20 {
            let round = stream.next_round();
            assert_eq!(round.len(), WRITE_ROUND_OBJECTS);
            let mut objects: Vec<u32> = round.iter().map(|w| w.object).collect();
            objects.sort_unstable();
            objects.dedup();
            assert_eq!(objects.len(), WRITE_ROUND_OBJECTS);
            assert!(round.iter().all(|w| w.object < 100 && w.donor < 100));
        }
    }
}
