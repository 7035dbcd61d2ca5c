//! The paper ledger: every quantitative claim of the paper as one row of
//! [`CLAIMS`].
//!
//! A row names its paper section and claim. Its `run(trials, small)`
//! builds the table and notes the experiment prints, and also the
//! verdicts of the row's checks: a fitted exponent within a tolerance, a
//! flat column, a monotone order, an exact equality, or a comparison
//! through a Wilson interval (z = 3) where a probability is sampled. The
//! `paper` binary prints one row (`paper e07 5`), every row (`paper all`)
//! or this table as `EXPERIMENTS.md` (`paper ledger`). Each check prints
//! one `check: ok — …` line, or `check: FAIL — …` on stderr; a failed check
//! makes the binary exit 1. `cargo test` runs every row at its small size.
//!
//! At `--small`, rows e01–e03 also bill every trial on a
//! `SegmentSource` written to a temporary directory and on a 4-shard
//! `ShardedSource`. §5 billing does not depend on the backend, so each
//! trial's per-list `AccessStats` must be bit-equal to the `MemorySource`
//! run.

mod experiments;

use garlic_stats::Table;

/// One claim of the paper and the experiment that checks it.
pub struct Claim {
    /// The row id the runner takes, `e01` … `e17`.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// The claim, as the experiment's header prints it.
    pub claim: &'static str,
    /// What the row's checks assert, for `EXPERIMENTS.md`.
    pub shape: &'static str,
    /// Trials per table row when none is given.
    pub trials: usize,
    /// Trials per table row of the small run (`--small` without a count,
    /// and `cargo test`).
    pub small_trials: usize,
    /// Runs the experiment: `trials` per table row, the reduced sweep when
    /// `small`.
    pub run: fn(usize, bool) -> Outcome,
}

/// The ledger, in paper order.
#[rustfmt::skip]
pub const CLAIMS: [Claim; 17] = [
    Claim { id: "e01", trials: 20, small_trials: 8, run: experiments::e01,
        section: "Theorems 5.3 and 5.4",
        claim: "Theorem 5.3: middleware cost O(N^((m-1)/m) k^(1/m)) whp; m = 2 gives Θ(√(Nk))",
        shape: "for each k in {1, 10, 100}, the log-log slope of A₀'s mean cost in N is 0.5 ± 0.15; at `--small`, every trial's per-list bill is bit-equal on a segment and on 4 shards" },
    Claim { id: "e02", trials: 15, small_trials: 2, run: experiments::e02,
        section: "Theorem 5.3",
        claim: "Theorem 5.3: cost Θ(N^((m-1)/m) k^(1/m)) whp for m independent lists",
        shape: "for m = 2…5, the slope in N is (m−1)/m ± 0.15 and grows with m; at `--small`, every trial's per-list bill is bit-equal on a segment and on 4 shards" },
    Claim { id: "e03", trials: 15, small_trials: 4, run: experiments::e03,
        section: "Theorem 5.3",
        claim: "Theorem 5.3: the k-dependence of the cost is k^(1/m)",
        shape: "for m = 2 and 3, the slope in k is 1/m ± 0.15; at `--small`, every trial's per-list bill is bit-equal on a segment and on 4 shards" },
    Claim { id: "e04", trials: 2000, small_trials: 300, run: experiments::e04,
        section: "Lemma 5.1, Wimmers' m = 2 analysis",
        claim: "P[depth > c*sqrt(Nk)] decays like e^(-c^2 k); < 2e-8 at c = 2, < 4e-27 at c = 3 (full bound)",
        shape: "where e^(−c²k) bounds the tail (k = 1 at every c; every k at c ≥ 2), the Wilson interval (z = 3) of P[T > c√(Nk)] reaches down to it" },
    Claim { id: "e05", trials: 500, small_trials: 200, run: experiments::e05,
        section: "Theorems 6.4–6.6, Lemma 6.2",
        claim: "Theorem 6.4: P[cost <= min(c1,c2)*theta*N^((m-1)/m)k^(1/m)] <= theta^m for strict queries",
        shape: "A₀ stops exactly at T* on every sampled skeleton; for every θ, the Wilson interval (z = 3) of P[T* ≤ θ·scale] reaches down to θ^m" },
    Claim { id: "e06", trials: 10, small_trials: 2, run: experiments::e06,
        section: "Theorem 7.1",
        claim: "Theorem 7.1: middleware cost Θ(N); the naive algorithm is optimal up to a constant",
        shape: "A₀ and the naive scan both bill exactly 2N at every N" },
    Claim { id: "e07", trials: 5, small_trials: 2, run: experiments::e07,
        section: "Theorem 4.5, Remark 6.1",
        claim: "Theorem 4.5 / Remark 6.1: B0 costs exactly m*k sorted accesses and 0 random accesses, independent of N",
        shape: "every trial bills exactly m·k sorted and 0 random accesses, at every m and N" },
    Claim { id: "e08", trials: 10, small_trials: 6, run: experiments::e08,
        section: "Remark 6.1",
        claim: "Remark 6.1: median is monotone but not strict; the subset algorithm runs in O(sqrt(Nk)), beating the generic bound",
        shape: "the median algorithm's slope in N is 0.5 ± 0.15, generic A₀'s is 2/3 ± 0.15, and the median algorithm is cheaper at every N" },
    Claim { id: "e09", trials: 50, small_trials: 10, run: experiments::e09,
        section: "Section 9",
        claim: "bounded-by-0.9 list 1 + uniform list 2 => ~10 probes regardless of N; both uniform => Θ(sqrt(N))",
        shape: "every run stops at the earliest depth where the best seen grade reaches the stream grade; bounded regime: the Wilson interval (z = 3) of P[probes > 20] reaches down to 0.9^20; uniform regime: the probe slope in N is 0.5 ± 0.15" },
    Claim { id: "e10", trials: 10, small_trials: 2, run: experiments::e10,
        section: "Sections 3, 5 and 6",
        claim: "Theorems 5.3/6.4 hold for every monotone (and strict) aggregation; A0's cost is aggregation-independent",
        shape: "every t-norm and mean returns its naive reference's grades and bills exactly the min rule's cost" },
    Claim { id: "e11", trials: 20, small_trials: 2, run: experiments::e11,
        section: "Section 4, Proposition 4.3",
        claim: "Section 4: per-list Ti and the A0' candidate set cut random accesses by constant factors; sorted cost is shared",
        shape: "for m = 2, 3, 4, all three variants bill the same sorted accesses, and random accesses order A₀′ ≤ shrunk A₀ ≤ A₀" },
    Claim { id: "e12", trials: 15, small_trials: 3, run: experiments::e12,
        section: "Section 7",
        claim: "Section 7: positive correlation helps, negative hurts; rho = -1 approaches the Θ(N) hard-query regime",
        shape: "the cost falls strictly as ρ rises; at ρ = −1 it is at least N, and at ρ = +1 exactly 2k" },
    Claim { id: "e13", trials: 10, small_trials: 3, run: experiments::e13,
        section: "Section 4",
        claim: "Section 4: with a selective crisp conjunct, filter-then-probe costs ~2|S|, beating A0' until |S| grows past the sqrt(Nk) scale",
        shape: "the filtered strategy bills exactly 2|S|; the winner flips once, from filtered to A₀′, as the selectivity rises" },
    Claim { id: "e14", trials: 10, small_trials: 3, run: experiments::e14,
        section: "Section 5, inequalities (1) and (2)",
        claim: "Section 5, eq. (1)/(2): weighted and unweighted costs bracket each other, so Θ-optimality holds for every positive (c1, c2)",
        shape: "each weighted cost lies between min(c₁, c₂) and max(c₁, c₂) times the unweighted one; A₀ beats the naive scan whenever c₂ ≤ c₁, and its speedup falls strictly as c₂/c₁ rises" },
    Claim { id: "e15", trials: 15, small_trials: 6, run: experiments::e15,
        section: "Sections 5 and 7 (extension)",
        claim: "extension: NNF + reversed complement lists make negated queries monotone; cost depends on correlation, not on negation itself",
        shape: "A AND NOT B has slope 0.5 ± 0.15 in N; Q AND NOT Q bills exactly 2N at every N" },
    Claim { id: "e16", trials: 20_000, small_trials: 2000, run: experiments::e16,
        section: "Lemma 5.1 (proof)",
        claim: "Pr[|B| <= M/2] = P1 = P2 <= P3 <= P4 < e^(-M/10) (statements A-E of the proof)",
        shape: "in every row meeting l₁ ≤ N/10, no column is significantly above the one to its right (Wilson intervals at z = 3 overlap in that direction), and P4's interval reaches below e^(−M/10)" },
    Claim { id: "e17", trials: 5, small_trials: 4, run: experiments::e17,
        section: "Theorem 5.3 through the middleware (integration)",
        claim: "integration: parsed queries through catalog/planner/executor keep the Theorem 5.3 cost shape; B0 queries stay flat",
        shape: "the planner picks FaMin, B0Max and FaGeneric; the disjunction bills exactly 2k at every N; the conjunction's slope is 0.5 ± 0.2 and the nested query's at most 2/3 + 0.15" },
];

/// What one run of a claim measured: the table and notes the experiment
/// prints, and the verdict of each check.
pub struct Outcome {
    title: String,
    table: Table,
    notes: Vec<String>,
    checks: Vec<(bool, String)>,
}

impl Outcome {
    /// An empty outcome; `headers` are `;`-separated.
    fn new(title: impl Into<String>, headers: &str) -> Self {
        let table = Table::new(&headers.split(';').collect::<Vec<_>>());
        let (title, notes, checks) = (title.into(), Vec::new(), Vec::new());
        Outcome {
            title,
            table,
            notes,
            checks,
        }
    }

    /// Appends a table row of `;`-separated cells.
    fn row(&mut self, cells: String) {
        self.table
            .add_row(cells.split(';').map(str::to_owned).collect());
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks.push((ok, what.into()));
    }

    /// The checks that failed.
    pub fn failures(&self) -> Vec<&str> {
        let failed = self.checks.iter().filter(|(ok, _)| !ok);
        failed.map(|(_, what)| what.as_str()).collect()
    }
}

/// How the runner prints a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Format {
    /// The aligned table with its header, notes and passed checks.
    Text,
    /// CSV (every check goes to stderr).
    Csv,
    /// JSON (every check goes to stderr).
    Json,
}

/// A parsed `paper` command line.
#[derive(Debug)]
pub enum Command {
    /// Run and check claims.
    Run(Run),
    /// Print `EXPERIMENTS.md`.
    Ledger,
}

/// Which claims to run, and how.
#[derive(Debug)]
pub struct Run {
    /// Indexes into [`CLAIMS`], in order.
    pub ids: Vec<usize>,
    /// Trials per table row; when `None`, each claim's `trials`, or its
    /// `small_trials` with `small`.
    pub trials: Option<usize>,
    /// The reduced sweeps.
    pub small: bool,
    /// How to print.
    pub format: Format,
}

/// The runner's usage line.
pub const USAGE: &str =
    "usage: paper <e01..e17|all> [trials] [--small] [--csv|--json] | paper ledger";

/// Parses the arguments after the program name. Anything it does not know
/// (an id, a flag, a trial count that is not a positive integer, a second
/// count or format) is an error.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (target, rest) = args.split_first().ok_or("missing claim id")?;
    if target == "ledger" && rest.is_empty() {
        return Ok(Command::Ledger);
    }
    let ids = match CLAIMS.iter().position(|c| c.id == target) {
        Some(i) => vec![i],
        None if target == "all" => (0..CLAIMS.len()).collect(),
        None => return Err(format!("unknown claim id '{target}'")),
    };
    let (mut trials, mut small, mut format) = (None, false, None);
    for arg in rest {
        match (arg.as_str(), arg.parse::<usize>()) {
            ("--small", _) => small = true,
            ("--csv", _) if format.is_none() => format = Some(Format::Csv),
            ("--json", _) if format.is_none() => format = Some(Format::Json),
            (_, Ok(t)) if t > 0 && trials.is_none() => trials = Some(t),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    let format = format.unwrap_or(Format::Text);
    Ok(Command::Run(Run {
        ids,
        trials,
        small,
        format,
    }))
}

impl Run {
    /// Runs, checks and prints every claim; returns whether every check
    /// held.
    pub fn execute(&self) -> bool {
        let mut held = true;
        for (n, &i) in self.ids.iter().enumerate() {
            if n > 0 {
                println!();
            }
            let (claim, small) = (&CLAIMS[i], self.small);
            let trials = if small {
                claim.small_trials
            } else {
                claim.trials
            };
            held &= self.print(claim, self.trials.unwrap_or(trials));
        }
        held
    }

    fn print(&self, claim: &Claim, trials: usize) -> bool {
        let out = (claim.run)(trials, self.small);
        match self.format {
            Format::Json => print!("{}", out.table.to_json()),
            Format::Csv => print!("{}", out.table.to_csv()),
            Format::Text => {
                println!("== {} ==\npaper claim: {}", out.title, claim.claim);
                print!("trials per row: {trials}\n\n{}", out.table.render());
                out.notes.iter().for_each(|note| println!("note: {note}"));
            }
        }
        // A failed check goes to stderr in every format, so that it still
        // shows when stdout is dropped or parsed.
        for (ok, what) in &out.checks {
            match (ok, self.format) {
                (true, Format::Text) => println!("check: ok — {what}"),
                (true, _) => eprintln!("check: ok — {what}"),
                (false, _) => eprintln!("check: FAIL — {what}"),
            }
        }
        out.failures().is_empty()
    }
}

/// Renders `EXPERIMENTS.md` from [`CLAIMS`].
pub fn ledger() -> String {
    let mut md = String::from(LEDGER_HEAD);
    for c in &CLAIMS {
        let (id, trials, small) = (c.id, c.trials, c.small_trials);
        let run = format!("`cargo run --release -p garlic-bench --bin paper -- {id}` ({trials} trials per table row; `--small` runs {small}, as `cargo test` does)");
        md += &format!("\n## {id} — {}\n\n- **Claim:** {}\n", c.section, c.claim);
        md += &format!("- **Run:** {run}\n- **Checked:** {}\n", c.shape);
    }
    md
}

const LEDGER_HEAD: &str = "# EXPERIMENTS — the paper's claims, checked

Generated from `crates/bench/src/paper.rs` by
`cargo run -p garlic-bench --bin paper -- ledger > EXPERIMENTS.md`; a test
fails when this file is stale. Each section is one claim: where the paper
makes it, the command that measures it, and what is checked. The runner
prints the table, then one `check: ok — …` line per check, or
`check: FAIL — …` on stderr, and exits 1 if a check fails. A slope passes
within its tolerance (for small-N bias) widened by twice the fit's
standard error (for too few trials); sampled probabilities are compared
through Wilson intervals at z = 3. All workloads are seeded, so every
check is deterministic.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_rejected() {
        let Ok(Command::Run(run)) = args("e17 2 --small --json") else {
            panic!("rejected")
        };
        let parsed = (run.ids, run.trials, run.small, run.format);
        assert_eq!(parsed, (vec![16], Some(2), true, Format::Json));
        let Ok(Command::Run(run)) = args("all") else {
            panic!("rejected")
        };
        assert_eq!(
            (run.ids.len(), run.trials, run.format),
            (17, None, Format::Text)
        );
        assert!(matches!(args("ledger"), Ok(Command::Ledger)));
        for bad in ",e18,exp01,e01 --smal,e01 2x,e01 0,e01 2 3,e01 --csv --json,ledger 2".split(',')
        {
            assert!(args(bad).is_err(), "'{bad}' was accepted");
        }
    }

    #[test]
    fn every_claim_holds_at_its_small_size() {
        let mut red = Vec::new();
        for claim in &CLAIMS {
            let out = (claim.run)(claim.small_trials, true);
            assert!(!out.checks.is_empty(), "{} checks nothing", claim.id);
            for failure in out.failures() {
                red.push(format!("{}: {failure}", claim.id));
            }
        }
        assert!(red.is_empty(), "red rows:\n{}", red.join("\n"));
    }

    #[test]
    fn experiments_md_is_generated_from_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let stale = std::fs::read_to_string(path).ok() != Some(ledger());
        assert!(
            !stale,
            "EXPERIMENTS.md is stale: run `paper ledger > EXPERIMENTS.md`"
        );
    }
}
