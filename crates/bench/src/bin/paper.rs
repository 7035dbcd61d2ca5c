//! The paper ledger's runner: `paper <e01..e17|all> [trials] [--small]
//! [--csv|--json]` runs claims and checks them (exit 1 if a check fails),
//! `paper ledger` prints `EXPERIMENTS.md`. A bad argument prints the usage
//! line and exits 2. See `garlic_bench::paper`.

use garlic_bench::paper::{ledger, parse, Command, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Ledger) => print!("{}", ledger()),
        Ok(Command::Run(run)) if !run.execute() => std::process::exit(1),
        Ok(Command::Run(_)) => {}
        Err(error) => {
            eprintln!("paper: {error}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
