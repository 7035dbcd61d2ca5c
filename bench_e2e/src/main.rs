//! `bench_e2e`: query text in, ranked page out, on disk.
//!
//! Three ways to call it (see README.md):
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, one JSON object with `correct`, `attempted`, `failed` and
//!   `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//!   metrics with `--trace 1`;
//! * `--seed <n>` alone runs every workload both ways, each in a child
//!   process, prints every metric, and writes `results.json`;
//! * `--compare a.json b.json` checks two result files against the bounds
//!   in `BENCHMARK.json`.

mod gen;
mod json;
mod metrics;
mod proc;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use gen::Scale;
use json::Json;
use metrics::{render, Contract, MetricDef};
use workload::Workload;

const USAGE: &str = "usage:
  bench_e2e --seed <u64> [--seconds <s>] [--quick]
  bench_e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick]
  bench_e2e --compare <a.json> <b.json>";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => out.workload = Some(value("a workload name")?),
                "--seed" => {
                    let text = value("a number")?;
                    out.seed = Some(text.parse().map_err(|_| format!("bad seed {text}"))?);
                }
                "--seconds" => {
                    let text = value("a number")?;
                    let seconds: f64 = text.parse().map_err(|_| format!("bad seconds {text}"))?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err(format!("bad seconds {text}"));
                    }
                    out.seconds = Some(seconds);
                }
                "--trace" => {
                    out.trace = Some(match value("0 or 1")?.as_str() {
                        "0" => 0,
                        "1" => 1,
                        other => return Err(format!("bad trace {other}")),
                    });
                }
                "--quick" => out.quick = true,
                "--compare" => {
                    out.compare = Some((value("two files")?.into(), value("two files")?.into()));
                }
                other => return Err(format!("unknown argument {other}\n{USAGE}")),
            }
        }
        Ok(out)
    }

    fn scale(&self) -> Scale {
        if self.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }
}

/// Where runs keep their files: `bench_e2e/` under cargo's target
/// directory, which the repository ignores.
fn data_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench_e2e")
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: Args) -> Result<bool, String> {
    let contract = Contract::load();
    if let Some((a, b)) = &args.compare {
        return compare(&contract, a, b);
    }
    let seed = args
        .seed
        .ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    match &args.workload {
        Some(name) => {
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let seconds = args.seconds.unwrap_or(contract.run_seconds as f64);
            run_one(
                &contract,
                workload,
                seed,
                seconds,
                args.trace == Some(1),
                args.scale(),
            )
        }
        None => run_all(&contract, seed, &args),
    }
}

/// Runs one workload in this process and prints the contract's last line.
fn run_one(
    contract: &Contract,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<bool, String> {
    let root = data_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let (report, defs) = if traced {
        (
            run::traced(workload, seed, scale, &root)?,
            &contract.per_layer,
        )
    } else {
        (
            run::end_to_end(workload, seed, seconds, scale, &root)?,
            &contract.end_to_end,
        )
    };
    for fault in &report.faults {
        eprintln!("{}: {fault}", workload.name());
    }
    let passes = Json::obj(report.per_pass.iter().map(|(name, values)| {
        (
            name.clone(),
            Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
        )
    }));
    println!("{}", Json::obj([("passes", passes)]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.correct())),
            ("attempted", Json::from(report.attempted)),
            ("failed", Json::from(report.failed)),
            ("metrics", render(defs, &report.values)),
        ])
    );
    Ok(report.correct())
}

/// Runs this binary again for one workload and returns the last two lines
/// it printed, parsed: the per-pass values and the contract line.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("child printed nothing")?;
    let passes = lines.next().ok_or("child printed one line")?;
    let result = Json::parse(last)?;
    if !output.status.success() && result.get("correct") != Some(&Json::Bool(false)) {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    Ok((Json::parse(passes)?, result))
}

/// Runs every workload, end to end and traced, each in its own process.
fn run_all(contract: &Contract, seed: u64, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.0
    } else {
        contract.run_seconds as f64
    });
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut read_only_accesses = Vec::new();
    for workload in Workload::ALL {
        let (passes, end_to_end) = child(workload, seed, seconds, false, args.quick)?;
        let (_, per_layer) = child(workload, seed, seconds, true, args.quick)?;
        let both = [&end_to_end, &per_layer];
        let count = |key: &str| -> f64 {
            both.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        let correct = both
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        println!(
            "\n{}  ops_attempted {attempted}  ops_failed {failed}",
            workload.name()
        );
        let mut metrics = end_to_end.get("metrics").cloned().unwrap_or(Json::Null);
        print_metrics(&contract.end_to_end, &metrics);
        print_metrics(
            &contract.per_layer,
            per_layer.get("metrics").unwrap_or(&Json::Null),
        );
        if !workload.is_live() {
            read_only_accesses.push(value_of(&metrics, "accesses_per_query"));
        }
        // Keep each metric's per-pass values beside its median, for the
        // spread `--compare` needs.
        if let (Json::Obj(members), Some(passes)) = (&mut metrics, passes.get("passes")) {
            for (name, metric) in members {
                if let (Json::Obj(fields), Some(values)) = (metric, passes.get(name)) {
                    fields.push(("passes".to_owned(), values.clone()));
                }
            }
        }
        workloads.push((
            workload.name(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("ops_attempted", Json::from(attempted)),
                ("ops_failed", Json::from(failed)),
                ("end_to_end", metrics),
                (
                    "per_layer",
                    per_layer.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    if read_only_accesses.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("read-only workloads disagree on accesses_per_query: {read_only_accesses:?}");
        all_correct = false;
    }
    let results = Json::obj([
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("comparable", Json::Bool(args.scale().comparable)),
        (
            "parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |p| p.get()) as u64),
        ),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = data_root().join("results.json");
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(all_correct)
}

fn value_of(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

fn print_metrics(defs: &[MetricDef], metrics: &Json) {
    for def in defs {
        match value_of(metrics, &def.name) {
            Some(value) => println!("  {:<28} {:>16.4} {}", def.name, value, def.unit),
            None => println!("  {:<28} {:>16} {}", def.name, "missing", def.unit),
        }
    }
}

/// How one (metric, workload) row of a comparison reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound, and the spread does not explain it.
    Worse,
    /// Worse by more than the bound, but so is the spread between the
    /// passes of one of the two runs.
    Unresolved,
}

/// By what share of `a` the value `b` is worse (negative when better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// Largest distance between a run's own passes, as a share of their median.
fn spread(metric: &Json) -> f64 {
    let passes: Vec<f64> = metric
        .get("passes")
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let (min, max) = passes
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mid = stats::median(&passes);
    if passes.len() < 2 || mid == 0.0 {
        0.0
    } else {
        (max - min) / mid.abs()
    }
}

fn verdict(def: &MetricDef, a: &Json, b: &Json) -> Option<(f64, f64, f64, Verdict)> {
    let (va, vb) = (a.get("value")?.as_f64()?, b.get("value")?.as_f64()?);
    let bound = def.bound?;
    let worse_by = worsening(def, va, vb);
    let verdict = if worse_by <= bound {
        Verdict::Within
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    };
    Some((va, vb, worse_by, verdict))
}

/// Prints one row per (metric, workload); true when no row is worse.
fn compare(contract: &Contract, a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |path: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    for (label, doc) in [("first", &a), ("second", &b)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            eprintln!("warning: the {label} file is stamped not comparable (--quick)");
        }
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut none_worse = true;
    for workload in &contract.workloads {
        let side = |doc: &Json| -> Option<Json> {
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")
                .cloned()
        };
        let (Some(ma), Some(mb)) = (side(&a), side(&b)) else {
            println!("{workload:<14} missing from one of the files");
            none_worse = false;
            continue;
        };
        for def in &contract.end_to_end {
            let row = ma
                .get(&def.name)
                .zip(mb.get(&def.name))
                .and_then(|(x, y)| verdict(def, x, y));
            match row {
                Some((va, vb, worse_by, verdict)) => {
                    none_worse &= verdict != Verdict::Worse;
                    println!(
                        "{:<14} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                        workload,
                        def.name,
                        va,
                        vb,
                        100.0 * worse_by,
                        100.0 * def.bound.unwrap_or(0.0),
                        match verdict {
                            Verdict::Within => "within",
                            Verdict::Worse => "WORSE",
                            Verdict::Unresolved => "unresolved",
                        }
                    );
                }
                None => {
                    none_worse = false;
                    println!("{workload:<14} {:<22} missing", def.name);
                }
            }
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = args("--workload flat_cold --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("flat_cold"));
        assert_eq!(parsed.seed, Some(42));
        assert_eq!(parsed.seconds, Some(10.0));
        assert_eq!(parsed.trace, Some(1));
        assert!(!parsed.quick);
        assert_eq!(args("--seed 7 --quick").unwrap().scale(), Scale::QUICK);
        let both = args("--compare a.json b.json").unwrap().compare.unwrap();
        assert_eq!(both, (PathBuf::from("a.json"), PathBuf::from("b.json")));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    fn def(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    fn metric(value: f64, passes: &[f64]) -> Json {
        Json::obj([
            ("value", Json::from(value)),
            (
                "passes",
                Json::Arr(passes.iter().map(|&v| Json::from(v)).collect()),
            ),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |v: f64| metric(v, &[v, v * 1.01, v * 0.99]);
        let row = |def: &MetricDef, a: &Json, b: &Json| verdict(def, a, b).unwrap().3;
        // Lower is better: +5 % is within, +20 % is worse, -20 % is within.
        assert_eq!(
            row(&def(false), &steady(100.0), &steady(105.0)),
            Verdict::Within
        );
        assert_eq!(
            row(&def(false), &steady(100.0), &steady(120.0)),
            Verdict::Worse
        );
        assert_eq!(
            row(&def(false), &steady(100.0), &steady(80.0)),
            Verdict::Within
        );
        // Higher is better: the same moves read the other way round.
        assert_eq!(
            row(&def(true), &steady(100.0), &steady(80.0)),
            Verdict::Worse
        );
        assert_eq!(
            row(&def(true), &steady(100.0), &steady(120.0)),
            Verdict::Within
        );
        // A run whose own passes differ by more than the bound cannot
        // resolve a regression of that size.
        let noisy = metric(120.0, &[100.0, 120.0, 140.0]);
        assert_eq!(
            row(&def(false), &steady(100.0), &noisy),
            Verdict::Unresolved
        );
        // A single-valued metric has no spread to hide behind.
        assert_eq!(
            row(&def(false), &metric(100.0, &[]), &metric(120.0, &[])),
            Verdict::Worse
        );
        assert!(verdict(&def(false), &Json::Null, &steady(1.0)).is_none());
    }

    #[test]
    fn every_declared_metric_has_a_producer() {
        // A tiny run of each kind fills every name BENCHMARK.json declares;
        // `render` panics on a missing one.
        let contract = Contract::load();
        let root = std::env::temp_dir().join(format!("bench-e2e-main-{}", std::process::id()));
        let scale = Scale {
            n: 3000,
            queries: 60,
            setup_reps: 2,
            comparable: false,
        };
        for workload in [Workload::FlatCold, Workload::LiveMixed] {
            let report = run::end_to_end(workload, 5, 0.0, scale, &root).unwrap();
            assert!(report.correct(), "{workload:?}: {:?}", report.faults);
            assert!(report.attempted > 0);
            render(&contract.end_to_end, &report.values);
            assert_eq!(report.per_pass["query_p50_us"].len(), 1);

            let report = run::traced(workload, 5, scale, &root).unwrap();
            assert!(report.correct(), "{workload:?}: {:?}", report.faults);
            render(&contract.per_layer, &report.values);
            assert!(root
                .join(format!("trace-{}.json", workload.name()))
                .exists());
            let sum = report.values["trace.share_sum"];
            assert!((sum - 1.0).abs() < 0.01, "{sum}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
