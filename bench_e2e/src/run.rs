//! One run of one workload: set-up, passes, the correctness gate, metrics.
//!
//! Two kinds of run share the set-up and the pass driver:
//!
//! * an **end-to-end** run sets up `Scale::setup_reps` times, then repeats
//!   untraced passes until `--seconds` have gone by and reports the median
//!   of the per-pass values;
//! * a **traced** run sets up once, runs one untraced pass, reopens the
//!   same files behind the tracing wrappers, warms them, and runs one
//!   traced pass, from which the per-layer metrics are read.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use garlic_agg::Grade;
use garlic_telemetry::Telemetry;

use crate::gen::{corpus, trace, Scale, TraceQuery};
use crate::json::Json;
use crate::metrics::{per_layer, summarise_passes, Traced, Values};
use crate::proc;
use crate::stats::median;
use crate::trace::{Recorder, Span};
use crate::workload::{
    build, dephase_upserts, dir_bytes, live_contents_mismatches, memory_service, reference,
    run_pass, Expected, Pass, Stack, Workload, WriteState,
};

/// `write_amp` covers the set-ups and this many measured passes (all of
/// them when a run makes fewer), so that it weighs bulk ingest and steady
/// writes the same however many passes fit into `--seconds`.
const WRITE_AMP_PASSES: usize = 3;
/// Queries re-run against the model once a live run's writes have stopped.
const LIVE_TAIL_QUERIES: usize = 50;

/// What one run reports.
pub struct Report {
    /// Queries and write batches attempted, checked ones only.
    pub attempted: u64,
    /// How many of them errored or disagreed with the reference.
    pub failed: u64,
    /// Why the run is not correct even with no failed operation.
    pub faults: Vec<String>,
    /// Metric values by name.
    pub values: Values,
    /// Per-pass values of the pass-level end-to-end metrics.
    pub per_pass: std::collections::BTreeMap<String, Vec<f64>>,
}

impl Report {
    /// Whether every answer was right and every instrument read.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }
}

/// The seeded inputs of a run and the answers the read-only workloads must
/// give.
struct Inputs {
    scale: Scale,
    seed: u64,
    grades: Vec<Vec<Grade>>,
    queries: Vec<TraceQuery>,
    /// Empty on `live_mixed`, whose contents move.
    expected: Vec<Expected>,
    /// Mean billed accesses per query of the reference answers.
    expected_accesses: f64,
}

impl Inputs {
    fn generate(workload: Workload, seed: u64, scale: Scale) -> Result<Inputs, String> {
        let grades = corpus(seed, scale.n);
        let queries = trace(seed, scale.queries);
        let (expected, expected_accesses) = if workload.is_live() {
            (Vec::new(), 0.0)
        } else {
            let expected = reference(&memory_service(&grades), &queries)?;
            let total: u64 = expected.iter().map(Expected::accesses).sum();
            let mean = total as f64 / expected.len().max(1) as f64;
            (expected, mean)
        };
        Ok(Inputs {
            scale,
            seed,
            grades,
            queries,
            expected,
            expected_accesses,
        })
    }

    /// Entries one set-up ingests, including the de-phasing rewrites.
    fn setup_entries(&self, workload: Workload) -> u64 {
        let bulk = (self.grades.len() * self.scale.n) as u64;
        if !workload.is_live() {
            return bulk;
        }
        let dephase: usize = (0..self.grades.len())
            .map(|i| dephase_upserts(i, self.scale.n))
            .sum();
        bulk + dephase as u64
    }
}

/// Where a workload keeps its files: a directory of its own, emptied
/// before the run and removed after it.
struct DataDir {
    path: PathBuf,
}

impl DataDir {
    fn fresh(root: &Path, workload: Workload) -> Result<DataDir, String> {
        let path = root.join(format!("{}-data", workload.name()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(DataDir { path })
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One set-up: an opened, warmed stack and how long each phase took.
struct SetUp {
    stack: Stack,
    writes: Option<WriteState>,
    warm: Pass,
    build_s: f64,
    open_verify_s: f64,
    warm_s: f64,
    disk_bytes: u64,
}

fn set_up(
    workload: Workload,
    dir: &Path,
    inputs: &Inputs,
    telemetry: &Arc<Telemetry>,
) -> Result<SetUp, String> {
    let started = Instant::now();
    build(workload, dir, &inputs.grades, Some(telemetry)).map_err(|e| format!("build: {e}"))?;
    let built = Instant::now();
    let stack = Stack::open(
        workload,
        dir,
        inputs.scale.n,
        None,
        Some(Arc::clone(telemetry)),
    )
    .map_err(|e| format!("open: {e}"))?;
    let opened = Instant::now();
    let disk_bytes = dir_bytes(dir);
    let mut writes = workload
        .is_live()
        .then(|| WriteState::new(inputs.seed, &inputs.grades));
    let warm = run_pass(&stack, &inputs.queries, writes.as_mut());
    let warmed = Instant::now();
    Ok(SetUp {
        stack,
        writes,
        warm,
        build_s: (built - started).as_secs_f64(),
        open_verify_s: (opened - built).as_secs_f64(),
        // The directory walk between open and warm is the harness's.
        warm_s: (warmed - opened).as_secs_f64(),
        disk_bytes,
    })
}

/// Tallies checked operations and collects non-operation faults.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
}

impl Gate {
    /// Checks one pass: against the reference on read-only workloads, for
    /// soundness while a live workload's contents move.
    fn pass(&mut self, pass: &Pass, inputs: &Inputs, label: &str) {
        self.attempted += pass.attempted();
        let failed = if inputs.expected.is_empty() {
            pass.unsound(&inputs.queries, inputs.scale.n) + pass.write_errors
        } else {
            if pass.accesses_per_query() != inputs.expected_accesses {
                self.faults.push(format!(
                    "{label}: accesses_per_query {} differs from the reference's {}",
                    pass.accesses_per_query(),
                    inputs.expected_accesses
                ));
            }
            pass.mismatches(&inputs.expected)
        };
        if failed > 0 {
            eprintln!("{label}: {failed} operations failed");
        }
        self.failed += failed;
    }

    /// After the last write of a live run: every attribute must stream
    /// exactly the model, and the last queries of the trace must match a
    /// memory catalog built from it.
    fn live_end(&mut self, stack: &Stack, writes: &WriteState, inputs: &Inputs) {
        let attributes = writes.model.len() as u64;
        self.attempted += attributes;
        self.failed += live_contents_mismatches(stack, writes);
        let tail = &inputs.queries[inputs.queries.len().saturating_sub(LIVE_TAIL_QUERIES)..];
        match reference(&memory_service(&writes.model), tail) {
            Ok(expected) => {
                let pass = run_pass(stack, tail, None);
                self.attempted += pass.attempted();
                self.failed += pass.mismatches(&expected);
            }
            Err(e) => self.faults.push(format!("model reference: {e}")),
        }
        for name in crate::gen::attribute_names() {
            let error = stack
                .disk
                .live_source(&name)
                .and_then(|live| live.last_compact_error());
            if let Some(error) = error {
                self.faults.push(format!("compaction of {name}: {error}"));
            }
        }
    }
}

/// Runs `workload` end to end for about `seconds` of measured passes.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    root: &Path,
) -> Result<Report, String> {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, seed, scale)?;
    eprintln!(
        "{}: inputs and reference answers in {:.2} s",
        workload.name(),
        started.elapsed().as_secs_f64()
    );
    let data = DataDir::fresh(root, workload)?;
    let telemetry = Telemetry::new();
    let mut gate = Gate::default();
    let written_before = proc::bytes_written();

    let mut setup_s = Vec::with_capacity(scale.setup_reps);
    let mut last = None;
    for rep in 0..scale.setup_reps {
        // Drop the previous stack (joining its compactors) and its files
        // before the clock starts.
        if let Some(previous) = last.take() {
            drop(previous);
            let _ = std::fs::remove_dir_all(data.path.join(format!("{}", rep - 1)));
        }
        let dir = data.path.join(format!("{rep}"));
        let started = Instant::now();
        let setup = set_up(workload, &dir, &inputs, &telemetry)?;
        setup_s.push(started.elapsed().as_secs_f64());
        gate.pass(&setup.warm, &inputs, "warm pass");
        last = Some(setup);
    }
    let SetUp {
        stack,
        mut writes,
        warm,
        disk_bytes,
        ..
    } = last.expect("at least one set-up");
    let mut upserts = warm.upserts * scale.setup_reps as u64;
    drop(warm);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    let mut amp_window = None;
    loop {
        let pass = run_pass(&stack, &inputs.queries, writes.as_mut());
        gate.pass(&pass, &inputs, "measured pass");
        upserts += pass.upserts;
        passes.push(pass);
        if passes.len() == WRITE_AMP_PASSES {
            amp_window = Some((proc::bytes_written(), upserts));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let (written_after, upserts) = amp_window.unwrap_or((proc::bytes_written(), upserts));
    let written = written_after.saturating_sub(written_before);
    if let Some(writes) = &writes {
        gate.live_end(&stack, writes, &inputs);
    }
    drop(stack);

    let (per_pass, mut values) = summarise_passes(&passes);
    let entries = inputs.setup_entries(workload) * scale.setup_reps as u64 + upserts;
    values.insert("setup_s".into(), median(&setup_s));
    values.insert(
        "disk_bytes_per_entry".into(),
        disk_bytes as f64 / (inputs.grades.len() * scale.n) as f64,
    );
    values.insert("write_amp".into(), written as f64 / (16.0 * entries as f64));
    values.insert("rss_mb".into(), proc::peak_rss_mib());
    for (name, value) in &values {
        if !(value.is_finite() && *value > 0.0) {
            gate.faults.push(format!("{name} read {value}"));
        }
    }
    eprintln!(
        "{}: {} set-ups {:?} s, {} measured passes",
        workload.name(),
        scale.setup_reps,
        setup_s,
        passes.len()
    );
    Ok(Report {
        attempted: gate.attempted,
        failed: gate.failed,
        faults: gate.faults,
        values,
        per_pass,
    })
}

/// Runs `workload` once untraced and once behind the tracing wrappers, and
/// writes the spans of the traced pass to `trace-<workload>.json` in `root`.
pub fn traced(workload: Workload, seed: u64, scale: Scale, root: &Path) -> Result<Report, String> {
    let process_started = Instant::now();
    let canary_before = proc::canary_ms();
    let inputs = Inputs::generate(workload, seed, scale)?;
    let data = DataDir::fresh(root, workload)?;
    let telemetry = Telemetry::new();
    let mut gate = Gate::default();

    let dir = data.path.join("0");
    let SetUp {
        stack,
        mut writes,
        warm,
        build_s,
        open_verify_s,
        warm_s,
        ..
    } = set_up(workload, &dir, &inputs, &telemetry)?;
    gate.pass(&warm, &inputs, "warm pass");
    drop(warm);
    let untraced = run_pass(&stack, &inputs.queries, writes.as_mut());
    gate.pass(&untraced, &inputs, "untraced pass");
    drop(stack);

    let recorder = Recorder::new();
    let stack = Stack::open(
        workload,
        &dir,
        scale.n,
        Some(Arc::clone(&recorder)),
        Some(Arc::clone(&telemetry)),
    )
    .map_err(|e| format!("reopen: {e}"))?;
    let rewarm = run_pass(&stack, &inputs.queries, writes.as_mut());
    gate.pass(&rewarm, &inputs, "traced warm pass");
    drop(rewarm);

    let cache_before = stack.disk.cache_stats();
    let telemetry_before = telemetry.snapshot();
    recorder.set_enabled(true);
    let pass = run_pass(&stack, &inputs.queries, writes.as_mut());
    recorder.set_enabled(false);
    let cache_after = stack.disk.cache_stats();
    let telemetry_after = telemetry.snapshot();
    gate.pass(&pass, &inputs, "traced pass");
    if let Some(writes) = &writes {
        gate.live_end(&stack, writes, &inputs);
    }
    drop(stack);
    let spans = recorder.take();

    let mut values = per_layer(&Traced {
        pass: &pass,
        untraced: &untraced,
        spans: &spans,
        cache: (cache_before, cache_after),
        telemetry: (&telemetry_before, &telemetry_after),
    });
    values.insert("setup.build_s".into(), build_s);
    values.insert("setup.open_verify_s".into(), open_verify_s);
    values.insert("setup.warm_s".into(), warm_s);
    let share_sum = values["trace.share_sum"];
    if (share_sum - 1.0).abs() > 0.01 {
        gate.faults
            .push(format!("self-time shares sum to {share_sum}, not 1"));
    }

    let trace_path = root.join(format!("trace-{}.json", workload.name()));
    write_trace(&trace_path, &spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let canary_after = proc::canary_ms();
    let cpu_s = proc::cpu_seconds();
    values.insert("proc.cpu_s".into(), cpu_s);
    values.insert(
        "proc.cpu_per_wall".into(),
        cpu_s / process_started.elapsed().as_secs_f64(),
    );
    values.insert(
        "bench.canary_ms".into(),
        (canary_before + canary_after) / 2.0,
    );
    eprintln!(
        "{}: {} spans written to {}",
        workload.name(),
        spans.len(),
        trace_path.display()
    );
    Ok(Report {
        attempted: gate.attempted,
        failed: gate.failed,
        faults: gate.faults,
        values,
        per_pass: Default::default(),
    })
}

/// Writes spans as one JSON document: a legend and one row per span.
fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"columns\": [\"id\", \"parent\", \"query\", \"thread\", \"name\", \
         \"start_ns\", \"end_ns\", \"units\", \"bytes\", \"file\"],\n\"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "[{}, {}, {}, {}, {}, {}, {}, {}, {}, {}]{comma}",
            s.id,
            s.parent,
            s.query,
            s.thread,
            Json::from(s.name),
            s.start,
            s.end,
            s.units,
            s.bytes,
            Json::from(s.class.label())
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
