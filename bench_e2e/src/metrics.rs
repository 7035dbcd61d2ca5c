//! The metric catalogue (read from `BENCHMARK.json`, the one place names,
//! units, directions and bounds are declared) and the arithmetic that turns
//! passes, spans and counters into values.

use std::collections::BTreeMap;

use garlic_core::ShardScanStats;
use garlic_storage::CacheStats;
use garlic_telemetry::{MetricValue, TelemetrySnapshot};

use crate::json::Json;
use crate::stats::{median, quantile_u64};
use crate::trace::{self_times, FileClass, LayerTime, Span};
use crate::workload::{strategy_label, Pass, SHARDS, STRATEGIES};

/// `BENCHMARK.json` as committed, compiled in so the binary and the
/// contract cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, unique within its list.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline; end-to-end only.
    pub bound: Option<f64>,
}

/// The declared benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> &[Json] {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has a list named {key}"))
        };
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entries have a string named {key}"))
                .to_owned()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|item| MetricDef {
                    name: text(item, "name"),
                    unit: text(item, "unit"),
                    higher_is_better: text(item, "better") == "higher",
                    bound: item.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json has run_seconds") as u64,
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Computed values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Renders `values` for the metrics `defs` declares, in declaration order:
/// `{"name": {"value": v, "unit": "u"}, ...}`.
///
/// # Panics
/// Panics when a declared metric has no value: the catalogue and the code
/// that fills it have drifted apart.
pub fn render(defs: &[MetricDef], values: &Values) -> Json {
    Json::obj(defs.iter().map(|def| {
        let value = values
            .get(&def.name)
            .unwrap_or_else(|| panic!("no value computed for declared metric {}", def.name));
        (
            def.name.clone(),
            Json::obj([
                ("value", Json::from(*value)),
                ("unit", Json::from(def.unit.as_str())),
            ]),
        )
    }))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The timing metrics of one untraced pass.
pub fn pass_timings(pass: &Pass) -> [(&'static str, f64); 4] {
    let mut latency = pass.latency_ns.clone();
    [
        ("query_p50_us", us(quantile_u64(&mut latency, 0.50))),
        ("query_p95_us", us(quantile_u64(&mut latency, 0.95))),
        (
            "queries_per_s",
            ratio(pass.results.len() as f64, pass.wall_ns as f64 / 1e9),
        ),
        ("accesses_per_query", pass.accesses_per_query()),
    ]
}

/// Per-pass values of every pass-level metric, and the median of each.
pub fn summarise_passes(passes: &[Pass]) -> (BTreeMap<String, Vec<f64>>, Values) {
    let mut per_pass: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (name, value) in pass_timings(pass) {
            per_pass.entry(name.to_owned()).or_default().push(value);
        }
    }
    let medians = per_pass
        .iter()
        .map(|(name, values)| (name.clone(), median(values)))
        .collect();
    (per_pass, medians)
}

/// Everything the traced run observed, handed to [`per_layer`].
pub struct Traced<'a> {
    /// The traced pass.
    pub pass: &'a Pass,
    /// The untraced pass run just before, on the same files.
    pub untraced: &'a Pass,
    /// Spans recorded while the traced pass ran, from every thread.
    pub spans: &'a [Span],
    /// Cache counters before and after the traced pass.
    pub cache: (CacheStats, CacheStats),
    /// Registry snapshots before and after the traced pass.
    pub telemetry: (&'a TelemetrySnapshot, &'a TelemetrySnapshot),
}

/// Sum over attributes of the counters whose name ends in `suffix`.
fn sum_counters(snapshot: &TelemetrySnapshot, suffix: &str) -> u64 {
    snapshot
        .entries
        .iter()
        .filter(|entry| entry.name.ends_with(suffix))
        .map(|entry| match entry.value {
            MetricValue::Counter(v) => v,
            MetricValue::Gauge(_) | MetricValue::Histogram(_) => 0,
        })
        .sum()
}

/// The per-layer metrics that come from the traced pass: span self times
/// as shares of the pass's client wall, span counts and percentiles, and
/// counter deltas read at the same boundaries.
pub fn per_layer(traced: &Traced<'_>) -> Values {
    let mut values = Values::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_owned(), value);
    };
    let pass = traced.pass;
    let wall = pass.wall_ns as f64;
    let layers = self_times(traced.spans, pass.root_span);
    let layer = |name: &str| -> LayerTime {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(LayerTime::default, |(_, l)| *l)
    };
    let share = |name: &str| ratio(layer(name).self_ns as f64, wall);
    let durations = |name: &str| -> Vec<u64> {
        traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    };
    let p50_us = |name: &str| us(quantile_u64(&mut durations(name), 0.5));

    set("parser.p50_us", p50_us("parse"));
    set("parser.share", share("parse"));
    set("plan.p50_us", p50_us("plan"));
    set("plan.share", share("plan"));
    let mut cost_ratios: Vec<f64> = pass
        .results
        .iter()
        .flatten()
        .filter(|r| r.plan.estimated_cost > 0.0)
        .map(|r| (r.stats.sorted + r.stats.random) as f64 / r.plan.estimated_cost)
        .collect();
    cost_ratios.sort_by(f64::total_cmp);
    for (name, q) in [("plan.cost_ratio_p50", 0.5), ("plan.cost_ratio_p95", 0.95)] {
        let at = if cost_ratios.is_empty() {
            0.0
        } else {
            crate::stats::quantile_sorted(&cost_ratios, q)
        };
        set(name, at);
    }

    let accesses: u64 = pass
        .results
        .iter()
        .flatten()
        .map(|r| r.stats.sorted + r.stats.random)
        .sum();
    set("exec.self_share", share("top_k"));
    set(
        "exec.self_ns_per_access",
        ratio(layer("top_k").self_ns as f64, accesses as f64),
    );
    // `top_k` spans carry the query number; the result of that query names
    // the strategy the planner chose for it.
    let mut by_strategy: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for span in traced.spans.iter().filter(|s| s.name == "top_k") {
        let result = pass.results.get(span.query.wrapping_sub(1) as usize);
        if let Some(Ok(result)) = result {
            if let Some(label) = strategy_label(&result.plan.strategy) {
                by_strategy.entry(label).or_default().push(span.duration());
            }
        }
    }
    for strategy in STRATEGIES {
        let mut times = by_strategy.remove(strategy).unwrap_or_default();
        set(&format!("exec.{strategy}.count"), times.len() as f64);
        set(
            &format!("exec.{strategy}.p50_us"),
            us(quantile_u64(&mut times, 0.5)),
        );
        set(
            &format!("exec.{strategy}.p95_us"),
            us(quantile_u64(&mut times, 0.95)),
        );
    }

    // The tail is read off the untraced pass: tracing stretches it.
    let mut untraced_latency = traced.untraced.latency_ns.clone();
    set(
        "service.query_p99_us",
        us(quantile_u64(&mut untraced_latency, 0.99)),
    );
    set(
        "service.query_max_us",
        us(untraced_latency.last().copied().unwrap_or(0)),
    );

    set("subsys.evaluate.p50_us", p50_us("subsys.evaluate"));
    set("subsys.evaluate.share", share("subsys.evaluate"));
    for (span, units, per_unit) in [
        ("source.sorted", "entries", "ns_per_entry"),
        ("source.random", "probes", "ns_per_probe"),
    ] {
        let l = layer(span);
        set(&format!("{span}.share"), share(span));
        set(&format!("{span}.calls"), l.calls as f64);
        set(&format!("{span}.{units}"), l.units as f64);
        set(
            &format!("{span}.{per_unit}"),
            ratio(l.self_ns as f64, l.units as f64),
        );
    }
    set("source.set.share", share("source.set"));
    set("source.set.calls", layer("source.set").calls as f64);

    let (before, after) = traced.cache;
    let window = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        ..after
    };
    set("cache.hit_rate", window.hit_rate());
    set("cache.misses", window.misses as f64);
    set("cache.evictions", window.evictions as f64);
    set("cache.admission_rate", window.admission_rate());
    set("cache.resident_blocks", window.resident as f64);

    // Fence and shard counters are cumulative since the traced stack was
    // opened: a sharded source keeps its merged prefix in memory, so after
    // the warm pass a steady-state window would read zero.
    let (tel_before, tel_after) = traced.telemetry;
    let skipped = sum_counters(tel_after, ".fence.blocks_skipped") as f64;
    let loaded = sum_counters(tel_after, ".fence.blocks_loaded") as f64;
    set("segment.fence.skip_rate", ratio(skipped, skipped + loaded));
    let merge = ShardScanStats {
        emitted: sum_counters(tel_after, ".shard.emitted"),
        consumed: sum_counters(tel_after, ".shard.consumed"),
        shards: SHARDS,
    };
    set("sharded.emitted", merge.emitted as f64);
    set("sharded.consumed", merge.consumed as f64);
    set("sharded.savings", merge.early_termination_savings());

    let vfs = |name: &'static str| traced.spans.iter().filter(move |s| s.name == name);
    let bytes = |name: &'static str, class: Option<FileClass>| -> f64 {
        vfs(name)
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.bytes)
            .sum::<u64>() as f64
    };
    set("vfs.read.share", share("vfs.read"));
    set("vfs.read.calls", vfs("vfs.read").count() as f64);
    set("vfs.read.bytes", bytes("vfs.read", None));
    set("vfs.read.p50_us", p50_us("vfs.read"));
    set("vfs.write.calls", vfs("vfs.write").count() as f64);
    set("vfs.write.bytes", bytes("vfs.write", None));
    set(
        "vfs.write.wal_bytes",
        bytes("vfs.write", Some(FileClass::Wal)),
    );
    set(
        "vfs.write.seg_bytes",
        bytes("vfs.write", Some(FileClass::Segment)),
    );
    set(
        "vfs.write.manifest_bytes",
        bytes("vfs.write", Some(FileClass::Manifest)),
    );
    set("vfs.sync.calls", vfs("vfs.sync").count() as f64);
    set("vfs.sync.share", share("vfs.sync"));
    set("vfs.sync.p50_us", p50_us("vfs.sync"));
    set("vfs.rename.calls", vfs("vfs.rename").count() as f64);

    let mut writes = pass.write_ns.clone();
    set("live.write.p50_us", us(quantile_u64(&mut writes, 0.5)));
    set("live.write.p95_us", us(quantile_u64(&mut writes, 0.95)));
    set("live.write.max_us", us(writes.last().copied().unwrap_or(0)));
    set("live.write.self_share", share("live.write"));
    set(
        "live.wal_bytes_per_op",
        ratio(
            bytes("vfs.write", Some(FileClass::Wal)),
            pass.upserts as f64,
        ),
    );
    set(
        "live.freezes",
        (tel_after.counter("live.memtable.freezes") - tel_before.counter("live.memtable.freezes"))
            as f64,
    );
    set("live.frozen_layers_max", pass.frozen_layers_max as f64);
    // Compaction counts cover the whole process, set-up included; the bytes
    // come from the Vfs wrapper and so cover the traced pass only.
    let (runs, busy_ns, p50_ns) = match tel_after.get("live.compaction_ns") {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum, h.p50()),
        _ => (0, 0, 0),
    };
    set("compact.runs", runs as f64);
    set("compact.busy_s", busy_ns as f64 / 1e9);
    set("compact.p50_ms", p50_ns as f64 / 1e6);
    set(
        "compact.bytes_written",
        bytes("vfs.write", Some(FileClass::Segment)),
    );

    set("harness.share", share("pass") + share("query"));
    set(
        "trace.share_sum",
        ratio(
            layers.iter().map(|(_, l)| l.self_ns).sum::<u64>() as f64,
            wall,
        ),
    );
    set(
        "trace.overhead",
        ratio(
            ratio(
                traced.untraced.results.len() as f64,
                traced.untraced.wall_ns as f64,
            ),
            ratio(pass.results.len() as f64, wall),
        ),
    );
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn contract_names_the_workloads_and_the_eight_end_to_end_metrics() {
        let contract = Contract::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, names);
        let end_to_end: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            end_to_end,
            [
                "setup_s",
                "query_p50_us",
                "query_p95_us",
                "queries_per_s",
                "accesses_per_query",
                "disk_bytes_per_entry",
                "write_amp",
                "rss_mb"
            ]
        );
        for metric in &contract.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
        }
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&contract.run_seconds));
    }

    #[test]
    fn render_keeps_declaration_order_and_units() {
        let defs = vec![
            MetricDef {
                name: "b".into(),
                unit: "us".into(),
                higher_is_better: false,
                bound: None,
            },
            MetricDef {
                name: "a".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: None,
            },
        ];
        let values = Values::from([("a".to_owned(), 2.5), ("b".to_owned(), 7.0)]);
        assert_eq!(
            render(&defs, &values).to_string(),
            r#"{"b": {"value": 7, "unit": "us"}, "a": {"value": 2.5, "unit": "1/s"}}"#
        );
    }
}
