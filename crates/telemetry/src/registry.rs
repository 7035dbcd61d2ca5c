//! The named-metric registry and its snapshot serializers.
//!
//! "Lock-free" here means the *update* path: `counter("x")` resolves a
//! name to an `Arc<Counter>` once (under a short registration lock), and
//! every subsequent `inc()`/`record()` on the handle is a relaxed atomic.
//! Components are expected to resolve their handles at construction time
//! and never touch the registry maps per operation.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A pull-based metric producer: called at snapshot time to append
/// entries for state the component already tracks in its own atomics
/// (e.g. `CacheStats`), costing the component's hot path nothing.
type Collector = Box<dyn Fn(&mut Vec<MetricEntry>) + Send + Sync>;

/// The registry: named counters, gauges, histograms, and pull collectors.
///
/// Cheap to share (`Arc<Telemetry>`); all methods take `&self`.
#[derive(Default)]
pub struct Telemetry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    collectors: RwLock<Vec<Collector>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("counters", &self.counters.read().unwrap().len())
            .field("gauges", &self.gauges.read().unwrap().len())
            .field("histograms", &self.histograms.read().unwrap().len())
            .field("collectors", &self.collectors.read().unwrap().len())
            .finish()
    }
}

/// Get-or-register `name` in one of the metric maps.
fn resolve<M: Default>(map: &RwLock<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    if let Some(m) = map.read().unwrap().get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Telemetry {
    /// A fresh, shareable registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Get-or-register the counter named `name`. Resolve once, then update
    /// the returned handle lock-free.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// Get-or-register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        resolve(&self.gauges, name)
    }

    /// Get-or-register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// Registers a pull collector appended to every
    /// [`snapshot`](Telemetry::snapshot). Use for components that already keep their
    /// own atomic stats and should not pay for double-counting.
    pub fn register_collector<F>(&self, f: F)
    where
        F: Fn(&mut Vec<MetricEntry>) + Send + Sync + 'static,
    {
        self.collectors.write().unwrap().push(Box::new(f));
    }

    /// A point-in-time copy of every registered metric plus collector
    /// output, sorted by name.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut entries = Vec::new();
        for (name, c) in self.counters.read().unwrap().iter() {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Counter(c.get()),
            });
        }
        for (name, g) in self.gauges.read().unwrap().iter() {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Gauge(g.get()),
            });
        }
        for (name, h) in self.histograms.read().unwrap().iter() {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Histogram(Box::new(h.snapshot())),
            });
        }
        for collect in self.collectors.read().unwrap().iter() {
            collect(&mut entries);
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetrySnapshot { entries }
    }
}

/// One metric's point-in-time value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone total.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Latency distribution (boxed: the bucket array is ~half a KiB).
    Histogram(Box<HistogramSnapshot>),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Registered name (dotted, e.g. `cache.hits`).
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole [`Telemetry`] registry.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else
/// (our dots) to `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Minimal JSON string escaping for metric names (which we control, but
/// serializers should never emit malformed output regardless).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl TelemetrySnapshot {
    /// Finds an entry by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// A counter's value by name (0 if absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms are rendered as summaries (p50/p95/p99 quantiles plus
    /// `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let name = prom_name(&e.name);
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                        out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"metrics": [{"name": ..., "type": ..., ...}]}`.
    pub fn to_json(&self) -> String {
        let mut items = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let name = json_string(&e.name);
            items.push(match &e.value {
                MetricValue::Counter(v) => {
                    format!("{{\"name\": {name}, \"type\": \"counter\", \"value\": {v}}}")
                }
                MetricValue::Gauge(v) => {
                    format!("{{\"name\": {name}, \"type\": \"gauge\", \"value\": {v}}}")
                }
                MetricValue::Histogram(h) => format!(
                    "{{\"name\": {name}, \"type\": \"histogram\", \"count\": {}, \
                     \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    h.count,
                    h.sum,
                    h.p50(),
                    h.p95(),
                    h.p99()
                ),
            });
        }
        format!("{{\"metrics\": [\n  {}\n]}}\n", items.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_resolves_same_handle() {
        let t = Telemetry::new();
        let a = t.counter("queries");
        let b = t.counter("queries");
        a.inc();
        b.add(2);
        assert_eq!(t.counter("queries").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let t = Telemetry::new();
        t.counter("b.count").add(5);
        t.gauge("a.depth").set(-2);
        t.histogram("c.lat_ns").record(100);
        t.register_collector(|out| {
            out.push(MetricEntry {
                name: "a.collected".into(),
                value: MetricValue::Counter(7),
            });
        });
        let s = t.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.collected", "a.depth", "b.count", "c.lat_ns"]);
        assert_eq!(s.counter("a.collected"), 7);
        assert_eq!(s.counter("b.count"), 5);
        assert!(matches!(s.get("a.depth"), Some(MetricValue::Gauge(-2))));
    }

    #[test]
    fn prometheus_rendering() {
        let t = Telemetry::new();
        t.counter("service.queries").add(9);
        t.histogram("service.latency_ns").record(1000);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE service_queries counter\nservice_queries 9\n"));
        assert!(text.contains("# TYPE service_latency_ns summary\n"));
        assert!(text.contains("service_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("service_latency_ns_count 1\n"));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let t = Telemetry::new();
        t.counter("x").inc();
        t.gauge("y").set(3);
        t.histogram("z").record(7);
        let json = t.snapshot().to_json();
        assert!(json.starts_with("{\"metrics\": ["));
        assert!(json.contains("\"name\": \"x\", \"type\": \"counter\", \"value\": 1"));
        assert!(json.contains("\"name\": \"y\", \"type\": \"gauge\", \"value\": 3"));
        assert!(json.contains("\"name\": \"z\", \"type\": \"histogram\", \"count\": 1"));
        // Balanced braces (the shim-JSON consumers do structural parsing).
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }
}
