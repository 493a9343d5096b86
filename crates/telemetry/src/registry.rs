//! The metrics registry: labelled counters over striped atomic cells,
//! plus the snapshot/merge layer shared with the span profiler.
//!
//! Hot-path writes never take a lock: a counter handle resolved once via
//! [`Telemetry::counter`] holds an `Arc` to its cells, and each write
//! lands in one of [`STRIPES`] per-thread-striped atomic cells, so
//! concurrent shard workers do not bounce a shared cache line.
//! Registration (name interning) is the only locking operation and
//! happens once per distinct (name, label set).
//!
//! Distributions and per-decision facts are not kept here: the decision
//! trace (`gpm_trace::TraceSummary`) owns them, so each fact has one
//! ledger.

use crate::span::{SpanEvent, ThreadSlot};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stripe count for counters: writers hash to a stripe by thread,
/// readers fold all stripes at snapshot time.
pub const STRIPES: usize = 16;

/// Per-thread stripe selection: threads round-robin over stripes at
/// first use, so writer threads spread across cells deterministically
/// per process (the *values* merged at snapshot are order-independent).
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// One counter's storage: a cell per stripe.
type Cells = Arc<[AtomicU64]>;

/// Bounded ring of completed span events for chrome-trace export.
pub(crate) struct EventRing {
    pub(crate) capacity: usize,
    pub(crate) events: Mutex<Vec<SpanEvent>>,
    pub(crate) cursor: AtomicUsize,
}

/// The counters of one metric name: each sorted label set with its cells.
type LabelSets = Vec<(Vec<(String, String)>, Cells)>;

pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    counters: Mutex<HashMap<String, LabelSets>>,
    pub(crate) threads: Mutex<Vec<Arc<ThreadSlot>>>,
    pub(crate) events: Option<Arc<EventRing>>,
}

/// A cheaply clonable telemetry handle: the counter registry plus the
/// span profiler state. Clones share storage; [`Telemetry::snapshot`]
/// freezes everything into a serializable [`TelemetrySnapshot`].
#[derive(Clone)]
pub struct Telemetry {
    pub(crate) inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field(
                "counters",
                &self
                    .inner
                    .counters
                    .lock()
                    .map(|c| c.values().map(Vec::len).sum::<usize>()),
            )
            .field("events", &self.inner.events.is_some())
            .finish()
    }
}

/// Panics unless `name` is a valid Prometheus metric/label identifier.
fn check_name(name: &str, what: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(
        head_ok && tail_ok,
        "{what} {name:?} is not a valid Prometheus identifier"
    );
}

impl Telemetry {
    /// A fresh, empty registry with span-event recording disabled.
    pub fn new() -> Telemetry {
        Telemetry::build(None)
    }

    /// A registry that additionally keeps the most recent `capacity`
    /// completed spans as chrome-trace events
    /// ([`Telemetry::chrome_trace`]).
    pub fn with_events(capacity: usize) -> Telemetry {
        Telemetry::build(Some(Arc::new(EventRing {
            capacity: capacity.max(1),
            events: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        })))
    }

    fn build(events: Option<Arc<EventRing>>) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                counters: Mutex::new(HashMap::new()),
                threads: Mutex::new(Vec::new()),
                events,
            }),
        }
    }

    /// Whether two handles share one registry.
    pub fn same_registry(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// A monotonic counter handle (registering the name on first use).
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a valid Prometheus identifier.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A labeled monotonic counter handle: one counter per distinct
    /// label set, so `{cache="hit"}` and `{cache="miss"}` count apart.
    ///
    /// A lookup of a registered counter borrows its name and labels and
    /// allocates nothing when the labels come sorted; only the first use
    /// of a (name, label set) copies them into the registry.
    ///
    /// # Panics
    ///
    /// Panics when `name` or a label name is not a valid Prometheus
    /// identifier.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        if !labels.is_sorted() {
            let mut sorted = labels.to_vec();
            sorted.sort_unstable();
            return self.counter_with(name, &sorted);
        }
        let mut counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let registered = counters.get(name).and_then(|sets| {
            sets.iter()
                .find(|(set, _)| {
                    let set = set.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                    set.eq(labels.iter().copied())
                })
                .map(|(_, cells)| cells)
        });
        if let Some(cells) = registered {
            return Counter {
                cells: Arc::clone(cells),
            };
        }
        check_name(name, "metric name");
        for (k, _) in labels {
            check_name(k, "label name");
        }
        let cells: Cells = (0..STRIPES).map(|_| AtomicU64::new(0)).collect();
        let set = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        counters
            .entry(name.to_owned())
            .or_default()
            .push((set, Arc::clone(&cells)));
        Counter { cells }
    }

    /// Freezes the registry (counters and span trees) into a mergeable,
    /// serializable snapshot. Writers may continue concurrently; the
    /// snapshot observes each cell atomically.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut metrics: Vec<MetricValue> = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .flat_map(|(name, sets)| {
                sets.iter().map(move |(labels, cells)| MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    data: MetricData::Counter {
                        value: cells.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
                    },
                })
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut spans = crate::span::collect_spans(&self.inner);
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        TelemetrySnapshot { metrics, spans }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

/// Monotonic counter handle; writes are striped atomic adds.
#[derive(Clone)]
pub struct Counter {
    cells: Cells,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cells[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// One frozen metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name (a valid Prometheus identifier).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Kind-specific frozen data.
    pub data: MetricData,
}

/// Frozen data of one metric. The registry keeps counters only;
/// readers in other crates match with a wildcard arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MetricData {
    /// Monotonic count.
    Counter {
        /// Total across stripes.
        value: u64,
    },
}

/// One aggregated span path in a snapshot: the `;`-joined ancestry
/// (flamegraph folded-stack key), with total and self time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRow {
    /// `;`-joined span ancestry, root first (e.g.
    /// `env.dispatch;search.hill_climb`).
    pub path: String,
    /// Completed spans on this path.
    pub count: u64,
    /// Wall time inside these spans, nanoseconds.
    pub total_ns: u64,
    /// `total_ns` minus time attributed to child spans.
    pub self_ns: u64,
}

impl SpanRow {
    /// The leaf span name (last `;` segment).
    pub fn name(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }
}

/// A frozen, mergeable view of one registry: sorted metrics plus sorted
/// span rows. Serialized snapshots are the fleet's telemetry artifact.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Frozen metrics, sorted by (name, labels).
    pub metrics: Vec<MetricValue>,
    /// Aggregated span rows, sorted by path.
    pub spans: Vec<SpanRow>,
}

impl TelemetrySnapshot {
    /// Folds `other` into this snapshot: counters and span rows add.
    /// This mirrors `TraceSummary::merge` — merging per-shard snapshots
    /// in any grouping agrees with one registry having observed every
    /// event (property-tested).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for theirs in &other.metrics {
            match self
                .metrics
                .iter_mut()
                .find(|m| m.name == theirs.name && m.labels == theirs.labels)
            {
                None => self.metrics.push(theirs.clone()),
                Some(ours) => {
                    let MetricData::Counter { value: a } = &mut ours.data;
                    let MetricData::Counter { value: b } = &theirs.data;
                    *a += b;
                }
            }
        }
        for theirs in &other.spans {
            match self.spans.iter_mut().find(|s| s.path == theirs.path) {
                None => self.spans.push(theirs.clone()),
                Some(ours) => {
                    ours.count += theirs.count;
                    ours.total_ns += theirs.total_ns;
                    ours.self_ns += theirs.self_ns;
                }
            }
        }
        self.metrics
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// The value of an unlabeled counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels.is_empty())
            .map(|m| match m.data {
                MetricData::Counter { value } => value,
            })
    }

    /// The aggregated span row whose leaf name is `name` summed over
    /// every path it appears on (`None` when never recorded).
    pub fn span(&self, name: &str) -> Option<SpanRow> {
        let mut acc: Option<SpanRow> = None;
        for row in self.spans.iter().filter(|s| s.name() == name) {
            match &mut acc {
                None => {
                    acc = Some(SpanRow {
                        path: name.to_string(),
                        count: row.count,
                        total_ns: row.total_ns,
                        self_ns: row.self_ns,
                    })
                }
                Some(a) => {
                    a.count += row.count;
                    a.total_ns += row.total_ns;
                    a.self_ns += row.self_ns;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_across_stripes_and_threads() {
        let t = Telemetry::new();
        let c = t.counter("gpm_test_total");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counter("gpm_test_total"), Some(8000));
    }

    #[test]
    fn interning_shares_one_counter_per_label_set() {
        let t = Telemetry::new();
        let a = t.counter_with("gpm_jobs_total", &[("shard", "3")]);
        let b = t.counter_with("gpm_jobs_total", &[("shard", "3")]);
        a.inc();
        b.inc();
        t.counter_with("gpm_jobs_total", &[("shard", "4")]).inc();
        let snap = t.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.metrics[0].labels, vec![("shard".into(), "3".into())]);
        assert_eq!(snap.metrics[0].data, MetricData::Counter { value: 2 });
        // The unlabeled lookup does not match a labeled counter.
        assert_eq!(snap.counter("gpm_jobs_total"), None);
    }

    #[test]
    fn label_sets_match_in_any_order_and_only_whole() {
        let t = Telemetry::new();
        t.counter_with("gpm_x_total", &[("b", "1"), ("a", "2")])
            .inc();
        t.counter_with("gpm_x_total", &[("a", "2"), ("b", "1")])
            .inc();
        t.counter_with("gpm_x_total", &[("a", "2")]).add(5);
        let snap = t.snapshot();
        let both = vec![("a".into(), "2".into()), ("b".into(), "1".into())];
        let values: Vec<_> = snap
            .metrics
            .iter()
            .map(|m| (m.labels.clone(), m.data.clone()))
            .collect();
        assert_eq!(
            values,
            [
                (both[..1].to_vec(), MetricData::Counter { value: 5 }),
                (both, MetricData::Counter { value: 2 }),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "not a valid Prometheus identifier")]
    fn invalid_names_are_rejected() {
        let _ = Telemetry::new().counter("0bad name");
    }

    #[test]
    fn merge_adds_counters_and_spans() {
        let a = Telemetry::new();
        a.counter("gpm_x_total").add(2);
        {
            let _e = a.enter();
            let _s = crate::span("phase");
        }
        let b = Telemetry::new();
        b.counter("gpm_x_total").add(3);
        b.counter("gpm_y_total").add(1);
        {
            let _e = b.enter();
            let _s = crate::span("phase");
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("gpm_x_total"), Some(5));
        assert_eq!(m.counter("gpm_y_total"), Some(1));
        assert_eq!(m.span("phase").map(|s| s.count), Some(2));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let t = Telemetry::new();
        t.counter_with("gpm_jobs_total", &[("shard", "0")]).add(4);
        t.counter("gpm_passes_total").inc();
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
