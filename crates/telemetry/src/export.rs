//! Exporters over a [`TelemetrySnapshot`]: Prometheus text exposition,
//! chrome://tracing JSON (loadable in Perfetto / `chrome://tracing`),
//! and folded stacks for flamegraph tooling.
//!
//! The Prometheus renderer is paired with [`validate_prometheus`], a
//! strict parser of the text exposition format used by the test suite
//! and CI to prove every rendered page round-trips: names and labels
//! well-formed, every sample under a declared `# TYPE` family, and
//! histogram bucket series cumulative with a terminal `+Inf` bucket
//! equal to `_count`.

use crate::registry::{MetricData, SpanRow, Telemetry, TelemetrySnapshot};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

impl TelemetrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// each counter as a `counter` family, and span rows as the
    /// `gpm_span_count` / `gpm_span_seconds` / `gpm_span_self_seconds`
    /// counter families labeled by `;`-joined path. Output is
    /// deterministic for a given snapshot and always passes
    /// [`validate_prometheus`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut declared = std::collections::HashSet::new();
        for m in &self.metrics {
            if declared.insert(m.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} counter", m.name);
            }
            let MetricData::Counter { value } = &m.data;
            let _ = writeln!(out, "{}{} {value}", m.name, render_labels(&m.labels));
        }
        if !self.spans.is_empty() {
            type Column = fn(&SpanRow) -> String;
            let families: [(&str, Column); 3] = [
                ("gpm_span_count", |s| s.count.to_string()),
                ("gpm_span_seconds", |s| {
                    (s.total_ns as f64 / 1e9).to_string()
                }),
                ("gpm_span_self_seconds", |s| {
                    (s.self_ns as f64 / 1e9).to_string()
                }),
            ];
            for (family, column) in families {
                let _ = writeln!(out, "# TYPE {family} counter");
                for s in &self.spans {
                    let _ = writeln!(
                        out,
                        "{family}{{path=\"{}\"}} {}",
                        escape_label(&s.path),
                        column(s)
                    );
                }
            }
        }
        out
    }

    /// Renders the span rows as folded stacks — one
    /// `root;child;leaf value` line per path, value = **self** time in
    /// nanoseconds — the input format of flamegraph renderers
    /// (`flamegraph.pl`, inferno, speedscope).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            if s.self_ns == 0 {
                continue;
            }
            let _ = writeln!(out, "{} {}", s.path, s.self_ns);
        }
        out
    }
}

#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: &'static str,
    ph: &'static str,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

impl Telemetry {
    /// Renders the registry's bounded span-event ring as a
    /// chrome://tracing JSON array of complete (`"ph":"X"`) events,
    /// loadable in Perfetto. Requires the registry to have been built
    /// with [`Telemetry::with_events`]; otherwise the array is empty.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<ChromeEvent> = Vec::new();
        if let Some(ring) = &self.inner.events {
            let ring = ring.events.lock().unwrap_or_else(|p| p.into_inner());
            for ev in ring.iter() {
                events.push(ChromeEvent {
                    name: ev.name.to_string(),
                    cat: "gpm",
                    ph: "X",
                    ts: ev.start_ns as f64 / 1e3,
                    dur: ev.dur_ns as f64 / 1e3,
                    pid: 1,
                    tid: ev.tid,
                });
            }
        }
        events.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.tid.cmp(&b.tid)));
        serde_json::to_string(&events).expect("chrome trace serialization cannot fail")
    }
}

/// Summary returned by [`validate_prometheus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromStats {
    /// Declared `# TYPE` families.
    pub families: usize,
    /// Sample lines parsed.
    pub samples: usize,
    /// Families declared as histograms.
    pub histograms: usize,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_prom_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value {other:?}")),
    }
}

/// Parses one `{k="v",...}` label block, returning sorted pairs.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            break;
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {s:?}"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value in {s:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {s:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {s:?}"))?;
        labels.push((key.to_string(), value));
        rest = &rest[end + 1..];
        if !rest.is_empty() && !rest.starts_with(',') {
            return Err(format!("junk after label value in {s:?}"));
        }
    }
    labels.sort();
    Ok(labels)
}

/// Strictly validates a Prometheus text exposition page.
///
/// Enforced: identifier charset for metric and label names, quoting and
/// escapes in label values, numeric sample values, every sample
/// belonging to a `# TYPE`-declared family (with `_bucket`/`_sum`/
/// `_count` suffixes resolving to a histogram family), no duplicate
/// family declarations or samples, and — per histogram label set —
/// cumulative non-decreasing buckets ending in `+Inf` whose value
/// equals the family's `_count`. Returns counts of what was parsed.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: HashMap<(String, String), f64> = HashMap::new();
    // (family, labels-minus-le) -> le -> cumulative count
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    let mut n_samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let ctx = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| ctx("TYPE without name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| ctx("TYPE without kind".into()))?;
                if !valid_name(name) {
                    return Err(ctx(format!("invalid family name {name:?}")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(ctx(format!("unknown family kind {kind:?}")));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(ctx(format!("duplicate TYPE for {name:?}")));
                }
            }
            continue;
        }
        // Sample: name[{labels}] value [timestamp]
        let (name_labels, value_ts) = match line.find('}') {
            Some(close) => (&line[..close + 1], line[close + 1..].trim_start()),
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| ctx(format!("sample without value: {line:?}")))?;
                (&line[..sp], line[sp..].trim_start())
            }
        };
        let (name, labels) = match name_labels.find('{') {
            Some(open) => {
                if !name_labels.ends_with('}') {
                    return Err(ctx(format!("unterminated label block in {line:?}")));
                }
                (
                    &name_labels[..open],
                    parse_labels(&name_labels[open + 1..name_labels.len() - 1]).map_err(&ctx)?,
                )
            }
            None => (name_labels, Vec::new()),
        };
        if !valid_name(name) {
            return Err(ctx(format!("invalid metric name {name:?}")));
        }
        let mut fields = value_ts.split_whitespace();
        let value = parse_prom_value(fields.next().ok_or_else(|| ctx("missing value".into()))?)
            .map_err(&ctx)?;
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| ctx(format!("invalid timestamp {ts:?}")))?;
        }
        if fields.next().is_some() {
            return Err(ctx(format!("trailing fields in {line:?}")));
        }

        // Resolve the family this sample belongs to.
        let family = if types.contains_key(name) {
            name.to_string()
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf))
                .ok_or_else(|| ctx(format!("sample {name:?} has no TYPE family")))?;
            if types.get(base).map(String::as_str) != Some("histogram") {
                return Err(ctx(format!("sample {name:?} has no TYPE family")));
            }
            base.to_string()
        };
        let non_le: Vec<(String, String)> =
            labels.iter().filter(|(k, _)| k != "le").cloned().collect();
        let group = format!("{:?}", non_le);
        if name.ends_with("_bucket") && types.get(&family).map(String::as_str) == Some("histogram")
        {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| ctx(format!("{name:?} bucket without le label")))?;
            let le = parse_prom_value(&le.1).map_err(&ctx)?;
            buckets
                .entry((family.clone(), group.clone()))
                .or_default()
                .push((le, value));
        }
        if name.ends_with("_count") && types.get(&family).map(String::as_str) == Some("histogram") {
            counts.insert((family.clone(), group.clone()), value);
        }
        let key = (name.to_string(), format!("{:?}", labels));
        if samples.insert(key, value).is_some() {
            return Err(ctx(format!("duplicate sample {name:?} {labels:?}")));
        }
        n_samples += 1;
    }

    for ((family, group), mut series) in buckets {
        series.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0f64;
        for (le, cum) in &series {
            if *cum < prev {
                return Err(format!(
                    "histogram {family:?} {group}: bucket le={le} count {cum} < previous {prev}"
                ));
            }
            prev = *cum;
        }
        let last = series
            .last()
            .filter(|(le, _)| le.is_infinite())
            .ok_or_else(|| format!("histogram {family:?} {group}: missing +Inf bucket"))?;
        if let Some(count) = counts.get(&(family.clone(), group.clone())) {
            if last.1 != *count {
                return Err(format!(
                    "histogram {family:?} {group}: +Inf bucket {} != _count {count}",
                    last.1
                ));
            }
        }
    }

    let histograms = types.values().filter(|k| *k == "histogram").count();
    Ok(PromStats {
        families: types.len(),
        samples: n_samples,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn populated() -> Telemetry {
        let t = Telemetry::with_events(64);
        t.counter("gpm_jobs_total").add(7);
        t.counter_with("gpm_jobs_total", &[("shard", "a b\"c\\")])
            .add(2);
        {
            let _e = t.enter();
            let _outer = span("env.dispatch");
            let _inner = span("search.hill_climb");
        }
        t
    }

    #[test]
    fn prometheus_page_round_trips_through_the_validator() {
        let t = populated();
        let page = t.snapshot().to_prometheus();
        let stats = validate_prometheus(&page).expect("rendered page must validate");
        assert_eq!(stats.families, 4, "families: {stats:?}\n{page}");
        assert_eq!(stats.samples, 8);
        assert!(page.contains("gpm_jobs_total 7"));
        assert!(page.contains("gpm_jobs_total{shard=\"a b\\\"c\\\\\"} 2"));
        assert!(page.contains("gpm_span_count{path=\"env.dispatch;search.hill_climb\"} 1"));
    }

    #[test]
    fn empty_snapshot_renders_an_empty_valid_page() {
        let stats = validate_prometheus(&TelemetrySnapshot::default().to_prometheus()).unwrap();
        assert_eq!(stats.samples, 0);
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        for (page, why) in [
            ("gpm_x 1\n", "sample without TYPE"),
            ("# TYPE gpm_x counter\n0bad 1\n", "bad metric name"),
            ("# TYPE gpm_x counter\ngpm_x one\n", "bad value"),
            (
                "# TYPE gpm_x counter\ngpm_x 1\ngpm_x 2\n",
                "duplicate sample",
            ),
            (
                "# TYPE gpm_x counter\n# TYPE gpm_x gauge\n",
                "duplicate TYPE",
            ),
            (
                "# TYPE gpm_x counter\ngpm_x{l=unquoted} 1\n",
                "unquoted label value",
            ),
            (
                "# TYPE gpm_h histogram\ngpm_h_bucket{le=\"1\"} 5\ngpm_h_bucket{le=\"+Inf\"} 3\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE gpm_h histogram\ngpm_h_bucket{le=\"1\"} 5\n",
                "missing +Inf",
            ),
            (
                "# TYPE gpm_h histogram\ngpm_h_bucket{le=\"+Inf\"} 5\ngpm_h_count 4\n",
                "+Inf != count",
            ),
        ] {
            assert!(
                validate_prometheus(page).is_err(),
                "accepted bad page: {why}"
            );
        }
    }

    #[test]
    fn validator_accepts_labeled_histogram_groups() {
        let page = "\
# TYPE gpm_h histogram
gpm_h_bucket{shard=\"0\",le=\"1\"} 2
gpm_h_bucket{shard=\"0\",le=\"+Inf\"} 3
gpm_h_sum{shard=\"0\"} 1.5
gpm_h_count{shard=\"0\"} 3
gpm_h_bucket{shard=\"1\",le=\"1\"} 0
gpm_h_bucket{shard=\"1\",le=\"+Inf\"} 1
gpm_h_sum{shard=\"1\"} 9
gpm_h_count{shard=\"1\"} 1
";
        let stats = validate_prometheus(page).unwrap();
        assert_eq!(stats.samples, 8);
        assert_eq!(stats.histograms, 1);
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let t = populated();
        let json = t.chrome_trace();
        let parsed: Vec<serde_json::Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        let names: Vec<&str> = parsed.iter().map(|e| e["name"].as_str().unwrap()).collect();
        assert!(names.contains(&"env.dispatch"));
        assert!(names.contains(&"search.hill_climb"));
        for e in &parsed {
            assert_eq!(e["ph"].as_str(), Some("X"));
            assert!(e["dur"].as_f64().unwrap() >= 0.0);
        }
    }

    #[test]
    fn chrome_trace_without_a_ring_is_empty() {
        let t = Telemetry::new();
        {
            let _s = t.span("ignored");
        }
        assert_eq!(t.chrome_trace(), "[]");
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let t = populated();
        let folded = t.snapshot().to_folded();
        let dispatch_line = folded
            .lines()
            .find(|l| l.starts_with("env.dispatch "))
            .expect("root self time line");
        let parts: Vec<&str> = dispatch_line.rsplitn(2, ' ').collect();
        let self_ns: u64 = parts[0].parse().unwrap();
        let total = t.snapshot().span("env.dispatch").unwrap().total_ns;
        assert!(self_ns <= total);
        assert!(folded
            .lines()
            .any(|l| l.starts_with("env.dispatch;search.hill_climb ")));
    }
}
