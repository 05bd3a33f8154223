//! Snapshot exporters: Prometheus text format, a JSON document, and a
//! human-readable table.
//!
//! All three render a [`RegistrySnapshot`], so one consistent read feeds
//! every format; handles expose them through the
//! [`Exporter`](super::Exporter) trait rather than re-implementing them.
//! The JSON exporter writes the document by hand — it predates the serving
//! layer's `serde_json` dependency and its output shape is pinned by a
//! round-trip test through a real parser in the workspace test suite.

use super::metrics::{HistogramSnapshot, MetricSnapshot, MetricValue, RegistrySnapshot};
use std::fmt::Write as _;

/// Formats a finite `f64` the way Prometheus and JSON both accept
/// (`Display` on `f64` is the shortest round-trip decimal form).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn prometheus_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        fmt_f64(v)
    }
}

fn series_suffix(m: &MetricSnapshot) -> String {
    match &m.label {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    }
}

fn histogram_prometheus(out: &mut String, name: &str, m: &MetricSnapshot, h: &HistogramSnapshot) {
    let cumulative = h.cumulative();
    let extra = m
        .label
        .as_ref()
        .map(|(k, v)| format!("{k}=\"{v}\","))
        .unwrap_or_default();
    for (bound, cum) in h.bounds.iter().zip(&cumulative) {
        let _ = writeln!(
            out,
            "{name}_bucket{{{extra}le=\"{}\"}} {cum}",
            prometheus_value(*bound)
        );
    }
    let total = cumulative.last().copied().unwrap_or(0);
    let _ = writeln!(out, "{name}_bucket{{{extra}le=\"+Inf\"}} {total}");
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        series_suffix(m),
        prometheus_value(h.sum)
    );
    let _ = writeln!(out, "{name}_count{} {total}", series_suffix(m));
}

/// Renders the snapshot in the Prometheus text exposition format:
/// `# HELP`/`# TYPE` headers once per family, then one line per series,
/// in stable (family, label) order.
pub fn prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for m in &snapshot.metrics {
        if last_family != Some(m.name.as_str()) {
            if last_family.is_some() {
                out.push('\n');
            }
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {kind}", m.name);
            last_family = Some(m.name.as_str());
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", m.name, series_suffix(m));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    m.name,
                    series_suffix(m),
                    prometheus_value(*v)
                );
            }
            MetricValue::Histogram(h) => histogram_prometheus(&mut out, &m.name, m, h),
        }
    }
    out
}

/// Escapes a string for a JSON string literal (without the quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number token; non-finite values (invalid JSON) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_string()
    }
}

/// Renders the snapshot as one JSON document:
///
/// ```json
/// {"metrics":[{"name":"...","label":{"reason":"stale-timestamp"},
///              "help":"...","type":"counter","value":41}, ...]}
/// ```
///
/// Histograms carry `"buckets":[{"le":1.0,"count":3},...]` (cumulative,
/// the final entry with `"le":null` being `+Inf`), plus `"sum"` and
/// `"count"`.
pub fn json(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, m) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",", json_escape(&m.name));
        match &m.label {
            Some((k, v)) => {
                let _ = write!(
                    out,
                    "\"label\":{{\"{}\":\"{}\"}},",
                    json_escape(k),
                    json_escape(v)
                );
            }
            None => out.push_str("\"label\":null,"),
        }
        let _ = write!(out, "\"help\":\"{}\",", json_escape(&m.help));
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "\"type\":\"gauge\",\"value\":{}}}", json_number(*v));
            }
            MetricValue::Histogram(h) => {
                out.push_str("\"type\":\"histogram\",\"buckets\":[");
                let cumulative = h.cumulative();
                for (j, (bound, cum)) in h.bounds.iter().zip(&cumulative).enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"le\":{},\"count\":{cum}}}", json_number(*bound));
                }
                if !h.bounds.is_empty() {
                    out.push(',');
                }
                let total = cumulative.last().copied().unwrap_or(0);
                let _ = write!(out, "{{\"le\":null,\"count\":{total}}}");
                let _ = write!(out, "],\"sum\":{},\"count\":{total}}}", json_number(h.sum));
            }
        }
    }
    out.push_str("]}");
    out
}

/// Renders the snapshot as an aligned human-readable table, one series per
/// row (histograms show `count / sum / p-buckets` condensed).
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let rows: Vec<(String, String)> = snapshot
        .metrics
        .iter()
        .map(|m| {
            let value = match &m.value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Gauge(v) => prometheus_value(*v),
                MetricValue::Histogram(h) => {
                    format!("count={} sum={}", h.count(), prometheus_value(h.sum))
                }
            };
            (m.series(), value)
        })
        .collect();
    let width = rows.iter().map(|(name, _)| name.len()).max().unwrap_or(6);
    let mut out = String::new();
    let _ = writeln!(out, "{:<width$}  value", "metric", width = width);
    let _ = writeln!(out, "{:-<width$}  -----", "", width = width);
    for (name, value) in rows {
        let _ = writeln!(out, "{name:<width$}  {value}", width = width);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::MetricsRegistry;

    fn sample() -> RegistrySnapshot {
        let reg = MetricsRegistry::new();
        reg.labeled_counter(
            "skynet_ingest_rejected_total",
            Some(("reason", "stale-timestamp")),
            "rejected",
        )
        .add(3);
        reg.labeled_counter(
            "skynet_ingest_rejected_total",
            Some(("reason", "duplicate")),
            "rejected",
        )
        .add(2);
        reg.counter("skynet_ingest_accepted_total", "accepted")
            .add(41);
        reg.gauge("skynet_watermark_seconds", "watermark").set(12.5);
        let h = reg.histogram(
            "skynet_stage_seconds",
            Some(("stage", "locate")),
            &[0.001, 0.01],
            "stage latency",
        );
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(5.0);
        reg.snapshot()
    }

    #[test]
    fn prometheus_format_is_stable() {
        let text = prometheus(&sample());
        assert_eq!(
            text,
            "\
# HELP skynet_ingest_accepted_total accepted
# TYPE skynet_ingest_accepted_total counter
skynet_ingest_accepted_total 41

# HELP skynet_ingest_rejected_total rejected
# TYPE skynet_ingest_rejected_total counter
skynet_ingest_rejected_total{reason=\"duplicate\"} 2
skynet_ingest_rejected_total{reason=\"stale-timestamp\"} 3

# HELP skynet_stage_seconds stage latency
# TYPE skynet_stage_seconds histogram
skynet_stage_seconds_bucket{stage=\"locate\",le=\"0.001\"} 1
skynet_stage_seconds_bucket{stage=\"locate\",le=\"0.01\"} 2
skynet_stage_seconds_bucket{stage=\"locate\",le=\"+Inf\"} 3
skynet_stage_seconds_sum{stage=\"locate\"} 5.0055
skynet_stage_seconds_count{stage=\"locate\"} 3

# HELP skynet_watermark_seconds watermark
# TYPE skynet_watermark_seconds gauge
skynet_watermark_seconds 12.5
"
        );
    }

    #[test]
    fn json_is_valid_and_complete() {
        let doc = json(&sample());
        let parsed: serde_json::Value =
            serde_json::from_str(&doc).expect("exporter emits valid JSON");
        let metrics = parsed["metrics"].as_array().unwrap();
        assert_eq!(metrics.len(), 5);
        let accepted = metrics
            .iter()
            .find(|m| m["name"].as_str() == Some("skynet_ingest_accepted_total"))
            .unwrap();
        assert_eq!(accepted["value"].as_u64(), Some(41));
        assert_eq!(accepted["type"].as_str(), Some("counter"));
        let hist = metrics
            .iter()
            .find(|m| m["name"].as_str() == Some("skynet_stage_seconds"))
            .unwrap();
        assert_eq!(hist["count"].as_u64(), Some(3));
        let buckets = hist["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[2]["le"], serde_json::Value::Null);
        assert_eq!(buckets[2]["count"].as_u64(), Some(3));
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn render_is_aligned_and_lists_every_series() {
        let table = render(&sample());
        // The value column starts two spaces after the *longest* series name.
        assert!(table.contains("skynet_ingest_rejected_total{reason=\"stale-timestamp\"}  3"));
        assert!(table.contains("skynet_ingest_rejected_total{reason=\"duplicate\"}        2"));
        assert!(table.contains("count=3 sum=5.0055"));
        assert_eq!(table.lines().count(), 2 + 5);
    }

    #[test]
    fn non_finite_gauges_export_safely() {
        let reg = MetricsRegistry::new();
        reg.gauge("skynet_g", "g").set(f64::INFINITY);
        let snap = reg.snapshot();
        assert!(prometheus(&snap).contains("skynet_g +Inf"));
        let parsed: serde_json::Value = serde_json::from_str(&json(&snap)).unwrap();
        assert_eq!(parsed["metrics"][0]["value"], serde_json::Value::Null);
    }
}
