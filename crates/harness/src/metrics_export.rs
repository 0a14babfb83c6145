//! Serializers for [`clear_metrics`] snapshots: the harness JSON shape
//! embedded in experiment documents, and a Prometheus text exposition for
//! scrape-style consumers of `clear-harness serve`.
//!
//! Both exporters are pure functions of the snapshot, which itself holds
//! only simulated-deterministic values — so the rendered bytes are
//! reproducible across hosts and worker counts. The
//! Prometheus writer shares its label escaping with the JSON layer
//! ([`crate::json::escape_into`]), and [`validate_prometheus`] re-parses
//! the rendered text as a structural self-check, the same honesty rule the
//! Chrome-trace exporter follows.

use crate::json::{escape_into, EscapeStyle, Json};
use clear_metrics::{MetricValue, Snapshot};
use std::fmt::Write as _;

/// Quantiles the harness reports everywhere it renders a histogram: the
/// SLO gate's p50/p99/p999.
pub const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)];

/// Renders a snapshot as the harness JSON shape: one row per series with
/// the family name, its labels as an object, and a kind-tagged value.
/// Histograms carry count/sum/min/max/mean, the gated quantiles, and the
/// trailing-zero-trimmed log2 bucket array.
pub fn snapshot_to_json(snap: &Snapshot) -> Json {
    let series = snap.series.iter().map(|s| {
        let labels = Json::obj(
            s.labels
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
        );
        let mut pairs = vec![
            ("name".to_string(), Json::from(s.name.as_str())),
            ("labels".to_string(), labels),
        ];
        match &s.value {
            MetricValue::Counter(c) => {
                pairs.push(("kind".to_string(), Json::from("counter")));
                pairs.push(("value".to_string(), Json::from(*c)));
            }
            MetricValue::Gauge(g) => {
                pairs.push(("kind".to_string(), Json::from("gauge")));
                pairs.push(("value".to_string(), Json::from(*g)));
            }
            MetricValue::Hist(h) => {
                pairs.push(("kind".to_string(), Json::from("hist")));
                pairs.push(("count".to_string(), Json::from(h.count())));
                pairs.push(("sum".to_string(), Json::from(h.sum())));
                pairs.push(("min".to_string(), Json::from(h.min())));
                pairs.push(("max".to_string(), Json::from(h.max())));
                pairs.push(("mean".to_string(), Json::Float(h.mean())));
                for (name, q) in QUANTILES {
                    pairs.push((name.to_string(), Json::from(h.quantile(q))));
                }
                let top = h
                    .buckets()
                    .iter()
                    .rposition(|&n| n > 0)
                    .map_or(0, |i| i + 1);
                pairs.push((
                    "buckets_log2".to_string(),
                    Json::arr(h.buckets()[..top].iter().map(|&n| Json::from(n))),
                ));
            }
        }
        Json::Obj(pairs)
    });
    Json::obj([("series", Json::arr(series))])
}

/// Appends one `name{labels}` series reference (or bare `name` without
/// labels), with `extra` label pairs appended after the series' own.
fn write_series_ref(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
) {
    out.push_str(name);
    if labels.is_empty() && extra.is_empty() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_into(out, v, EscapeStyle::PrometheusLabel);
        out.push('"');
    }
    out.push('}');
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters and gauges become single samples with `# TYPE` headers;
/// histograms become the standard `_bucket`/`_sum`/`_count` triplet with
/// cumulative `le` buckets at the log2 upper bounds plus `le="+Inf"`.
/// Series order follows the snapshot's canonical order, so the rendered
/// text is deterministic byte-for-byte.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<(String, &'static str)> = None;
    for s in &snap.series {
        let (type_str, base) = match &s.value {
            MetricValue::Counter(_) => ("counter", s.name.clone()),
            MetricValue::Gauge(_) => ("gauge", s.name.clone()),
            MetricValue::Hist(_) => ("histogram", s.name.clone()),
        };
        if last_typed.as_ref() != Some(&(base.clone(), type_str)) {
            let _ = writeln!(out, "# TYPE {base} {type_str}");
            last_typed = Some((base.clone(), type_str));
        }
        match &s.value {
            MetricValue::Counter(c) => {
                write_series_ref(&mut out, &s.name, &s.labels, &[]);
                let _ = writeln!(out, " {c}");
            }
            MetricValue::Gauge(g) => {
                write_series_ref(&mut out, &s.name, &s.labels, &[]);
                let _ = writeln!(out, " {g}");
            }
            MetricValue::Hist(h) => {
                let mut cumulative = 0u64;
                let top = h
                    .buckets()
                    .iter()
                    .rposition(|&n| n > 0)
                    .map_or(0, |i| i + 1);
                for (i, &n) in h.buckets()[..top].iter().enumerate() {
                    cumulative += n;
                    // Bucket i holds values < 2^(i+1), so that power is the
                    // inclusive upper bound in `le` terms.
                    let le = format!("{}", (1u128 << (i + 1)) - 1);
                    write_series_ref(
                        &mut out,
                        &format!("{}_bucket", s.name),
                        &s.labels,
                        &[("le", &le)],
                    );
                    let _ = writeln!(out, " {cumulative}");
                }
                write_series_ref(
                    &mut out,
                    &format!("{}_bucket", s.name),
                    &s.labels,
                    &[("le", "+Inf")],
                );
                let _ = writeln!(out, " {}", h.count());
                write_series_ref(&mut out, &format!("{}_sum", s.name), &s.labels, &[]);
                let _ = writeln!(out, " {}", h.sum());
                write_series_ref(&mut out, &format!("{}_count", s.name), &s.labels, &[]);
                let _ = writeln!(out, " {}", h.count());
            }
        }
    }
    out
}

/// What [`validate_prometheus`] measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrometheusSummary {
    /// Sample lines in the document.
    pub samples: usize,
    /// `# TYPE` headers.
    pub families: usize,
}

/// Structural validation of a rendered exposition: every non-comment line
/// must parse as `name{labels} value` with balanced, properly escaped
/// label quoting, histogram `_bucket` series must be cumulative, and
/// `_count` must equal the `+Inf` bucket.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_prometheus(text: &str) -> Result<PrometheusSummary, String> {
    let mut samples = 0usize;
    let mut families = 0usize;
    // (series ref without le) -> last cumulative bucket value.
    let mut last_bucket: Option<(String, u64)> = None;
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            families += 1;
            if rest.split_whitespace().count() != 2 {
                return Err(format!("line {}: malformed TYPE header", ln + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = split_sample(line)
            .ok_or_else(|| format!("line {}: not a `name{{labels}} value` sample", ln + 1))?;
        if value != "+Inf" && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad sample value `{value}`", ln + 1));
        }
        samples += 1;
        // Cumulativity check for histogram buckets.
        if let Some((base, le)) = strip_le(&series) {
            if le == "+Inf" {
                last_bucket = None;
            } else {
                let v: u64 = value
                    .parse()
                    .map_err(|_| format!("line {}: non-integer bucket", ln + 1))?;
                if let Some((prev_base, prev)) = &last_bucket {
                    if *prev_base == base && v < *prev {
                        return Err(format!(
                            "line {}: bucket count decreased ({prev} -> {v})",
                            ln + 1
                        ));
                    }
                }
                last_bucket = Some((base, v));
            }
        } else {
            last_bucket = None;
        }
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(PrometheusSummary { samples, families })
}

/// Splits a sample line into its series reference and value, walking the
/// label block quote-aware so escaped quotes inside label values (the
/// escaping under test) do not break the split.
fn split_sample(line: &str) -> Option<(String, String)> {
    let bytes = line.as_bytes();
    let mut i = 0;
    // Metric name.
    while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b' ' {
        i += 1;
    }
    if i == 0 {
        return None;
    }
    if bytes.get(i) == Some(&b'{') {
        let mut in_quotes = false;
        i += 1;
        loop {
            match bytes.get(i)? {
                b'\\' if in_quotes => i += 2,
                b'"' => {
                    in_quotes = !in_quotes;
                    i += 1;
                }
                b'}' if !in_quotes => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
    }
    let series = line.get(..i)?.to_string();
    let value = line.get(i..)?.trim();
    if value.is_empty() {
        return None;
    }
    Some((series, value.to_string()))
}

/// For `name_bucket{...,le="X"}` refs: the ref minus the `le` pair, plus
/// the `le` value.
fn strip_le(series: &str) -> Option<(String, String)> {
    // `le` is either appended after the series' own labels or, for a
    // label-free histogram, the only pair in the block.
    let start = series.find(",le=\"").or_else(|| series.find("{le=\""))?;
    let after = &series[start + 5..];
    let end = after.find('"')?;
    let le = after[..end].to_string();
    let mut base = series[..start].to_string();
    base.push_str(&after[end + 1..]);
    Some((base, le))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clear_metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.inc("clear_aborts_total", &[("cause", "memory-conflict")], 3);
        r.inc("clear_aborts_total", &[("cause", "nacked")], 1);
        r.set_gauge("clear_shard_lines", &[("shard", "0")], 12);
        for v in [0, 1, 7, 130, 131, 9000] {
            r.observe("clear_ttc_cycles", &[("mode", "speculative")], v);
        }
        r
    }

    #[test]
    fn json_shape_carries_quantiles_and_buckets() {
        let doc = snapshot_to_json(&sample_registry().snapshot());
        let Some(Json::Arr(series)) = doc.get("series") else {
            panic!("missing series");
        };
        assert_eq!(series.len(), 4);
        let hist = series
            .iter()
            .find(|s| s.get("kind") == Some(&Json::from("hist")))
            .expect("hist row");
        assert_eq!(hist.get("count"), Some(&Json::Int(6)));
        assert_eq!(hist.get("min"), Some(&Json::Int(0)));
        assert_eq!(hist.get("max"), Some(&Json::Int(9000)));
        assert!(hist.get("p50").is_some() && hist.get("p999").is_some());
        // The document round-trips through the in-tree parser.
        let text = doc.to_pretty();
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    #[test]
    fn prometheus_text_validates_and_is_cumulative() {
        let text = prometheus_text(&sample_registry().snapshot());
        let summary = validate_prometheus(&text).expect("valid exposition");
        assert!(summary.samples >= 7, "{text}");
        assert_eq!(summary.families, 3, "{text}");
        assert!(text.contains("# TYPE clear_ttc_cycles histogram"));
        assert!(text.contains("clear_ttc_cycles_bucket{mode=\"speculative\",le=\"+Inf\"} 6"));
        assert!(text.contains("clear_aborts_total{cause=\"memory-conflict\"} 3"));
    }

    #[test]
    fn label_escaping_round_trips_through_the_validator() {
        let mut r = MetricsRegistry::new();
        r.inc("weird_total", &[("why", "a\"b\\c\nd")], 1);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("why=\"a\\\"b\\\\c\\nd\""), "{text}");
        let summary = validate_prometheus(&text).expect("escaped labels must parse");
        assert_eq!(summary.samples, 1);
    }

    #[test]
    fn validator_rejects_garbage_and_regressions() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("just words\n").is_err());
        let decreasing = "# TYPE h histogram\n\
                          h_bucket{le=\"1\"} 5\n\
                          h_bucket{le=\"3\"} 3\n";
        let err = validate_prometheus(decreasing).unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }
}
