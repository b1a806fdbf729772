//! Prometheus text exposition format (version 0.0.4) rendering.
//!
//! Dotted metric names map to the flat Prometheus namespace by
//! replacing every non-`[a-zA-Z0-9_]` byte with `_` and prefixing
//! `fveval_`; counters additionally get the conventional `_total`
//! suffix. So a `prover.sat_calls` counter becomes
//! `fveval_prover_sat_calls_total`, and the registry's
//! `span.sat.solve.us` histogram becomes the
//! `fveval_span_sat_solve_us_bucket` / `_sum` / `_count` series.

use crate::metrics::{bucket_le, Histogram, Snapshot, BUCKETS};
use std::collections::HashSet;

/// The exposition-format content type for HTTP responses.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Maps a dotted registry name to a Prometheus metric name (without
/// kind suffix): `span.sat.solve.us` → `fveval_span_sat_solve_us`.
pub fn metric_name(dotted: &str) -> String {
    let mut name = String::with_capacity(dotted.len() + 7);
    name.push_str("fveval_");
    for ch in dotted.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            name.push(ch);
        } else {
            name.push('_');
        }
    }
    name
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Incremental renderer for one exposition document. Series may be
/// appended in any order; a `# TYPE` line is emitted the first time
/// each metric name appears.
#[derive(Default)]
pub struct PromText {
    out: String,
    typed: HashSet<String>,
}

impl PromText {
    /// Starts an empty document.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        if self.typed.insert(name.to_string()) {
            self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
    }

    /// Appends one counter sample (dotted name; `_total` suffix and
    /// `fveval_` prefix are added here).
    pub fn counter(&mut self, dotted: &str, labels: &[(&str, &str)], value: u64) {
        let name = format!("{}_total", metric_name(dotted));
        self.type_line(&name, "counter");
        self.out
            .push_str(&format!("{name}{} {value}\n", label_block(labels)));
    }

    /// Appends one gauge sample.
    pub fn gauge(&mut self, dotted: &str, labels: &[(&str, &str)], value: i64) {
        let name = metric_name(dotted);
        self.type_line(&name, "gauge");
        self.out
            .push_str(&format!("{name}{} {value}\n", label_block(labels)));
    }

    /// Appends one histogram as cumulative `_bucket` samples plus
    /// `_sum` and `_count`. Empty trailing buckets are elided (the
    /// `+Inf` bucket always closes the series).
    pub fn histogram(&mut self, dotted: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let base = metric_name(dotted);
        self.type_line(&base, "histogram");
        let last_nonzero = (0..BUCKETS)
            .rev()
            .find(|&i| hist.buckets[i] != 0)
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for i in 0..=last_nonzero.min(BUCKETS - 2) {
            cumulative += hist.buckets[i];
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let le = bucket_le(i).to_string();
            with_le.push(("le", &le));
            self.out.push_str(&format!(
                "{base}_bucket{} {cumulative}\n",
                label_block(&with_le)
            ));
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        self.out.push_str(&format!(
            "{base}_bucket{} {}\n",
            label_block(&with_inf),
            hist.count
        ));
        let block = label_block(labels);
        self.out
            .push_str(&format!("{base}_sum{block} {}\n", hist.sum));
        self.out
            .push_str(&format!("{base}_count{block} {}\n", hist.count));
    }

    /// Appends every histogram from a registry snapshot (sorted by
    /// name — the `Snapshot` map is ordered).
    pub fn snapshot(&mut self, snap: &Snapshot) {
        for (name, hist) in &snap.histograms {
            self.histogram(name, &[], hist);
        }
    }

    /// Finishes the document and returns its text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_mangled_and_suffixed() {
        assert_eq!(metric_name("span.sat.solve.us"), "fveval_span_sat_solve_us");
        assert_eq!(metric_name("prover.sat_calls"), "fveval_prover_sat_calls");
    }

    #[test]
    fn counters_gauges_and_labels_render() {
        let mut text = PromText::new();
        text.counter("prover.sat_calls", &[], 42);
        text.counter("shard.jobs_served", &[("shard", "0")], 7);
        text.counter("shard.jobs_served", &[("shard", "1")], 9);
        text.gauge("store.segments", &[], 123);
        let out = text.finish();
        assert!(out.contains("# TYPE fveval_prover_sat_calls_total counter\n"));
        assert!(out.contains("fveval_prover_sat_calls_total 42\n"));
        assert!(out.contains("fveval_shard_jobs_served_total{shard=\"0\"} 7\n"));
        assert!(out.contains("fveval_shard_jobs_served_total{shard=\"1\"} 9\n"));
        // One TYPE line per name, even with two labeled samples.
        assert_eq!(
            out.matches("# TYPE fveval_shard_jobs_served_total").count(),
            1
        );
        assert!(out.contains("fveval_store_segments 123\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let mut hist = Histogram::default();
        for v in [0u64, 1, 2, 3, 900] {
            hist.record(v);
        }
        let mut text = PromText::new();
        text.histogram("span.solve.us", &[], &hist);
        let out = text.finish();
        assert!(out.contains("# TYPE fveval_span_solve_us histogram\n"));
        assert!(out.contains("fveval_span_solve_us_bucket{le=\"0\"} 1\n"));
        assert!(out.contains("fveval_span_solve_us_bucket{le=\"1\"} 2\n"));
        assert!(out.contains("fveval_span_solve_us_bucket{le=\"3\"} 4\n"));
        assert!(out.contains("fveval_span_solve_us_bucket{le=\"1023\"} 5\n"));
        assert!(out.contains("fveval_span_solve_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(out.contains("fveval_span_solve_us_sum 906\n"));
        assert!(out.contains("fveval_span_solve_us_count 5\n"));
    }
}
