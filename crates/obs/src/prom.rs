//! Prometheus text-format (version 0.0.4) rendering.
//!
//! A tiny writer for the exposition format scrapers expect: `# HELP` /
//! `# TYPE` headers followed by sample lines, with optional labels and
//! cumulative histogram buckets. No escaping surprises: metric and
//! label names must be valid identifiers (the callers use literals),
//! label *values* are escaped per the spec.

use std::fmt::Write as _;

/// An in-progress Prometheus text exposition.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}", format_value(value));
    }

    /// A single-sample counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// A counter family with one label dimension.
    pub fn counter_family(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (String, u64)>,
    ) {
        self.header(name, help, "counter");
        for (value, count) in samples {
            self.sample(name, &[(label, value)], count as f64);
        }
    }

    /// A single-sample counter with a fractional value (totals in base
    /// units, e.g. seconds).
    pub fn counter_f64(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value);
    }

    /// A counter family with one label dimension and fractional values.
    pub fn counter_family_f64(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (String, f64)>,
    ) {
        self.header(name, help, "counter");
        for (value, count) in samples {
            self.sample(name, &[(label, value)], count);
        }
    }

    /// A single-sample gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A gauge family with one label dimension (e.g. per-city resident
    /// bytes).
    pub fn gauge_family(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (String, f64)>,
    ) {
        self.header(name, help, "gauge");
        for (value, sample) in samples {
            self.sample(name, &[(label, value)], sample);
        }
    }

    /// A cumulative histogram from per-bucket (non-cumulative) counts.
    /// `upper_bounds[i]` is bucket `i`'s inclusive upper bound; a final
    /// `+Inf` bucket, `_sum` and `_count` samples are emitted per the
    /// exposition format.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        upper_bounds: &[f64],
        bucket_counts: &[u64],
        sum: f64,
        count: u64,
    ) {
        assert_eq!(upper_bounds.len(), bucket_counts.len());
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for (le, n) in upper_bounds.iter().zip(bucket_counts) {
            cumulative += n;
            self.sample(
                &format!("{name}_bucket"),
                &[("le", format_value(*le))],
                cumulative as f64,
            );
        }
        self.sample(
            &format!("{name}_bucket"),
            &[("le", "+Inf".to_owned())],
            count as f64,
        );
        self.sample(&format!("{name}_sum"), &[], sum);
        self.sample(&format!("{name}_count"), &[], count as f64);
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus-friendly number formatting: integral values print
/// without a fractional part, everything else uses Rust's shortest
/// round-trip `f64` form.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let mut p = PromText::new();
        p.counter("atsq_requests_total", "Requests admitted.", 42);
        p.gauge("atsq_queue_depth", "Queued requests.", 3.0);
        let text = p.finish();
        assert!(text.contains("# HELP atsq_requests_total Requests admitted.\n"));
        assert!(text.contains("# TYPE atsq_requests_total counter\n"));
        assert!(
            text.contains("\natsq_requests_total 42\n")
                || text.starts_with("atsq_requests_total 42\n")
                || text.contains("atsq_requests_total 42\n")
        );
        assert!(text.contains("atsq_queue_depth 3\n"));
    }

    #[test]
    fn families_carry_labels() {
        let mut p = PromText::new();
        p.counter_family(
            "atsq_city_loads_total",
            "Loads per city.",
            "city",
            [("tokyo".to_owned(), 5), ("osaka".to_owned(), 7)],
        );
        let text = p.finish();
        assert!(text.contains("atsq_city_loads_total{city=\"tokyo\"} 5\n"));
        assert!(text.contains("atsq_city_loads_total{city=\"osaka\"} 7\n"));
    }

    #[test]
    fn gauge_families_carry_labels() {
        let mut p = PromText::new();
        p.gauge_family(
            "atsq_city_resident_bytes",
            "Resident bytes per city.",
            "city",
            [("tokyo".to_owned(), 1024.0), ("osaka".to_owned(), 0.0)],
        );
        let text = p.finish();
        assert!(text.contains("# TYPE atsq_city_resident_bytes gauge\n"));
        assert!(text.contains("atsq_city_resident_bytes{city=\"tokyo\"} 1024\n"));
        assert!(text.contains("atsq_city_resident_bytes{city=\"osaka\"} 0\n"));
    }

    #[test]
    fn histograms_are_cumulative_with_inf() {
        let mut p = PromText::new();
        p.histogram(
            "atsq_latency_seconds",
            "Latency.",
            &[0.001, 0.01],
            &[3, 2],
            0.25,
            6, // one observation beyond the last finite bucket
        );
        let text = p.finish();
        assert!(text.contains("atsq_latency_seconds_bucket{le=\"0.001\"} 3\n"));
        assert!(text.contains("atsq_latency_seconds_bucket{le=\"0.01\"} 5\n"));
        assert!(text.contains("atsq_latency_seconds_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("atsq_latency_seconds_sum 0.25\n"));
        assert!(text.contains("atsq_latency_seconds_count 6\n"));
    }

    #[test]
    fn label_values_escape() {
        let mut p = PromText::new();
        p.counter_family("x_total", "X.", "who", [("a\"b\\c\nd".to_owned(), 1)]);
        assert!(p.finish().contains("x_total{who=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }
}
