//! Minimal Prometheus text-exposition rendering (version 0.0.4 of the
//! format), plus the standard rendering of an [`EvidenceLedger`] as
//! gauge families.
//!
//! The exposition format is deliberately tiny — `# HELP` / `# TYPE`
//! comment lines followed by `name{label="value",…} number` samples —
//! and this module implements exactly that subset, with correct label
//! escaping, so `qrn-serve`'s `/metrics` endpoint needs no external
//! crates. [`TextFamilies`] enforces the structural rules a Prometheus
//! scraper relies on: one `HELP`/`TYPE` pair per family, all samples of
//! a family contiguous, metric and label names restricted to the legal
//! character set.
//!
//! [`render_ledgers`] is the shared ledger→metrics mapping: exposure,
//! weighted incident mass, raw observation counts and unclassified mass,
//! per item, globally and per named context (exposed as a `zone` label).
//! Keeping it here — next to the [`EvidenceLedger`] itself — means every
//! server or exporter renders ledger evidence the same way.

use std::fmt::{Display, Write};

use crate::evidence::EvidenceLedger;

/// Returns `true` when `name` is a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline must be backslash-escaped.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The kind of a metric family, as named in its `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing counter.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A cumulative histogram (`_bucket`/`_sum`/`_count` samples).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// An in-progress Prometheus text exposition: families are opened with
/// [`TextFamilies::family`] and samples appended to the open family, so
/// the output always satisfies the format's grouping rule (all samples
/// of a family contiguous, preceded by its `HELP`/`TYPE` lines).
#[derive(Debug, Default)]
pub struct TextFamilies {
    out: String,
    current: Option<String>,
}

impl TextFamilies {
    /// Creates an empty exposition.
    pub fn new() -> Self {
        TextFamilies::default()
    }

    /// Opens a metric family: writes its `# HELP` and `# TYPE` lines.
    /// Subsequent [`TextFamilies::sample`] calls must use this family
    /// name (optionally suffixed `_bucket`/`_sum`/`_count` for
    /// histograms).
    ///
    /// # Panics
    ///
    /// Panics on an illegal metric name — metric names are compile-time
    /// constants in practice, so this is a programming error, not input
    /// validation.
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Self {
        assert!(is_valid_metric_name(name), "invalid metric name {name:?}");
        // HELP text must not contain raw newlines.
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        writeln!(self.out, "# HELP {name} {help}").expect("writing to String");
        writeln!(self.out, "# TYPE {name} {}", kind.as_str()).expect("writing to String");
        self.current = Some(name.to_string());
        self
    }

    /// Appends one sample of the open family. `name` must be the family
    /// name or (for histograms) a `_bucket`/`_sum`/`_count` suffix of it.
    ///
    /// # Panics
    ///
    /// Panics when no family is open, when `name` does not belong to the
    /// open family, or on an illegal label name.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        // Prometheus floats: plain decimal or scientific both parse;
        // Rust's shortest-roundtrip Display is valid. Non-finite values
        // render as +Inf/-Inf/NaN per the format.
        let value: &dyn Display = if value.is_finite() {
            &value
        } else if value.is_nan() {
            &"NaN"
        } else if value > 0.0 {
            &"+Inf"
        } else {
            &"-Inf"
        };
        self.write_sample(name, labels, value)
    }

    /// Appends an integer-valued sample of the open family, with the
    /// same rules as [`TextFamilies::sample`].
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) -> &mut Self {
        // u64 counts in this workspace stay far below 2^53; render
        // through the integer path so no precision question arises.
        self.write_sample(name, labels, &value)
    }

    /// The one sample writer behind [`TextFamilies::sample`] and
    /// [`TextFamilies::sample_u64`]: checks family membership and label
    /// names, then writes `name{labels} value`.
    fn write_sample(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: &dyn Display,
    ) -> &mut Self {
        let family = self.current.as_deref().expect("no open metric family");
        assert!(
            name == family
                || (name
                    .strip_prefix(family)
                    .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count"))),
            "sample {name:?} does not belong to open family {family:?}"
        );
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (label, v)) in labels.iter().enumerate() {
                assert!(
                    is_valid_metric_name(label) && !label.contains(':'),
                    "invalid label name {label:?}"
                );
                if i > 0 {
                    self.out.push(',');
                }
                write!(self.out, "{label}=\"{}\"", escape_label_value(v))
                    .expect("writing to String");
            }
            self.out.push('}');
        }
        writeln!(self.out, " {value}").expect("writing to String");
        self
    }

    /// Finishes the exposition and returns the text body
    /// (`text/plain; version=0.0.4`).
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders several [`EvidenceLedger`]s — one per served norm/allocation
/// *item* — as gauge families under `prefix` (conventionally
/// `qrn_evidence`), with an `item` label distinguishing the series:
///
/// * `<prefix>_exposure_hours` — global, plus one series per named
///   context with a `zone` label (for multi-band logs the label value is
///   the full canonical ODD context key, e.g.
///   `zone="weather=fog,zone=urban"`; the label *name* stays `zone` for
///   dashboard compatibility);
/// * `<prefix>_incident_mass{kind=…}` — weighted incident mass, global
///   and per zone;
/// * `<prefix>_incident_observations{kind=…}` — raw observation counts
///   (equal to mass for unit-weight evidence), global and per zone;
/// * `<prefix>_unclassified_mass` — weighted mass no incident kind
///   claimed.
///
/// All samples of each family stay contiguous across items, as the
/// exposition format requires, which is why a multi-item exporter calls
/// this once with every item.
pub fn render_ledgers(out: &mut TextFamilies, prefix: &str, items: &[(&str, &EvidenceLedger)]) {
    let exposure = format!("{prefix}_exposure_hours");
    out.family(
        &exposure,
        "Exposure hours accumulated in the evidence ledger",
        MetricKind::Gauge,
    );
    for &(item, ledger) in items {
        out.sample(&exposure, &[("item", item)], ledger.exposure());
        for (zone, row) in ledger.named_contexts() {
            out.sample(
                &exposure,
                &[("item", item), ("zone", zone)],
                row.exposure_hours(),
            );
        }
    }

    let mass = format!("{prefix}_incident_mass");
    out.family(
        &mass,
        "Weighted incident mass per incident kind",
        MetricKind::Gauge,
    );
    for &(item, ledger) in items {
        for kind in ledger.kinds() {
            out.sample(
                &mass,
                &[("item", item), ("kind", kind)],
                ledger.count(kind).total(),
            );
        }
        for (zone, row) in ledger.named_contexts() {
            for (kind, count) in row.counts() {
                let labels = [("item", item), ("kind", kind), ("zone", zone)];
                out.sample(&mass, &labels, count.total());
            }
        }
    }

    let observations = format!("{prefix}_incident_observations");
    out.family(
        &observations,
        "Raw incident observations per incident kind",
        MetricKind::Gauge,
    );
    for &(item, ledger) in items {
        for kind in ledger.kinds() {
            let labels = [("item", item), ("kind", kind)];
            out.sample_u64(&observations, &labels, ledger.count(kind).observations());
        }
        for (zone, row) in ledger.named_contexts() {
            for (kind, count) in row.counts() {
                let labels = [("item", item), ("kind", kind), ("zone", zone)];
                out.sample_u64(&observations, &labels, count.observations());
            }
        }
    }

    let unclassified = format!("{prefix}_unclassified_mass");
    out.family(
        &unclassified,
        "Weighted mass of observations no incident kind claimed",
        MetricKind::Gauge,
    );
    for &(item, ledger) in items {
        out.sample(
            &unclassified,
            &[("item", item)],
            ledger.unclassified().total(),
        );
    }
}

/// A strict-enough validator of the exposition format, for tests and CI
/// smoke checks: every line must be a `HELP`/`TYPE` comment or a
/// `name{labels} value` sample, a `TYPE` line must precede the samples
/// of its family, and each family's samples must be contiguous.
///
/// # Errors
///
/// Returns the first offending line (1-based) and why it is invalid.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut current_family: Option<String> = None;
    let mut closed_families: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let fail = |msg: &str| Err(format!("line {}: {msg}: {line:?}", i + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if keyword != "HELP" && keyword != "TYPE" {
                return fail("unknown comment keyword");
            }
            if !is_valid_metric_name(name) {
                return fail("bad metric name in comment");
            }
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                    return fail("bad metric type");
                }
                if closed_families.contains(&name.to_string()) {
                    return fail("family re-opened (samples must be contiguous)");
                }
                if let Some(prev) = current_family.replace(name.to_string()) {
                    closed_families.push(prev);
                }
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return fail("no value"),
        };
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return fail("unparseable value");
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return fail("unterminated label set");
                }
                let inner = &labels[..labels.len() - 1];
                for pair in split_label_pairs(inner) {
                    let (label, v) = match pair.split_once('=') {
                        Some(split) => split,
                        None => return fail("label without ="),
                    };
                    if !is_valid_metric_name(label) {
                        return fail("bad label name");
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return fail("unquoted label value");
                    }
                }
                name
            }
            None => series,
        };
        if !is_valid_metric_name(name) {
            return fail("bad sample metric name");
        }
        match &current_family {
            Some(family)
                if name == family
                    || name
                        .strip_prefix(family.as_str())
                        .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count")) => {}
            _ => return fail("sample outside its TYPE'd family"),
        }
    }
    Ok(())
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(inner: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&inner[start..i]);
                start = i + 1;
                escaped = false;
            }
            _ => escaped = false,
        }
    }
    if start < inner.len() {
        pairs.push(&inner[start..]);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        assert!(is_valid_metric_name("qrn_exposure_hours"));
        assert!(is_valid_metric_name("_private:total"));
        assert!(!is_valid_metric_name("9starts_with_digit"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name(""));
    }

    #[test]
    fn label_values_escape() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn families_render_and_validate() {
        let mut text = TextFamilies::new();
        text.family("qrn_requests_total", "Requests served", MetricKind::Counter)
            .sample_u64("qrn_requests_total", &[("route", "/healthz")], 3)
            .sample_u64("qrn_requests_total", &[("route", "/metrics")], 1)
            .family("qrn_latency_seconds", "Latency", MetricKind::Histogram)
            .sample_u64("qrn_latency_seconds_bucket", &[("le", "0.1")], 4)
            .sample_u64("qrn_latency_seconds_bucket", &[("le", "+Inf")], 4)
            .sample("qrn_latency_seconds_sum", &[], 0.25)
            .sample_u64("qrn_latency_seconds_count", &[], 4);
        let body = text.finish();
        validate_exposition(&body).unwrap();
        assert!(body.contains("# TYPE qrn_requests_total counter"));
        assert!(body.contains("qrn_requests_total{route=\"/healthz\"} 3"));
    }

    #[test]
    fn sample_outside_family_panics() {
        let mut text = TextFamilies::new();
        text.family("a_total", "a", MetricKind::Counter);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            text.sample("b_total", &[], 1.0);
        }))
        .is_err());
    }

    #[test]
    fn non_finite_values_render_per_format() {
        let mut text = TextFamilies::new();
        text.family("g", "g", MetricKind::Gauge)
            .sample("g", &[], f64::INFINITY)
            .sample("g", &[], f64::NEG_INFINITY)
            .sample("g", &[], f64::NAN);
        let body = text.finish();
        assert!(body.contains("g +Inf"));
        assert!(body.contains("g -Inf"));
        assert!(body.contains("g NaN"));
        validate_exposition(&body).unwrap();
    }

    #[test]
    fn multi_item_ledgers_render_contiguous_families_with_item_labels() {
        let mut a = EvidenceLedger::new();
        a.add_exposure(None, 100.0);
        a.add_incident(None, "I2", 1.0);
        let mut b = EvidenceLedger::new();
        b.add_exposure(None, 50.0);
        b.add_exposure(Some("urban"), 10.0);
        b.add_incident(Some("urban"), "I3", 0.5);
        b.add_incident(None, "I3", 0.5);

        let mut text = TextFamilies::new();
        render_ledgers(&mut text, "qrn_evidence", &[("ads_a", &a), ("ads_b", &b)]);
        let body = text.finish();
        // Families stay contiguous across items — the structural rule a
        // scraper relies on and validate_exposition enforces.
        validate_exposition(&body).unwrap();
        assert!(
            body.contains("qrn_evidence_exposure_hours{item=\"ads_a\"} 100"),
            "{body}"
        );
        assert!(
            body.contains("qrn_evidence_exposure_hours{item=\"ads_b\"} 50"),
            "{body}"
        );
        assert!(
            body.contains("qrn_evidence_exposure_hours{item=\"ads_b\",zone=\"urban\"} 10"),
            "{body}"
        );
        assert!(
            body.contains("qrn_evidence_incident_mass{item=\"ads_a\",kind=\"I2\"} 1"),
            "{body}"
        );
        assert!(
            body.contains(
                "qrn_evidence_incident_mass{item=\"ads_b\",kind=\"I3\",zone=\"urban\"} 0.5"
            ),
            "{body}"
        );
        // Exactly one HELP/TYPE pair per family despite two items.
        assert_eq!(
            body.matches("# TYPE qrn_evidence_exposure_hours gauge")
                .count(),
            1
        );
    }

    #[test]
    fn ledger_renders_all_rows() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 1000.0);
        ledger.add_exposure(Some("urban"), 250.0);
        ledger.add_incident(None, "I2", 1.0);
        ledger.add_incident(Some("urban"), "I2", 1.0);
        ledger.add_incident(None, "I3", 0.125);
        ledger.add_unclassified(None, 2.0);

        let mut text = TextFamilies::new();
        render_ledgers(&mut text, "qrn_evidence", &[("default", &ledger)]);
        let body = text.finish();
        validate_exposition(&body).unwrap();
        assert!(body.contains("qrn_evidence_exposure_hours{item=\"default\"} 1000"));
        assert!(body.contains("qrn_evidence_exposure_hours{item=\"default\",zone=\"urban\"} 250"));
        assert!(body.contains("qrn_evidence_incident_mass{item=\"default\",kind=\"I3\"} 0.125"));
        assert!(body.contains("qrn_evidence_incident_observations{item=\"default\",kind=\"I2\"} 1"));
        assert!(body
            .contains("qrn_evidence_incident_mass{item=\"default\",kind=\"I2\",zone=\"urban\"} 1"));
        assert!(body.contains("qrn_evidence_unclassified_mass{item=\"default\"} 2"));
    }
}
