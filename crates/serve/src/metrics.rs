//! Server-side operational counters and the request-latency histogram.
//!
//! Everything here is updated on the hot path, so *every* counter is a
//! plain relaxed atomic: the route and status label spaces are small
//! and known at compile time ([`ROUTE_LABELS`], [`STATUS_CODES`]), so a
//! fixed atomic slot per label replaces the mutex-guarded maps the
//! first server version used — `/metrics` scrapes and concurrent
//! ingests no longer serialise on telemetry bookkeeping. Rendering
//! reuses the shared [`qrn_stats::prometheus`] writer so `/metrics`
//! output is structurally valid by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use qrn_stats::prometheus::{MetricKind, TextFamilies};

/// Upper bounds (seconds) of the request-latency histogram buckets. The
/// final implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS: [f64; 8] = [0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 5.0, 30.0];

/// The route label space: every request is counted under exactly one of
/// these. Item-addressed routes collapse onto `{item}` placeholders so
/// the label cardinality stays fixed no matter how many items a server
/// hosts.
pub const ROUTE_LABELS: [&str; 10] = [
    "/healthz",
    "/metrics",
    "/v1/ingest",
    "/v1/burndown",
    "/v1/history",
    "/v1/shutdown",
    "/v1/{item}/ingest",
    "/v1/{item}/burndown",
    "/v1/{item}/history",
    "other",
];

/// Status codes the server emits; anything else lands in the final
/// `other` slot.
pub const STATUS_CODES: [u16; 10] = [200, 400, 404, 405, 408, 411, 413, 429, 431, 500];

/// Maps a request path to its [`ROUTE_LABELS`] index: `/v1/<item>/<endpoint>`
/// matches its `{item}` label, any other path its exact label.
fn route_index(path: &str) -> usize {
    let item_endpoint = path
        .strip_prefix("/v1/")
        .and_then(|rest| rest.split_once('/'))
        .filter(|(item, _)| !item.is_empty())
        .map(|(_, endpoint)| endpoint);
    ROUTE_LABELS
        .iter()
        .position(|&label| match item_endpoint {
            Some(endpoint) => label.strip_prefix("/v1/{item}/") == Some(endpoint),
            None => label == path,
        })
        .unwrap_or(ROUTE_LABELS.len() - 1)
}

/// Maps a status code to its slot in the per-status array (the last slot
/// is `other`).
fn status_index(status: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&code| code == status)
        .unwrap_or(STATUS_CODES.len())
}

/// Operational counters of one running server. All lock-free.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests fully read and routed, one slot per [`ROUTE_LABELS`]
    /// entry.
    requests_by_route: [AtomicU64; ROUTE_LABELS.len()],
    /// Responses written, one slot per [`STATUS_CODES`] entry plus a
    /// final `other`.
    responses_by_status: [AtomicU64; STATUS_CODES.len() + 1],
    /// Connections shed with `429` because the queue was full.
    rejected_queue_full: AtomicU64,
    /// Connections dropped without a response (client vanished).
    connections_dropped: AtomicU64,
    /// Ingest requests accepted (segments merged into the live state).
    segments_ingested: AtomicU64,
    /// Checkpoint writes: spent-look sidecar saves and drain writes.
    checkpoints_written: AtomicU64,
    /// Workers serving a connection right now (a gauge).
    workers_busy: AtomicU64,
    /// Latency histogram: counts per bucket of [`LATENCY_BUCKETS`] plus
    /// the `+Inf` bucket.
    latency_counts: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Sum of observed latencies, nanoseconds.
    latency_sum_nanos: AtomicU64,
    /// Number of observed requests.
    latency_observations: AtomicU64,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// Counts one routed request by its path.
    pub fn count_request(&self, path: &str) {
        self.requests_by_route[route_index(path)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one written response.
    pub fn count_response(&self, status: u16) {
        self.responses_by_status[status_index(status)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection shed with `429` at the accept stage.
    pub fn count_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection dropped without a response.
    pub fn count_dropped(&self) {
        self.connections_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted ingest segment.
    pub fn count_segment(&self) {
        self.segments_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one checkpoint write: a spent look's sidecar or a drain.
    pub fn count_checkpoint(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one worker busy: it took a connection off the queue.
    pub fn worker_busy(&self) {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one busy worker idle again.
    pub fn worker_idle(&self) {
        self.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Workers serving a connection right now.
    pub fn workers_busy(&self) -> u64 {
        self.workers_busy.load(Ordering::Relaxed)
    }

    /// Records one request's wall-clock service time.
    pub fn observe_latency(&self, elapsed: Duration) {
        let seconds = elapsed.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&le| seconds <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_nanos.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.latency_observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders every family under the `qrn_http` / `qrn_server`
    /// prefixes. Zero-valued route/status slots are skipped, matching
    /// the sparse output of the old map-based counters.
    pub fn render(&self, out: &mut TextFamilies) {
        out.family(
            "qrn_http_requests_total",
            "Requests fully read and routed, by route",
            MetricKind::Counter,
        );
        for (route, slot) in ROUTE_LABELS.iter().zip(&self.requests_by_route) {
            let count = slot.load(Ordering::Relaxed);
            if count > 0 {
                out.sample_u64("qrn_http_requests_total", &[("route", route)], count);
            }
        }

        out.family(
            "qrn_http_responses_total",
            "Responses written, by status code",
            MetricKind::Counter,
        );
        for (i, slot) in self.responses_by_status.iter().enumerate() {
            let count = slot.load(Ordering::Relaxed);
            if count > 0 {
                let label = match STATUS_CODES.get(i) {
                    Some(code) => code.to_string(),
                    None => "other".to_string(),
                };
                out.sample_u64("qrn_http_responses_total", &[("status", &label)], count);
            }
        }

        out.family(
            "qrn_http_rejected_total",
            "Connections shed or dropped before routing, by reason",
            MetricKind::Counter,
        );
        out.sample_u64(
            "qrn_http_rejected_total",
            &[("reason", "queue_full")],
            self.rejected_queue_full.load(Ordering::Relaxed),
        );
        out.sample_u64(
            "qrn_http_rejected_total",
            &[("reason", "client_gone")],
            self.connections_dropped.load(Ordering::Relaxed),
        );

        out.family(
            "qrn_http_workers_busy",
            "Workers serving a connection right now",
            MetricKind::Gauge,
        );
        out.sample_u64("qrn_http_workers_busy", &[], self.workers_busy());

        out.family(
            "qrn_server_segments_ingested_total",
            "Telemetry segments merged into the live fleet state",
            MetricKind::Counter,
        );
        out.sample_u64(
            "qrn_server_segments_ingested_total",
            &[],
            self.segments_ingested.load(Ordering::Relaxed),
        );

        out.family(
            "qrn_server_checkpoints_written_total",
            "Checkpoint writes: a look sidecar saved when a look is spent, and one per item at drain",
            MetricKind::Counter,
        );
        out.sample_u64(
            "qrn_server_checkpoints_written_total",
            &[],
            self.checkpoints_written.load(Ordering::Relaxed),
        );

        out.family(
            "qrn_http_request_seconds",
            "Request service time, accept to response written",
            MetricKind::Histogram,
        );
        let mut cumulative = 0;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_counts[i].load(Ordering::Relaxed);
            out.sample_u64(
                "qrn_http_request_seconds_bucket",
                &[("le", &format!("{le}"))],
                cumulative,
            );
        }
        cumulative += self.latency_counts[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.sample_u64(
            "qrn_http_request_seconds_bucket",
            &[("le", "+Inf")],
            cumulative,
        );
        out.sample(
            "qrn_http_request_seconds_sum",
            &[],
            self.latency_sum_nanos.load(Ordering::Relaxed) as f64 / 1.0e9,
        );
        out.sample_u64(
            "qrn_http_request_seconds_count",
            &[],
            self.latency_observations.load(Ordering::Relaxed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = ServerMetrics::new();
        m.count_request("/healthz");
        m.count_request("/healthz");
        m.count_request("/v1/ingest");
        m.count_request("/v1/vru/ingest");
        m.count_response(200);
        m.count_response(429);
        m.count_queue_full();
        m.count_segment();
        m.count_checkpoint();
        m.worker_busy();
        m.worker_busy();
        m.worker_idle();
        m.observe_latency(Duration::from_millis(3));
        m.observe_latency(Duration::from_secs(120));

        let mut out = TextFamilies::new();
        m.render(&mut out);
        let body = out.finish();
        assert!(
            body.contains("qrn_http_requests_total{route=\"/healthz\"} 2"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_requests_total{route=\"/v1/{item}/ingest\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_responses_total{status=\"429\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_rejected_total{reason=\"queue_full\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_server_checkpoints_written_total 1"),
            "{body}"
        );
        // 3 ms lands in the 0.005 bucket; 120 s only in +Inf. Buckets are
        // cumulative.
        assert!(
            body.contains("qrn_http_request_seconds_bucket{le=\"0.005\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_request_seconds_bucket{le=\"+Inf\"} 2"),
            "{body}"
        );
        assert!(body.contains("qrn_http_request_seconds_count 2"), "{body}");
        assert!(body.contains("qrn_http_workers_busy 1"), "{body}");
        // Unseen routes and statuses render nothing, as the old
        // map-based counters did.
        assert!(!body.contains("route=\"/metrics\""), "{body}");
        assert!(!body.contains("status=\"500\""), "{body}");
    }

    #[test]
    fn every_path_maps_to_a_fixed_route_label() {
        assert_eq!(ROUTE_LABELS[route_index("/healthz")], "/healthz");
        assert_eq!(ROUTE_LABELS[route_index("/v1/ingest")], "/v1/ingest");
        assert_eq!(
            ROUTE_LABELS[route_index("/v1/vru/ingest")],
            "/v1/{item}/ingest"
        );
        assert_eq!(
            ROUTE_LABELS[route_index("/v1/highway/burndown")],
            "/v1/{item}/burndown"
        );
        assert_eq!(ROUTE_LABELS[route_index("/v1/history")], "/v1/history");
        assert_eq!(
            ROUTE_LABELS[route_index("/v1/vru/history")],
            "/v1/{item}/history"
        );
        assert_eq!(ROUTE_LABELS[route_index("/v1/shutdown")], "/v1/shutdown");
        assert_eq!(ROUTE_LABELS[route_index("/v1/vru/shutdown")], "other");
        assert_eq!(ROUTE_LABELS[route_index("/v1/vru/")], "other");
        assert_eq!(ROUTE_LABELS[route_index("/v1//ingest")], "other");
        assert_eq!(ROUTE_LABELS[route_index("/v1/a/b/ingest")], "other");
        assert_eq!(ROUTE_LABELS[route_index("/favicon.ico")], "other");
        assert_eq!(status_index(200), 0);
        assert_eq!(status_index(599), STATUS_CODES.len());
    }

    #[test]
    fn unknown_status_renders_as_other() {
        let m = ServerMetrics::new();
        m.count_response(599);
        let mut out = TextFamilies::new();
        m.render(&mut out);
        let body = out.finish();
        assert!(
            body.contains("qrn_http_responses_total{status=\"other\"} 1"),
            "{body}"
        );
    }

    #[test]
    fn latency_histogram_is_monotone() {
        let m = ServerMetrics::new();
        for ms in [0, 1, 2, 10, 50, 400, 2000, 60_000] {
            m.observe_latency(Duration::from_millis(ms));
        }
        let mut out = TextFamilies::new();
        m.render(&mut out);
        let body = out.finish();
        let counts: Vec<u64> = body
            .lines()
            .filter(|l| l.starts_with("qrn_http_request_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), LATENCY_BUCKETS.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 8);
    }
}
