//! Lock-free server counters rendered as plain-text gauges on
//! `GET /metrics`. All counters are relaxed atomics — metrics reads
//! never contend with request handling.
//!
//! Latency is tracked as one [`Histogram`] **per route** (indexed like
//! [`ENDPOINTS`]) and rendered as `trajserve_route_seconds_*{route="..."}`.

use std::sync::atomic::{AtomicU64, Ordering};
use trajpattern::stats::prometheus_counters;

/// Routes tracked individually (everything else lands in `other`).
pub const ENDPOINTS: [&str; 11] = [
    "healthz",
    "metrics",
    "v1_topk",
    "v1_score",
    "v1_match",
    "v1_predict",
    "v1_shards",
    "v1_prange",
    "v1_pnn",
    "v1_matchlive",
    "other",
];

/// Upper edges (seconds) of the latency histogram buckets; a final
/// `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS: [f64; 8] = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

/// One latency histogram over [`LATENCY_BUCKETS`]: per-bucket counts
/// (index 8 is the `+Inf` bucket, stored non-cumulative and rendered
/// cumulative), the latency sum in microseconds, and the observation
/// count.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [AtomicU64; 9],
    /// Sum of observed latencies in microseconds.
    pub sum_us: AtomicU64,
    /// Number of observations.
    pub count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, seconds: f64) {
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&edge| seconds <= edge)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Renders `{name}_bucket` (cumulative), `{name}_sum_us`, and
    /// `{name}_count` lines, with `labels` (e.g. `route="v1_topk"`)
    /// prepended to each line's label set.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        let mut cumulative = 0;
        for (i, edge) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            writeln!(out, "{name}_bucket{{{labels},le=\"{edge}\"}} {cumulative}")
                .expect("writing to a String cannot fail");
        }
        cumulative += self.buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}")
            .expect("writing to a String cannot fail");
        writeln!(
            out,
            "{name}_sum_us{{{labels}}} {}",
            self.sum_us.load(Ordering::Relaxed)
        )
        .expect("writing to a String cannot fail");
        writeln!(
            out,
            "{name}_count{{{labels}}} {}",
            self.count.load(Ordering::Relaxed)
        )
        .expect("writing to a String cannot fail");
    }
}

/// The server's counter set. One instance per [`Server`](crate::Server),
/// shared across workers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests dispatched, per endpoint (indexed like [`ENDPOINTS`]).
    pub requests: [AtomicU64; ENDPOINTS.len()],
    /// Responses by status class: 2xx, 4xx, 5xx.
    pub responses_2xx: AtomicU64,
    /// 4xx responses.
    pub responses_4xx: AtomicU64,
    /// 5xx responses.
    pub responses_5xx: AtomicU64,
    /// Per-route latency histograms (indexed like [`ENDPOINTS`]).
    pub route_seconds: [Histogram; ENDPOINTS.len()],
    /// Connections currently queued for a worker.
    pub queue_depth: AtomicU64,
    /// Requests currently being handled.
    pub inflight: AtomicU64,
    /// Connections rejected with 503 because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Request handlers that panicked (each answered with a 500).
    pub panics: AtomicU64,
    /// Successful snapshot hot-reloads and live per-shard swaps. A
    /// watching server's first poll re-reads its file, and counts.
    pub reloads: AtomicU64,
    /// Failed snapshot hot-reload attempts.
    pub reload_failures: AtomicU64,
    /// Pattern scorings performed by request-serving scorers.
    pub scorings: AtomicU64,
    /// Trajectories scored via `/v1/score` and `/v1/match`.
    pub scored_trajectories: AtomicU64,
    /// Scorer shards that panicked and were rescored sequentially.
    pub scorer_degraded: AtomicU64,
}

/// Maps a request path to its [`ENDPOINTS`] slot.
pub fn endpoint_index(path: &str) -> usize {
    match path {
        "/healthz" => 0,
        "/metrics" => 1,
        "/v1/topk" => 2,
        "/v1/score" => 3,
        "/v1/match" => 4,
        "/v1/predict" => 5,
        "/v1/shards" => 6,
        "/v1/prange" => 7,
        "/v1/pnn" => 8,
        "/v1/matchlive" => 9,
        _ => 10,
    }
}

impl Metrics {
    /// Records a finished request: endpoint, status class, and latency.
    pub fn observe(&self, endpoint: usize, status: u16, seconds: f64) {
        self.requests[endpoint].fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.route_seconds[endpoint].observe(seconds);
    }

    /// Renders the counter set plus snapshot gauges as plain text, one
    /// `name{labels} value` line each (prometheus exposition style).
    pub fn render(&self, snapshot: &crate::snapshot::Snapshot) -> String {
        let mut out = String::with_capacity(4096);
        fn line(out: &mut String, name: &str, labels: &str, value: u64) {
            if labels.is_empty() {
                out.push_str(&format!("{name} {value}\n"));
            } else {
                out.push_str(&format!("{name}{{{labels}}} {value}\n"));
            }
        }
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);

        for (i, name) in ENDPOINTS.iter().enumerate() {
            line(
                &mut out,
                "trajserve_requests_total",
                &format!("endpoint=\"{name}\""),
                get(&self.requests[i]),
            );
        }
        line(
            &mut out,
            "trajserve_responses_total",
            "class=\"2xx\"",
            get(&self.responses_2xx),
        );
        line(
            &mut out,
            "trajserve_responses_total",
            "class=\"4xx\"",
            get(&self.responses_4xx),
        );
        line(
            &mut out,
            "trajserve_responses_total",
            "class=\"5xx\"",
            get(&self.responses_5xx),
        );

        // Per-route split; untouched routes are skipped to keep the
        // exposition compact.
        for (i, name) in ENDPOINTS.iter().enumerate() {
            if self.route_seconds[i].count() > 0 {
                self.route_seconds[i].render(
                    &mut out,
                    "trajserve_route_seconds",
                    &format!("route=\"{name}\""),
                );
            }
        }

        line(
            &mut out,
            "trajserve_queue_depth",
            "",
            get(&self.queue_depth),
        );
        line(
            &mut out,
            "trajserve_inflight_requests",
            "",
            get(&self.inflight),
        );
        line(
            &mut out,
            "trajserve_rejected_busy_total",
            "",
            get(&self.rejected_busy),
        );
        line(
            &mut out,
            "trajserve_request_panics_total",
            "",
            get(&self.panics),
        );
        line(
            &mut out,
            "trajserve_snapshot_reloads_total",
            "",
            get(&self.reloads),
        );
        line(
            &mut out,
            "trajserve_snapshot_reload_failures_total",
            "",
            get(&self.reload_failures),
        );

        line(
            &mut out,
            "trajserve_scorings_total",
            "",
            get(&self.scorings),
        );
        line(
            &mut out,
            "trajserve_scored_trajectories_total",
            "",
            get(&self.scored_trajectories),
        );
        line(
            &mut out,
            "trajserve_scorer_degraded_rescores_total",
            "",
            get(&self.scorer_degraded),
        );

        // Gauges describing the snapshot currently being served.
        line(
            &mut out,
            "trajserve_snapshot_patterns",
            "",
            snapshot.patterns.len() as u64,
        );
        line(
            &mut out,
            "trajserve_snapshot_groups",
            "",
            snapshot.groups.len() as u64,
        );
        line(
            &mut out,
            "trajserve_snapshot_is_stream",
            "",
            u64::from(snapshot.stream.is_some()),
        );
        // Counter blocks of the snapshot's producing run, rendered
        // through the one shared stats rendering — gauge names derive
        // from the same field lists as the JSON schema and the
        // checkpoint formats.
        prometheus_counters(
            &mut out,
            "trajserve_snapshot_mining",
            &snapshot.stats.counters(),
        );
        prometheus_counters(
            &mut out,
            "trajserve_snapshot_scorer",
            &snapshot.scorer.counters(),
        );
        if let Some(stream) = &snapshot.stream {
            prometheus_counters(&mut out, "trajserve_snapshot_stream", &stream.counters());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_record_per_route() {
        let m = Metrics::default();
        m.observe(0, 200, 0.0001); // bucket 0
        m.observe(1, 200, 0.002); // bucket 2
        m.observe(1, 404, 2.0); // +Inf
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Ordering::Relaxed), 1);
        assert_eq!(m.route_seconds[0].count(), 1);
        assert_eq!(m.route_seconds[1].count(), 2);
        assert_eq!(m.route_seconds[0].buckets[0].load(Ordering::Relaxed), 1);
        assert_eq!(m.route_seconds[1].buckets[8].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn endpoints_are_the_v1_surface() {
        assert_eq!(
            ENDPOINTS,
            [
                "healthz",
                "metrics",
                "v1_topk",
                "v1_score",
                "v1_match",
                "v1_predict",
                "v1_shards",
                "v1_prange",
                "v1_pnn",
                "v1_matchlive",
                "other",
            ]
        );
        for (i, name) in ENDPOINTS.iter().enumerate().take(ENDPOINTS.len() - 1) {
            let path = match name.strip_prefix("v1_") {
                Some(rest) => format!("/v1/{rest}"),
                None => format!("/{name}"),
            };
            assert_eq!(endpoint_index(&path), i, "{path}");
        }
        assert_eq!(endpoint_index("/nope"), ENDPOINTS.len() - 1);
    }

    #[test]
    fn render_labels_each_route_it_observed() {
        let m = Metrics::default();
        m.observe(endpoint_index("/v1/topk"), 200, 0.0001);
        m.observe(endpoint_index("/v1/score"), 200, 0.002);
        let snapshot = crate::snapshot::Snapshot {
            params: trajpattern::MiningParams::new(3, 0.1).unwrap(),
            grid: trajgeo::Grid::new(trajgeo::BBox::unit(), 4, 4).unwrap(),
            patterns: Vec::new(),
            groups: Vec::new(),
            stats: Default::default(),
            scorer: Default::default(),
            stream: None,
            next_seq: None,
        };
        let text = m.render(&snapshot);
        assert!(
            text.contains("trajserve_route_seconds_count{route=\"v1_topk\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("trajserve_route_seconds_bucket{route=\"v1_score\",le=\"0.005\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("trajserve_route_seconds_count{route=\"v1_score\"} 1"),
            "{text}"
        );
        // Untouched routes are absent; every latency line is labeled.
        assert!(!text.contains("route=\"v1_predict\""), "{text}");
        assert!(!text.contains("_seconds_count "), "{text}");
    }
}
