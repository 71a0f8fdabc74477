//! Serving throughput experiment (ours): request rate and tail latency of
//! the `trajserve` HTTP server over a mined snapshot.
//!
//! Mines the ZebraNet-style workload once, loads the snapshot into an
//! in-process [`trajserve::Server`] bound to an ephemeral port, and
//! drives it with keep-alive client threads alternating `GET /v1/topk`
//! (cached JSON, measures the connection/framing floor) and
//! `POST /v1/score` (runs the batch scorer per request, measures the
//! compute path). Every request's wall time is recorded; the report
//! gives per-endpoint request rate and p50/p99 latency plus whole-run
//! totals, in the same `axis`/`config`/`points` envelope as the other
//! experiments.

use crate::workloads::zebranet_workload;
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;
use trajpattern::{Miner, MiningParams};
use trajserve::{Server, ServerConfig, Snapshot};

/// Configuration of the serving throughput run.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchConfig {
    /// Trajectories mined into the snapshot.
    pub s: usize,
    /// Trajectory length `L`.
    pub l: usize,
    /// Grid side (G = side²).
    pub grid_side: u32,
    /// Top-k size.
    pub k: usize,
    /// Pattern length cap.
    pub max_len: usize,
    /// Indifference distance δ.
    pub delta: f64,
    /// Concurrent keep-alive client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Trajectories in every `POST /v1/score` body.
    pub score_trajectories: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            s: 40,
            l: 30,
            grid_side: 10,
            k: 8,
            max_len: 5,
            delta: 0.03,
            clients: 4,
            requests_per_client: 200,
            score_trajectories: 4,
            workers: 2,
            seed: 11,
        }
    }
}

/// Per-endpoint measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ServePoint {
    /// Endpoint label (`topk` or `score`).
    pub endpoint: String,
    /// Requests issued against this endpoint.
    pub requests: u64,
    /// Requests per second, measured over the whole run's wall time and
    /// this endpoint's share of requests.
    pub req_per_sec: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Mean request latency in milliseconds.
    pub mean_ms: f64,
}

/// Whole-run aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct ServeTotals {
    /// Requests served (all endpoints, all clients).
    pub requests: u64,
    /// Wall time of the client phase.
    pub wall_secs: f64,
    /// Overall requests per second.
    pub req_per_sec: f64,
    /// Patterns in the served snapshot.
    pub snapshot_patterns: usize,
}

/// Result of the serving throughput experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ServeThroughputResult {
    /// Always "endpoint".
    pub axis: String,
    /// Configuration the run was based on.
    pub config: ServeBenchConfig,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// One point per endpoint.
    pub points: Vec<ServePoint>,
    /// Whole-run aggregates.
    pub totals: ServeTotals,
}

/// Issues one request on a kept-alive connection and reads the full
/// response, returning status and body. Panics on a torn response — the
/// benches assert the server stays healthy.
pub(crate) fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    head: &str,
    body: &[u8],
) -> (u16, Vec<u8>) {
    writer.write_all(head.as_bytes()).expect("request written");
    writer.write_all(body).expect("body written");
    writer.flush().expect("request flushed");

    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().expect("numeric content-length");
        }
    }
    let mut payload = vec![0u8; content_length];
    reader.read_exact(&mut payload).expect("response body");
    (status, payload)
}

/// Nearest-rank percentile `q` of ascending latencies (seconds), in
/// milliseconds; `0` when there are none.
pub(crate) fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((n - 1) as f64) * q).round() as usize] * 1e3,
    }
}

/// One endpoint's point from its request latencies (seconds), with the
/// request rate taken over `wall_secs`.
pub(crate) fn summarize(endpoint: &str, lat: &mut [f64], wall_secs: f64) -> ServePoint {
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = lat.len();
    ServePoint {
        endpoint: endpoint.to_string(),
        requests: n as u64,
        req_per_sec: if wall_secs > 0.0 {
            n as f64 / wall_secs
        } else {
            0.0
        },
        p50_ms: percentile_ms(lat, 0.5),
        p99_ms: percentile_ms(lat, 0.99),
        mean_ms: if n > 0 {
            lat.iter().sum::<f64>() / n as f64 * 1e3
        } else {
            0.0
        },
    }
}

/// Runs the serving throughput experiment.
pub fn run_serve(cfg: &ServeBenchConfig) -> ServeThroughputResult {
    let params = MiningParams::new(cfg.k, cfg.delta)
        .expect("valid params")
        .with_min_len(2)
        .expect("valid params")
        .with_max_len(cfg.max_len)
        .expect("valid params");
    let w = zebranet_workload(cfg.s, cfg.l, cfg.grid_side, cfg.seed);
    let outcome = Miner::new(&w.data, &w.grid)
        .params(params.clone())
        .mine()
        .expect("mining the workload succeeds");
    let snapshot = Snapshot::from_outcome(&outcome, &w.grid, &params);
    let snapshot_patterns = snapshot.patterns.len();

    let server = Server::bind(
        snapshot,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cfg.workers,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr().expect("ephemeral addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Every client alternates the two endpoints on one keep-alive
    // connection; the score body is the same small query dataset.
    let score_body: Vec<u8> = w
        .data
        .trajectories()
        .iter()
        .take(cfg.score_trajectories.max(1))
        .cloned()
        .collect::<trajdata::Dataset>()
        .to_json()
        .into_bytes();
    let topk_head = "GET /v1/topk HTTP/1.1\r\nHost: bench\r\n\r\n".to_string();
    let score_head = format!(
        "POST /v1/score HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        score_body.len()
    );

    let t0 = Instant::now();
    let clients: Vec<_> = (0..cfg.clients.max(1))
        .map(|c| {
            let (topk_head, score_head, score_body) =
                (topk_head.clone(), score_head.clone(), score_body.clone());
            let n = cfg.requests_per_client;
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("client connects");
                // Without nodelay, Nagle on the two-write request path
                // interacts with delayed ACKs and inflates every POST
                // by ~40ms of pure socket stall.
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("client write half");
                let mut reader = BufReader::new(stream);
                let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
                for i in 0..n {
                    let score = (c + i) % 2 == 1;
                    let (head, body) = if score {
                        (&score_head, &score_body[..])
                    } else {
                        (&topk_head, &[][..])
                    };
                    let t = Instant::now();
                    let (status, _) = roundtrip(&mut reader, &mut writer, head, body);
                    assert_eq!(status, 200, "request {i} of client {c} failed");
                    lat[score as usize].push(t.elapsed().as_secs_f64());
                }
                lat
            })
        })
        .collect();

    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for client in clients {
        let lat = client.join().expect("client thread finishes");
        for (all, part) in latencies.iter_mut().zip(lat) {
            all.extend(part);
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    handle.shutdown();
    server_thread
        .join()
        .expect("server thread finishes")
        .expect("server drains cleanly");

    let total_requests: u64 = latencies.iter().map(|l| l.len() as u64).sum();
    let points = ["topk", "score"]
        .iter()
        .zip(&mut latencies)
        .map(|(endpoint, lat)| summarize(endpoint, lat, wall_secs))
        .collect();

    ServeThroughputResult {
        axis: "endpoint".into(),
        config: cfg.clone(),
        available_parallelism: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
        points,
        totals: ServeTotals {
            requests: total_requests,
            wall_secs,
            req_per_sec: if wall_secs > 0.0 {
                total_requests as f64 / wall_secs
            } else {
                0.0
            },
            snapshot_patterns,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_runs_and_answers_every_request() {
        let cfg = ServeBenchConfig {
            s: 10,
            l: 12,
            grid_side: 6,
            k: 4,
            max_len: 4,
            clients: 2,
            requests_per_client: 6,
            score_trajectories: 2,
            workers: 2,
            ..ServeBenchConfig::default()
        };
        let r = run_serve(&cfg);
        assert_eq!(r.axis, "endpoint");
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.totals.requests, 12);
        assert_eq!(r.points.iter().map(|p| p.requests).sum::<u64>(), 12);
        assert!(r.totals.req_per_sec > 0.0);
        assert!(r.points.iter().all(|p| p.p99_ms >= p.p50_ms));
        assert!(r.totals.snapshot_patterns > 0);
    }
}
