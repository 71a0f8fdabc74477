//! Sharded live serving experiment (ours): latency of shard-scoped and
//! fan-out top-k reads against a live [`trajfleet::Fleet`], compared to
//! the static single-snapshot server's `/v1/topk` floor.
//!
//! The ZebraNet-style workload is split round-robin into per-shard event
//! logs; the fleet tails them (each shard's ingester drains to `# eof`
//! and publishes its final snapshot), then keep-alive client threads
//! alternate `GET /v1/topk?shard=NAME` (round-robin over shards) and
//! bare `GET /v1/topk` (deterministic cross-shard fan-out, which rebuilds
//! the merge once per epoch and serves the cached document after). A
//! separate phase drives the same request count against a plain
//! [`trajserve::Server`] over the whole dataset mined at once — the
//! static baseline. The headline number is `shard_p50 / static_p50`:
//! shard-scoped reads hit the same pre-serialized-JSON path as the
//! static server plus one `RwLock` read and `Arc` clone, so the ratio
//! should stay within ~2× on one core.

use crate::serve::{roundtrip, summarize, ServePoint};
use crate::workloads::zebranet_workload;
use serde::Serialize;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use trajdata::{eventlog, Dataset, Trajectory};
use trajpattern::{Miner, MiningParams};
use trajserve::{Server, ServerConfig, Snapshot};

/// Configuration of the sharded live serving run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetBenchConfig {
    /// Trajectories in the workload (split across shards).
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
    /// Shards the workload is split into.
    pub shards: usize,
    /// Sliding-window size per shard (large enough that nothing evicts).
    pub window: u64,
    /// Concurrent keep-alive client threads per phase.
    pub clients: usize,
    /// Requests each client issues per phase.
    pub requests_per_client: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            s: 40,
            l: 30,
            grid_side: 10,
            k: 8,
            max_len: 5,
            delta: 0.03,
            shards: 4,
            window: 64,
            clients: 4,
            requests_per_client: 200,
            workers: 2,
            seed: 11,
        }
    }
}

/// Whole-run aggregates and the headline ratio.
#[derive(Debug, Clone, Serialize)]
pub struct FleetTotals {
    /// Requests served across all phases and endpoints.
    pub requests: u64,
    /// Wall time of the fleet client phase.
    pub fleet_wall_secs: f64,
    /// Wall time of the static baseline phase.
    pub static_wall_secs: f64,
    /// `?shard=` p50 divided by static `/v1/topk` p50 — the live shard
    /// router's read-path overhead.
    pub shard_p50_over_static_p50: f64,
    /// Patterns in the static baseline snapshot.
    pub static_snapshot_patterns: usize,
}

/// Result of the sharded live serving experiment.
#[derive(Debug, Clone, Serialize)]
pub struct FleetThroughputResult {
    /// Always "endpoint".
    pub axis: String,
    /// Configuration the run was based on.
    pub config: FleetBenchConfig,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// `static_topk`, `shard_topk`, `fanout_topk` measurements.
    pub points: Vec<ServePoint>,
    /// Whole-run aggregates.
    pub totals: FleetTotals,
}

/// Issues one GET on a kept-alive connection, returning status and body.
fn get_roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    path: &str,
) -> (u16, Vec<u8>) {
    let head = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    roundtrip(reader, writer, &head, &[])
}

/// Drives `clients × requests_per_client` keep-alive GETs against `addr`,
/// picking each request's path with `route(client, request_index)` which
/// also labels which latency bucket (0 or 1) the sample lands in. Returns
/// the two latency vectors (seconds) and the phase wall time.
fn drive<F>(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: usize,
    route: F,
) -> ([Vec<f64>; 2], f64)
where
    F: Fn(usize, usize) -> (String, usize) + Send + Sync + 'static + Clone,
{
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients.max(1))
        .map(|c| {
            let route = route.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("client connects");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("client write half");
                let mut reader = BufReader::new(stream);
                let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
                for i in 0..requests_per_client {
                    let (path, bucket) = route(c, i);
                    let t = Instant::now();
                    let (status, _) = get_roundtrip(&mut reader, &mut writer, &path);
                    assert_eq!(status, 200, "request {i} of client {c} ({path}) failed");
                    lat[bucket].push(t.elapsed().as_secs_f64());
                }
                lat
            })
        })
        .collect();
    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for h in handles {
        let lat = h.join().expect("client thread finishes");
        for (all, part) in latencies.iter_mut().zip(lat) {
            all.extend(part);
        }
    }
    (latencies, t0.elapsed().as_secs_f64())
}

/// Polls `/v1/shards` until every shard's published `next_seq` reaches
/// its expected event count.
fn wait_absorbed(addr: SocketAddr, expected: &[(String, u64)]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stream = TcpStream::connect(addr).expect("poll connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("poll write half");
        let mut reader = BufReader::new(stream);
        let (status, body) = get_roundtrip(&mut reader, &mut writer, "/v1/shards");
        assert_eq!(status, 200);
        let body = std::str::from_utf8(&body).expect("UTF-8 shards body");
        let doc: serde_json::Value = serde_json::from_str(body).expect("shards JSON");
        let all = expected.iter().all(|(name, want)| {
            doc["shards"]
                .as_array()
                .expect("shards array")
                .iter()
                .any(|s| {
                    s["name"].as_str() == Some(name.as_str())
                        && s["next_seq"].as_u64() == Some(*want)
                })
        });
        if all {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never absorbed its event logs; last /v1/shards: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Writes one complete event log (version line, events, `# eof`) per
/// shard, splitting `trajs` round-robin, and returns `(name, path)` pairs.
fn write_shard_logs(dir: &Path, trajs: &[Trajectory], shards: usize) -> Vec<(String, String)> {
    (0..shards)
        .map(|s| {
            let slice: Dataset = trajs
                .iter()
                .skip(s)
                .step_by(shards)
                .cloned()
                .collect::<Vec<_>>()
                .into_iter()
                .collect();
            let mut text = eventlog::write_event_log(&slice);
            text.push_str("# eof\n");
            let name = format!("shard{s:02}");
            let path = dir.join(format!("{name}.events"));
            std::fs::write(&path, text).expect("shard log written");
            (name, path.display().to_string())
        })
        .collect()
}

/// Runs the sharded live serving experiment.
pub fn run_fleet(cfg: &FleetBenchConfig) -> FleetThroughputResult {
    assert!(cfg.shards >= 1, "need at least one shard");
    let params = MiningParams::new(cfg.k, cfg.delta)
        .expect("valid params")
        .with_min_len(2)
        .expect("valid params")
        .with_max_len(cfg.max_len)
        .expect("valid params");
    let w = zebranet_workload(cfg.s, cfg.l, cfg.grid_side, cfg.seed);

    // ---- static baseline: the whole dataset mined once, plain server ----
    let outcome = Miner::new(&w.data, &w.grid)
        .params(params.clone())
        .mine()
        .expect("mining the workload succeeds");
    let snapshot = Snapshot::from_outcome(&outcome, &w.grid, &params);
    let static_snapshot_patterns = snapshot.patterns.len();
    let server = Server::bind(
        snapshot,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cfg.workers,
            ..ServerConfig::default()
        },
    )
    .expect("static server binds");
    let static_addr = server.local_addr().expect("ephemeral addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());
    let (mut static_lat, static_wall_secs) =
        drive(static_addr, cfg.clients, cfg.requests_per_client, |_, _| {
            ("/v1/topk".to_string(), 0)
        });
    handle.shutdown();
    server_thread
        .join()
        .expect("static server thread finishes")
        .expect("static server drains cleanly");

    // ---- live fleet: per-shard event logs, tailed to eof ----
    let dir = std::env::temp_dir().join(format!(
        "trajfleet-bench-{}-{}",
        std::process::id(),
        cfg.seed
    ));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let logs = write_shard_logs(&dir, w.data.trajectories(), cfg.shards);
    let raw: Vec<String> = logs
        .iter()
        .map(|(name, path)| format!("{name}={path}"))
        .collect();
    let specs = trajfleet::parse_shard_specs(&raw.join(","), None).expect("valid shard specs");
    let expected: Vec<(String, u64)> = logs
        .iter()
        .enumerate()
        .map(|(s, (name, _))| {
            let count = w
                .data
                .trajectories()
                .iter()
                .skip(s)
                .step_by(cfg.shards)
                .count();
            (name.clone(), count as u64)
        })
        .collect();
    let shard_names: Vec<String> = logs.iter().map(|(name, _)| name.clone()).collect();

    let fleet = trajfleet::Fleet::launch(
        specs,
        trajfleet::FleetConfig {
            grid: w.grid.clone(),
            params,
            window: cfg.window,
            poll: Duration::from_millis(2),
            growth_rate: 0.0,
            policy: trajdata::IngestPolicy::Strict,
            dr: Default::default(),
        },
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cfg.workers,
            ..ServerConfig::default()
        },
    )
    .expect("fleet launches");
    let fleet_addr = fleet.local_addr().expect("ephemeral addr");
    let fleet_handle = fleet.handle();
    let fleet_thread = std::thread::spawn(move || fleet.run());
    wait_absorbed(fleet_addr, &expected);

    // Every client alternates shard-scoped reads (round-robin over the
    // shard set) and bare fan-out reads on one keep-alive connection.
    let names = shard_names.clone();
    let (mut fleet_lat, fleet_wall_secs) = drive(
        fleet_addr,
        cfg.clients,
        cfg.requests_per_client,
        move |c, i| {
            if (c + i) % 2 == 0 {
                let shard = &names[(c + i / 2) % names.len()];
                (format!("/v1/topk?shard={shard}"), 0)
            } else {
                ("/v1/topk".to_string(), 1)
            }
        },
    );
    fleet_handle.shutdown();
    fleet_thread
        .join()
        .expect("fleet thread finishes")
        .expect("fleet drains cleanly");
    std::fs::remove_dir_all(&dir).ok();

    let static_point = summarize("static_topk", &mut static_lat[0], static_wall_secs);
    let shard_point = summarize("shard_topk", &mut fleet_lat[0], fleet_wall_secs);
    let fanout_point = summarize("fanout_topk", &mut fleet_lat[1], fleet_wall_secs);
    let requests = static_point.requests + shard_point.requests + fanout_point.requests;
    let shard_p50_over_static_p50 = if static_point.p50_ms > 0.0 {
        shard_point.p50_ms / static_point.p50_ms
    } else {
        0.0
    };

    FleetThroughputResult {
        axis: "endpoint".into(),
        config: cfg.clone(),
        available_parallelism: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
        points: vec![static_point, shard_point, fanout_point],
        totals: FleetTotals {
            requests,
            fleet_wall_secs,
            static_wall_secs,
            shard_p50_over_static_p50,
            static_snapshot_patterns,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_bench_runs_and_answers_every_request() {
        let cfg = FleetBenchConfig {
            s: 12,
            l: 12,
            grid_side: 6,
            k: 4,
            max_len: 4,
            shards: 2,
            clients: 2,
            requests_per_client: 6,
            workers: 2,
            ..FleetBenchConfig::default()
        };
        let r = run_fleet(&cfg);
        assert_eq!(r.axis, "endpoint");
        assert_eq!(r.points.len(), 3);
        // Two phases of clients × requests each.
        assert_eq!(r.totals.requests, 24);
        assert!(r.points.iter().all(|p| p.p99_ms >= p.p50_ms));
        assert!(r.totals.static_snapshot_patterns > 0);
        assert!(r.totals.shard_p50_over_static_p50 > 0.0);
    }
}
