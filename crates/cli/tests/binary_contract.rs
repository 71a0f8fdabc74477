//! The built `trajmine` binary's serving contract: what only a real
//! process can show. Each test spawns the binary on port 0, reads the
//! bound address from its stderr, and checks HTTP answers against
//! `trajmine mine` / `trajmine query --brute true` over the same input.
//! Servers are stopped with a real SIGTERM and must drain to exit 0.
//!
//! * static `serve`: `/v1/topk` == the mined snapshot, `/v1/score` ==
//!   the mined NMs bit for bit, `/v1/prange` and `/v1/pnn` == the
//!   offline brute-force queries, and `/metrics` counts the scoring;
//! * file-fed live fleet: events appended while serving are absorbed,
//!   the drain leaves per-shard checkpoints, and a relaunch resumes from
//!   them to the same top-k as `mine`;
//! * socket-fed live fleet: `feed send` → a `dr+tcp://` shard answers
//!   the same top-k as `mine` over `feed decode`'s reconstruction.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde_json::Value;

/// How long a server gets to print its address, absorb a feed, or drain.
const DEADLINE: Duration = Duration::from_secs(20);

/// A per-test scratch directory, removed when the test ends. Every
/// `trajmine` runs inside it, so commands name their files relatively.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("trajmine-contract-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn command(&self, line: &str) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_trajmine"));
        cmd.args(line.split_whitespace()).current_dir(&self.0);
        cmd
    }

    /// Runs `trajmine <line>` to completion and returns its stdout.
    fn run(&self, line: &str) -> String {
        let out = self.command(line).output().unwrap();
        assert!(
            out.status.success(),
            "trajmine {line} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    }

    /// Starts a long-running `trajmine <line>`.
    fn spawn(&self, line: &str) -> Spawned {
        let mut child = self
            .command(line)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let pipe = child.stderr.take().unwrap();
        let (tx, lines) = mpsc::channel();
        let stderr = Arc::new(Mutex::new(String::new()));
        let log = Arc::clone(&stderr);
        thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                log.lock().unwrap().push_str(&format!("{line}\n"));
                let _ = tx.send(line);
            }
        });
        Spawned {
            child,
            lines,
            stderr,
        }
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.0.join(file)).unwrap()
    }

    fn json(&self, file: &str) -> Value {
        serde_json::from_str(&self.read(file)).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned long-running `trajmine`. Its stderr is collected line by
/// line; dropping the guard kills the process, so a failed assertion
/// never leaves a server running.
struct Spawned {
    child: Child,
    lines: Receiver<String>,
    stderr: Arc<Mutex<String>>,
}

impl Spawned {
    /// Waits for the stderr line containing `marker` and parses the
    /// address right after it (ended by a space or a trailing colon).
    fn addr_after(&self, marker: &str) -> SocketAddr {
        let deadline = Instant::now() + DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(line) = self.lines.recv_timeout(left) else {
                panic!("no '{marker}' line; stderr:\n{}", self.stderr());
            };
            if let Some((_, rest)) = line.split_once(marker) {
                let addr = rest.split(' ').next().unwrap().trim_end_matches(':');
                return addr.parse().unwrap();
            }
        }
    }

    fn stderr(&self) -> String {
        self.stderr.lock().unwrap().clone()
    }

    /// Sends a real SIGTERM and asserts a clean drain: exit 0 within the
    /// deadline and the CLI's final `trajserve stopped cleanly` line.
    fn terminate(mut self) {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
        assert!(sent.success(), "kill -TERM {pid} failed");
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "no drain: {}", self.stderr());
            thread::sleep(Duration::from_millis(20));
        };
        assert!(
            status.success(),
            "exit {status}; stderr:\n{}",
            self.stderr()
        );
        // The reader thread drains the pipe once the process is gone.
        while !self.stderr().contains("trajserve stopped cleanly") {
            assert!(Instant::now() < deadline, "stderr:\n{}", self.stderr());
            thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `Connection: close` request; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(DEADLINE)).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw.split_once("\r\n\r\n").expect("response head");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, payload.to_string())
}

/// `GET path`, asserting 200, parsed as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, body) = http(addr, "GET", path, "");
    assert_eq!(status, 200, "GET {path}: {body}");
    serde_json::from_str(&body).unwrap()
}

/// Polls `/v1/shards` until every shard's `next_seq` reaches `want`.
fn wait_absorbed(addr: SocketAddr, want: u64) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let doc = get_json(addr, "/v1/shards");
        assert_eq!(doc["schema"].as_str(), Some("trajserve-shards/v1"));
        let shards = doc["shards"].as_array().unwrap();
        if shards.iter().all(|s| s["next_seq"].as_u64() == Some(want)) {
            return;
        }
        assert!(Instant::now() < deadline, "never absorbed: {doc:?}");
        thread::sleep(Duration::from_millis(50));
    }
}

fn assert_patterns_eq(served: &Value, mined: &Value, what: &str) {
    let (served, mined) = (&served["patterns"], &mined["patterns"]);
    assert!(
        !mined.as_array().unwrap().is_empty(),
        "{what}: nothing mined"
    );
    assert_eq!(served, mined, "{what} diverged from trajmine mine");
}

#[test]
fn static_serve_answers_like_the_offline_commands_and_drains() {
    let dir = Scratch::new("static");
    dir.run("generate --workload zebranet --traces 24 --snapshots 12 --seed 5 --out smoke.json");
    // --min-len 2: singular NMs fold differently during mining, so only
    // multi-cell patterns are guaranteed to rescore bit-identically.
    dir.run("mine --input smoke.json --grid 8 --k 6 --min-len 2 --bbox 0,0,1,1 --json mine.json");
    let mined = dir.json("mine.json");
    let server = dir.spawn("serve --snapshot mine.json --addr 127.0.0.1:0");
    let addr = server.addr_after("trajserve listening on http://");

    let topk = get_json(addr, "/v1/topk");
    assert_patterns_eq(&topk, &mined, "/v1/topk");
    assert_eq!(topk["groups"], mined["groups"]);

    let dataset = dir.read("smoke.json");
    let (status, body) = http(addr, "POST", "/v1/score", &dataset);
    assert_eq!(status, 200, "{body}");
    let scored: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(scored["schema"].as_str(), Some("trajserve-query/v1"));
    let bits = |v: &Value| v.as_f64().unwrap().to_bits();
    let served: Vec<u64> = scored["nms"].as_array().unwrap().iter().map(bits).collect();
    let patterns = mined["patterns"].as_array().unwrap();
    let want: Vec<u64> = patterns.iter().map(|p| bits(&p["nm"])).collect();
    assert_eq!(served, want, "/v1/score NMs diverged from the mine run");

    // The offline `query` commands run the same trajquery kernel with
    // the index off, so equal matches pin serving to the brute force.
    let trajectories = serde_json::to_string(&dir.json("smoke.json")["trajectories"]).unwrap();
    let query = "--input smoke.json --p 0.5,0.5 --delta 0.15 --t 4.5 --tau 0.01 --brute true";
    for (route, k) in [("prange", None), ("pnn", Some(5))] {
        let (k_flag, k_field) = match k {
            Some(k) => (format!("--k {k}"), format!("\"k\": {k}, ")),
            None => (String::new(), String::new()),
        };
        let reference: Value =
            serde_json::from_str(&dir.run(&format!("query {route} {query} {k_flag}"))).unwrap();
        let request = format!(
            r#"{{"p": [0.5, 0.5], "delta": 0.15, "t": 4.5, "tau": 0.01, {k_field}
                "trajectories": {trajectories}}}"#
        );
        let (status, body) = http(addr, "POST", &format!("/v1/{route}"), &request);
        assert_eq!(status, 200, "{body}");
        let live: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(live["schema"].as_str(), Some("trajserve-query/v1"));
        let matches = live["matches"].as_array().unwrap();
        assert!(!matches.is_empty(), "/v1/{route} found nothing to compare");
        assert_eq!(live["matches"], reference["matches"], "/v1/{route}");
    }

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(metrics.contains("trajserve_scorings_total"), "{metrics}");
    assert!(metrics.contains("trajserve_snapshot_patterns"), "{metrics}");
    let scorings: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("trajserve_route_seconds_count{route=\"v1_score\"} "))
        .expect("a /v1/score latency series")
        .parse()
        .unwrap();
    assert!(scorings >= 1);

    server.terminate();
}

#[test]
fn live_fleet_absorbs_appends_drains_and_resumes_from_checkpoints() {
    let dir = Scratch::new("fleet");
    for (shard, seed) in [("east", 5), ("west", 6)] {
        dir.run(&format!(
            "generate --workload zebranet --traces 12 --snapshots 10 --seed {seed} \
             --out {shard}.full.events"
        ));
        dir.run(&format!(
            "mine --input {shard}.full.events --grid 8 --k 6 --bbox 0,0,1,1 \
             --json {shard}.mine.json"
        ));
        // The version line plus the first 6 events; the rest arrives
        // while the fleet is serving.
        let full = dir.read(&format!("{shard}.full.events"));
        let head: String = full.split_inclusive('\n').take(7).collect();
        std::fs::write(dir.0.join(format!("{shard}.events")), head).unwrap();
    }
    std::fs::create_dir_all(dir.0.join("ckpts")).unwrap();
    let fleet_cmd = "serve --live true --shards east=east.events,west=west.events \
        --checkpoint-dir ckpts --window 64 --grid 8 --k 6 --bbox 0,0,1,1 --poll-ms 20 \
        --addr 127.0.0.1:0";

    let fleet = dir.spawn(fleet_cmd);
    let addr = fleet.addr_after("trajserve live fleet on http://");
    get_json(addr, "/v1/topk?shard=east");
    for shard in ["east", "west"] {
        let full = dir.read(&format!("{shard}.full.events"));
        let tail: String = full.split_inclusive('\n').skip(7).collect();
        let path = dir.0.join(format!("{shard}.events"));
        let mut log = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        log.write_all(tail.as_bytes()).unwrap();
    }
    wait_absorbed(addr, 10);

    // The window (64) exceeds each log, so a shard's top-k is `mine`
    // over its whole log.
    for shard in ["east", "west"] {
        let served = get_json(addr, &format!("/v1/topk?shard={shard}"));
        assert_patterns_eq(&served, &dir.json(&format!("{shard}.mine.json")), shard);
    }

    fleet.terminate();
    for shard in ["east", "west"] {
        let ckpt = dir.0.join(format!("ckpts/{shard}.ckpt"));
        assert!(ckpt.exists(), "{} missing after the drain", ckpt.display());
    }

    // Relaunch: each shard resumes from its checkpoint, bit-identically.
    let fleet = dir.spawn(fleet_cmd);
    let addr = fleet.addr_after("trajserve live fleet on http://");
    wait_absorbed(addr, 10);
    let served = get_json(addr, "/v1/topk?shard=east");
    assert_patterns_eq(&served, &dir.json("east.mine.json"), "resumed east");
    fleet.terminate();
}

#[test]
fn socket_feed_shard_matches_the_offline_decode() {
    let dir = Scratch::new("feed");
    dir.run(
        "generate --workload dr-feed --routes 2 --traces 6 --snapshots 10 --seed 5 \
        --out fleet.drlog",
    );
    // The offline reference: the feed spine's own decode, batch-mined.
    dir.run("feed decode --input fleet.drlog --out fleet.events");
    dir.run("mine --input fleet.events --grid 8 --k 6 --bbox 0,0,1,1 --json batch.json");

    let sender = dir.spawn("feed send --input fleet.drlog --listen 127.0.0.1:0");
    let feed = sender.addr_after("fleet.drlog on ");
    let fleet = dir.spawn(&format!(
        "serve --live true --shards bus=dr+tcp://{feed} --window 64 --grid 8 --k 6 \
         --bbox 0,0,1,1 --poll-ms 20 --addr 127.0.0.1:0"
    ));
    let addr = fleet.addr_after("trajserve live fleet on http://");
    // 2 routes × 3 vehicles, one reconstructed trajectory each.
    wait_absorbed(addr, 6);
    let served = get_json(addr, "/v1/topk?shard=bus");
    assert_patterns_eq(&served, &dir.json("batch.json"), "bus");

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    for counter in ["records", "reconstructed", "resampled_points"] {
        let series = format!("trajfeed_{counter}{{shard=\"bus\",feed=\"dr+tcp\"}}");
        assert!(metrics.contains(&series), "missing {series}:\n{metrics}");
    }
    fleet.terminate();
}
