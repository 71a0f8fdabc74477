//! End-to-end tests over real sockets: every route, bit-identity of
//! `/v1/score` against the library scorer, panic isolation, backpressure,
//! hot reload, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use trajdata::Dataset;
use trajgeo::Grid;
use trajpattern::{Miner, MiningParams, Pattern, Scorer};
use trajserve::{Server, ServerConfig, ServerHandle, Snapshot};

fn mined() -> (Snapshot, Dataset) {
    let cfg = datagen::ZebraConfig {
        num_groups: 2,
        zebras_per_group: 5,
        snapshots: 12,
        ..datagen::ZebraConfig::default()
    };
    let data = datagen::observe_directly(&cfg.paths(7), 0.01, 99);
    let bbox = data.bounding_box().expect("nonempty dataset");
    let grid = Grid::new(bbox, 8, 8).unwrap();
    let delta = grid.cell_width().min(grid.cell_height()) * 0.5;
    let params = MiningParams::new(5, delta)
        .unwrap()
        .with_min_len(2)
        .unwrap()
        .with_max_len(4)
        .unwrap()
        .with_gamma(delta * 4.0)
        .unwrap();
    let out = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .unwrap();
    assert!(!out.patterns.is_empty(), "test workload must mine patterns");
    (Snapshot::from_outcome(&out, &grid, &params), data)
}

fn start(
    snapshot: Snapshot,
    mut cfg: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    thread::JoinHandle<std::io::Result<()>>,
) {
    cfg.addr = "127.0.0.1:0".into();
    let server = Server::bind(snapshot, cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn stop(handle: &ServerHandle, join: thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}

/// One `Connection: close` request; returns (status, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    match body {
        Some(b) => req.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len())),
        None => req.push_str("\r\n"),
    }
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let payload = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn routes_answer_and_score_is_bit_identical() {
    let (snapshot, data) = mined();
    let reference_patterns: Vec<Pattern> = snapshot
        .patterns
        .iter()
        .map(|m| m.pattern.clone())
        .collect();
    let reference_grid = snapshot.grid.clone();
    let (delta, min_prob) = (snapshot.params.delta, snapshot.params.min_prob);
    let k = snapshot.patterns.len();
    let (addr, handle, join) = start(snapshot, ServerConfig::default());

    // /healthz
    let (status, body) = request(addr, "GET", "/healthz", None, &[]);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // /v1/topk is the versioned snapshot itself.
    let (status, body) = request(addr, "GET", "/v1/topk", None, &[]);
    assert_eq!(status, 200);
    let topk: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(topk["schema"].as_str().unwrap(), trajserve::SCHEMA);
    assert_eq!(topk["patterns"].as_array().unwrap().len(), k);
    assert!(topk.get("groups").is_some());

    // /v1/score over a fresh query dataset must be bit-identical to the
    // library Scorer on the same patterns — the core acceptance check.
    let query: Dataset = data.iter().take(4).cloned().collect();
    let (status, body) = request(addr, "POST", "/v1/score", Some(&query.to_json()), &[]);
    assert_eq!(status, 200, "score failed: {body}");
    let scored: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(scored["trajectories"].as_u64().unwrap(), 4);
    let served: Vec<f64> = scored["nms"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    let direct = Scorer::with_threads(&query, &reference_grid, delta, min_prob, 1)
        .score_batch(&reference_patterns);
    assert_eq!(served.len(), direct.len());
    for (i, (s, d)) in served.iter().zip(&direct).enumerate() {
        assert_eq!(
            s.to_bits(),
            d.to_bits(),
            "pattern {i}: served {s} != direct {d}"
        );
    }

    // /v1/match labels the first trajectory with the best pattern + group.
    let (status, body) = request(addr, "POST", "/v1/match", Some(&query.to_json()), &[]);
    assert_eq!(status, 200);
    let matched: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(matched["nms"].as_array().unwrap().len(), k);
    let best = &matched["best"];
    assert!(
        best.get("index").is_some(),
        "best should be present: {body}"
    );
    assert!(best["nm"].as_f64().unwrap().is_finite());

    // /v1/predict returns a (possibly empty) distribution for any input.
    let (status, body) = request(addr, "POST", "/v1/predict", Some(&query.to_json()), &[]);
    assert_eq!(status, 200);
    let predicted: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(predicted.get("velocity").is_some());
    assert!(predicted["distribution"].as_array().is_some());

    // Error envelope: every failure is structured JSON with a machine
    // code and a human message.
    let assert_error = |status: u16, body: &str, want_status: u16, want_code: &str| {
        assert_eq!(status, want_status, "body: {body}");
        let v: serde_json::Value = serde_json::from_str(body).expect("error body is JSON");
        assert_eq!(v["error"]["code"].as_str().unwrap(), want_code, "{body}");
        assert!(
            !v["error"]["message"].as_str().unwrap().is_empty(),
            "{body}"
        );
    };
    let (status, body) = request(addr, "GET", "/nope", None, &[]);
    assert_error(status, &body, 404, "not_found");
    let (status, body) = request(addr, "GET", "/v1/score", None, &[]);
    assert_error(status, &body, 405, "method_not_allowed");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/match",
        Some("{\"trajectories\": []}"),
        &[],
    );
    assert_error(status, &body, 400, "bad_request");
    let (status, body) = request(addr, "POST", "/v1/score", Some("not json"), &[]);
    assert_error(status, &body, 400, "bad_request");
    // The unversioned routes are gone: they fall through to the 404.
    for (method, path, body) in [
        ("GET", "/topk", None),
        ("POST", "/score", Some(query.to_json())),
        ("POST", "/match", Some(query.to_json())),
        ("POST", "/predict", Some(query.to_json())),
    ] {
        let (status, resp) = request(addr, method, path, body.as_deref(), &[]);
        assert_error(status, &resp, 404, "not_found");
    }

    stop(&handle, join);
}

#[test]
fn v1_routes_share_schema_and_agree_with_the_library() {
    let (snapshot, data) = mined();
    let reference_patterns: Vec<Pattern> = snapshot
        .patterns
        .iter()
        .map(|m| m.pattern.clone())
        .collect();
    let reference_grid = snapshot.grid.clone();
    let (delta, min_prob) = (snapshot.params.delta, snapshot.params.min_prob);
    let k = snapshot.patterns.len();
    let (addr, handle, join) = start(snapshot, ServerConfig::default());
    let query: Dataset = data.iter().take(4).cloned().collect();

    // /v1/score: shared envelope, NMs bit-identical to the library
    // scorer.
    let (status, body) = request(addr, "POST", "/v1/score", Some(&query.to_json()), &[]);
    assert_eq!(status, 200, "v1 score failed: {body}");
    let scored: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(scored["schema"].as_str().unwrap(), trajserve::QUERY_SCHEMA);
    assert_eq!(scored["query"].as_str().unwrap(), "score");
    assert_eq!(scored["trajectories"].as_u64().unwrap(), 4);
    assert_eq!(scored["patterns"].as_array().unwrap().len(), k);
    let served: Vec<f64> = scored["nms"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    let direct = Scorer::with_threads(&query, &reference_grid, delta, min_prob, 1)
        .score_batch(&reference_patterns);
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!(s.to_bits(), d.to_bits());
    }

    // /v1/match scores the first posted trajectory; its NMs are
    // bit-identical to the unindexed library scorer over that trajectory.
    let (status, matched) = request(addr, "POST", "/v1/match", Some(&query.to_json()), &[]);
    assert_eq!(status, 200);
    let m: serde_json::Value = serde_json::from_str(&matched).unwrap();
    assert_eq!(m["query"].as_str().unwrap(), "match");
    assert!(m["best"]["nm"].as_f64().unwrap().is_finite());
    let first: Dataset = query.iter().take(1).cloned().collect();
    let direct = Scorer::new(&first, &reference_grid, delta, min_prob)
        .query(&reference_patterns)
        .run();
    let match_nms = m["nms"].as_array().unwrap();
    assert_eq!(match_nms.len(), direct.len());
    for (s, d) in match_nms.iter().zip(&direct) {
        assert_eq!(s.as_f64().unwrap().to_bits(), d.to_bits());
    }

    let with_options = |options: &str| {
        let v: serde_json::Value = serde_json::from_str(&query.to_json()).unwrap();
        let trajs = serde_json::to_string(&v["trajectories"]).unwrap();
        format!("{{\"trajectories\": {trajs}, \"options\": {options}}}")
    };

    // A pattern filter restricts scoring to the named snapshot indices.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/score",
        Some(&with_options("{\"patterns\": [0]}")),
        &[],
    );
    assert_eq!(status, 200);
    let filtered: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(filtered["patterns"].as_array().unwrap().len(), 1);
    assert_eq!(
        filtered["nms"].as_array().unwrap()[0]
            .as_f64()
            .unwrap()
            .to_bits(),
        served[0].to_bits()
    );
    // An out-of-range filter is a structured client error.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/score",
        Some(&with_options("{\"patterns\": [999]}")),
        &[],
    );
    assert_eq!(status, 400);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["code"].as_str().unwrap(), "bad_request");

    // /v1/predict shares the envelope too.
    let (status, body) = request(addr, "POST", "/v1/predict", Some(&query.to_json()), &[]);
    assert_eq!(status, 200);
    let p: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(p["schema"].as_str().unwrap(), trajserve::QUERY_SCHEMA);
    assert_eq!(p["query"].as_str().unwrap(), "predict");
    assert!(p["distribution"].as_array().is_some());

    // /metrics tracks the v1 routes and the /v1/score histogram.
    let (_, metrics) = request(addr, "GET", "/metrics", None, &[]);
    assert!(metrics.contains("trajserve_requests_total{endpoint=\"v1_score\"}"));
    assert!(metrics.contains("trajserve_route_seconds_count{route=\"v1_score\"}"));

    stop(&handle, join);
}

#[test]
fn object_query_routes_answer_statically_and_match_the_library() {
    let (snapshot, data) = mined();
    let grid = snapshot.grid.clone();
    let (delta_param, min_prob) = (snapshot.params.delta, snapshot.params.min_prob);
    let pattern = snapshot.patterns[0].pattern.clone();
    let bbox = data.bounding_box().unwrap();
    let p = trajgeo::Point2::new(
        (bbox.min().x + bbox.max().x) / 2.0,
        (bbox.min().y + bbox.max().y) / 2.0,
    );
    let (addr, handle, join) = start(snapshot, ServerConfig::default());

    let trajs = {
        let v: serde_json::Value = serde_json::from_str(&data.to_json()).unwrap();
        serde_json::to_string(&v["trajectories"]).unwrap()
    };
    let (delta, t, tau, growth) = (0.2f64, 3.5f64, 0.01f64, 0.1f64);
    let reference = trajquery::QuerySet::build(
        data.iter()
            .enumerate()
            .map(|(i, tr)| (i as u64, tr.clone()))
            .collect(),
        growth,
    );

    // /v1/prange over posted trajectories is bit-identical to the
    // library's brute-force scan.
    let body = format!(
        r#"{{"p": [{}, {}], "delta": {delta}, "t": {t}, "tau": {tau},
            "trajectories": {trajs}, "options": {{"growth_rate": {growth}}}}}"#,
        p.x, p.y
    );
    let (status, resp) = request(addr, "POST", "/v1/prange", Some(&body), &[]);
    assert_eq!(status, 200, "{resp}");
    let doc: serde_json::Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(doc["schema"].as_str().unwrap(), trajserve::QUERY_SCHEMA);
    assert_eq!(doc["query"].as_str().unwrap(), "prange");
    assert_eq!(doc["objects"].as_u64().unwrap() as usize, data.len());
    let expect = reference.prange_bruteforce(p, delta, t, tau).unwrap();
    assert!(!expect.is_empty(), "query must hit for the test to bite");
    let served = doc["matches"].as_array().unwrap();
    assert_eq!(served.len(), expect.len());
    for (got, want) in served.iter().zip(&expect) {
        assert_eq!(got["id"].as_u64().unwrap(), want.id);
        assert_eq!(got["prob"].as_f64().unwrap().to_bits(), want.prob.to_bits());
    }

    // /v1/pnn truncates the same ranking to k.
    let k = 3usize;
    let body = format!(
        r#"{{"p": [{}, {}], "delta": {delta}, "t": {t}, "tau": {tau}, "k": {k},
            "trajectories": {trajs}, "options": {{"growth_rate": {growth}}}}}"#,
        p.x, p.y
    );
    let (status, resp) = request(addr, "POST", "/v1/pnn", Some(&body), &[]);
    assert_eq!(status, 200, "{resp}");
    let doc: serde_json::Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(doc["query"].as_str().unwrap(), "pnn");
    assert_eq!(doc["k"].as_u64().unwrap() as usize, k);
    let expect = reference.pnn_bruteforce(p, t, k, tau, delta).unwrap();
    let served = doc["matches"].as_array().unwrap();
    assert_eq!(served.len(), expect.len());
    for (got, want) in served.iter().zip(&expect) {
        assert_eq!(got["id"].as_u64().unwrap(), want.id);
        assert_eq!(got["prob"].as_f64().unwrap().to_bits(), want.prob.to_bits());
    }

    // /v1/matchlive scores NM over the posted objects with the served
    // snapshot's grid and mining parameters.
    let cells: Vec<u32> = pattern.cells().iter().map(|c| c.0).collect();
    let body = format!(r#"{{"pattern": {cells:?}, "threshold": -1e9, "trajectories": {trajs}}}"#);
    let (status, resp) = request(addr, "POST", "/v1/matchlive", Some(&body), &[]);
    assert_eq!(status, 200, "{resp}");
    let doc: serde_json::Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(doc["query"].as_str().unwrap(), "matchlive");
    let no_growth = trajquery::QuerySet::build(
        data.iter()
            .enumerate()
            .map(|(i, tr)| (i as u64, tr.clone()))
            .collect(),
        0.0,
    );
    let expect = no_growth
        .match_pattern(&grid, delta_param, min_prob, 1, &pattern, -1e9)
        .unwrap();
    assert!(
        !expect.is_empty(),
        "pattern must match for the test to bite"
    );
    let served = doc["matches"].as_array().unwrap();
    assert_eq!(served.len(), expect.len());
    for (got, want) in served.iter().zip(&expect) {
        assert_eq!(got["id"].as_u64().unwrap(), want.id);
        assert_eq!(got["nm"].as_f64().unwrap().to_bits(), want.nm.to_bits());
    }

    // Client errors are structured 400s: missing p, missing
    // trajectories (static mode), out-of-range tau, bad pattern.
    for bad in [
        format!(r#"{{"delta": 0.1, "t": 1.0, "trajectories": {trajs}}}"#),
        r#"{"p": [0.5, 0.5], "delta": 0.1, "t": 1.0}"#.to_string(),
        format!(
            r#"{{"p": [0.5, 0.5], "delta": 0.1, "t": 1.0, "tau": 1.5, "trajectories": {trajs}}}"#
        ),
        format!(r#"{{"pattern": [], "trajectories": {trajs}}}"#),
    ] {
        let route = if bad.contains("pattern") {
            "/v1/matchlive"
        } else {
            "/v1/prange"
        };
        let (status, resp) = request(addr, "POST", route, Some(&bad), &[]);
        assert_eq!(status, 400, "{bad} => {resp}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v["error"]["code"].as_str().unwrap(), "bad_request");
    }
    // GET on a POST-only query route is a 405.
    let (status, _) = request(addr, "GET", "/v1/pnn", None, &[]);
    assert_eq!(status, 405);

    // The new routes are tracked in /metrics.
    let (_, metrics) = request(addr, "GET", "/metrics", None, &[]);
    assert!(metrics.contains("trajserve_requests_total{endpoint=\"v1_prange\"}"));
    assert!(metrics.contains("trajserve_requests_total{endpoint=\"v1_pnn\"}"));
    assert!(metrics.contains("trajserve_requests_total{endpoint=\"v1_matchlive\"}"));

    stop(&handle, join);
}

#[test]
fn injected_panic_gets_500_and_server_keeps_serving() {
    let (snapshot, data) = mined();
    let cfg = ServerConfig {
        allow_panic_injection: true,
        workers: 2,
        ..ServerConfig::default()
    };
    let (addr, handle, join) = start(snapshot, cfg);

    // Poison a request on purpose; the worker must answer 500.
    let (status, body) = request(
        addr,
        "GET",
        "/v1/topk",
        None,
        &[("x-trajserve-inject-panic", "1")],
    );
    assert_eq!(status, 500, "poisoned request should 500, got: {body}");

    // The server keeps answering afterwards — on every route.
    let (status, _) = request(addr, "GET", "/healthz", None, &[]);
    assert_eq!(status, 200);
    let query: Dataset = data.iter().take(2).cloned().collect();
    let (status, _) = request(addr, "POST", "/v1/score", Some(&query.to_json()), &[]);
    assert_eq!(status, 200);

    // The panic is visible in /metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", None, &[]);
    assert_eq!(status, 200);
    let panics = metrics
        .lines()
        .find_map(|l| l.strip_prefix("trajserve_request_panics_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("panics counter present");
    assert!(panics >= 1);
    assert!(metrics.contains("trajserve_requests_total{endpoint=\"v1_score\"} 1"));
    assert!(metrics.contains("trajserve_scored_trajectories_total 2"));

    stop(&handle, join);
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let (snapshot, _) = mined();
    let (addr, handle, join) = start(snapshot, ServerConfig::default());

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for round in 0..3 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        // Read exactly one response: head, then Content-Length bytes.
        let mut text = String::new();
        let mut byte = [0u8; 1];
        while !text.ends_with("\r\n\r\n") {
            s.read_exact(&mut byte).unwrap();
            text.push(byte[0] as char);
        }
        assert!(text.starts_with("HTTP/1.1 200"), "round {round}: {text}");
        assert!(text.to_ascii_lowercase().contains("connection: keep-alive"));
        let len: usize = text
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length: ")
                    .map(String::from)
            })
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        s.read_exact(&mut body).unwrap();
        assert_eq!(body, b"ok\n");
    }

    stop(&handle, join);
}

#[test]
fn full_queue_answers_503_busy() {
    let (snapshot, _) = mined();
    let cfg = ServerConfig {
        workers: 1,
        queue: 1,
        read_timeout: Duration::from_secs(3),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = start(snapshot, cfg);

    // Three idle connections against one worker and a queue of one: the
    // first two occupy the worker and the queue slot (in some order,
    // depending on scheduling), and exactly one connection is rejected
    // with an immediate 503. The occupying connections idle until the
    // server's read timeout answers them 408.
    let holds: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut statuses = Vec::new();
    for s in &holds {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    }
    for mut s in holds {
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw).into_owned();
        statuses.push(
            text.split_whitespace()
                .nth(1)
                .and_then(|t| t.parse::<u16>().ok()),
        );
    }
    // Scheduling decides whether the worker dequeues before the later
    // connections arrive, so one or two rejections are both legitimate —
    // but every connection gets answered, and at least one hits the
    // 503 backpressure path.
    let rejected_count = statuses.iter().filter(|s| **s == Some(503)).count();
    let timed_out = statuses.iter().filter(|s| **s == Some(408)).count();
    assert!(
        (1..=2).contains(&rejected_count),
        "some connection should hit backpressure: {statuses:?}"
    );
    assert_eq!(
        rejected_count + timed_out,
        3,
        "every connection gets a definite answer: {statuses:?}"
    );

    // Once the holds resolve, the server answers normally again and the
    // rejection is visible in /metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", None, &[]);
    assert_eq!(status, 200);
    let rejected = metrics
        .lines()
        .find_map(|l| l.strip_prefix("trajserve_rejected_busy_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert_eq!(rejected, rejected_count as u64);

    stop(&handle, join);
}

#[test]
fn silent_connection_times_out_with_408() {
    let (snapshot, _) = mined();
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = start(snapshot, cfg);

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Half a request line, then silence.
    s.write_all(b"GET /hea").unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "got: {text}");

    stop(&handle, join);
}

/// Polls `/v1/topk` for up to 10 s until it answers `len` patterns;
/// every answer on the way must be a 200.
fn serves_topk_of_len(addr: SocketAddr, len: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = request(addr, "GET", "/v1/topk", None, &[]);
        assert_eq!(status, 200, "server must keep serving during reload");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        if v["patterns"].as_array().unwrap().len() == len {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn watch_serves_a_rewrite_made_before_start() {
    // The file is rewritten after the caller loaded it and before the
    // server (and its watcher) starts: the rewrite must still be served.
    let (snapshot, _) = mined();
    assert!(snapshot.patterns.len() >= 2);
    let dir = std::env::temp_dir().join(format!("trajserve-watch-early-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");
    std::fs::write(&path, snapshot.to_json_pretty()).unwrap();
    let loaded = Snapshot::load(&path).unwrap();
    let mut smaller = snapshot.clone();
    smaller.patterns.truncate(1);
    smaller.groups.clear();
    std::fs::write(&path, smaller.to_json_pretty()).unwrap();

    let cfg = ServerConfig {
        watch: true,
        watch_interval: Duration::from_millis(50),
        snapshot_path: Some(path),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = start(loaded, cfg);
    let reloaded = serves_topk_of_len(addr, 1);
    stop(&handle, join);
    std::fs::remove_dir_all(&dir).ok();
    assert!(reloaded, "a rewrite made before start was never served");
}

#[test]
fn watch_hot_reloads_rewritten_snapshot() {
    let (snapshot, _) = mined();
    let full_k = snapshot.patterns.len();
    assert!(full_k >= 2, "need at least 2 patterns to observe a reload");

    let dir = std::env::temp_dir().join(format!("trajserve-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");
    std::fs::write(&path, snapshot.to_json_pretty()).unwrap();

    let cfg = ServerConfig {
        watch: true,
        watch_interval: Duration::from_millis(50),
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let loaded = Snapshot::load(&path).unwrap();
    let (addr, handle, join) = start(loaded, cfg);

    let (status, body) = request(addr, "GET", "/v1/topk", None, &[]);
    assert_eq!(status, 200);
    let before: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(before["patterns"].as_array().unwrap().len(), full_k);

    // Rewrite the snapshot with a truncated top-k; the watcher must pick
    // it up without dropping a single request.
    let mut smaller = snapshot.clone();
    smaller.patterns.truncate(1);
    smaller.groups.clear();
    std::fs::write(&path, smaller.to_json_pretty()).unwrap();

    assert!(
        serves_topk_of_len(addr, 1),
        "snapshot rewrite was never picked up"
    );

    let (_, metrics) = request(addr, "GET", "/metrics", None, &[]);
    let reloads = metrics
        .lines()
        .find_map(|l| l.strip_prefix("trajserve_snapshot_reloads_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert!(reloads >= 1);

    stop(&handle, join);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serves_a_stream_checkpoint_directly() {
    use trajdata::Trajectory;
    use trajgeo::{BBox, Point2};
    use trajstream::StreamMiner;

    let grid = Grid::new(BBox::unit(), 6, 6).unwrap();
    let params = MiningParams::new(4, 0.08)
        .unwrap()
        .with_min_len(2)
        .unwrap()
        .with_max_len(3)
        .unwrap();
    let mut miner = StreamMiner::new(grid, params).unwrap();
    for j in 0..8 {
        miner.slide(
            Trajectory::from_exact(
                (0..5).map(move |i| Point2::new(0.1 + i as f64 * 0.18, 0.2 + j as f64 * 0.07)),
            ),
            6,
        );
    }
    let dir = std::env::temp_dir().join(format!("trajserve-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("stream.ckpt");
    miner.checkpoint(&ckpt).unwrap();

    let snapshot = Snapshot::load(&ckpt).unwrap();
    let expected = miner.topk().len();
    let (addr, handle, join) = start(snapshot, ServerConfig::default());
    let (status, body) = request(addr, "GET", "/v1/topk", None, &[]);
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["patterns"].as_array().unwrap().len(), expected);
    assert!(
        v.get("stream").is_some(),
        "stream block must survive: {body}"
    );

    stop(&handle, join);
    std::fs::remove_dir_all(&dir).ok();
}
