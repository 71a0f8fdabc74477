//! The server proper: a bounded-queue worker pool over a non-blocking
//! accept loop, in the same scoped-thread spirit as the batch scorer.
//!
//! Life of a connection:
//!
//! ```text
//! accept ── try_send ──▶ bounded queue ──▶ worker: read → route → write
//!              │ full                          │ panic in a route
//!              ▼                               ▼
//!          503 busy                    500, worker survives
//! ```
//!
//! Shutdown (via [`ServerHandle::shutdown`] or a termination signal
//! wired up by the CLI) stops the accept loop, closes the queue, and
//! lets every worker drain the connections it already holds — in-flight
//! requests finish and are answered with `Connection: close`.

use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use prediction::PatternLibrary;
use trajdata::{Dataset, Trajectory};
use trajpattern::{Pattern, Scorer};

use trajgeo::CellId;
use trajquery::QuerySet;

use crate::fanout::{merge_matches, merge_range, ShardRanked};
use crate::http::{read_request, write_response, Request, RequestError, Response};
use crate::metrics::{endpoint_index, Metrics};
use crate::query::{ObjectQueryRequest, QueryRequest, QueryResponse};
use crate::snapshot::Snapshot;

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded accept-queue capacity; a full queue answers 503.
    pub queue: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Threads per request-serving [`Scorer`] (`1` = sequential; scores
    /// are bit-identical for every value).
    pub scorer_threads: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Confirmation probability threshold for `/v1/predict` (paper §6.1
    /// uses 0.9).
    pub confirm_threshold: f64,
    /// Hot-reload the snapshot when `snapshot_path` is rewritten.
    pub watch: bool,
    /// How often the watcher polls the snapshot file.
    pub watch_interval: Duration,
    /// The file the served snapshot came from (needed for `watch`).
    pub snapshot_path: Option<PathBuf>,
    /// Honor the `x-trajserve-inject-panic` header (tests/CI only):
    /// the request handler panics, proving panic isolation end to end.
    pub allow_panic_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            queue: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            scorer_threads: 1,
            max_body: 16 * 1024 * 1024,
            confirm_threshold: 0.9,
            watch: false,
            watch_interval: Duration::from_millis(500),
            snapshot_path: None,
            allow_panic_injection: false,
        }
    }
}

/// Why a server could not be brought up.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen socket failed.
    Io(std::io::Error),
    /// The snapshot cannot back a pattern library (bad confirm
    /// threshold — snapshot params are validated at load time).
    Library(prediction::LibraryError),
    /// The live shard set is unusable (empty, or duplicate names).
    Fleet(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
            ServeError::Library(e) => write!(f, "cannot build pattern library: {e}"),
            ServeError::Fleet(msg) => write!(f, "cannot assemble live fleet: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Library(e) => Some(e),
            ServeError::Fleet(_) => None,
        }
    }
}

/// An immutable, fully-prepared snapshot the workers serve from. Hot
/// reload swaps the whole `Arc<Loaded>` atomically, so a request sees
/// either the old or the new snapshot, never a mix.
#[derive(Debug)]
pub struct Loaded {
    /// The snapshot being served.
    pub snapshot: Snapshot,
    /// Prediction library over the snapshot's ≥2-cell patterns.
    pub library: PatternLibrary,
    /// Pre-rendered `/v1/topk` response body (the snapshot's JSON).
    pub topk_json: String,
    /// The snapshot's pattern list, extracted once — request handlers
    /// borrow this instead of re-cloning per request. `/v1` scoring runs
    /// it on the posted trajectories' corridor tables with no pattern
    /// index, so a swap builds none.
    pub patterns: Vec<Pattern>,
}

impl Loaded {
    /// Prepares a snapshot for serving.
    pub fn build(snapshot: Snapshot, confirm_threshold: f64) -> Result<Loaded, ServeError> {
        let library = PatternLibrary::new(
            snapshot.patterns.clone(),
            snapshot.grid.clone(),
            snapshot.params.delta,
            snapshot.params.min_prob,
            confirm_threshold,
        )
        .map_err(ServeError::Library)?;
        let topk_json = snapshot.to_json_pretty();
        let patterns: Vec<Pattern> = snapshot
            .patterns
            .iter()
            .map(|m| m.pattern.clone())
            .collect();
        Ok(Loaded {
            snapshot,
            library,
            topk_json,
            patterns,
        })
    }
}

/// State shared by the accept loop, the workers, and the watcher.
#[derive(Debug)]
pub struct ServeState {
    loaded: RwLock<Arc<Loaded>>,
    /// The server's counters (rendered by `GET /metrics`).
    pub metrics: Metrics,
    /// Per-shard live state — `Some` only for [`Server::bind_fleet`].
    fleet: Option<crate::fleet::FleetState>,
}

impl ServeState {
    /// The currently-served snapshot bundle. In live mode this is the
    /// *base* bundle (empty top-k over the fleet's grid); shard-scoped
    /// requests resolve through [`ServeState::fleet`] instead.
    pub fn loaded(&self) -> Arc<Loaded> {
        match self.loaded.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// The shard router, when serving live.
    pub fn fleet(&self) -> Option<&crate::fleet::FleetState> {
        self.fleet.as_ref()
    }

    fn swap(&self, next: Arc<Loaded>) {
        match self.loaded.write() {
            Ok(mut g) => *g = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
    }
}

/// A handle for stopping a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// requests, then return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// The pattern-query server. Bind, grab a [`ServerHandle`], then
/// [`run`](Server::run) (which blocks until shutdown).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Prepares the snapshot and binds the listen socket. Nothing is
    /// served until [`run`](Server::run).
    pub fn bind(snapshot: Snapshot, cfg: ServerConfig) -> Result<Server, ServeError> {
        let loaded = Loaded::build(snapshot, cfg.confirm_threshold)?;
        Server::bind_with(loaded, None, cfg)
    }

    /// Binds a live fleet server: one swappable [`Loaded`] per shard
    /// (from the shards' initial — possibly resumed — snapshots), with
    /// `GET /v1/topk?shard=` routed per shard, the bare `/v1/topk`
    /// answering the cross-shard fan-out merge, and `/v1/shards`
    /// listing shard states. The base (non-shard) snapshot is the first
    /// shard's, emptied — it backs `/metrics` gauges, nothing else.
    pub fn bind_fleet(
        shards: Vec<(String, Snapshot)>,
        cfg: ServerConfig,
    ) -> Result<Server, ServeError> {
        let Some(first) = shards.first() else {
            return Err(ServeError::Fleet(
                "a live fleet needs at least one shard".into(),
            ));
        };
        let mut base = first.1.clone();
        base.patterns = Vec::new();
        base.groups = Vec::new();
        base.stats = Default::default();
        base.scorer = Default::default();
        base.stream = None;
        base.next_seq = None;
        let base = Loaded::build(base, cfg.confirm_threshold)?;
        let mut initial = Vec::with_capacity(shards.len());
        for (name, snapshot) in shards {
            initial.push((
                name,
                Arc::new(Loaded::build(snapshot, cfg.confirm_threshold)?),
            ));
        }
        let fleet = crate::fleet::FleetState::new(initial)?;
        Server::bind_with(base, Some(fleet), cfg)
    }

    fn bind_with(
        loaded: Loaded,
        fleet: Option<crate::fleet::FleetState>,
        cfg: ServerConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Io)?;
        listener.set_nonblocking(true).map_err(ServeError::Io)?;
        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                loaded: RwLock::new(Arc::new(loaded)),
                metrics: Metrics::default(),
                fleet,
            }),
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state — exposed so embedders (benches, tests) can read
    /// counters without going through `/metrics`.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// A shutdown handle usable from any thread (and from the CLI's
    /// signal watcher).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(self) -> std::io::Result<()> {
        let queue = self.cfg.queue.max(1);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::new();
        for i in 0..self.cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            let cfg = self.cfg.clone();
            let shutdown = Arc::clone(&self.shutdown);
            workers.push(
                thread::Builder::new()
                    .name(format!("trajserve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &state, &cfg, &shutdown))?,
            );
        }

        let watcher = match (&self.cfg.snapshot_path, self.cfg.watch) {
            (Some(path), true) => {
                let path = path.clone();
                let state = Arc::clone(&self.state);
                let cfg = self.cfg.clone();
                let shutdown = Arc::clone(&self.shutdown);
                Some(
                    thread::Builder::new()
                        .name("trajserve-watch".into())
                        .spawn(move || watch_loop(&path, &state, &cfg, &shutdown))?,
                )
            }
            _ => None,
        };

        let idle = Duration::from_millis(2);
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Count before enqueueing so a fast worker's decrement
                    // can never underflow the gauge.
                    self.state
                        .metrics
                        .queue_depth
                        .fetch_add(1, Ordering::Relaxed);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            self.state
                                .metrics
                                .queue_depth
                                .fetch_sub(1, Ordering::Relaxed);
                            self.state
                                .metrics
                                .rejected_busy
                                .fetch_add(1, Ordering::Relaxed);
                            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                            let busy = Response::error(503, "server busy: request queue is full");
                            let _ = write_response(&mut stream, &busy, false);
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            self.state
                                .metrics
                                .queue_depth
                                .fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(idle),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => thread::sleep(idle),
            }
        }

        // Drain: close the queue, let workers finish what they hold.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        if let Some(w) = watcher {
            let _ = w.join();
        }
        Ok(())
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    state: &ServeState,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) {
    loop {
        // Hold the lock only for the dequeue, never while handling.
        let next = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        let Ok(stream) = next else {
            return; // queue closed: accept loop is shutting down
        };
        state.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // Outer isolation: a panic that escapes connection handling
        // kills this connection, not the worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(stream, state, cfg, shutdown);
        }));
        if outcome.is_err() {
            state.metrics.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    state: &ServeState,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader, cfg.max_body) {
            Ok(req) => req,
            Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
            Err(RequestError::Timeout) => {
                let _ = write_response(
                    &mut write_half,
                    &Response::error(408, "request read timed out"),
                    false,
                );
                return;
            }
            Err(RequestError::Malformed(msg)) => {
                let _ = write_response(&mut write_half, &Response::error(400, &msg), false);
                return;
            }
            Err(RequestError::TooLarge { limit }) => {
                let msg = format!("request body exceeds {limit} bytes");
                let _ = write_response(&mut write_half, &Response::error(413, &msg), false);
                return;
            }
        };

        let started = Instant::now();
        state.metrics.inflight.fetch_add(1, Ordering::Relaxed);
        // Inner isolation: a panicking route handler poisons only its
        // own request — the connection answers 500 and keeps serving.
        let response =
            catch_unwind(AssertUnwindSafe(|| route(state, cfg, &req))).unwrap_or_else(|_| {
                state.metrics.panics.fetch_add(1, Ordering::Relaxed);
                Response::error(500, "internal error: request handler panicked")
            });
        state.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
        state.metrics.observe(
            endpoint_index(&req.path),
            response.status,
            started.elapsed().as_secs_f64(),
        );

        let keep = req.keep_alive && !shutdown.load(Ordering::SeqCst);
        if write_response(&mut write_half, &response, keep).is_err() || !keep {
            return;
        }
    }
}

fn route(state: &ServeState, cfg: &ServerConfig, req: &Request) -> Response {
    if cfg.allow_panic_injection && req.header("x-trajserve-inject-panic").is_some() {
        panic!("injected request panic (x-trajserve-inject-panic)");
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => {
            let loaded = state.loaded();
            let mut text = state.metrics.render(&loaded.snapshot);
            if let Some(fleet) = state.fleet() {
                fleet.render_metrics(&mut text);
            }
            Response::text(200, text)
        }
        // In live mode `?shard=NAME` reads that shard's pre-serialized
        // snapshot; no shard (or `shard=*`) answers the deterministic
        // cross-shard fan-out merge.
        ("GET", "/v1/topk") => match state.fleet() {
            None => Response::json(200, state.loaded().topk_json.clone()),
            Some(fleet) => match req.query_param("shard") {
                None | Some("" | "*") => Response::json(200, fleet.merged_topk_json()),
                Some(name) => match fleet.shard(name) {
                    Some(loaded) => Response::json(200, loaded.topk_json.clone()),
                    None => Response::error(404, &format!("no such shard '{name}'")),
                },
            },
        },
        ("GET", "/v1/shards") => match state.fleet() {
            Some(fleet) => Response::json(200, fleet.shards_json()),
            None => Response::error(404, "/v1/shards is only served by `serve --live`"),
        },
        // Probabilistic object queries over uncertain trajectories. In
        // static mode the request posts its own objects; in live mode
        // `?shard=NAME` queries that shard's window, and a bare call
        // fans out across every shard with a deterministic merge.
        ("POST", "/v1/prange") => prange_route(state, req),
        ("POST", "/v1/pnn") => pnn_route(state, req),
        ("POST", "/v1/matchlive") => matchlive_route(state, cfg, req),
        ("POST", "/v1/score") => match resolve_loaded(state, req) {
            Ok(loaded) => v1_score_route(state, cfg, &loaded, req),
            Err(resp) => resp,
        },
        ("POST", "/v1/match") => match resolve_loaded(state, req) {
            Ok(loaded) => v1_match_route(state, cfg, &loaded, req),
            Err(resp) => resp,
        },
        ("POST", "/v1/predict") => match resolve_loaded(state, req) {
            Ok(loaded) => v1_predict_route(cfg, &loaded, req),
            Err(resp) => resp,
        },
        (
            _,
            "/healthz" | "/metrics" | "/v1/topk" | "/v1/score" | "/v1/match" | "/v1/predict"
            | "/v1/shards" | "/v1/prange" | "/v1/pnn" | "/v1/matchlive",
        ) => Response::error(405, "method not allowed for this route"),
        _ => Response::error(404, "no such route"),
    }
}

/// Which [`Loaded`] a scoring/prediction request runs against: the one
/// static snapshot in classic mode, or the named shard's in live mode
/// (where a bare request has no principled single answer, so `?shard=`
/// is required — fan-out scoring would multiply work per request).
fn resolve_loaded(state: &ServeState, req: &Request) -> Result<Arc<Loaded>, Response> {
    match state.fleet() {
        None => Ok(state.loaded()),
        Some(fleet) => match req.query_param("shard") {
            Some(name) if !name.is_empty() && name != "*" => fleet
                .shard(name)
                .ok_or_else(|| Response::error(404, &format!("no such shard '{name}'"))),
            _ => Err(Response::error(
                400,
                "live mode: this route needs ?shard=NAME (see /v1/shards)",
            )),
        },
    }
}

/// Which query sets an object query (`/v1/prange`, `/v1/pnn`,
/// `/v1/matchlive`) runs over.
enum QueryTarget {
    /// Static mode: the set built from the posted trajectories.
    Static(QuerySet),
    /// Live, `?shard=NAME`: that shard's current window.
    Shard(String, Arc<QuerySet>),
    /// Live, bare (or `shard=*`): every shard's window in the fixed
    /// fold order — the deterministic fan-out.
    Fanout(Vec<(String, Arc<QuerySet>)>),
}

/// Resolves an object query's target. Unlike the scoring routes, a bare
/// live call is answered (fan-out + deterministic merge) rather than
/// rejected — object queries are cheap per shard and the merged ranking
/// is well-defined.
fn resolve_query_target(
    state: &ServeState,
    req: &Request,
    query: &ObjectQueryRequest,
) -> Result<QueryTarget, Response> {
    match state.fleet() {
        None => {
            let Some(trajectories) = &query.trajectories else {
                return Err(Response::error(
                    400,
                    "static mode: post \"trajectories\" to query over",
                ));
            };
            let growth_rate = query.options().growth_rate.unwrap_or(0.0);
            if !growth_rate.is_finite() || growth_rate < 0.0 {
                return Err(Response::error(
                    400,
                    &format!("growth_rate {growth_rate} must be finite and >= 0"),
                ));
            }
            let objects = trajectories
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u64, t.clone()))
                .collect();
            Ok(QueryTarget::Static(QuerySet::build(objects, growth_rate)))
        }
        Some(fleet) => {
            if query.trajectories.is_some() {
                return Err(Response::error(
                    400,
                    "live mode: object queries run over the shard windows; do not post trajectories",
                ));
            }
            if query.options().growth_rate.is_some() {
                return Err(Response::error(
                    400,
                    "live mode: growth_rate is fixed when the window index is built",
                ));
            }
            match req.query_param("shard") {
                Some(name) if !name.is_empty() && name != "*" => match fleet.window(name) {
                    Some(window) => Ok(QueryTarget::Shard(name.to_string(), window)),
                    None => Err(Response::error(404, &format!("no such shard '{name}'"))),
                },
                _ => Ok(QueryTarget::Fanout(
                    fleet
                        .windows()
                        .into_iter()
                        .map(|(name, w)| (name.to_string(), w))
                        .collect(),
                )),
            }
        }
    }
}

fn query_error(e: trajquery::QueryError) -> Response {
    Response::error(400, &e.to_string())
}

/// Runs `prange` (or `pnn`, when `k` is set) on one query set.
fn run_range_query(
    set: &QuerySet,
    p: trajgeo::Point2,
    delta: f64,
    t: f64,
    tau: f64,
    k: Option<usize>,
) -> Result<Vec<trajquery::RangeMatch>, Response> {
    match k {
        None => set.prange(p, delta, t, tau),
        Some(k) => set.pnn(p, t, k, tau, delta),
    }
    .map_err(query_error)
}

fn range_matches_value(matches: &[trajquery::RangeMatch]) -> serde_json::Value {
    serde_json::Value::Array(
        matches
            .iter()
            .map(|m| serde_json::json!({ "id": m.id, "prob": m.prob }))
            .collect(),
    )
}

fn merged_range_value(merged: &[(&str, trajquery::RangeMatch)]) -> serde_json::Value {
    serde_json::Value::Array(
        merged
            .iter()
            .map(|(shard, m)| serde_json::json!({ "shard": shard, "id": m.id, "prob": m.prob }))
            .collect(),
    )
}

/// The shared body of `/v1/prange` and `/v1/pnn` (they differ only in
/// `k` and the δ default).
fn range_route(state: &ServeState, req: &Request, kind: &str) -> Response {
    let query = match ObjectQueryRequest::parse(&req.body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let p = match query.point() {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let Some(t) = query.t else {
        return Response::error(400, &format!("{kind} needs \"t\" (query time)"));
    };
    let tau = query.tau.unwrap_or(0.0);
    let k = match kind {
        "pnn" => match query.k {
            Some(k) => Some(k),
            None => return Response::error(400, "pnn needs \"k\" (result count)"),
        },
        _ => None,
    };
    let delta = match query.delta {
        Some(d) => d,
        // `pnn` ranks by within-δ probability; absent an explicit δ it
        // uses the mining δ the served snapshot was built with.
        None if kind == "pnn" => state.loaded().snapshot.params.delta,
        None => return Response::error(400, "prange needs \"delta\" (range radius)"),
    };
    match resolve_query_target(state, req, &query) {
        Err(resp) => resp,
        Ok(QueryTarget::Static(set)) => match run_range_query(&set, p, delta, t, tau, k) {
            Err(resp) => resp,
            Ok(matches) => {
                let mut resp =
                    QueryResponse::new(kind).field("objects", serde_json::json!(set.len()));
                if let Some(k) = k {
                    resp = resp.field("k", serde_json::json!(k));
                }
                resp.field("matches", range_matches_value(&matches))
                    .into_response()
            }
        },
        Ok(QueryTarget::Shard(name, set)) => match run_range_query(&set, p, delta, t, tau, k) {
            Err(resp) => resp,
            Ok(matches) => {
                let mut resp = QueryResponse::new(kind)
                    .field("shard", serde_json::json!(name))
                    .field("objects", serde_json::json!(set.len()));
                if let Some(k) = k {
                    resp = resp.field("k", serde_json::json!(k));
                }
                resp.field("matches", range_matches_value(&matches))
                    .into_response()
            }
        },
        Ok(QueryTarget::Fanout(windows)) => {
            let mut objects = 0usize;
            let mut per_shard = Vec::with_capacity(windows.len());
            for (name, set) in &windows {
                objects += set.len();
                match run_range_query(set, p, delta, t, tau, k) {
                    Err(resp) => return resp,
                    Ok(matches) => per_shard.push((name.as_str(), matches)),
                }
            }
            let inputs: Vec<ShardRanked<'_, trajquery::RangeMatch>> = per_shard
                .iter()
                .map(|(name, matches)| ShardRanked {
                    shard: name,
                    entries: matches,
                })
                .collect();
            let merged = merge_range(&inputs, k.unwrap_or(usize::MAX));
            let names: Vec<&str> = per_shard.iter().map(|(n, _)| *n).collect();
            let mut resp = QueryResponse::new(kind)
                .field("shards", serde_json::json!(names))
                .field("objects", serde_json::json!(objects));
            if let Some(k) = k {
                resp = resp.field("k", serde_json::json!(k));
            }
            resp.field("matches", merged_range_value(&merged))
                .into_response()
        }
    }
}

/// `POST /v1/prange`: objects within δ of `p` at time `t` with
/// probability ≥ τ, ranked probability descending (ties by id).
fn prange_route(state: &ServeState, req: &Request) -> Response {
    range_route(state, req, "prange")
}

/// `POST /v1/pnn`: the k most-probable objects within δ of `p` at time
/// `t`, among those with probability ≥ τ. Deterministic tie-breaking.
fn pnn_route(state: &ServeState, req: &Request) -> Response {
    range_route(state, req, "pnn")
}

/// `POST /v1/matchlive`: which objects match the posted pattern with
/// NM ≥ threshold — over the posted trajectories (static) or the
/// current shard windows (live).
fn matchlive_route(state: &ServeState, cfg: &ServerConfig, req: &Request) -> Response {
    let query = match ObjectQueryRequest::parse(&req.body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let Some(cells) = &query.pattern else {
        return Response::error(400, "matchlive needs \"pattern\" (grid cell ids)");
    };
    let Some(pattern) = Pattern::new(cells.iter().map(|&c| CellId(c)).collect()) else {
        return Response::error(400, "\"pattern\" must list at least one cell");
    };
    let threshold = query.threshold.unwrap_or(f64::NEG_INFINITY);
    let loaded = state.loaded();
    let (grid, delta, min_prob) = (
        &loaded.snapshot.grid,
        loaded.snapshot.params.delta,
        loaded.snapshot.params.min_prob,
    );
    let run = |set: &QuerySet| {
        set.match_pattern(
            grid,
            delta,
            min_prob,
            cfg.scorer_threads,
            &pattern,
            threshold,
        )
        .map_err(query_error)
    };
    let match_value = |matches: &[trajquery::PatternMatch]| {
        serde_json::Value::Array(
            matches
                .iter()
                .map(|m| serde_json::json!({ "id": m.id, "nm": m.nm }))
                .collect(),
        )
    };
    match resolve_query_target(state, req, &query) {
        Err(resp) => resp,
        Ok(QueryTarget::Static(set)) => match run(&set) {
            Err(resp) => resp,
            Ok(matches) => QueryResponse::new("matchlive")
                .field("pattern", serde_json::json!(pattern.cells()))
                .field("objects", serde_json::json!(set.len()))
                .field("matches", match_value(&matches))
                .into_response(),
        },
        Ok(QueryTarget::Shard(name, set)) => match run(&set) {
            Err(resp) => resp,
            Ok(matches) => QueryResponse::new("matchlive")
                .field("pattern", serde_json::json!(pattern.cells()))
                .field("shard", serde_json::json!(name))
                .field("objects", serde_json::json!(set.len()))
                .field("matches", match_value(&matches))
                .into_response(),
        },
        Ok(QueryTarget::Fanout(windows)) => {
            let mut objects = 0usize;
            let mut per_shard = Vec::with_capacity(windows.len());
            for (name, set) in &windows {
                objects += set.len();
                match run(set) {
                    Err(resp) => return resp,
                    Ok(matches) => per_shard.push((name.as_str(), matches)),
                }
            }
            let inputs: Vec<ShardRanked<'_, trajquery::PatternMatch>> = per_shard
                .iter()
                .map(|(name, matches)| ShardRanked {
                    shard: name,
                    entries: matches,
                })
                .collect();
            let merged = merge_matches(&inputs);
            let entries: Vec<serde_json::Value> = merged
                .iter()
                .map(|(shard, m)| serde_json::json!({ "shard": shard, "id": m.id, "nm": m.nm }))
                .collect();
            let names: Vec<&str> = per_shard.iter().map(|(n, _)| *n).collect();
            QueryResponse::new("matchlive")
                .field("pattern", serde_json::json!(pattern.cells()))
                .field("shards", serde_json::json!(names))
                .field("objects", serde_json::json!(objects))
                .field("matches", serde_json::Value::Array(entries))
                .into_response()
        }
    }
}

/// Scores `batch` over `data` through the [`Scorer::query`] builder —
/// the one scoring entry point shared by every route.
fn score_with(
    state: &ServeState,
    cfg: &ServerConfig,
    loaded: &Loaded,
    data: &Dataset,
    batch: &[Pattern],
    measure: trajpattern::Measure,
) -> Vec<f64> {
    let snap = &loaded.snapshot;
    let scorer = Scorer::with_threads(
        data,
        &snap.grid,
        snap.params.delta,
        snap.params.min_prob,
        cfg.scorer_threads,
    );
    let nms = scorer.query(batch).measure(measure).run();
    accumulate_scorer(state, &scorer, data.len());
    nms
}

/// Resolves a `/v1` pattern filter into `(snapshot indices, batch)`.
/// No filter selects the whole snapshot.
fn select_patterns(
    loaded: &Loaded,
    filter: Option<&[usize]>,
) -> Result<(Vec<usize>, Vec<Pattern>), Response> {
    match filter {
        None => Ok((
            (0..loaded.patterns.len()).collect(),
            loaded.patterns.clone(),
        )),
        Some(wanted) => {
            let mut batch = Vec::with_capacity(wanted.len());
            for &i in wanted {
                let Some(p) = loaded.patterns.get(i) else {
                    return Err(Response::error(
                        400,
                        &format!(
                            "pattern filter index {i} out of range (snapshot holds {} patterns)",
                            loaded.patterns.len()
                        ),
                    ));
                };
                batch.push(p.clone());
            }
            Ok((wanted.to_vec(), batch))
        }
    }
}

/// The `best` object of a `/v1/match` answer: the first strict maximum
/// among finite scores (snapshot order is best-NM-first, so ties resolve
/// to the canonical winner), reported with its snapshot index, cells,
/// score, and pattern-group assignment.
fn best_match_value(
    snap: &Snapshot,
    indices: &[usize],
    batch: &[Pattern],
    nms: &[f64],
) -> serde_json::Value {
    let mut best: Option<usize> = None;
    for (i, nm) in nms.iter().enumerate() {
        if nm.is_finite() && best.is_none_or(|b| *nm > nms[b]) {
            best = Some(i);
        }
    }
    match best {
        Some(i) => {
            let group = snap
                .groups
                .iter()
                .position(|g| g.patterns.iter().any(|m| m.pattern == batch[i]));
            serde_json::json!({
                "index": indices[i],
                "cells": batch[i].cells(),
                "nm": nms[i],
                "group": match group {
                    Some(g) => serde_json::to_value(&g).expect("group index serializes"),
                    None => serde_json::Value::Null,
                },
            })
        }
        None => serde_json::Value::Null,
    }
}

/// The `/v1/predict` payload: `(velocity, confirming count, next-cell
/// distribution)`.
fn predict_value(
    loaded: &Loaded,
    cfg: &ServerConfig,
    traj: &Trajectory,
) -> (serde_json::Value, usize, Vec<serde_json::Value>) {
    let lib = &loaded.library;
    let recent = traj.points();
    let velocity = lib.predict_next_velocity(recent);
    let scores = lib.confirm_scores(recent);
    // Aggregate exp(log-match) weight per continuation cell over the
    // confirming patterns; BTreeMap keeps the output deterministic.
    let threshold_log = cfg.confirm_threshold.ln();
    let mut weights: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    let mut confirming = 0usize;
    for (m, score) in lib.patterns().iter().zip(&scores) {
        let Some(lm) = score else { continue };
        if *lm < threshold_log {
            continue;
        }
        confirming += 1;
        let cells = m.pattern.cells();
        let next = cells[cells.len() - 1];
        *weights.entry(next.0).or_insert(0.0) += lm.exp();
    }
    let total: f64 = weights.values().sum();
    let distribution: Vec<serde_json::Value> = weights
        .iter()
        .map(|(cell, w)| {
            serde_json::json!({
                "cell": cell,
                "p": if total > 0.0 { w / total } else { 0.0 },
            })
        })
        .collect();
    let velocity_value = match velocity {
        Some(v) => serde_json::json!({ "x": v.x, "y": v.y }),
        None => serde_json::Value::Null,
    };
    (velocity_value, confirming, distribution)
}

/// `POST /v1/score`: scores over the posted trajectories under the
/// shared query schema — measure and pattern filter come from
/// `options`. NMs are bit-identical to the library scorer.
fn v1_score_route(
    state: &ServeState,
    cfg: &ServerConfig,
    loaded: &Loaded,
    req: &Request,
) -> Response {
    let query = match QueryRequest::parse(&req.body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let data = query.dataset();
    let opts = query.options();
    let measure = match opts.measure() {
        Ok(m) => m,
        Err(msg) => return Response::error(400, &msg),
    };
    let (indices, batch) = match select_patterns(loaded, opts.patterns.as_deref()) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let nms = score_with(state, cfg, loaded, &data, &batch, measure);
    QueryResponse::new("score")
        .field("trajectories", serde_json::json!(data.len()))
        .field("patterns", serde_json::json!(indices))
        .field("nms", serde_json::json!(nms))
        .into_response()
}

/// `POST /v1/match`: best-scoring pattern for the first posted
/// trajectory under the shared query schema.
fn v1_match_route(
    state: &ServeState,
    cfg: &ServerConfig,
    loaded: &Loaded,
    req: &Request,
) -> Response {
    let query = match QueryRequest::parse(&req.body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let data = query.dataset();
    let opts = query.options();
    let measure = match opts.measure() {
        Ok(m) => m,
        Err(msg) => return Response::error(400, &msg),
    };
    let Some(traj) = data.trajectories().first() else {
        return Response::error(400, "dataset holds no trajectory to match");
    };
    let single: Dataset = std::iter::once(traj.clone()).collect();
    let (indices, batch) = match select_patterns(loaded, opts.patterns.as_deref()) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let nms = score_with(state, cfg, loaded, &single, &batch, measure);
    let best = best_match_value(&loaded.snapshot, &indices, &batch, &nms);
    QueryResponse::new("match")
        .field("trajectories", serde_json::json!(1usize))
        .field("patterns", serde_json::json!(indices))
        .field("nms", serde_json::json!(nms))
        .field("best", best)
        .into_response()
}

/// `POST /v1/predict`: next-cell distribution for the first posted
/// trajectory under the shared query schema.
fn v1_predict_route(cfg: &ServerConfig, loaded: &Loaded, req: &Request) -> Response {
    let query = match QueryRequest::parse(&req.body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let data = query.dataset();
    let Some(traj) = data.trajectories().first() else {
        return Response::error(400, "dataset holds no trajectory to predict from");
    };
    let (velocity, confirming, distribution) = predict_value(loaded, cfg, traj);
    QueryResponse::new("predict")
        .field("trajectories", serde_json::json!(1usize))
        .field("velocity", velocity)
        .field("confirming", serde_json::json!(confirming))
        .field("distribution", serde_json::Value::Array(distribution))
        .into_response()
}

fn accumulate_scorer(state: &ServeState, scorer: &Scorer<'_>, trajectories: usize) {
    let stats = scorer.stats();
    state
        .metrics
        .scorings
        .fetch_add(stats.scorings, Ordering::Relaxed);
    state
        .metrics
        .scored_trajectories
        .fetch_add(trajectories as u64, Ordering::Relaxed);
    state
        .metrics
        .scorer_degraded
        .fetch_add(stats.degraded_rescores, Ordering::Relaxed);
}

fn watch_loop(path: &Path, state: &ServeState, cfg: &ServerConfig, shutdown: &AtomicBool) {
    fn fingerprint(path: &Path) -> Option<(u64, Option<std::time::SystemTime>)> {
        std::fs::metadata(path)
            .ok()
            .map(|m| (m.len(), m.modified().ok()))
    }
    // No baseline: the caller loaded the served snapshot before this
    // thread ran, and a fingerprint taken now could already include a
    // rewrite made in between. So the first poll re-reads the file (and
    // counts as a reload), and none is missed.
    let mut last = None;
    let mut last_check = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(25));
        if last_check.elapsed() < cfg.watch_interval {
            continue;
        }
        last_check = Instant::now();
        let now = fingerprint(path);
        if now == last || now.is_none() {
            continue; // unchanged, or mid-rename — try again next poll
        }
        match Snapshot::load(path)
            .map_err(|e| e.to_string())
            .and_then(|s| Loaded::build(s, cfg.confirm_threshold).map_err(|e| e.to_string()))
        {
            Ok(loaded) => {
                state.swap(Arc::new(loaded));
                state.metrics.reloads.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Likely a half-written file: keep serving the old
                // snapshot. A completed rewrite changes the fingerprint
                // again and triggers a fresh attempt.
                state
                    .metrics
                    .reload_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        last = now;
    }
}
