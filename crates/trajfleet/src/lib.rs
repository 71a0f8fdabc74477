//! trajfleet — sharded live serving over per-shard stream miners.
//!
//! One [`trajserve::Server`] fronts a fixed set of *shards* (fleets,
//! regions, tenants — the key is opaque). Each shard owns its own
//! [`trajstream::StreamMiner`] fed from its own
//! [`trajfeed::SourceSpec`] — an append-only `.events` log tailed with
//! `--follow` semantics, a `trajdb` store polled for newly committed
//! records, a dead-reckoning log reconstructed server-side (§3.1/§3.2),
//! or either line protocol arriving over a live TCP socket
//! (`name=tcp://host:port`, `name=dr+tcp://host:port`). Whenever a
//! shard's certified top-k actually changes (tracked by
//! [`StreamMiner::topk_version`]), its ingester builds a fresh
//! pre-serialized [`trajserve::Loaded`] bundle and atomically swaps it
//! into the server's [`trajserve::FleetState`] — the same
//! `Arc`-swap the `--watch` hot reload uses, so `GET /v1/topk?shard=`
//! stays a pre-rendered-string read no matter how fast events arrive.
//!
//! The guarantees compose from the pieces underneath:
//!
//! * **per-shard exactness** — a shard's served top-k is bit-identical
//!   to [`trajpattern::Miner::mine`] over that shard's current window
//!   (the stream miner's core invariant);
//! * **deterministic fan-out** — `GET /v1/topk` with no `shard=` (or
//!   `shard=*`) k-way-merges the per-shard lists under the exact
//!   `certified_topk` comparator, ties broken by the fixed fold order
//!   (sorted shard names), so the merged document is bit-stable;
//! * **restartability** — each shard checkpoints its miner as
//!   `trajpattern-checkpoint v2`; relaunching resumes every shard and
//!   skips already-processed events, continuing bit-identically.
//!
//! [`Fleet::launch`] binds the server and spawns one ingester thread
//! per shard; [`Fleet::run`] serves until shutdown, then stops the
//! ingesters and flushes their final checkpoints.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use trajdata::IngestPolicy;
use trajdb::Store;
use trajfeed::{DrConfig, FeedError, FeedOptions, PumpError};
use trajgeo::Grid;
use trajpattern::MiningParams;
use trajserve::server::ServeState;
use trajserve::{Loaded, ServeError, Server, ServerConfig, ServerHandle, Snapshot};
use trajstream::StreamMiner;

/// Where one shard's records come from: any [`trajfeed::SourceSpec`]
/// (event log, dead-reckoning log, trajdb store, or either line
/// protocol over TCP). Re-exported so shard wiring needs no direct
/// trajfeed dependency.
pub use trajfeed::SourceSpec as ShardSource;

/// One shard of the fleet: a name, a feed source, and an optional
/// checkpoint file for restart/resume.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The shard's routing key (`?shard=NAME`); 1–64 chars of
    /// `[A-Za-z0-9_-]`, unique within the fleet.
    pub name: String,
    /// Where the shard's records come from.
    pub source: ShardSource,
    /// `trajpattern-checkpoint v2` file: resumed at launch when it
    /// exists, rewritten on every published swap and at shutdown.
    pub checkpoint: Option<PathBuf>,
}

/// Mining/ingest settings shared by every shard.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The grid every shard mines over (fixed before data arrives,
    /// like `trajmine stream`).
    pub grid: Grid,
    /// Mining parameters (k, δ, lengths, γ, threads).
    pub params: MiningParams,
    /// Sliding-window capacity per shard, in arrivals.
    pub window: u64,
    /// How long an idle ingester sleeps before re-polling its source.
    pub poll: Duration,
    /// §3.1 uncertainty growth per unit of elapsed time, baked into
    /// every shard's published window query set (`/v1/prange`,
    /// `/v1/pnn` interpolate with it). 0 = reported σ only.
    pub growth_rate: f64,
    /// Defect policy for every shard feed's sanitize stage (strict
    /// feeds stop the shard on the first malformed record).
    pub policy: IngestPolicy,
    /// §3.1/§3.2 reconstruction parameters for dead-reckoning shard
    /// sources (`*.drlog`, `dr+tcp://`); ignored by event/db sources.
    pub dr: DrConfig,
}

/// Why the fleet could not be launched or did not drain cleanly.
#[derive(Debug)]
pub enum FleetError {
    /// The underlying query server refused to start.
    Serve(ServeError),
    /// Mining parameters failed validation.
    Params(trajpattern::ParamsError),
    /// A shard checkpoint could not be written or resumed.
    Checkpoint(trajstream::CheckpointError),
    /// A shard's feed could not be opened, read, or decoded.
    Feed(String, FeedError),
    /// A shard's `trajdb` store could not be opened or read.
    Store(String, trajdb::StoreError),
    /// The shard set itself is unusable (empty, bad names, bad specs).
    Spec(String),
    /// An ingester thread panicked (its shard stops updating; the
    /// server keeps serving the last swapped snapshot).
    IngesterPanicked(String),
    /// Binding, serving, or thread spawning failed at the OS level.
    Io(std::io::Error),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Serve(e) => write!(f, "{e}"),
            FleetError::Params(e) => write!(f, "invalid mining parameters: {e}"),
            FleetError::Checkpoint(e) => write!(f, "shard checkpoint: {e}"),
            FleetError::Feed(shard, e) => write!(f, "shard '{shard}': {e}"),
            FleetError::Store(shard, e) => write!(f, "shard '{shard}': {e}"),
            FleetError::Spec(msg) => write!(f, "bad shard set: {msg}"),
            FleetError::IngesterPanicked(shard) => {
                write!(f, "shard '{shard}': ingester thread panicked")
            }
            FleetError::Io(e) => write!(f, "fleet i/o: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Serve(e) => Some(e),
            FleetError::Params(e) => Some(e),
            FleetError::Checkpoint(e) => Some(e),
            FleetError::Feed(_, e) => Some(e),
            FleetError::Store(_, e) => Some(e),
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> FleetError {
        FleetError::Serve(e)
    }
}

impl From<trajstream::CheckpointError> for FleetError {
    fn from(e: trajstream::CheckpointError) -> FleetError {
        FleetError::Checkpoint(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

/// Parses a comma-packed `--shards` value: `name=source` pairs where
/// each source is any [`trajfeed::SourceSpec`] string — e.g.
/// `east=east.events,west=tcp://10.0.0.2:9009,bus=city.drlog`.
/// Checkpoints land in `checkpoint_dir` as `<name>.ckpt` when a
/// directory is given.
pub fn parse_shard_specs(
    raw: &str,
    checkpoint_dir: Option<&Path>,
) -> Result<Vec<ShardSpec>, FleetError> {
    let mut specs = Vec::new();
    for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
        let (name, path) = part.split_once('=').ok_or_else(|| {
            FleetError::Spec(format!(
                "shard spec '{part}' is not name=path (expected e.g. east=east.events)"
            ))
        })?;
        let name = name.trim();
        if name.is_empty() {
            return Err(FleetError::Spec(format!(
                "shard spec '{part}' has an empty name"
            )));
        }
        specs.push(ShardSpec {
            name: name.to_string(),
            source: ShardSource::parse(path.trim()),
            checkpoint: checkpoint_dir.map(|d| d.join(format!("{name}.ckpt"))),
        });
    }
    if specs.is_empty() {
        return Err(FleetError::Spec("--shards lists no shards".into()));
    }
    Ok(specs)
}

/// Discovers a store-backed fleet: every `<root>/shards/<name>/`
/// directory becomes one shard whose source is that shard's own store
/// and whose checkpoint is the store-adjacent `stream.ckpt` (the
/// layout [`trajdb::Store::shard_dir`] defines). Shard names come back
/// sorted — the fleet's fixed fold order.
pub fn discover_db_shards(root: &Path) -> Result<Vec<ShardSpec>, FleetError> {
    let names = Store::list_shards(root).map_err(|e| FleetError::Store("?".into(), e))?;
    if names.is_empty() {
        return Err(FleetError::Spec(format!(
            "{} holds no shards (expected <root>/shards/<name>/ store directories)",
            root.display()
        )));
    }
    names
        .into_iter()
        .map(|name| {
            let dir =
                Store::shard_dir(root, &name).map_err(|e| FleetError::Store(name.clone(), e))?;
            let ckpt = Store::shard_checkpoint_path(root, &name)
                .map_err(|e| FleetError::Store(name.clone(), e))?;
            Ok(ShardSpec {
                name,
                source: ShardSource::Db(dir),
                checkpoint: Some(ckpt),
            })
        })
        .collect()
}

/// A launched live fleet: the bound query server plus one ingester
/// thread per shard.
pub struct Fleet {
    server: Server,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    ingesters: Vec<(String, thread::JoinHandle<Result<(), FleetError>>)>,
}

impl Fleet {
    /// Resumes (or freshly creates) every shard's miner, binds the
    /// server with each shard's initial snapshot, and spawns the
    /// ingester threads. Nothing is served until [`Fleet::run`].
    pub fn launch(
        specs: Vec<ShardSpec>,
        cfg: FleetConfig,
        server_cfg: ServerConfig,
    ) -> Result<Fleet, FleetError> {
        if cfg.window == 0 {
            return Err(FleetError::Spec("window must be at least 1".into()));
        }
        let mut prepared = Vec::with_capacity(specs.len());
        for spec in specs {
            let miner = match &spec.checkpoint {
                Some(path) if path.exists() => StreamMiner::resume(path)?,
                _ => StreamMiner::new(cfg.grid.clone(), cfg.params.clone())
                    .map_err(FleetError::Params)?,
            };
            let snapshot = Snapshot::from_stream(&miner);
            prepared.push((spec, miner, snapshot));
        }

        let initial: Vec<(String, Snapshot)> = prepared
            .iter()
            .map(|(spec, _, snap)| (spec.name.clone(), snap.clone()))
            .collect();
        let confirm_threshold = server_cfg.confirm_threshold;
        let server = Server::bind_fleet(initial, server_cfg)?;
        let state = server.state();
        // A resumed miner already holds a window — publish it so
        // `/v1/prange` & co. see the shard's objects before the first
        // new event arrives.
        for (spec, miner, _) in &prepared {
            publish_window(spec, miner, cfg.growth_rate, &state);
        }
        let stop = Arc::new(AtomicBool::new(false));

        let mut ingesters = Vec::with_capacity(prepared.len());
        for (spec, miner, _) in prepared {
            let name = spec.name.clone();
            let shared = Arc::clone(&state);
            let stop_flag = Arc::clone(&stop);
            let shard_cfg = cfg.clone();
            let handle = thread::Builder::new()
                .name(format!("trajfleet-{name}"))
                .spawn(move || {
                    ingest_shard(
                        spec,
                        miner,
                        shard_cfg,
                        confirm_threshold,
                        &shared,
                        &stop_flag,
                    )
                })?;
            ingesters.push((name, handle));
        }

        Ok(Fleet {
            server,
            state,
            stop,
            ingesters,
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.server.local_addr()
    }

    /// A shutdown handle for the query server (stopping the server is
    /// what makes [`Fleet::run`] return and drain the ingesters).
    pub fn handle(&self) -> ServerHandle {
        self.server.handle()
    }

    /// Shard names in the fixed fold order.
    pub fn shard_names(&self) -> Vec<String> {
        self.state
            .fleet()
            .map(|f| f.names().map(str::to_string).collect())
            .unwrap_or_default()
    }

    /// Serves until shutdown is requested, then stops every ingester,
    /// joins them (each flushes its final checkpoint on the way out),
    /// and reports the first shard failure, if any.
    pub fn run(self) -> Result<(), FleetError> {
        let Fleet {
            server,
            state: _,
            stop,
            ingesters,
        } = self;
        let served = server.run();
        stop.store(true, Ordering::SeqCst);
        let mut first_err = None;
        for (name, handle) in ingesters {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(_) => {
                    first_err.get_or_insert(FleetError::IngesterPanicked(name));
                }
            }
        }
        served?;
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// One shard's ingest loop: open the shard's feed on the spine, pump
/// records through the miner, and publish a freshly built serving
/// bundle whenever the certified top-k actually moved. Every source
/// kind — event log, dead-reckoning log, trajdb cursor, TCP socket —
/// runs this same loop.
fn ingest_shard(
    spec: ShardSpec,
    mut miner: StreamMiner,
    cfg: FleetConfig,
    confirm_threshold: f64,
    state: &ServeState,
    stop: &AtomicBool,
) -> Result<(), FleetError> {
    // Resume: the first `skip` records of the source were already
    // absorbed by the checkpointed miner — replay past them without
    // re-applying (exactly `trajmine stream --resume` semantics).
    let skip = miner.next_seq();
    let mut last_version = miner.topk_version();
    let opts = FeedOptions {
        follow: true,
        poll: cfg.poll,
        policy: cfg.policy,
        dr: cfg.dr,
        ..FeedOptions::default()
    };
    let kind = spec.source.kind();

    let result = match trajfeed::open(&spec.source, &opts) {
        Err(e) => Err(FleetError::Feed(spec.name.clone(), e)),
        Ok(mut feed) => {
            let pumped = trajfeed::pump(
                feed.as_mut(),
                stop,
                skip,
                |traj| {
                    miner.slide(traj, cfg.window);
                    publish_window(&spec, &miner, cfg.growth_rate, state);
                    publish_if_changed(&spec, &miner, &mut last_version, confirm_threshold, state)
                },
                |stats| {
                    if let Some(fleet) = state.fleet() {
                        fleet.swap_feed_stats(&spec.name, kind, stats.clone());
                    }
                },
            );
            // Publish the final counters too — transport events after
            // the last record batch (reconnects, torn recoveries)
            // would otherwise never reach `/metrics`.
            if let Some(fleet) = state.fleet() {
                fleet.swap_feed_stats(&spec.name, kind, feed.stats().clone());
            }
            match pumped {
                Ok(_) => Ok(()),
                Err(PumpError::Feed(e)) => Err(FleetError::Feed(spec.name.clone(), e)),
                Err(PumpError::Sink(e)) => Err(e),
            }
        }
    };

    // Drain: whatever happened above, flush the final checkpoint so a
    // relaunch resumes from everything this ingester absorbed.
    if let Some(path) = &spec.checkpoint {
        miner.checkpoint(path)?;
    }
    result
}

/// Publishes the shard's current window as a probabilistic query set.
/// Unlike the top-k, the window moves on *every* slide, so this runs
/// unconditionally after each event; object ids are the miner's stream
/// sequence numbers.
fn publish_window(spec: &ShardSpec, miner: &StreamMiner, growth_rate: f64, state: &ServeState) {
    if let Some(fleet) = state.fleet() {
        let objects = miner.window().map(|(seq, t)| (seq, t.clone())).collect();
        fleet.swap_window(
            &spec.name,
            Arc::new(trajquery::QuerySet::build(objects, growth_rate)),
        );
    }
}

/// Publishes the miner's state to the shard's serving slot iff the
/// certified top-k moved since the last publish: build the snapshot,
/// pre-serialize the bundle, swap it in atomically, checkpoint.
fn publish_if_changed(
    spec: &ShardSpec,
    miner: &StreamMiner,
    last_version: &mut u64,
    confirm_threshold: f64,
    state: &ServeState,
) -> Result<(), FleetError> {
    if miner.topk_version() == *last_version {
        return Ok(());
    }
    *last_version = miner.topk_version();
    let snapshot = Snapshot::from_stream(miner);
    let loaded = Loaded::build(snapshot, confirm_threshold)?;
    if let Some(fleet) = state.fleet() {
        fleet.swap(&spec.name, Arc::new(loaded));
        state.metrics.reloads.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(path) = &spec.checkpoint {
        miner.checkpoint(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_specs_parse_comma_packed_pairs() {
        let specs = parse_shard_specs("east=e.events, west=w.events", None).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "east");
        assert!(matches!(&specs[0].source, ShardSource::Events(p) if p.ends_with("e.events")));
        assert!(specs[0].checkpoint.is_none());

        let with_ckpt = parse_shard_specs("a=a.events", Some(Path::new("/tmp/ckpts"))).unwrap();
        assert_eq!(
            with_ckpt[0].checkpoint.as_deref(),
            Some(Path::new("/tmp/ckpts/a.ckpt"))
        );
    }

    #[test]
    fn shard_specs_accept_every_source_kind() {
        let specs = parse_shard_specs(
            "east=e.events,sock=tcp://10.0.0.2:9009,bus=city.drlog,dr=dr+tcp://h:1",
            None,
        )
        .unwrap();
        assert!(matches!(&specs[0].source, ShardSource::Events(_)));
        assert!(matches!(&specs[1].source, ShardSource::EventsTcp(a) if a == "10.0.0.2:9009"));
        assert!(matches!(&specs[2].source, ShardSource::Dr(_)));
        assert!(matches!(&specs[3].source, ShardSource::DrTcp(a) if a == "h:1"));
    }

    #[test]
    fn bad_shard_specs_are_rejected() {
        assert!(matches!(
            parse_shard_specs("", None),
            Err(FleetError::Spec(_))
        ));
        assert!(matches!(
            parse_shard_specs("just-a-path.events", None),
            Err(FleetError::Spec(_))
        ));
        assert!(matches!(
            parse_shard_specs("=x.events", None),
            Err(FleetError::Spec(_))
        ));
    }
}
