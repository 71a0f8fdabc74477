//! Launching a `trajfleet::Fleet` and reading its public HTTP surface.

use crate::http::Client;
use crate::trips;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trajdata::IngestPolicy;
use trajfleet::{Fleet, FleetConfig, FleetError, ShardSpec};
use trajgeo::{BBox, Grid};
use trajpattern::MiningParams;
use trajserve::{ServerConfig, ServerHandle};

/// How often an idle shard re-polls its source (file tail sleep, socket
/// read timeout).
pub const POLL: Duration = Duration::from_millis(5);
/// Longest wait for a fleet to reach an expected state.
pub const SETTLE: Duration = Duration::from_secs(60);

pub fn grid() -> Grid {
    Grid::new(BBox::unit(), 8, 8).expect("valid grid")
}

pub fn params() -> MiningParams {
    MiningParams::new(8, 0.04)
        .and_then(|p| p.with_max_len(3))
        .expect("valid mining parameters")
}

pub fn config(window: u64) -> FleetConfig {
    FleetConfig {
        grid: grid(),
        params: params(),
        window,
        poll: POLL,
        growth_rate: 0.0,
        policy: IngestPolicy::Strict,
        dr: trips::dr_config(),
    }
}

/// A fleet serving on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<Result<(), FleetError>>,
}

impl Running {
    pub fn launch(specs: Vec<ShardSpec>, cfg: FleetConfig) -> Result<Running, String> {
        let server = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        };
        let fleet = Fleet::launch(specs, cfg, server).map_err(|e| format!("launch: {e}"))?;
        let addr = fleet.local_addr().map_err(|e| format!("local addr: {e}"))?;
        let handle = fleet.handle();
        let join = std::thread::Builder::new()
            .name("perfbench-fleet".into())
            .spawn(move || fleet.run())
            .map_err(|e| format!("spawn fleet: {e}"))?;
        Ok(Running { addr, handle, join })
    }

    /// Shuts the server down and waits for the fleet to drain.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("fleet stopped with an error: {e}")),
            Err(_) => Err("fleet thread panicked".into()),
        }
    }
}

/// One shard as `/v1/shards` shows it.
#[derive(Debug, Clone, Default)]
pub struct ShardView {
    pub name: String,
    pub objects: u64,
    pub records: u64,
    pub swaps: u64,
}

/// Parses a `/v1/shards` document.
pub fn parse_shards(body: &str) -> Result<Vec<ShardView>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(body).map_err(|e| format!("/v1/shards is not JSON: {e}"))?;
    let shards = doc["shards"]
        .as_array()
        .ok_or("/v1/shards has no shards array")?;
    shards
        .iter()
        .map(|s| {
            Ok(ShardView {
                name: s["name"]
                    .as_str()
                    .ok_or("shard without a name")?
                    .to_string(),
                objects: s["window"]["objects"]
                    .as_u64()
                    .ok_or("shard without window.objects")?,
                records: s["feed"]["stats"]["records"].as_u64().unwrap_or(0),
                swaps: s["swaps"].as_u64().ok_or("shard without swaps")?,
            })
        })
        .collect()
}

/// `GET /v1/shards`, requiring a 200.
pub fn shards(client: &mut Client) -> Result<Vec<ShardView>, String> {
    let (status, body) = client
        .get("/v1/shards")
        .map_err(|e| format!("/v1/shards: {e}"))?;
    if status != 200 {
        return Err(format!("/v1/shards answered {status}"));
    }
    parse_shards(&body)
}

/// Polls `/v1/shards` until `done` holds, returning the time it first
/// did; an error after [`SETTLE`].
pub fn wait_for(
    client: &mut Client,
    pause: Duration,
    mut done: impl FnMut(&[ShardView]) -> bool,
) -> Result<Instant, String> {
    let deadline = Instant::now() + SETTLE;
    loop {
        let view = shards(client)?;
        let now = Instant::now();
        if done(&view) {
            return Ok(now);
        }
        if now > deadline {
            return Err(format!("fleet did not settle; last /v1/shards: {view:?}"));
        }
        std::thread::sleep(pause);
    }
}
