//! `trajmine` subcommand implementations.

use crate::args::Args;
use crate::input::{dr_config, load, load_with_policy, parse_bbox, parse_policy};
use datagen::{observe_directly, BusConfig, PostureConfig, UniformConfig, ZebraConfig};
use std::error::Error;
use trajfeed::{FeedOptions, FeedStats, SourceSpec};
use trajgeo::{Grid, Point2};
use trajpattern::{Miner, MiningParams};
use trajstream::StreamMiner;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
trajmine — TrajPattern reproduction CLI

USAGE:
  trajmine generate --workload <bus|zebranet|uniform|posture|dr-feed>
                    --out FILE [--seed N] [--sigma F] [--traces N]
                    [--snapshots N] [--routes N] [--geo LAT,LON]
  trajmine stats    --input FILE
  trajmine validate --input FILE [--max-sigma F] [--min-len N]
  trajmine mine     --input FILE | --db DIR [--from-id N] [--to-id N]
                    [--from-t N] [--to-t N] [--save-snapshot NAME]
                    --k N [--delta F] [--grid N] [--min-len N]
                    [--max-len N] [--gamma F] [--threads N] [--velocity true]
                    [--bbox X0,Y0,X1,Y1] [--map true] [--json FILE]
                    [--on-error strict|skip|repair]
                    [--checkpoint FILE] [--resume FILE]
  trajmine stream   --input SOURCE | --db DIR [--from-id N] [--to-id N]
                    [--from-t N] [--to-t N]
                    --window N [--emit-every M] [--k N]
                    [--delta F] [--grid N] [--bbox X0,Y0,X1,Y1] [--min-len N]
                    [--max-len N] [--gamma F] [--threads N] [--json FILE]
                    [--follow true] [--poll-ms N] [--on-error strict|skip|repair]
                    [--dr-u F] [--dr-c F] [--dr-growth F] [--dr-dt F]
                    [--checkpoint FILE] [--resume FILE]
  trajmine feed decode --input SOURCE --out FILE
                    [--on-error strict|skip|repair]
                    [--dr-u F] [--dr-c F] [--dr-growth F] [--dr-dt F]
  trajmine feed send --input FILE --listen HOST:PORT
                    [--accept N] [--delay-ms N] [--eof false]
  trajmine serve    --snapshot FILE | --db DIR --name NAME
                    [--addr HOST:PORT] [--workers N]
                    [--queue N] [--threads N] [--confirm F] [--watch true]
                    [--watch-interval-ms N] [--read-timeout-ms N]
                    [--write-timeout-ms N]
  trajmine serve    --live true --shards NAME=SOURCE,... | --db ROOT
                    [--checkpoint-dir DIR] [--poll-ms N] [--window N]
                    [--k N] [--delta F] [--grid N] [--bbox X0,Y0,X1,Y1]
                    [--min-len N] [--max-len N] [--gamma F]
                    [--addr HOST:PORT] [--workers N] [--queue N]
                    [--threads N] [--confirm F] [--on-error strict|skip|repair]
                    [--dr-u F] [--dr-c F] [--dr-growth F] [--dr-dt F]
  trajmine query prange --input FILE | --db DIR --p X,Y --delta F --t F
                        [--tau F] [--growth-rate F] [--brute true]
  trajmine query pnn    --input FILE | --db DIR --p X,Y --t F --k N
                        [--delta F] [--tau F] [--growth-rate F] [--brute true]
  trajmine db ingest  --db DIR --input FILE [--batch N] [--t N]
                      [--fsync always|every:N|never] [--segment-max-bytes N]
  trajmine db stat    --db DIR [--verify true]
  trajmine db compact --db DIR
  trajmine db export  --db DIR --out FILE [--from-id N] [--to-id N]
                      [--from-t N] [--to-t N]

Dataset files ending in .csv use the CSV schema `traj_id,snapshot,x,y,sigma`;
files ending in .events use the trajstream event-log format (one arriving
trajectory per line); anything else is JSON. `generate` observes
ground-truth paths with Gaussian noise --sigma (default 0.01) and emits an
event log when --out ends in .events. `generate --workload dr-feed`
instead emits a raw dead-reckoning message log (`trajfeed-dr v1`):
--routes trips (default 3), --traces vehicles, --snapshots reports per
vehicle; --geo LAT,LON anchors the log at a WGS84 origin and emits
lat/lon shapes for the geodetic decode path. `mine` lays an N×N grid (default 16)
over the dataset's bounding box (or --bbox, to pin the grid independently
of the data); --velocity true mines velocity trajectories instead of
locations; --gamma enables pattern-group discovery; --map true prints an
ASCII density map with the top pattern overlaid; --threads sets the scorer
worker count (0 = one per core; any value gives bit-identical results).
--on-error controls damaged-input handling: strict (default) aborts on the
first defect, skip drops bad CSV rows, .events lines and trajectories,
repair additionally fixes recoverable values; for CSV input, skip and
repair print an ingest report to stderr.
--checkpoint FILE saves resumable state after every growth level;
--resume FILE continues an interrupted run (the data and parameters must
match the checkpointed run) with bit-identical results.

`db` manages an embedded crash-safe trajectory store: an append-only
directory of CRC-checksummed segment files plus an atomically-replaced
manifest. `db ingest` appends a dataset as batches of --batch (default
64) trajectories; --fsync picks the durability/throughput trade
(always = no acknowledged batch is ever lost; every:N = at most the
last N-1 batches; never = the OS decides; default every:8). Opening a
store recovers it: torn or garbage tail bytes in the active segment are
truncated back to the last valid checksum, and files stranded by an
interrupted compaction are swept — `db stat` reports what recovery
found, and --verify true re-checksums every sealed segment. `db export`
writes records back out (format by extension, like generate --out),
optionally sliced by record id and batch timestamp. `mine --db DIR`,
`stream --db DIR`, and `serve --db DIR --name NAME` read from a store
instead of a file; `mine --save-snapshot NAME` persists the mining
output durably into the store, where serve picks it up.

Every streaming consumer (`stream`, `serve --live` shard specs, `feed
decode`) names its source with one spec syntax: `path.events` (event
log), `path.drlog` or `dr:PATH` (dead-reckoning log), `tcp://host:port`
(the event-log protocol over a live socket), `dr+tcp://host:port`
(dead-reckoning over a socket); `--db DIR` polls a trajdb store by
record-id cursor. Dead-reckoning logs carry per-trip route shapes plus
odometer reports, optionally geodetic (a `geo lat0 lon0` header decodes
lat/lon via a local equirectangular projection); the server reconstructs
trajectories per the paper's §3.1/§3.2 — positions interpolated onto the
snapshot lattice (--dr-dt, default 1), σ = U/c with U growing while a
vehicle is silent (--dr-u, --dr-c, --dr-growth). Socket feeds reconnect
with bounded backoff and discard torn partial lines (counted in feed
stats). `feed decode` drains any file source into a dataset file —
what a live consumer would have mined, materialized offline. --on-error
applies the same strict/skip/repair sanitize stage to every source.
`feed send` is the matching transmitter: it binds --listen, accepts
--accept connections (default 1) one at a time, and streams a log file
to each (--delay-ms throttles per line) — socket sources are connecting
clients, so this is how to demo or smoke-test `tcp://` feeds end to end.
It appends the `# eof` terminator when the file lacks one (a close
without it reads as a transport failure and the consumer reconnects);
--eof false suppresses that, for exercising reconnect paths.

`stream` replays (or, with --follow true, tails) an append-only .events log
through the incremental sliding-window miner: the last --window arrivals
stay live, and after every event the maintained top-k is bit-identical to
`mine` over the window contents. Grids need fixing before data arrives, so
--bbox defaults to the unit square 0,0,1,1. Every --emit-every arrivals a
top-k snapshot is printed to stdout as one JSON line; the final snapshot is
also written to --json FILE. --follow true keeps polling the log for
appended events every --poll-ms (default 50) until a `# eof` line
arrives. SIGINT/SIGTERM drain cleanly:
the loop stops at the next event boundary, flushes the final checkpoint,
and exits 0. --checkpoint FILE saves the stream state (window +
contribution ledger) after every emission and at the end; --resume FILE
(typically the same file) restores it and skips already-processed
events, continuing bit-identically — if the file does not exist yet, the
stream starts fresh.

`serve` loads a pattern snapshot — `mine --json` output or a `stream`
--checkpoint file — and answers HTTP/1.1 queries over it until SIGTERM or
SIGINT: GET /v1/topk (the snapshot), POST /v1/score (NM of every snapshot
pattern over a posted dataset, bit-identical to the library scorer),
POST /v1/match (best pattern + pattern-group for a partial trajectory),
POST /v1/predict (next-cell distribution; --confirm sets the confirmation
threshold, default 0.9), GET /healthz, and GET /metrics (plain-text
counters: requests, latency buckets, queue depth, scorer stats). The
POST routes share one query schema: `{\"trajectories\": [...],
\"options\": {\"measure\", \"patterns\"}}` — a plain
dataset JSON works as-is; errors come back as
`{\"error\": {\"code\", \"message\"}}`. The accept queue is bounded
(--queue, default 64) and answers 503 when full;
--workers (default 2) sets the handler pool; termination signals drain
in-flight requests before exit. --watch true hot-reloads the snapshot
whenever the file is rewritten (e.g. by a live `stream --checkpoint`
run).

`serve --live true` serves a sharded live fleet instead of one static
snapshot: each shard (from --shards name=log.events,... or every
ROOT/shards/<name>/ store under --db ROOT) runs its own sliding-window
stream miner — same --window/--k/--delta/... knobs as `stream` — and
atomically swaps a pre-serialized snapshot into the router whenever its
certified top-k changes, so GET /v1/topk?shard=NAME stays a pre-rendered
read and is bit-identical to `mine` over that shard's window. GET
/v1/topk with no shard (or shard=*) answers the deterministic cross-
shard merge (NM desc, pattern asc, ties to the first shard in sorted
name order); GET /v1/shards lists per-shard state (including each
window's object count and time bounds); /metrics adds per-shard labeled
counters. Scoring POST routes need ?shard=NAME in live mode. Each shard
checkpoints (--checkpoint-dir, or the shard store itself) on every swap
and at drain, so a relaunch resumes bit-identically.

`query prange` / `query pnn` answer probabilistic object queries offline
over a dataset file or store: prange returns every object whose §3.1
snapshot (interpolated to --t, with σ growing by --growth-rate per unit
of elapsed time) lies within --delta of --p with probability >= --tau;
pnn returns the --k most probable such objects. Results rank by
probability descending, ties by object id (dataset position). The same
queries are served live as POST /v1/prange and /v1/pnn — body
`{\"p\": [x, y], \"delta\", \"t\", \"tau\", \"k\", \"trajectories\"}` in
static mode, shard windows (with ?shard=NAME or deterministic fan-out
merge) in live mode — plus POST /v1/matchlive (`{\"pattern\": [cells],
\"threshold\"}`) for NM pattern matching over the live windows. A
σ-expanded-bbox index prunes candidates; `query --brute true` scans
instead, bit-identically.";

/// Runs the subcommand in `args`.
pub fn dispatch(args: &Args) -> Result<(), Box<dyn Error>> {
    match args.command.as_str() {
        "generate" => generate(args),
        "stats" => stats(args),
        "validate" => validate(args),
        "mine" => mine_cmd(args),
        "stream" => stream_cmd(args),
        "serve" => serve_cmd(args),
        "feed decode" => feed_decode(args),
        "feed send" => feed_send(args),
        "db ingest" => crate::db::ingest(args),
        "db stat" => crate::db::stat(args),
        "db compact" => crate::db::compact(args),
        "db export" => crate::db::export(args),
        "query prange" => crate::query::prange(args),
        "query pnn" => crate::query::pnn(args),
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}").into()),
    }
}

fn generate(args: &Args) -> Result<(), Box<dyn Error>> {
    let workload = args.require("workload")?;
    let out = args.require("out")?.to_string();
    let seed: u64 = args.get_or("seed", 1u64)?;
    let sigma: f64 = args.get_or("sigma", 0.01f64)?;
    let snapshots: usize = args.get_or("snapshots", 100usize)?;
    let traces: usize = args.get_or("traces", 100usize)?;

    if workload == "dr-feed" {
        // Raw dead-reckoning message log, not a finished dataset: route
        // shapes plus odometer reports the feed spine reconstructs
        // server-side. --traces is the fleet size, --snapshots the
        // reports per vehicle; --geo lat,lon emits the geodetic variant.
        let routes: usize = args.get_or("routes", 3usize)?;
        let geo_origin = match args.get("geo") {
            None => None,
            Some(s) => {
                let parts: Vec<f64> = s
                    .split(',')
                    .map(|p| p.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid --geo '{s}' (use lat,lon)"))?;
                if parts.len() != 2 {
                    return Err(format!("invalid --geo '{s}' (use lat,lon)").into());
                }
                Some((parts[0], parts[1]))
            }
        };
        let cfg = datagen::DrFeedConfig {
            routes,
            vehicles_per_route: (traces / routes.max(1)).max(1),
            reports_per_vehicle: snapshots.max(2),
            extent: if geo_origin.is_some() { 2000.0 } else { 1.0 },
            geo_origin,
            ..datagen::DrFeedConfig::default()
        };
        let text = datagen::dr_log(&cfg, seed);
        trajio::write_atomic(std::path::Path::new(&out), &text)?;
        eprintln!(
            "wrote dead-reckoning log: {} routes x {} vehicles, {} reports each{} to {out}",
            cfg.routes,
            cfg.vehicles_per_route,
            cfg.reports_per_vehicle,
            if cfg.geo_origin.is_some() {
                " (geodetic)"
            } else {
                ""
            },
        );
        return Ok(());
    }

    let paths: Vec<Vec<Point2>> = match workload {
        "bus" => {
            let mut cfg = BusConfig {
                snapshots,
                ..BusConfig::default()
            };
            // Scale the fleet to approximately the requested trace count.
            cfg.days = (traces / (cfg.num_routes * cfg.buses_per_route)).max(1);
            let mut p = cfg.paths_interleaved(seed);
            p.truncate(traces);
            p
        }
        "zebranet" => {
            let cfg = ZebraConfig {
                num_groups: (traces / 10).max(1),
                zebras_per_group: 10.min(traces.max(1)),
                snapshots,
                ..ZebraConfig::default()
            };
            let mut p = cfg.paths(seed);
            p.truncate(traces);
            p
        }
        "uniform" => UniformConfig {
            num_objects: traces,
            snapshots,
            ..UniformConfig::default()
        }
        .paths(seed),
        "posture" => PostureConfig {
            num_subjects: traces,
            snapshots,
            ..PostureConfig::default()
        }
        .paths(seed),
        other => return Err(format!("unknown workload '{other}'").into()),
    };
    let data = observe_directly(&paths, sigma, seed ^ 0x0b5e);
    let text = if out.ends_with(".csv") {
        trajdata::csv::to_csv(&data)
    } else if out.ends_with(".events") {
        datagen::event_log(&data)
    } else {
        data.to_json()
    };
    trajio::write_atomic(std::path::Path::new(&out), &text)?;
    eprintln!(
        "wrote {} trajectories ({} snapshots each) to {out}",
        data.len(),
        snapshots
    );
    Ok(())
}

fn stats(args: &Args) -> Result<(), Box<dyn Error>> {
    // `.events` logs go through the tail-recovering parser so a torn or
    // garbage tail is reported instead of aborting the whole summary.
    let input = args.require("input")?;
    let data = if input.ends_with(".events") {
        let raw = std::fs::read_to_string(input)?;
        let rec = trajdata::eventlog::recover_event_log(&raw)?;
        println!("log tail      : {}", rec.scan.verdict);
        rec.events.into_iter().collect()
    } else {
        load(args)?
    };
    match data.stats() {
        None => println!("empty dataset"),
        Some(s) => {
            println!("trajectories : {}", s.num_trajectories);
            println!("snapshots    : {} total", s.total_snapshots);
            println!(
                "lengths      : avg {:.1}, min {}, max {}",
                s.avg_len, s.min_len, s.max_len
            );
            println!("avg sigma    : {:.5}", s.avg_sigma);
            if let Some(b) = data.bounding_box() {
                println!(
                    "bounding box : ({:.4}, {:.4}) – ({:.4}, {:.4})",
                    b.min().x,
                    b.min().y,
                    b.max().x,
                    b.max().y
                );
            }
        }
    }
    Ok(())
}

/// Checks dataset invariants and prints a report; exits with an error if
/// any check fails. Catches the common data-preparation mistakes before
/// they surface as baffling mining output: inconsistent lengths (a sign
/// of truncated exports), absurd sigmas (unit confusion), and degenerate
/// spatial extent (wrong column order).
fn validate(args: &Args) -> Result<(), Box<dyn Error>> {
    let data = load(args)?;
    let max_sigma: f64 = args.get_or("max-sigma", 1.0f64)?;
    let min_len: usize = args.get_or("min-len", 2usize)?;
    let mut problems: Vec<String> = Vec::new();

    if data.is_empty() {
        problems.push("dataset has no trajectories".into());
    }
    for (i, t) in data.iter().enumerate() {
        if t.len() < min_len {
            problems.push(format!(
                "trajectory {i} has {} snapshots (< {min_len})",
                t.len()
            ));
        }
        for (j, sp) in t.points().iter().enumerate() {
            if sp.sigma > max_sigma {
                problems.push(format!(
                    "trajectory {i} snapshot {j}: sigma {} exceeds --max-sigma {max_sigma}",
                    sp.sigma
                ));
            }
        }
    }
    if let Some(b) = data.bounding_box() {
        let span = b.width().max(b.height());
        if span < 1e-9 {
            problems.push("all snapshots coincide (degenerate bounding box)".into());
        }
        let aspect = b.width().max(b.height()) / b.width().min(b.height()).max(1e-300);
        if aspect > 1e3 {
            problems.push(format!(
                "extreme aspect ratio {aspect:.0}:1 — check coordinate columns"
            ));
        }
    }

    // Cap the report to keep it readable.
    const MAX_REPORT: usize = 20;
    for p in problems.iter().take(MAX_REPORT) {
        println!("problem: {p}");
    }
    if problems.len() > MAX_REPORT {
        println!("… and {} more", problems.len() - MAX_REPORT);
    }
    if problems.is_empty() {
        println!("ok: {} trajectories pass all checks", data.len());
        Ok(())
    } else {
        Err(format!("{} validation problem(s)", problems.len()).into())
    }
}

fn mine_cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    let policy = parse_policy(args)?;
    let store = match args.get("db") {
        Some(_) => Some(crate::db::open_store(args)?),
        None => None,
    };
    let (mut data, report) = match &store {
        Some(store) => (store.read_dataset(&crate::db::read_filter(args)?)?, None),
        None => load_with_policy(args, policy)?,
    };
    if let Some(r) = &report {
        if !r.is_clean() {
            eprintln!("ingest: {r}");
        }
    }
    let grid_side: u32 = args.get_or("grid", 16u32)?;
    let velocity: bool = args.get_or("velocity", false)?;

    if velocity {
        data = data.to_velocity().map_err(trajpattern::Error::from)?;
    }
    let bbox = match args.get("bbox") {
        Some(s) => parse_bbox(s)?,
        None => data
            .bounding_box()
            .ok_or("dataset has no snapshots to mine")?,
    };
    let grid = Grid::new(bbox, grid_side, grid_side).map_err(trajpattern::Error::from)?;
    let params = mining_params(args, &grid)?;

    let mut miner = Miner::new(&data, &grid).params(params.clone());
    if let Some(path) = args.get("checkpoint") {
        miner = miner.checkpoint(path);
    }
    if let Some(path) = args.get("resume") {
        miner = miner.resume(path);
    }
    let out = miner.mine()?;
    println!(
        "mined {} patterns in {} iterations ({} candidates scored)",
        out.patterns.len(),
        out.stats.iterations,
        out.stats.candidates_scored
    );
    if out.stats.degraded_shard_rescores > 0 {
        eprintln!(
            "note: degraded run — {} scorer shard(s) panicked and were rescored \
             sequentially; results are still exact",
            out.stats.degraded_shard_rescores
        );
    }
    for (i, m) in out.patterns.iter().enumerate() {
        let pts = m.pattern.centers(&grid);
        let path: Vec<String> = pts
            .iter()
            .map(|p| format!("({:.3},{:.3})", p.x, p.y))
            .collect();
        println!(
            "#{:<3} nm {:>10.2}  len {}  {}",
            i + 1,
            m.nm,
            m.pattern.len(),
            path.join(" ")
        );
    }
    if args.get_or("map", false)? {
        let overlay = out.patterns.first().map(|m| &m.pattern);
        print!("{}", crate::render::render_map(&data, &grid, overlay));
    }
    if !out.groups.is_empty() {
        println!("pattern groups ({}):", out.groups.len());
        for (i, g) in out.groups.iter().enumerate() {
            println!(
                "  group {:<3} {} patterns, representative nm {:.2}",
                i + 1,
                g.len(),
                g.representative().nm
            );
        }
    }
    if args.get("json").is_some() || args.get("save-snapshot").is_some() {
        let payload = crate::render::mining_json(&out, &grid, &params);
        let text = serde_json::to_string_pretty(&payload)?;
        if let Some(json_path) = args.get("json") {
            trajio::write_atomic(std::path::Path::new(json_path), &text)?;
            eprintln!("wrote {json_path}");
        }
        if let Some(name) = args.get("save-snapshot") {
            let store = store.as_ref().ok_or("--save-snapshot requires --db")?;
            let path = store.put_snapshot(name, &text)?;
            eprintln!("saved snapshot '{name}' to {}", path.display());
        }
    }
    Ok(())
}

/// `trajmine feed decode`: drain any file feed source — an `.events`
/// log, or a dead-reckoning log reconstructed server-side with the
/// `--dr-*` knobs — into a dataset file (format by `--out` extension,
/// like `generate --out`). This is the offline face of the feed spine:
/// the written dataset is bit-identical to what `stream` or a live
/// shard would have mined from the same source.
fn feed_decode(args: &Args) -> Result<(), Box<dyn Error>> {
    let out = args.require("out")?.to_string();
    let spec = SourceSpec::parse(args.require("input")?);
    if matches!(spec, SourceSpec::EventsTcp(_) | SourceSpec::DrTcp(_)) {
        return Err("feed decode reads file sources; socket feeds are stream-only".into());
    }
    let opts = FeedOptions {
        policy: parse_policy(args)?,
        dr: dr_config(args)?,
        ..FeedOptions::default()
    };
    let mut feed = trajfeed::open(&spec, &opts)?;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let data: trajdata::Dataset = trajfeed::drain(feed.as_mut(), &stop)?.into_iter().collect();
    let fs = feed.stats();
    let text = if out.ends_with(".csv") {
        trajdata::csv::to_csv(&data)
    } else if out.ends_with(".events") {
        datagen::event_log(&data)
    } else {
        data.to_json()
    };
    let reconstructed = fs.reconstructed;
    let resampled = fs.resampled_points;
    trajio::write_atomic(std::path::Path::new(&out), &text)?;
    eprintln!(
        "decoded {} trajectories from {spec} to {out} \
         ({reconstructed} reconstructed, {resampled} resampled points)",
        data.len()
    );
    Ok(())
}

/// `trajmine feed send`: serve a feed log file over TCP, line by line.
///
/// The socket sources ([`trajfeed::TcpLineSource`]) are *connecting*
/// clients, so exercising `tcp://` / `dr+tcp://` specs needs something
/// listening with the log bytes — this is that something: bind
/// `--listen`, accept `--accept` connections (default 1) one at a time,
/// and stream the file to each, optionally throttled by `--delay-ms`
/// per line to simulate a live feed. A log ending in `# eof` makes the
/// consumer finish cleanly; more `--accept`s than one let reconnect
/// paths replay the log.
fn feed_send(args: &Args) -> Result<(), Box<dyn Error>> {
    use std::io::Write;

    let input = args.require("input")?.to_string();
    let listen = args.require("listen")?.to_string();
    let accepts: usize = args.get_or("accept", 1usize)?;
    let delay_ms: u64 = args.get_or("delay-ms", 0u64)?;
    let mut text = std::fs::read_to_string(&input)?;
    // Closing a socket without `# eof` reads as a transport failure and
    // the consumer reconnects; terminate the protocol properly unless
    // the caller is deliberately testing that path (--eof false).
    if args.get_or("eof", true)? && text.lines().last() != Some("# eof") {
        if !text.ends_with('\n') && !text.is_empty() {
            text.push('\n');
        }
        text.push_str("# eof\n");
    }
    let listener = std::net::TcpListener::bind(&listen)?;
    eprintln!(
        "serving {input} on {} ({accepts} connection{})",
        listener.local_addr()?,
        if accepts == 1 { "" } else { "s" },
    );
    for _ in 0..accepts.max(1) {
        let (mut conn, peer) = listener.accept()?;
        eprintln!("feed send: streaming to {peer}");
        let sent = (|| -> std::io::Result<()> {
            for line in text.split_inclusive('\n') {
                conn.write_all(line.as_bytes())?;
                if delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
            }
            conn.flush()
        })();
        match sent {
            Ok(()) => eprintln!("feed send: done with {peer}"),
            // A consumer hanging up early (it saw what it needed, or
            // it is testing reconnects) is not our failure.
            Err(e) => eprintln!("feed send: {peer} disconnected ({e})"),
        }
    }
    Ok(())
}

/// `trajmine serve`: load a snapshot (mine JSON or stream checkpoint)
/// and answer pattern queries over HTTP until a termination signal.
fn serve_cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    use std::time::Duration;

    if args.get_or("live", false)? {
        return crate::live::serve_live(args);
    }

    let snapshot_path = match (args.get("snapshot"), args.get("db")) {
        (Some(path), None) => std::path::PathBuf::from(path),
        (None, Some(dir)) => {
            let name = args.require("name")?;
            trajdb::Store::snapshot_path_in(std::path::Path::new(dir), name)?
        }
        (Some(_), Some(_)) => return Err("pass either --snapshot or --db, not both".into()),
        (None, None) => return Err("serve needs --snapshot FILE or --db DIR --name NAME".into()),
    };
    let cfg = trajserve::ServerConfig {
        watch: args.get_or("watch", false)?,
        watch_interval: Duration::from_millis(args.get_or("watch-interval-ms", 500u64)?),
        snapshot_path: Some(snapshot_path.clone()),
        ..server_config(args)?
    };

    let snapshot = trajserve::Snapshot::load(&snapshot_path)?;
    eprintln!(
        "loaded {}: {} patterns, {} groups{}",
        snapshot_path.display(),
        snapshot.patterns.len(),
        snapshot.groups.len(),
        if snapshot.stream.is_some() {
            " (stream checkpoint)"
        } else {
            ""
        }
    );
    let server = trajserve::Server::bind(snapshot, cfg.clone())?;
    let addr = server.local_addr()?;
    eprintln!(
        "trajserve listening on http://{addr} ({} workers, queue {}{})",
        cfg.workers,
        cfg.queue,
        if cfg.watch { ", watching snapshot" } else { "" }
    );

    shutdown_on_signal(
        server.handle(),
        "termination signal received: draining in-flight requests",
    );
    server.run()?;
    eprintln!("trajserve stopped cleanly");
    Ok(())
}

/// `trajmine stream`: replay or tail any feed source — an append-only
/// `.events` log, a dead-reckoning log, a trajdb store, or either line
/// protocol over TCP — through the incremental sliding-window miner.
/// Every source runs the same [`trajfeed::pump`] loop.
fn stream_cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    let use_db = args.get("db").is_some();
    if use_db && args.get("input").is_some() {
        return Err("pass either --input or --db, not both".into());
    }
    let window: u64 = args.get_or("window", 64u64)?;
    if window == 0 {
        return Err("--window must be at least 1".into());
    }
    let emit_every: u64 = args.get_or("emit-every", 0u64)?;
    let follow: bool = args.get_or("follow", false)?;
    if use_db && follow {
        return Err("--follow tails a file source; it cannot be combined with --db".into());
    }
    let spec = if use_db {
        SourceSpec::Db(std::path::PathBuf::from(args.require("db")?))
    } else {
        SourceSpec::parse(args.require("input")?)
    };
    let opts = FeedOptions {
        follow,
        poll: stream_poll_interval(args)?,
        policy: parse_policy(args)?,
        dr: dr_config(args)?,
        db_filter: crate::db::read_filter(args)?,
        ..FeedOptions::default()
    };
    let (grid, params) = stream_mining_setup(args)?;

    let mut miner = match args.get("resume") {
        Some(path) if std::path::Path::new(path).exists() => {
            let m = StreamMiner::resume(std::path::Path::new(path))?;
            eprintln!(
                "resumed from {path}: {} arrivals processed, window {}",
                m.stats().arrivals,
                m.stats().window_len
            );
            m
        }
        _ => StreamMiner::new(grid, params).map_err(trajpattern::Error::from)?,
    };
    let skip = miner.next_seq();
    let checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);

    // A termination signal flips the shared flag instead of killing the
    // process: the pump loop notices, drains what it already absorbed,
    // flushes the final checkpoint, and exits 0 — the same signal-flag
    // pattern `serve` uses for in-flight requests.
    trajserve::signal::install_termination_handler();
    let stop = trajserve::signal::termination_flag();

    let mut feed = trajfeed::open(&spec, &opts)?;
    let pumped = trajfeed::pump(
        feed.as_mut(),
        &stop,
        skip,
        |traj| {
            miner.slide(traj, window);
            emit_snapshot(&miner, emit_every, checkpoint_path.as_deref())
        },
        |_| {},
    );
    let feed_stats = feed.stats().clone();
    drop(feed);
    match pumped {
        Ok(_) => {}
        Err(trajfeed::PumpError::Feed(e)) => return Err(Box::new(e)),
        Err(trajfeed::PumpError::Sink(e)) => return Err(e),
    }
    if stop.load(std::sync::atomic::Ordering::SeqCst) {
        eprintln!("termination signal received: draining stream state");
    }

    finish_stream(
        args,
        &mut miner,
        checkpoint_path.as_deref(),
        Some(&feed_stats),
    )
}

/// Prints the periodic top-k snapshot line (and refreshes the
/// checkpoint) when the arrival count hits an `--emit-every` boundary.
fn emit_snapshot(
    miner: &StreamMiner,
    emit_every: u64,
    checkpoint_path: Option<&std::path::Path>,
) -> Result<(), Box<dyn Error>> {
    if emit_every > 0 && miner.stats().arrivals.is_multiple_of(emit_every) {
        println!(
            "{}",
            serde_json::to_string(&crate::render::stream_json(miner))?
        );
        if let Some(path) = checkpoint_path {
            miner.checkpoint(path)?;
        }
    }
    Ok(())
}

/// The poll interval shared by `stream --follow` and the live fleet
/// ingesters: `--poll-ms` (default 50).
pub(crate) fn stream_poll_interval(args: &Args) -> Result<std::time::Duration, Box<dyn Error>> {
    Ok(std::time::Duration::from_millis(
        args.get_or("poll-ms", 50u64)?,
    ))
}

/// Builds the mining parameters `mine`, `stream` and `serve --live` share
/// from `--k`, `--delta` (default: half the smaller cell side of `grid`),
/// `--min-len`, `--max-len`, `--gamma` and `--threads`.
fn mining_params(args: &Args, grid: &Grid) -> Result<MiningParams, Box<dyn Error>> {
    let k: usize = args.get_or("k", 10usize)?;
    let default_delta = grid.cell_width().min(grid.cell_height()) * 0.5;
    let delta: f64 = args.get_or("delta", default_delta)?;
    let min_len: usize = args.get_or("min-len", 1usize)?;
    let max_len: usize = args.get_or("max-len", 8usize)?;

    let mut params = MiningParams::new(k, delta)
        .and_then(|p| p.with_min_len(min_len))
        .and_then(|p| p.with_max_len(max_len))
        .map_err(trajpattern::Error::from)?;
    if let Some(g) = args.get("gamma") {
        let gamma: f64 = g
            .parse()
            .map_err(|_| format!("invalid --gamma value '{g}'"))?;
        params = params.with_gamma(gamma).map_err(trajpattern::Error::from)?;
    }
    params.threads = args.get_or("threads", 1usize)?;
    Ok(params)
}

/// Builds the fixed grid and mining parameters `stream` and
/// `serve --live` share (`--bbox` defaults to the unit square — the
/// grid must exist before any data arrives).
pub(crate) fn stream_mining_setup(args: &Args) -> Result<(Grid, MiningParams), Box<dyn Error>> {
    let grid_side: u32 = args.get_or("grid", 16u32)?;
    let bbox = parse_bbox(args.get("bbox").unwrap_or("0,0,1,1"))?;
    let grid = Grid::new(bbox, grid_side, grid_side).map_err(trajpattern::Error::from)?;
    let params = mining_params(args, &grid)?;
    Ok((grid, params))
}

/// The server settings `serve` and `serve --live` share, from `--addr`,
/// `--workers`, `--queue`, the `--*-timeout-ms` flags, `--threads`,
/// `--confirm` and `--allow-panic-injection`.
pub(crate) fn server_config(args: &Args) -> Result<trajserve::ServerConfig, Box<dyn Error>> {
    use std::time::Duration;
    Ok(trajserve::ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: args.get_or("workers", 2usize)?,
        queue: args.get_or("queue", 64usize)?,
        read_timeout: Duration::from_millis(args.get_or("read-timeout-ms", 5000u64)?),
        write_timeout: Duration::from_millis(args.get_or("write-timeout-ms", 5000u64)?),
        scorer_threads: args.get_or("threads", 1usize)?,
        confirm_threshold: args.get_or("confirm", 0.9f64)?,
        allow_panic_injection: args.get_or("allow-panic-injection", false)?,
        ..trajserve::ServerConfig::default()
    })
}

/// Flips the server's shutdown switch when SIGTERM/SIGINT arrives, after
/// printing `message`, so in-flight requests drain and `run` returns for
/// a clean exit 0.
pub(crate) fn shutdown_on_signal(handle: trajserve::ServerHandle, message: &'static str) {
    trajserve::signal::install_termination_handler();
    let flag = trajserve::signal::termination_flag();
    std::thread::spawn(move || {
        while !flag.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        eprintln!("{message}");
        handle.shutdown();
    });
}

/// Shared tail of `trajmine stream`: print the run summary and top-k,
/// write `--json` (including the feed's ingest counters), and take the
/// final checkpoint.
fn finish_stream(
    args: &Args,
    miner: &mut StreamMiner,
    checkpoint_path: Option<&std::path::Path>,
    feed_stats: Option<&FeedStats>,
) -> Result<(), Box<dyn Error>> {
    let s = miner.stats();
    eprintln!(
        "stream done: {} arrivals, {} evictions, window {}, {} ledger patterns, \
         {} repairs ({} candidates rescored), {} deltas",
        s.arrivals,
        s.evictions,
        s.window_len,
        s.ledger_patterns,
        s.repairs,
        s.repair_scored,
        s.deltas_applied
    );
    if let Some(fs) = feed_stats {
        eprintln!(
            "feed: {} records in {} batches, {} defect lines, {} dropped, {} repaired, \
             {} reconstructed ({} resampled points), {} reconnects",
            fs.records,
            fs.batches,
            fs.defect_lines,
            fs.defect_records,
            fs.repaired_records,
            fs.reconstructed,
            fs.resampled_points,
            fs.reconnects
        );
    }
    for (i, m) in miner.topk().iter().enumerate() {
        println!("#{:<3} nm {:>10.2}  len {}", i + 1, m.nm, m.pattern.len());
    }
    if let Some(json_path) = args.get("json") {
        let mut payload = crate::render::stream_json(miner);
        if let (Some(fs), serde_json::Value::Object(fields)) = (feed_stats, &mut payload) {
            fields.push(("feed".to_string(), serde_json::to_value(fs)?));
        }
        trajio::write_atomic(
            std::path::Path::new(json_path),
            &serde_json::to_string_pretty(&payload)?,
        )?;
        eprintln!("wrote {json_path}");
    }
    if let Some(path) = checkpoint_path {
        miner.checkpoint(path)?;
        eprintln!("checkpointed stream state to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::eventlog::EVENTS_VERSION_LINE;

    fn args(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string()).collect()).unwrap()
    }

    #[test]
    fn generate_stats_mine_round_trip() {
        let dir = std::env::temp_dir().join(format!("trajmine-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.json");
        let data_str = data_path.to_str().unwrap();

        dispatch(&args(&[
            "generate",
            "--workload",
            "uniform",
            "--traces",
            "5",
            "--snapshots",
            "20",
            "--out",
            data_str,
        ]))
        .unwrap();
        assert!(data_path.exists());

        dispatch(&args(&["stats", "--input", data_str])).unwrap();

        let json_path = dir.join("p.json");
        dispatch(&args(&[
            "mine",
            "--input",
            data_str,
            "--k",
            "3",
            "--grid",
            "6",
            "--max-len",
            "3",
            "--json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        let mined: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert_eq!(mined["patterns"].as_array().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_format_round_trips_through_cli() {
        let dir = std::env::temp_dir().join(format!("trajmine-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.csv");
        let data_str = data_path.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "posture",
            "--traces",
            "4",
            "--snapshots",
            "12",
            "--out",
            data_str,
        ]))
        .unwrap();
        let head: String = std::fs::read_to_string(&data_path)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        assert_eq!(head, "traj_id,snapshot,x,y,sigma");
        dispatch(&args(&["stats", "--input", data_str])).unwrap();
        dispatch(&args(&[
            "mine",
            "--input",
            data_str,
            "--k",
            "2",
            "--grid",
            "5",
            "--max-len",
            "2",
            "--map",
            "true",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dr_feed_workload_decodes_and_mines() {
        let dir = std::env::temp_dir().join(format!("trajmine-drgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("fleet.drlog");
        let log_str = log_path.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "dr-feed",
            "--routes",
            "2",
            "--traces",
            "6",
            "--snapshots",
            "10",
            "--out",
            log_str,
        ]))
        .unwrap();
        let log = std::fs::read_to_string(&log_path).unwrap();
        assert!(log.starts_with(trajfeed::DR_VERSION_LINE));
        assert!(log.trim_end().ends_with("# eof"));

        // The raw log decodes into a dataset the regular pipeline accepts.
        let decoded = dir.join("decoded.csv");
        dispatch(&args(&[
            "feed",
            "decode",
            "--input",
            log_str,
            "--out",
            decoded.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "mine",
            "--input",
            decoded.to_str().unwrap(),
            "--k",
            "2",
            "--grid",
            "5",
            "--max-len",
            "2",
        ]))
        .unwrap();

        // Geodetic variant carries the geo header.
        let geo_path = dir.join("geo.drlog");
        dispatch(&args(&[
            "generate",
            "--workload",
            "dr-feed",
            "--geo",
            "47.6062,-122.3321",
            "--out",
            geo_path.to_str().unwrap(),
        ]))
        .unwrap();
        let geo_log = std::fs::read_to_string(&geo_path).unwrap();
        assert!(geo_log.lines().nth(1).unwrap().starts_with("geo "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let dir = std::env::temp_dir().join(format!("trajmine-val-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        dispatch(&args(&[
            "generate",
            "--workload",
            "uniform",
            "--traces",
            "3",
            "--snapshots",
            "10",
            "--out",
            good.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&["validate", "--input", good.to_str().unwrap()])).unwrap();
        // Absurd sigma bound makes it fail.
        assert!(dispatch(&args(&[
            "validate",
            "--input",
            good.to_str().unwrap(),
            "--max-sigma",
            "0.000001"
        ]))
        .is_err());
        // A single-snapshot trajectory fails the length check.
        let bad = dir.join("bad.csv");
        std::fs::write(
            &bad,
            "traj_id,snapshot,x,y,sigma
0,0,0.5,0.5,0.01
",
        )
        .unwrap();
        assert!(dispatch(&args(&["validate", "--input", bad.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_on_error_skip_survives_damaged_csv() {
        let dir = std::env::temp_dir().join(format!("trajmine-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.csv");
        let mut text = String::from("traj_id,snapshot,x,y,sigma\n");
        for t in 0..6 {
            for s in 0..5 {
                text.push_str(&format!("{t},{s},0.{},0.5,0.01\n", s + 1));
            }
        }
        text.push_str("6,0,not-a-number,0.5,0.01\n"); // bad row
        text.push_str("6,1,0.2,0.5,0.01\n");
        std::fs::write(&bad, &text).unwrap();
        let base = [
            "mine",
            "--input",
            "",
            "--k",
            "2",
            "--grid",
            "5",
            "--max-len",
            "2",
        ];
        let mut strict = base.to_vec();
        strict[2] = bad.to_str().unwrap();
        assert!(dispatch(&args(&strict)).is_err());
        let mut skip = strict.clone();
        skip.extend(["--on-error", "skip"]);
        dispatch(&args(&skip)).unwrap();
        let mut repair = strict.clone();
        repair.extend(["--on-error", "repair"]);
        dispatch(&args(&repair)).unwrap();
        let mut bogus = strict.clone();
        bogus.extend(["--on-error", "explode"]);
        assert!(dispatch(&args(&bogus)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_decodes_damaged_events_like_feed_decode() {
        let dir = std::env::temp_dir().join(format!("trajmine-evskip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("good.events");
        dispatch(&args(&[
            "generate",
            "--workload",
            "zebranet",
            "--traces",
            "8",
            "--snapshots",
            "10",
            "--out",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        // Line 4 (the third event) no longer parses.
        let mut lines: Vec<String> = std::fs::read_to_string(&log)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines[0], EVENTS_VERSION_LINE);
        lines[3] = "t 0.1 oops 0.05".to_string();
        let bad = dir.join("bad.events");
        std::fs::write(&bad, lines.join("\n") + "\n").unwrap();
        let bad = bad.to_str().unwrap();
        let mine = |input: &str, json: &std::path::Path, policy: &str| {
            dispatch(&args(&[
                "mine",
                "--input",
                input,
                "--k",
                "3",
                "--grid",
                "6",
                "--max-len",
                "3",
                "--on-error",
                policy,
                "--json",
                json.to_str().unwrap(),
            ]))
        };

        let err = mine(bad, &dir.join("strict.json"), "strict").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");

        // `mine` over the damaged log equals `feed decode` then `mine`.
        let direct = dir.join("direct.json");
        mine(bad, &direct, "skip").unwrap();
        let decoded = dir.join("decoded.json");
        dispatch(&args(&[
            "feed",
            "decode",
            "--input",
            bad,
            "--on-error",
            "skip",
            "--out",
            decoded.to_str().unwrap(),
        ]))
        .unwrap();
        let via_decode = dir.join("via_decode.json");
        mine(decoded.to_str().unwrap(), &via_decode, "skip").unwrap();
        assert_eq!(
            std::fs::read_to_string(&direct).unwrap(),
            std::fs::read_to_string(&via_decode).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_checkpoint_then_resume_round_trips() {
        let dir = std::env::temp_dir().join(format!("trajmine-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.csv");
        let data_str = data_path.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "bus",
            "--traces",
            "6",
            "--snapshots",
            "12",
            "--out",
            data_str,
        ]))
        .unwrap();
        let ckpt = dir.join("run.ckpt");
        let ckpt_str = ckpt.to_str().unwrap();
        let common = [
            "mine",
            "--input",
            data_str,
            "--k",
            "3",
            "--grid",
            "5",
            "--max-len",
            "3",
        ];
        let mut with_ckpt = common.to_vec();
        with_ckpt.extend(["--checkpoint", ckpt_str]);
        dispatch(&args(&with_ckpt)).unwrap();
        assert!(ckpt.exists(), "checkpoint file must be written");
        let mut resumed = common.to_vec();
        resumed.extend(["--resume", ckpt_str]);
        dispatch(&args(&resumed)).unwrap();
        // Resuming under different parameters is rejected.
        let mut wrong = resumed.clone();
        wrong[4] = "4";
        assert!(dispatch(&args(&wrong)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_final_snapshot_matches_mine_on_same_window() {
        let dir = std::env::temp_dir().join(format!("trajmine-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("d.events");
        let events_str = events.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "bus",
            "--traces",
            "8",
            "--snapshots",
            "12",
            "--out",
            events_str,
        ]))
        .unwrap();
        assert!(std::fs::read_to_string(&events)
            .unwrap()
            .starts_with(EVENTS_VERSION_LINE));

        // Window covers the whole log, so `mine` over the same .events
        // input with the same pinned grid must agree bit-for-bit.
        let stream_json = dir.join("stream.json");
        dispatch(&args(&[
            "stream",
            "--input",
            events_str,
            "--window",
            "8",
            "--k",
            "3",
            "--grid",
            "6",
            "--max-len",
            "3",
            "--bbox",
            "0,0,1,1",
            "--emit-every",
            "3",
            "--json",
            stream_json.to_str().unwrap(),
        ]))
        .unwrap();
        let mine_json = dir.join("mine.json");
        dispatch(&args(&[
            "mine",
            "--input",
            events_str,
            "--k",
            "3",
            "--grid",
            "6",
            "--max-len",
            "3",
            "--bbox",
            "0,0,1,1",
            "--json",
            mine_json.to_str().unwrap(),
        ]))
        .unwrap();
        let streamed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stream_json).unwrap()).unwrap();
        let mined: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&mine_json).unwrap()).unwrap();
        assert_eq!(streamed["patterns"], mined["patterns"]);
        assert!(streamed["stream"]["arrivals"].as_u64().unwrap() == 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_checkpoint_resume_continues_bit_identically() {
        let dir = std::env::temp_dir().join(format!("trajmine-sckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let all = dir.join("all.events");
        dispatch(&args(&[
            "generate",
            "--workload",
            "zebranet",
            "--traces",
            "10",
            "--snapshots",
            "10",
            "--out",
            all.to_str().unwrap(),
        ]))
        .unwrap();
        // Split the log: first 6 events, then the full file.
        let text = std::fs::read_to_string(&all).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let partial = dir.join("partial.events");
        std::fs::write(&partial, lines[..7].join("\n") + "\n").unwrap();

        let ckpt = dir.join("stream.ckpt");
        let ckpt_str = ckpt.to_str().unwrap();
        let common = ["--window", "4", "--k", "3", "--grid", "5", "--max-len", "3"];
        // Pass 1: process the partial log, checkpointing at the end.
        let mut first = vec!["stream", "--input", partial.to_str().unwrap()];
        first.extend(common);
        first.extend(["--checkpoint", ckpt_str]);
        dispatch(&args(&first)).unwrap();
        assert!(ckpt.exists());
        // Pass 2: resume against the full log; already-processed events
        // are skipped.
        let resumed_json = dir.join("resumed.json");
        let mut second = vec!["stream", "--input", all.to_str().unwrap()];
        second.extend(common);
        second.extend([
            "--resume",
            ckpt_str,
            "--json",
            resumed_json.to_str().unwrap(),
        ]);
        dispatch(&args(&second)).unwrap();
        // Reference: one uninterrupted run over the full log.
        let straight_json = dir.join("straight.json");
        let mut straight = vec!["stream", "--input", all.to_str().unwrap()];
        straight.extend(common);
        straight.extend(["--json", straight_json.to_str().unwrap()]);
        dispatch(&args(&straight)).unwrap();
        let a: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&resumed_json).unwrap()).unwrap();
        let b: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&straight_json).unwrap()).unwrap();
        assert_eq!(a["patterns"], b["patterns"]);
        assert_eq!(a["stream"], b["stream"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn feed_send_streams_a_log_that_stream_mines_identically() {
        let dir = std::env::temp_dir().join(format!("trajmine-fsend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("w.events");
        let events_str = events.to_str().unwrap().to_string();
        dispatch(&args(&[
            "generate",
            "--workload",
            "bus",
            "--traces",
            "8",
            "--snapshots",
            "10",
            "--out",
            &events_str,
        ]))
        .unwrap();

        // Pick a free port by binding and dropping a listener first.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let listen = format!("127.0.0.1:{port}");
        let sender_args = args(&["feed", "send", "--input", &events_str, "--listen", &listen]);
        let sender = std::thread::spawn(move || dispatch(&sender_args).map_err(|e| e.to_string()));
        // Wait for the listener to come up before the client connects.
        std::thread::sleep(std::time::Duration::from_millis(100));

        let common = [
            "--window",
            "8",
            "--k",
            "3",
            "--grid",
            "6",
            "--max-len",
            "3",
            "--bbox",
            "0,0,1,1",
        ];
        let sock_json = dir.join("sock.json");
        let mut over_socket = vec!["stream", "--input"];
        let url = format!("tcp://{listen}");
        over_socket.push(&url);
        over_socket.extend(common);
        over_socket.extend(["--json", sock_json.to_str().unwrap()]);
        dispatch(&args(&over_socket)).unwrap();
        sender.join().unwrap().unwrap();

        let file_json = dir.join("file.json");
        let mut over_file = vec!["stream", "--input", &events_str];
        over_file.extend(common);
        over_file.extend(["--json", file_json.to_str().unwrap()]);
        dispatch(&args(&over_file)).unwrap();

        let a: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&sock_json).unwrap()).unwrap();
        let b: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&file_json).unwrap()).unwrap();
        assert_eq!(a["patterns"], b["patterns"]);
        assert_eq!(a["stream"], b["stream"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_rejects_bad_flags() {
        assert!(dispatch(&args(&["stream", "--input", "x.events", "--window", "0"])).is_err());
        assert!(dispatch(&args(&["stream", "--input", "x.events", "--bbox", "0,0,1"])).is_err());
        assert!(dispatch(&args(&["mine", "--input", "x.json", "--bbox", "bad"])).is_err());
    }

    #[test]
    fn serve_rejects_missing_or_bad_snapshot() {
        // --snapshot is required.
        assert!(dispatch(&args(&["serve"])).is_err());
        // A nonexistent snapshot fails before any socket is bound.
        assert!(dispatch(&args(&["serve", "--snapshot", "/nonexistent/snap.json"])).is_err());
        // Garbage snapshot content is rejected with a schema error.
        let dir = std::env::temp_dir().join(format!("trajmine-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"patterns\": []}").unwrap();
        assert!(dispatch(&args(&["serve", "--snapshot", bad.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_json_uses_snapshot_schema() {
        let dir = std::env::temp_dir().join(format!("trajmine-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.json");
        let data_str = data_path.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "uniform",
            "--traces",
            "4",
            "--snapshots",
            "15",
            "--out",
            data_str,
        ]))
        .unwrap();
        let json_path = dir.join("p.json");
        dispatch(&args(&[
            "mine",
            "--input",
            data_str,
            "--k",
            "2",
            "--grid",
            "5",
            "--max-len",
            "2",
            "--threads",
            "2",
            "--json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        // The written file is a valid, loadable trajserve snapshot that
        // records the parameters it was mined with.
        let snap = trajserve::Snapshot::load(&json_path).unwrap();
        assert_eq!(snap.patterns.len(), 2);
        assert_eq!(snap.params.threads, 2);
        assert!(snap.stream.is_none());
        let raw: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert_eq!(raw["schema"].as_str().unwrap(), trajserve::SCHEMA);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&args(&["frobnicate"])).is_err());
        assert!(dispatch(&args(&["db frobnicate"])).is_err());
    }

    #[test]
    fn db_ingest_stat_export_compact_round_trip() {
        let dir = std::env::temp_dir().join(format!("trajmine-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.json");
        let data_str = data_path.to_str().unwrap();
        let store = dir.join("store");
        let store_str = store.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "uniform",
            "--traces",
            "6",
            "--snapshots",
            "12",
            "--out",
            data_str,
        ]))
        .unwrap();

        dispatch(&args(&[
            "db", "ingest", "--db", store_str, "--input", data_str, "--batch", "2", "--fsync",
            "always",
        ]))
        .unwrap();
        dispatch(&args(&[
            "db", "stat", "--db", store_str, "--verify", "true",
        ]))
        .unwrap();
        dispatch(&args(&["db", "compact", "--db", store_str])).unwrap();

        // Export must round-trip the ingested dataset byte-identically
        // (JSON serialisation is deterministic and bit-exact).
        let out = dir.join("export.json");
        dispatch(&args(&[
            "db",
            "export",
            "--db",
            store_str,
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let original = std::fs::read_to_string(&data_path).unwrap();
        let exported = std::fs::read_to_string(&out).unwrap();
        assert_eq!(original, exported);

        // An id-range export slices by record id.
        let sliced = dir.join("slice.json");
        dispatch(&args(&[
            "db",
            "export",
            "--db",
            store_str,
            "--out",
            sliced.to_str().unwrap(),
            "--from-id",
            "2",
            "--to-id",
            "4",
        ]))
        .unwrap();
        let d = trajdata::Dataset::from_json(&std::fs::read_to_string(&sliced).unwrap()).unwrap();
        assert_eq!(d.len(), 3);

        // Bad flags are rejected.
        assert!(dispatch(&args(&[
            "db",
            "ingest",
            "--db",
            store_str,
            "--input",
            data_str,
            "--fsync",
            "sometimes",
        ]))
        .is_err());
        assert!(dispatch(&args(&[
            "db", "ingest", "--db", store_str, "--input", data_str, "--batch", "0",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_from_db_matches_mine_from_file() {
        let dir = std::env::temp_dir().join(format!("trajmine-dbmine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.json");
        let data_str = data_path.to_str().unwrap();
        let store = dir.join("store");
        let store_str = store.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "bus",
            "--traces",
            "6",
            "--snapshots",
            "12",
            "--out",
            data_str,
        ]))
        .unwrap();
        dispatch(&args(&[
            "db", "ingest", "--db", store_str, "--input", data_str,
        ]))
        .unwrap();

        let from_file = dir.join("file.json");
        let from_db = dir.join("db.json");
        let tail = [
            "--k",
            "3",
            "--grid",
            "6",
            "--max-len",
            "3",
            "--bbox",
            "0,0,1,1",
        ];
        let mut a = vec![
            "mine",
            "--input",
            data_str,
            "--json",
            from_file.to_str().unwrap(),
        ];
        a.extend(tail);
        dispatch(&args(&a)).unwrap();
        let mut b = vec![
            "mine",
            "--db",
            store_str,
            "--json",
            from_db.to_str().unwrap(),
            "--save-snapshot",
            "nightly",
        ];
        b.extend(tail);
        dispatch(&args(&b)).unwrap();
        let fa: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&from_file).unwrap()).unwrap();
        let fb: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&from_db).unwrap()).unwrap();
        assert_eq!(fa["patterns"], fb["patterns"]);

        // --save-snapshot persisted a loadable trajserve snapshot in the
        // store, exactly where serve --db would look for it.
        let snap_path = trajdb::Store::snapshot_path_in(&store, "nightly").unwrap();
        let snap = trajserve::Snapshot::load(&snap_path).unwrap();
        assert_eq!(snap.patterns.len(), 3);
        // --save-snapshot without --db is rejected.
        let mut c = vec!["mine", "--input", data_str, "--save-snapshot", "x"];
        c.extend(tail);
        assert!(dispatch(&args(&c)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_from_db_matches_stream_from_events() {
        let dir = std::env::temp_dir().join(format!("trajmine-dbstream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("d.events");
        let events_str = events.to_str().unwrap();
        let store = dir.join("store");
        let store_str = store.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "zebranet",
            "--traces",
            "8",
            "--snapshots",
            "10",
            "--out",
            events_str,
        ]))
        .unwrap();
        dispatch(&args(&[
            "db", "ingest", "--db", store_str, "--input", events_str, "--batch", "3",
        ]))
        .unwrap();

        let tail = ["--window", "4", "--k", "3", "--grid", "5", "--max-len", "3"];
        let from_events = dir.join("events.json");
        let from_db = dir.join("db.json");
        let mut a = vec![
            "stream",
            "--input",
            events_str,
            "--json",
            from_events.to_str().unwrap(),
        ];
        a.extend(tail);
        dispatch(&args(&a)).unwrap();
        let mut b = vec![
            "stream",
            "--db",
            store_str,
            "--json",
            from_db.to_str().unwrap(),
        ];
        b.extend(tail);
        dispatch(&args(&b)).unwrap();
        let fa: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&from_events).unwrap()).unwrap();
        let fb: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&from_db).unwrap()).unwrap();
        assert_eq!(fa["patterns"], fb["patterns"]);
        assert_eq!(fa["stream"], fb["stream"]);

        // Conflicting and unsupported flag combinations are rejected.
        assert!(dispatch(&args(&[
            "stream", "--db", store_str, "--input", events_str, "--window", "4",
        ]))
        .is_err());
        assert!(dispatch(&args(&[
            "stream", "--db", store_str, "--window", "4", "--follow", "true",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_resolves_snapshots_from_a_store() {
        // Without --snapshot or --db, and with both, serve refuses.
        assert!(dispatch(&args(&["serve"])).is_err());
        assert!(dispatch(&args(&[
            "serve",
            "--snapshot",
            "x.json",
            "--db",
            "store",
            "--name",
            "n",
        ]))
        .is_err());
        // --db without --name is missing a required flag.
        assert!(dispatch(&args(&["serve", "--db", "store"])).is_err());
        // A store without the named snapshot fails at load, proving the
        // path was resolved into the store's snapshots directory.
        let dir = std::env::temp_dir().join(format!("trajmine-dbserve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = dispatch(&args(&[
            "serve",
            "--db",
            dir.to_str().unwrap(),
            "--name",
            "missing",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("missing"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_workload_errors() {
        let dir = std::env::temp_dir();
        let out = dir.join("never-written.json");
        assert!(dispatch(&args(&[
            "generate",
            "--workload",
            "submarines",
            "--out",
            out.to_str().unwrap()
        ]))
        .is_err());
    }

    #[test]
    fn mine_velocity_mode_works() {
        let dir = std::env::temp_dir().join(format!("trajmine-vel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.json");
        let data_str = data_path.to_str().unwrap();
        dispatch(&args(&[
            "generate",
            "--workload",
            "zebranet",
            "--traces",
            "8",
            "--snapshots",
            "15",
            "--out",
            data_str,
        ]))
        .unwrap();
        dispatch(&args(&[
            "mine",
            "--input",
            data_str,
            "--k",
            "2",
            "--grid",
            "5",
            "--max-len",
            "2",
            "--velocity",
            "true",
            "--gamma",
            "0.05",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
