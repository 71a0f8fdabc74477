//! `trajmine serve --live`: the sharded live fleet.
//!
//! One [`trajserve`] server fronts a fixed shard set; each shard runs
//! its own [`trajstream::StreamMiner`] fed from its own event source
//! and atomically swaps a pre-serialized snapshot into the shard router
//! whenever its certified top-k changes. Shards come from either
//!
//! * `--shards name=source,...` — one feed per shard (an `.events`
//!   log, a dead-reckoning log, `tcp://host:port`, or
//!   `dr+tcp://host:port`), with per-shard checkpoints in
//!   `--checkpoint-dir` when given; or
//! * `--db ROOT` — every `ROOT/shards/<name>/` store directory becomes
//!   a shard, polled for newly committed records, checkpointing next to
//!   its store (`stream.ckpt`).
//!
//! Mining knobs (`--window`, `--k`, `--grid`, `--bbox`, `--delta`, …)
//! are exactly `trajmine stream`'s; server knobs (`--addr`,
//! `--workers`, `--queue`, …) are exactly `trajmine serve`'s.

use crate::args::Args;
use std::error::Error;

/// Runs the live fleet until a termination signal drains it.
pub fn serve_live(args: &Args) -> Result<(), Box<dyn Error>> {
    let window: u64 = args.get_or("window", 64u64)?;
    if window == 0 {
        return Err("--window must be at least 1".into());
    }
    let (grid, params) = crate::commands::stream_mining_setup(args)?;
    let poll = crate::commands::stream_poll_interval(args)?;
    let growth_rate: f64 = args.get_or("growth-rate", 0.0f64)?;
    if !growth_rate.is_finite() || growth_rate < 0.0 {
        return Err("--growth-rate must be finite and >= 0".into());
    }

    let specs = match (args.get("shards"), args.get("db")) {
        (Some(raw), None) => {
            trajfleet::parse_shard_specs(raw, args.get("checkpoint-dir").map(std::path::Path::new))?
        }
        (None, Some(root)) => trajfleet::discover_db_shards(std::path::Path::new(root))?,
        (Some(_), Some(_)) => return Err("pass either --shards or --db, not both".into()),
        (None, None) => {
            return Err(
                "serve --live needs --shards name=source,... or --db ROOT (with shards/ dirs)"
                    .into(),
            )
        }
    };

    let server_cfg = crate::commands::server_config(args)?;

    let fleet = trajfleet::Fleet::launch(
        specs,
        trajfleet::FleetConfig {
            grid,
            params,
            window,
            poll,
            growth_rate,
            policy: crate::input::parse_policy(args)?,
            dr: crate::input::dr_config(args)?,
        },
        server_cfg.clone(),
    )?;
    let addr = fleet.local_addr()?;
    eprintln!(
        "trajserve live fleet on http://{addr}: shards [{}] ({} workers, queue {})",
        fleet.shard_names().join(", "),
        server_cfg.workers,
        server_cfg.queue,
    );

    // Same drain story as plain `serve`: a termination signal stops the
    // accept loop; `Fleet::run` then stops every ingester and each one
    // flushes its final checkpoint before the process exits 0.
    crate::commands::shutdown_on_signal(
        fleet.handle(),
        "termination signal received: draining in-flight requests and shard ingesters",
    );
    fleet.run()?;
    eprintln!("trajserve stopped cleanly");
    Ok(())
}
