//! Dataset input shared by every subcommand: format sniffing
//! (CSV / `.events` log / dead-reckoning log / JSON), the fault-tolerant
//! ingest path, and small argument parsers for spatial flags.
//!
//! Every load goes through the [`trajfeed`] spine: `.events` and
//! dead-reckoning logs are replayed through the same feed
//! ([`trajfeed::open`]) `stream` and live shards use, and CSV / JSON bytes
//! become a [`trajfeed::StaticFeed`]. Either way records are drained
//! through the same decode → reconstruct → sanitize stages live
//! consumers run, so batch and streaming ingestion cannot diverge.

use crate::args::Args;
use std::error::Error;
use std::sync::atomic::AtomicBool;
use trajdata::{Dataset, IngestPolicy, IngestReport};
use trajfeed::{FeedOptions, SourceSpec, StaticFeed};
use trajgeo::{BBox, Point2};

/// Loads `--input` strictly: the first defect aborts the command.
pub fn load(args: &Args) -> Result<Dataset, Box<dyn Error>> {
    Ok(load_with_policy(args, IngestPolicy::Strict)?.0)
}

/// Loads the dataset under an ingest policy. CSV inputs go through the
/// fault-tolerant [`trajdata::ingest`] path and return a report; JSON
/// inputs are all-or-nothing, but `Repair` still sanitizes the loaded
/// dataset in place. `.events` and dead-reckoning logs (`.drlog` /
/// `dr:PATH`) are replayed through the feed spine, whose sanitize stage
/// applies the policy line by line; dead-reckoning logs are reconstructed
/// with the `--dr-*` knobs.
pub fn load_with_policy(
    args: &Args,
    policy: IngestPolicy,
) -> Result<(Dataset, Option<IngestReport>), Box<dyn Error>> {
    let input = args.require("input")?;
    let spec = SourceSpec::parse(input);
    if matches!(spec, SourceSpec::EventsTcp(_) | SourceSpec::DrTcp(_)) {
        return Err(format!("--input {input}: socket sources are stream-only (use `trajmine stream` or `serve --live`)").into());
    }
    // `SourceSpec::parse` reads every other name (CSV and JSON included)
    // as an event log, so `.events` is recognized by its extension.
    if matches!(spec, SourceSpec::Dr(_)) || input.ends_with(".events") {
        let opts = FeedOptions {
            policy,
            dr: dr_config(args)?,
            ..FeedOptions::default()
        };
        let mut feed = trajfeed::open(&spec, &opts)?;
        let stop = AtomicBool::new(false);
        let data: Dataset = trajfeed::drain(feed.as_mut(), &stop)?.into_iter().collect();
        return Ok((data, None));
    }

    let raw = std::fs::read_to_string(input)?;
    let mut feed = if input.ends_with(".csv") {
        StaticFeed::from_csv(&raw, policy)?
    } else {
        let mut feed = StaticFeed::from_dataset(Dataset::from_json(&raw)?);
        if policy == IngestPolicy::Repair {
            let fixed = feed.repair();
            if !fixed.is_clean() {
                eprintln!("repair: {fixed}");
            }
        }
        feed
    };
    let report = feed.ingest_report().cloned();
    let stop = AtomicBool::new(false);
    let data: Dataset = trajfeed::drain(&mut feed, &stop)?.into_iter().collect();
    Ok((data, report))
}

/// Builds the §3.1/§3.2 dead-reckoning reconstruction parameters from
/// the `--dr-u`, `--dr-c`, `--dr-growth`, and `--dr-dt` flags.
pub fn dr_config(args: &Args) -> Result<trajfeed::DrConfig, Box<dyn Error>> {
    let defaults = trajfeed::DrConfig::default();
    let cfg = trajfeed::DrConfig {
        u: args.get_or("dr-u", defaults.u)?,
        c: args.get_or("dr-c", defaults.c)?,
        growth_rate: args.get_or("dr-growth", defaults.growth_rate)?,
        dt: args.get_or("dr-dt", defaults.dt)?,
    };
    cfg.validate()
        .map_err(|m| format!("dead-reckoning config: {m}"))?;
    Ok(cfg)
}

/// Parses `--on-error strict|skip|repair` (default strict).
pub fn parse_policy(args: &Args) -> Result<IngestPolicy, Box<dyn Error>> {
    match args.get("on-error") {
        Some(s) => Ok(s
            .parse()
            .map_err(|_| format!("invalid --on-error value '{s}' (use strict|skip|repair)"))?),
        None => Ok(IngestPolicy::Strict),
    }
}

/// Parses `--bbox minx,miny,maxx,maxy`.
pub fn parse_bbox(s: &str) -> Result<BBox, Box<dyn Error>> {
    let parts: Vec<f64> = s
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid --bbox '{s}' (use minx,miny,maxx,maxy)"))?;
    if parts.len() != 4 {
        return Err(format!("invalid --bbox '{s}' (expected 4 comma-separated numbers)").into());
    }
    BBox::new(
        Point2::new(parts[0], parts[1]),
        Point2::new(parts[2], parts[3]),
    )
    .ok_or_else(|| format!("degenerate --bbox '{s}'").into())
}
