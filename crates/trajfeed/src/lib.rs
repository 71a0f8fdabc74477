//! The feed spine: one [`Feed`] trait behind every ingest path.
//!
//! Before this crate each consumer of live trajectory data owned its own
//! ingest loop — the CLI replayed CSV and `.events` files, `trajmine
//! stream --follow` tailed a log, every `trajfleet` shard either tailed a
//! log or polled a trajdb cursor, and `trajserve` decoded posted bodies —
//! four bespoke loops with four different defect, resume, and shutdown
//! behaviors. The spine collapses them into one composable pipeline:
//!
//! ```text
//! source (file / TCP socket / trajdb / memory)
//!   → decode (.events lines, dead-reckoning messages, CSV, JSON)
//!   → reconstruct (§3.1: odometer reports → snapshots with σ = U_eff/c)
//!   → synchronize (§3.2: interpolate onto the shared dt lattice)
//!   → sanitize (IngestPolicy: strict / skip / repair)
//!   → Feed::next_batch
//! ```
//!
//! Every stage is the *same code* no matter where bytes come from, so a
//! planar `.events` file replayed from disk, tailed live, served over a
//! TCP socket, or reconstructed from a dead-reckoning message log feeds
//! the miner identical records — the property the feed-equivalence suite
//! locks down. Geodetic (lat/lon) inputs are projected into the planar
//! engine space by [`trajgeo::GeoProjection`] at decode time, upstream of
//! every bit-identity invariant.
//!
//! Entry points:
//!
//! - [`spec::open`] turns a [`SourceSpec`] (`path.events`, `path.drlog`,
//!   `tcp://host:port`, `dr+tcp://host:port`, a trajdb shard dir) into a
//!   boxed [`Feed`].
//! - [`pump`] drives any feed to completion into a sink closure, with
//!   checkpoint-resume skipping and per-batch stats publication.
//! - [`FeedStats`] counts records, defects by category, reconstruction
//!   work, and transport recoveries, and renders to Prometheus and JSON
//!   through the shared `counter_stats!` machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbfeed;
pub mod dr;
pub mod events;
pub mod line;
pub mod spec;
pub mod tcp;

use std::fmt;
use std::sync::atomic::AtomicBool;
use trajdata::eventlog::EventLogError;
use trajdata::{Dataset, IngestPolicy, IngestReport, SanitizeReport, Trajectory};

pub use dbfeed::DbCursorFeed;
pub use dr::{DrConfig, DrDecoder, DrFeed, DR_VERSION_LINE};
pub use events::EventsFeed;
pub use line::{FileLineSource, LineSource, LineStep};
pub use spec::{open, FeedOptions, SourceSpec};
pub use tcp::{TcpLineSource, TcpOptions};

/// Why a feed stopped with an error.
#[derive(Debug)]
#[non_exhaustive]
pub enum FeedError {
    /// Reading the underlying source failed.
    Io(std::io::Error),
    /// The stream's first content line is not the expected version line.
    Version {
        /// What was found instead.
        found: String,
        /// The version line this feed's protocol expects.
        expected: &'static str,
    },
    /// A line violated the stream protocol (unparseable, out of order).
    Protocol {
        /// 1-based line number within the stream.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structurally valid line decoded to an invalid record.
    Record {
        /// 1-based line number within the stream.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A socket source exhausted its reconnection budget.
    Connect {
        /// The address dialed.
        addr: String,
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last connection error.
        message: String,
    },
    /// The trajdb store behind a cursor feed failed.
    Store(trajdb::StoreError),
    /// CSV ingest failed under the strict policy.
    Csv(trajdata::csv::CsvError),
    /// The feed configuration is invalid (e.g. a non-positive `dt`).
    Config(String),
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::Io(e) => write!(f, "feed read failed: {e}"),
            FeedError::Version { found, expected } => {
                write!(
                    f,
                    "not a recognized stream: first line is '{found}' (expected '{expected}')"
                )
            }
            FeedError::Protocol { line, message } => write!(f, "feed line {line}: {message}"),
            FeedError::Record { line, message } => {
                write!(f, "feed line {line}: invalid record: {message}")
            }
            FeedError::Connect {
                addr,
                attempts,
                message,
            } => write!(
                f,
                "connect to {addr} failed after {attempts} attempts: {message}"
            ),
            FeedError::Store(e) => write!(f, "feed store: {e}"),
            FeedError::Csv(e) => write!(f, "feed csv: {e}"),
            FeedError::Config(m) => write!(f, "feed config: {m}"),
        }
    }
}

impl std::error::Error for FeedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FeedError::Io(e) => Some(e),
            FeedError::Store(e) => Some(e),
            FeedError::Csv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FeedError {
    fn from(e: std::io::Error) -> Self {
        FeedError::Io(e)
    }
}

impl From<trajdb::StoreError> for FeedError {
    fn from(e: trajdb::StoreError) -> Self {
        FeedError::Store(e)
    }
}

impl From<trajdata::csv::CsvError> for FeedError {
    fn from(e: trajdata::csv::CsvError) -> Self {
        FeedError::Csv(e)
    }
}

impl From<EventLogError> for FeedError {
    fn from(e: EventLogError) -> Self {
        match e {
            EventLogError::Version { found } => FeedError::Version {
                found,
                expected: trajdata::eventlog::EVENTS_VERSION_LINE,
            },
            EventLogError::Line { line, message } => FeedError::Protocol { line, message },
            EventLogError::Trajectory { line, source } => FeedError::Record {
                line,
                message: source.to_string(),
            },
            _ => FeedError::Protocol {
                line: 0,
                message: e.to_string(),
            },
        }
    }
}

/// One step of a feed: some records, or the end of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedBatch {
    /// Records that arrived, in stream order. Never empty.
    Records(Vec<Trajectory>),
    /// The stream ended: end-of-file in replay mode, a `# eof`
    /// terminator, or the stop flag observed while waiting for bytes.
    End,
}

trajpattern::counter_stats! {
    /// Per-feed ingest counters, rendered to `/metrics` (with a `feed=`
    /// label per shard) and to `trajmine stream --json`.
    pub struct FeedStats {
        /// Records delivered downstream (post-sanitize).
        persisted records: u64,
        /// Batches delivered downstream.
        persisted batches: u64,
        /// Lines that failed to decode and were skipped by policy.
        persisted defect_lines: u64,
        /// Decoded records dropped by the `skip` sanitize policy.
        persisted defect_records: u64,
        /// Decoded records repaired in place by the `repair` policy.
        persisted repaired_records: u64,
        /// Trajectories built by §3.1 dead-reckoning reconstruction.
        persisted reconstructed: u64,
        /// §3.2 synchronization points interpolated between reports.
        persisted resampled_points: u64,
        /// Times a socket source re-established a dropped connection.
        persisted reconnects: u64,
        /// Reconnect recoveries whose receive tail was clean.
        persisted recovery_clean: u64,
        /// Reconnect recoveries that discarded a torn partial line —
        /// `TailVerdict::TornTruncated`, diagnosed live instead of on
        /// disk.
        persisted recovery_torn: u64,
    }
}

/// A source of trajectory records: the one interface every ingest path
/// implements.
///
/// `next_batch` blocks (stop-aware) until records are available or the
/// stream ends; it never busy-spins and never returns an empty batch.
/// All implementations deliver records in stream order, so a consumer's
/// state is a function of the logical record sequence alone — the
/// feed-equivalence suite checks exactly this across every impl.
pub trait Feed: Send {
    /// Returns the next batch of records, or [`FeedBatch::End`].
    fn next_batch(&mut self, stop: &AtomicBool) -> Result<FeedBatch, FeedError>;

    /// Ingest counters observed so far.
    fn stats(&self) -> &FeedStats;

    /// A short label for the feed kind (`"events"`, `"dr+tcp"`, …).
    fn kind(&self) -> &'static str;

    /// Checkpoint cursor: records delivered so far. A consumer resuming
    /// from a checkpoint passes this as `skip` to [`pump`].
    fn cursor(&self) -> u64 {
        self.stats().records
    }
}

/// The sanitize stage shared by every feed: what to do with records and
/// lines that fail validation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipeline {
    /// The defect policy (strict aborts, skip drops, repair fixes).
    pub policy: IngestPolicy,
}

impl Pipeline {
    /// A pipeline applying `policy`.
    pub fn new(policy: IngestPolicy) -> Pipeline {
        Pipeline { policy }
    }

    /// Admits one decoded record through the sanitize stage. Returns
    /// `Ok(None)` when the record was dropped by policy.
    pub fn admit(
        &self,
        traj: Trajectory,
        stats: &mut FeedStats,
    ) -> Result<Option<Trajectory>, FeedError> {
        if self.policy == IngestPolicy::Strict {
            // Decoders validate through `Trajectory::new`; a strict feed
            // would already have errored on a defective record.
            return Ok(Some(traj));
        }
        let mut ds: Dataset = std::iter::once(traj.clone()).collect();
        let report = trajdata::sanitize(&mut ds);
        if report.is_clean() {
            return Ok(Some(traj));
        }
        match self.policy {
            IngestPolicy::Skip => {
                stats.defect_records += 1;
                Ok(None)
            }
            IngestPolicy::Repair => {
                stats.repaired_records += 1;
                Ok(ds.trajectories().first().cloned())
            }
            IngestPolicy::Strict => unreachable!("handled above"),
        }
    }

    /// Handles a line-level decode failure: fatal under strict, counted
    /// and skipped otherwise. Version mismatches are always fatal — the
    /// stream is the wrong format, not a damaged line.
    pub fn tolerate(&self, err: FeedError, stats: &mut FeedStats) -> Result<(), FeedError> {
        if self.policy == IngestPolicy::Strict || matches!(err, FeedError::Version { .. }) {
            return Err(err);
        }
        stats.defect_lines += 1;
        Ok(())
    }
}

/// An in-memory feed over already-decoded records: the path JSON datasets
/// and CSV files take onto the spine. Line protocols (`.events`,
/// dead-reckoning logs) decode through their own feeds instead.
#[derive(Debug)]
pub struct StaticFeed {
    pending: Vec<Trajectory>,
    drained: bool,
    stats: FeedStats,
    ingest: Option<IngestReport>,
    sanitize: Option<SanitizeReport>,
}

impl StaticFeed {
    /// Wraps a decoded dataset.
    pub fn from_dataset(data: Dataset) -> StaticFeed {
        StaticFeed {
            pending: data.trajectories().to_vec(),
            drained: false,
            stats: FeedStats::default(),
            ingest: None,
            sanitize: None,
        }
    }

    /// Ingests CSV text under `policy` through the fault-tolerant
    /// [`trajdata::ingest`] path; the report is kept for the caller.
    pub fn from_csv(text: &str, policy: IngestPolicy) -> Result<StaticFeed, FeedError> {
        let (data, report) = trajdata::ingest(text, policy)?;
        let mut feed = StaticFeed::from_dataset(data);
        feed.stats.defect_lines = report.rows_read.saturating_sub(report.rows_kept) as u64;
        if let Some(fixed) = report.sanitize {
            feed.stats.repaired_records = fixed.total_fixes() as u64;
        }
        feed.ingest = Some(report);
        Ok(feed)
    }

    /// Sanitizes the pending records in place (the JSON repair path,
    /// where serde bypassed validation) and reports the fixes.
    pub fn repair(&mut self) -> SanitizeReport {
        let mut ds: Dataset = self.pending.drain(..).collect();
        let report = trajdata::sanitize(&mut ds);
        self.pending = ds.trajectories().to_vec();
        if !report.is_clean() {
            self.stats.repaired_records += report.total_fixes() as u64;
        }
        self.sanitize = Some(report);
        report
    }

    /// The CSV ingest report, when this feed came from CSV text.
    pub fn ingest_report(&self) -> Option<&IngestReport> {
        self.ingest.as_ref()
    }

    /// The sanitize report, when [`StaticFeed::repair`] ran.
    pub fn sanitize_report(&self) -> Option<&SanitizeReport> {
        self.sanitize.as_ref()
    }
}

impl Feed for StaticFeed {
    fn next_batch(&mut self, _stop: &AtomicBool) -> Result<FeedBatch, FeedError> {
        if self.drained {
            return Ok(FeedBatch::End);
        }
        self.drained = true;
        if self.pending.is_empty() {
            return Ok(FeedBatch::End);
        }
        let records = std::mem::take(&mut self.pending);
        self.stats.records += records.len() as u64;
        self.stats.batches += 1;
        Ok(FeedBatch::Records(records))
    }

    fn stats(&self) -> &FeedStats {
        &self.stats
    }

    fn kind(&self) -> &'static str {
        "static"
    }
}

/// Why [`pump`] stopped with an error.
#[derive(Debug)]
pub enum PumpError<E> {
    /// The feed itself failed.
    Feed(FeedError),
    /// The sink closure failed.
    Sink(E),
}

impl<E: fmt::Display> fmt::Display for PumpError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PumpError::Feed(e) => write!(f, "feed: {e}"),
            PumpError::Sink(e) => write!(f, "{e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for PumpError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PumpError::Feed(e) => Some(e),
            PumpError::Sink(e) => Some(e),
        }
    }
}

/// Drives `feed` to completion: every record goes through `sink`, in
/// order; `after_batch` observes the feed's stats after each delivered
/// batch (how live consumers export per-feed metrics without owning the
/// loop). The first `skip` records are counted but not delivered — the
/// checkpoint-resume fast-forward every consumer previously hand-rolled.
///
/// Returns the total number of records seen (delivered + skipped).
pub fn pump<E>(
    feed: &mut dyn Feed,
    stop: &AtomicBool,
    skip: u64,
    mut sink: impl FnMut(Trajectory) -> Result<(), E>,
    mut after_batch: impl FnMut(&FeedStats),
) -> Result<u64, PumpError<E>> {
    let mut seen = 0u64;
    loop {
        if stop.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(seen);
        }
        match feed.next_batch(stop).map_err(PumpError::Feed)? {
            FeedBatch::End => return Ok(seen),
            FeedBatch::Records(records) => {
                for traj in records {
                    seen += 1;
                    if seen <= skip {
                        continue;
                    }
                    sink(traj).map_err(PumpError::Sink)?;
                }
                after_batch(feed.stats());
            }
        }
    }
}

/// Collects every record a feed will ever deliver — the batch-ingest
/// convenience over [`pump`].
pub fn drain(feed: &mut dyn Feed, stop: &AtomicBool) -> Result<Vec<Trajectory>, FeedError> {
    let mut out = Vec::new();
    match pump(
        feed,
        stop,
        0,
        |t| {
            out.push(t);
            Ok::<(), std::convert::Infallible>(())
        },
        |_| {},
    ) {
        Ok(_) => Ok(out),
        Err(PumpError::Feed(e)) => Err(e),
        Err(PumpError::Sink(e)) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::SnapshotPoint;
    use trajgeo::Point2;

    fn traj(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            coords
                .iter()
                .map(|&(x, y)| SnapshotPoint::new(Point2::new(x, y), 0.1).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn static_feed_drains_once() {
        let data: Dataset = vec![traj(&[(0.1, 0.2)]), traj(&[(0.3, 0.4)])]
            .into_iter()
            .collect();
        let mut feed = StaticFeed::from_dataset(data);
        let stop = AtomicBool::new(false);
        let out = drain(&mut feed, &stop).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(feed.stats().records, 2);
        assert_eq!(feed.stats().batches, 1);
        assert!(matches!(feed.next_batch(&stop), Ok(FeedBatch::End)));
    }

    #[test]
    fn pump_skips_resumed_records() {
        let data: Dataset = (0..5)
            .map(|i| traj(&[(0.1 * i as f64 + 0.05, 0.5)]))
            .collect();
        let mut feed = StaticFeed::from_dataset(data);
        let stop = AtomicBool::new(false);
        let mut delivered = Vec::new();
        let seen = pump(
            &mut feed,
            &stop,
            3,
            |t| {
                delivered.push(t);
                Ok::<(), std::convert::Infallible>(())
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(seen, 5);
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].points()[0].mean.x, 0.1 * 3.0 + 0.05);
    }

    #[test]
    fn pipeline_policies_on_a_defective_record() {
        // Build a defective trajectory the way serde would: bypassing
        // validation via JSON.
        let json = r#"{"trajectories":[{"points":[
            {"mean":{"x":0.1,"y":0.2},"sigma":-1.0},
            {"mean":{"x":0.3,"y":0.4},"sigma":0.1}
        ]}]}"#;
        let data = Dataset::from_json(json).unwrap();
        let bad = data.trajectories()[0].clone();

        let mut stats = FeedStats::default();
        let kept = Pipeline::new(IngestPolicy::Skip)
            .admit(bad.clone(), &mut stats)
            .unwrap();
        assert!(kept.is_none());
        assert_eq!(stats.defect_records, 1);

        let kept = Pipeline::new(IngestPolicy::Repair)
            .admit(bad, &mut stats)
            .unwrap();
        let kept = kept.unwrap();
        assert_eq!(kept.points()[0].sigma, 0.0);
        assert_eq!(stats.repaired_records, 1);
    }

    #[test]
    fn static_repair_sanitizes_json_datasets() {
        let json = r#"{"trajectories":[{"points":[
            {"mean":{"x":0.1,"y":0.2},"sigma":-3.0}
        ]}]}"#;
        let data = Dataset::from_json(json).unwrap();
        let mut feed = StaticFeed::from_dataset(data);
        let report = feed.repair();
        assert_eq!(report.sigmas_clamped, 1);
        let stop = AtomicBool::new(false);
        let out = drain(&mut feed, &stop).unwrap();
        assert_eq!(out[0].points()[0].sigma, 0.0);
    }

    #[test]
    fn csv_static_feed_reports_defects() {
        let text = "traj_id,snapshot,x,y,sigma\n0,0,0.1,0.2,0.05\n0,1,oops,0.3,0.05\n";
        let feed = StaticFeed::from_csv(text, IngestPolicy::Skip).unwrap();
        assert_eq!(feed.stats().defect_lines, 1);
        assert!(feed.ingest_report().is_some());
    }
}
