//! The versioned pattern-snapshot schema — the one JSON shape shared by
//! `trajmine mine --json`, `trajmine stream --json`, and the server's
//! snapshot loader, so the CLI writer and the server parser cannot drift.
//!
//! ```text
//! {
//!   "schema":   "trajmine-snapshot/v1",
//!   "params":   { ...MiningParams... },      // incl. delta and min_prob
//!   "grid":     { ...Grid... },              // bbox + nx/ny
//!   "patterns": [ {"pattern": {"cells": [..]}, "nm": f64}, .. ],
//!   "groups":   [ {"patterns": [..]}, .. ],
//!   "stats":    { ...MiningStats... },
//!   "scorer":   { ...ScorerStats... },
//!   "stream":   { ...StreamStats... },       // stream snapshots only
//!   "next_seq": n                            // stream snapshots only
//! }
//! ```
//!
//! Floats are written with shortest-round-trip formatting and parsed
//! correctly rounded, so `delta`, `min_prob`, the grid bounds, and every
//! NM survive the trip bit-exactly — the server's `/v1/score` can therefore
//! reproduce the library scorer's results on the loaded snapshot down to
//! the last bit. [`Snapshot::load`] also accepts a `trajstream`
//! checkpoint (`trajpattern-checkpoint v2`), sniffed by its first line,
//! so `trajmine stream --checkpoint` output can be served directly.

use serde_json::Value;
use std::fmt;
use std::path::{Path, PathBuf};
use trajgeo::Grid;
use trajpattern::{
    MinedPattern, MiningOutcome, MiningParams, MiningStats, PatternGroup, ScorerStats,
};
use trajstream::{StreamMiner, StreamStats};

/// The schema identifier this module writes and the only one it accepts.
pub const SCHEMA: &str = "trajmine-snapshot/v1";

/// A complete, self-describing pattern snapshot: everything the server
/// needs to answer queries bit-identically to the run that produced it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Mining parameters of the producing run (δ and `min_prob` drive
    /// scoring; `gamma` drives grouping; `k` bounds the top-k).
    pub params: MiningParams,
    /// The grid patterns are defined over.
    pub grid: Grid,
    /// The top-k patterns, best NM first.
    pub patterns: Vec<MinedPattern>,
    /// Pattern groups over `patterns` (empty when `gamma` was unset).
    pub groups: Vec<PatternGroup>,
    /// Mining counters of the producing run.
    pub stats: MiningStats,
    /// Scorer engine counters of the producing run.
    pub scorer: ScorerStats,
    /// Stream counters — present only for `trajmine stream` snapshots.
    pub stream: Option<StreamStats>,
    /// Next stream sequence number — present only for stream snapshots.
    pub next_seq: Option<u64>,
}

/// Why a snapshot could not be read.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
    /// The text is not valid JSON.
    Json(serde_json::Error),
    /// The JSON does not declare the supported schema.
    Schema {
        /// The `schema` value found (empty when absent).
        found: String,
    },
    /// Structurally valid JSON describing an invalid snapshot.
    Invalid(String),
    /// A `trajstream` checkpoint that failed to decode.
    Checkpoint(trajpattern::CheckpointError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, message } => {
                write!(f, "cannot read snapshot {}: {message}", path.display())
            }
            SnapshotError::Json(_) => write!(f, "snapshot is not valid JSON"),
            SnapshotError::Schema { found } if found.is_empty() => {
                write!(f, "snapshot declares no schema (expected '{SCHEMA}')")
            }
            SnapshotError::Schema { found } => {
                write!(
                    f,
                    "unsupported snapshot schema '{found}' (expected '{SCHEMA}')"
                )
            }
            SnapshotError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
            SnapshotError::Checkpoint(_) => write!(f, "invalid stream checkpoint"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Json(e) => Some(e),
            SnapshotError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<trajpattern::CheckpointError> for SnapshotError {
    fn from(e: trajpattern::CheckpointError) -> SnapshotError {
        SnapshotError::Checkpoint(e)
    }
}

impl Snapshot {
    /// Wraps a finished batch-mining outcome as a snapshot.
    pub fn from_outcome(out: &MiningOutcome, grid: &Grid, params: &MiningParams) -> Snapshot {
        Snapshot {
            params: params.clone(),
            grid: grid.clone(),
            patterns: out.patterns.clone(),
            groups: out.groups.clone(),
            stats: out.stats.clone(),
            scorer: out.scorer,
            stream: None,
            next_seq: None,
        }
    }

    /// Snapshots the current state of a stream miner (top-k + stream
    /// counters).
    pub fn from_stream(miner: &StreamMiner) -> Snapshot {
        Snapshot {
            params: miner.params().clone(),
            grid: miner.grid().clone(),
            patterns: miner.topk().to_vec(),
            groups: miner.groups().to_vec(),
            stats: miner.last_mining_stats().clone(),
            scorer: miner.last_scorer_stats(),
            stream: Some(miner.stats().clone()),
            next_seq: Some(miner.next_seq()),
        }
    }

    /// Serializes to the schema's JSON [`Value`]. Stream-only fields are
    /// omitted (not `null`) for batch snapshots.
    pub fn to_value(&self) -> Value {
        let field =
            |v: &dyn serde::Serialize| serde_json::to_value(v).expect("snapshot fields serialize");
        let mut fields: Vec<(String, Value)> = vec![
            ("schema".into(), Value::String(SCHEMA.into())),
            ("params".into(), field(&self.params)),
            ("grid".into(), field(&self.grid)),
            ("patterns".into(), field(&self.patterns)),
            ("groups".into(), field(&self.groups)),
            ("stats".into(), field(&self.stats)),
            ("scorer".into(), field(&self.scorer)),
        ];
        if let Some(s) = &self.stream {
            fields.push(("stream".into(), field(s)));
        }
        if let Some(n) = self.next_seq {
            fields.push(("next_seq".into(), field(&n)));
        }
        Value::Object(fields)
    }

    /// Serializes to pretty JSON text — what `trajmine` writes to
    /// `--json FILE`.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("snapshot serializes")
    }

    /// Parses and validates snapshot JSON (the inverse of
    /// [`Snapshot::to_value`]).
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        let v: Value = serde_json::from_str(text).map_err(SnapshotError::Json)?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(SnapshotError::Schema {
                found: schema.to_string(),
            });
        }
        fn get<T: serde::Deserialize>(v: &Value, name: &str) -> Result<T, SnapshotError> {
            let field = v
                .get(name)
                .ok_or_else(|| SnapshotError::Invalid(format!("missing '{name}' field")))?;
            serde_json::from_value(field)
                .map_err(|e| SnapshotError::Invalid(format!("bad '{name}' field: {e}")))
        }
        let params: MiningParams = get(&v, "params")?;
        params
            .validate()
            .map_err(|e| SnapshotError::Invalid(format!("bad 'params' field: {e}")))?;
        // Rebuild the grid from its defining fields so the cached cell
        // sizes are guaranteed consistent (and degenerate boxes rejected)
        // even for hand-edited files. `Grid::new` recomputes the same
        // values bit-identically.
        let grid_in: Grid = get(&v, "grid")?;
        let grid = Grid::new(grid_in.bbox(), grid_in.nx(), grid_in.ny())
            .map_err(|e| SnapshotError::Invalid(format!("bad 'grid' field: {e}")))?;
        let patterns: Vec<MinedPattern> = get(&v, "patterns")?;
        for (i, m) in patterns.iter().enumerate() {
            if !m.nm.is_finite() {
                return Err(SnapshotError::Invalid(format!(
                    "pattern {i} has non-finite NM"
                )));
            }
            if m.pattern.cells().iter().any(|c| c.0 >= grid.num_cells()) {
                return Err(SnapshotError::Invalid(format!(
                    "pattern {i} references a cell outside the {}x{} grid",
                    grid.nx(),
                    grid.ny()
                )));
            }
        }
        let groups: Vec<PatternGroup> = get(&v, "groups")?;
        let stats: MiningStats = get(&v, "stats")?;
        let scorer: ScorerStats = get(&v, "scorer")?;
        let stream: Option<StreamStats> = match v.get("stream") {
            Some(s) => Some(
                serde_json::from_value(s)
                    .map_err(|e| SnapshotError::Invalid(format!("bad 'stream' field: {e}")))?,
            ),
            None => None,
        };
        let next_seq: Option<u64> = match v.get("next_seq") {
            Some(n) => Some(n.as_u64().ok_or_else(|| {
                SnapshotError::Invalid("bad 'next_seq' field: not an unsigned integer".into())
            })?),
            None => None,
        };
        Ok(Snapshot {
            params,
            grid,
            patterns,
            groups,
            stats,
            scorer,
            stream,
            next_seq,
        })
    }

    /// Loads a snapshot from disk: a `trajstream` checkpoint when the
    /// first non-blank line is the v2 checkpoint header, snapshot JSON
    /// otherwise.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Snapshot::parse_any(&text)
    }

    /// [`Snapshot::load`] on already-read text: sniffs the format and
    /// dispatches to the checkpoint or JSON parser.
    pub fn parse_any(text: &str) -> Result<Snapshot, SnapshotError> {
        let first = trajio::first_content_line(text, false).unwrap_or("");
        if first == trajstream::STREAM_VERSION_LINE {
            let miner = trajstream::parse_checkpoint(text)?;
            Ok(Snapshot::from_stream(&miner))
        } else {
            Snapshot::parse(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::{Dataset, Trajectory};
    use trajgeo::{BBox, Point2};
    use trajpattern::Miner;

    fn tiny_outcome() -> (MiningOutcome, Grid, MiningParams) {
        let data: Dataset = (0..4)
            .map(|j| {
                Trajectory::from_exact(
                    (0..4).map(move |i| Point2::new(0.125 + i as f64 * 0.25, 0.3 + j as f64 * 0.1)),
                )
            })
            .collect();
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1)
            .unwrap()
            .with_max_len(3)
            .unwrap()
            .with_gamma(0.3)
            .unwrap();
        let out = Miner::new(&data, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        (out, grid, params)
    }

    #[test]
    fn round_trips_bit_exactly() {
        let (out, grid, params) = tiny_outcome();
        let snap = Snapshot::from_outcome(&out, &grid, &params);
        let text = snap.to_json_pretty();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back.patterns.len(), snap.patterns.len());
        for (a, b) in back.patterns.iter().zip(&snap.patterns) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
        assert_eq!(back.params.delta.to_bits(), params.delta.to_bits());
        assert_eq!(back.params.min_prob.to_bits(), params.min_prob.to_bits());
        assert_eq!(
            back.grid.bbox().min().x.to_bits(),
            grid.bbox().min().x.to_bits()
        );
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.scorer, snap.scorer);
        assert!(back.stream.is_none() && back.next_seq.is_none());
    }

    #[test]
    fn stream_snapshot_carries_stream_fields() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1).unwrap().with_max_len(3).unwrap();
        let mut m = StreamMiner::new(grid, params).unwrap();
        for j in 0..5 {
            m.slide(
                Trajectory::from_exact(
                    (0..4)
                        .map(move |i| Point2::new(0.125 + i as f64 * 0.25, 0.3 + j as f64 * 0.05)),
                ),
                3,
            );
        }
        let snap = Snapshot::from_stream(&m);
        let back = Snapshot::parse(&snap.to_json_pretty()).unwrap();
        assert_eq!(back.stream.as_ref().unwrap(), m.stats());
        assert_eq!(back.next_seq, Some(m.next_seq()));
        assert_eq!(back.patterns.len(), m.topk().len());
    }

    #[test]
    fn load_sniffs_stream_checkpoints() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1).unwrap().with_max_len(3).unwrap();
        let mut m = StreamMiner::new(grid, params).unwrap();
        for j in 0..5 {
            m.slide(
                Trajectory::from_exact(
                    (0..4)
                        .map(move |i| Point2::new(0.125 + i as f64 * 0.25, 0.3 + j as f64 * 0.05)),
                ),
                3,
            );
        }
        let dir = std::env::temp_dir().join(format!("trajserve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("m.ckpt");
        m.checkpoint(&ckpt).unwrap();
        let snap = Snapshot::load(&ckpt).unwrap();
        assert_eq!(snap.patterns.len(), m.topk().len());
        for (a, b) in snap.patterns.iter().zip(m.topk()) {
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
        assert!(snap.stream.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(matches!(
            Snapshot::parse("{\"schema\": \"trajmine-snapshot/v999\"}"),
            Err(SnapshotError::Schema { .. })
        ));
        assert!(matches!(
            Snapshot::parse("{\"patterns\": []}"),
            Err(SnapshotError::Schema { .. })
        ));
        assert!(matches!(
            Snapshot::parse("not json"),
            Err(SnapshotError::Json(_))
        ));
        let missing = Snapshot::load(Path::new("/nonexistent/snapshot.json"));
        assert!(matches!(missing, Err(SnapshotError::Io { .. })));
    }

    #[test]
    fn rejects_out_of_grid_patterns() {
        let (out, grid, params) = tiny_outcome();
        let snap = Snapshot::from_outcome(&out, &grid, &params);
        let text = snap.to_json_pretty();
        // Shrink the grid so mined cells fall outside it.
        let smaller = text
            .replace("\"nx\": 4", "\"nx\": 1")
            .replace("\"ny\": 4", "\"ny\": 1");
        assert!(matches!(
            Snapshot::parse(&smaller),
            Err(SnapshotError::Invalid(_))
        ));
    }
}
