//! Stream-state checkpointing: the `trajpattern-checkpoint v2` format.
//!
//! A v1 checkpoint freezes one *mining run* mid-growth; a v2 checkpoint
//! freezes a [`StreamMiner`]: parameters, grid, the window contents, and
//! the full contribution ledger. It reuses the v1 conventions — plain
//! line-oriented text, f64s as 16-hex-digit bit patterns (exact
//! round-trip), atomic tmp+rename writes, and the same typed
//! [`CheckpointError`] — so tooling that understands one understands
//! both. The cached top-k is stored verbatim (groups are a deterministic
//! function of it and are recomputed on load), so resuming is pure
//! deserialization — no maintenance pass runs, the ledger is restored
//! byte-identically, and the resumed stream behaves exactly like one
//! that never stopped (property-tested in
//! `tests/stream_batch_identity.rs`).
//!
//! ```text
//! trajpattern-checkpoint v2
//! params <k> <delta> <min_prob> <min_len> <max_len> <bound> <one_ext> <max_iters> <threads> <gamma|->
//! grid <min.x> <min.y> <max.x> <max.y> <nx> <ny>
//! next_seq <n>
//! stats <arrivals> <evictions> <deltas> <certified> <repairs> <repair_scored> <max_depth> <degraded>
//! window <count>
//! w <seq> <points> <x> <y> <sigma> ...
//! ledger <count>
//! l <cells> <cell ids ...> <contribution per window entry ...>
//! mstats <iterations> <generated> <scored> <pruned> <final_q> <evaluations> <degraded>
//! topk <count>
//! p <cells> <cell ids ...> <nm>
//! end
//! ```

use crate::{Ledger, StreamMiner, StreamStats};
use std::collections::VecDeque;
use std::path::Path;
use trajdata::{SnapshotPoint, Trajectory};
use trajgeo::{BBox, CellId, Grid, Point2};
use trajpattern::groups::discover_groups;
use trajpattern::{
    CheckpointError, CorridorTable, MinedPattern, MiningOutcome, MiningParams, MiningStats, Pattern,
};

/// First line of a stream checkpoint.
pub const STREAM_VERSION_LINE: &str = "trajpattern-checkpoint v2";

impl StreamMiner {
    /// Atomically writes the complete stream state to `path`.
    pub fn checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        let text = encode(self);
        trajio::write_atomic(path, &text).map_err(|e| CheckpointError::Io {
            path: e.path,
            message: e.message,
        })
    }

    /// Restores a stream miner from a checkpoint written by
    /// [`StreamMiner::checkpoint`]. The restored miner's next event
    /// continues the stream bit-identically to one that never stopped.
    pub fn resume(path: &Path) -> Result<StreamMiner, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        decode(&text)
    }
}

/// Parses a complete v2 checkpoint from text into a ready
/// [`StreamMiner`] — the public read API used by snapshot consumers
/// (the `trajserve` server loads checkpoints through this). Equivalent
/// to the decoding half of [`StreamMiner::resume`] without touching the
/// filesystem; the same validation applies.
pub fn parse_checkpoint(text: &str) -> Result<StreamMiner, CheckpointError> {
    decode(text)
}

use trajio::f64_hex as hex;

fn err(line: usize, message: impl Into<String>) -> CheckpointError {
    CheckpointError::Format {
        line,
        message: message.into(),
    }
}

/// Serializes the full stream state to the v2 text format.
pub(crate) fn encode(m: &StreamMiner) -> String {
    use std::fmt::Write;
    let p = &m.params;
    let mut out = String::from(STREAM_VERSION_LINE);
    out.push('\n');
    let gamma = match p.gamma {
        Some(g) => hex(g),
        None => "-".to_string(),
    };
    writeln!(
        out,
        "params {} {} {} {} {} {} {} {} {} {gamma}",
        p.k,
        hex(p.delta),
        hex(p.min_prob),
        p.min_len,
        p.max_len,
        p.use_bound_prune as u8,
        p.use_one_extension_prune as u8,
        p.max_iters,
        p.threads,
    )
    .expect("writing to a String cannot fail");
    let bbox = m.grid.bbox();
    writeln!(
        out,
        "grid {} {} {} {} {} {}",
        hex(bbox.min().x),
        hex(bbox.min().y),
        hex(bbox.max().x),
        hex(bbox.max().y),
        m.grid.nx(),
        m.grid.ny(),
    )
    .expect("writing to a String cannot fail");
    writeln!(out, "next_seq {}", m.next_seq).expect("writing to a String cannot fail");
    out.push_str("stats");
    for v in m.stats.persisted_values() {
        write!(out, " {v}").expect("writing to a String cannot fail");
    }
    out.push('\n');
    writeln!(out, "window {}", m.window.len()).expect("writing to a String cannot fail");
    for (seq, traj) in m.window.iter() {
        write!(out, "w {seq} {}", traj.len()).expect("writing to a String cannot fail");
        for sp in traj.points() {
            write!(
                out,
                " {} {} {}",
                hex(sp.mean.x),
                hex(sp.mean.y),
                hex(sp.sigma)
            )
            .expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    writeln!(out, "ledger {}", m.ledger.patterns.len()).expect("writing to a String cannot fail");
    // The ledger is held column-major (one column per window entry); the
    // file keeps one line per pattern.
    let rows = m.ledger.to_rows();
    let window = m.window.len();
    for (i, pat) in m.ledger.patterns.iter().enumerate() {
        write!(out, "l {}", pat.len()).expect("writing to a String cannot fail");
        for c in pat.cells() {
            write!(out, " {}", c.0).expect("writing to a String cannot fail");
        }
        for &v in &rows[i * window..(i + 1) * window] {
            write!(out, " {}", hex(v)).expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    out.push_str("mstats");
    for v in m.last.stats.persisted_values() {
        write!(out, " {v}").expect("writing to a String cannot fail");
    }
    out.push('\n');
    writeln!(out, "topk {}", m.last.patterns.len()).expect("writing to a String cannot fail");
    for mp in &m.last.patterns {
        write!(out, "p {}", mp.pattern.len()).expect("writing to a String cannot fail");
        for c in mp.pattern.cells() {
            write!(out, " {}", c.0).expect("writing to a String cannot fail");
        }
        writeln!(out, " {}", hex(mp.nm)).expect("writing to a String cannot fail");
    }
    out.push_str("end\n");
    out
}

/// Advances the lenient cursor (v2 skips blank lines and trims), mapping
/// end-of-input to a positional format error.
fn next_line<'a>(cur: &mut trajio::LineCursor<'a>) -> Result<&'a str, CheckpointError> {
    cur.next_line()
        .ok_or_else(|| err(cur.line(), "unexpected end of checkpoint"))
}

fn parse_hex_f64(s: &str, line: usize) -> Result<f64, CheckpointError> {
    trajio::f64_from_hex(s).map_err(|e| err(line, e.message()))
}

fn parse_int<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, CheckpointError> {
    trajio::parse_int(s, what).map_err(|e| err(line, e.message()))
}

/// Parses and fully validates a v2 checkpoint, rebuilding the miner
/// (the cached top-k is stored verbatim; groups and the certifier index
/// are derived).
pub(crate) fn decode(text: &str) -> Result<StreamMiner, CheckpointError> {
    let mut cur = trajio::LineCursor::lenient(text);

    let version = cur.next_line().ok_or(CheckpointError::Version {
        found: String::new(),
    })?;
    if version != STREAM_VERSION_LINE {
        return Err(CheckpointError::Version {
            found: version.to_string(),
        });
    }

    // params
    let pline = next_line(&mut cur)?;
    let pl = cur.line();
    let f: Vec<&str> = pline.split_whitespace().collect();
    if f.len() != 11 || f[0] != "params" {
        return Err(err(pl, "malformed params line"));
    }
    let k: usize = parse_int(f[1], pl, "k")?;
    let delta = parse_hex_f64(f[2], pl)?;
    let mut params = MiningParams::new(k, delta)
        .map_err(|e| err(pl, format!("invalid checkpointed parameters: {e}")))?;
    params.min_prob = parse_hex_f64(f[3], pl)?;
    params.min_len = parse_int(f[4], pl, "min_len")?;
    params.max_len = parse_int(f[5], pl, "max_len")?;
    params.use_bound_prune = f[6] == "1";
    params.use_one_extension_prune = f[7] == "1";
    params.max_iters = parse_int(f[8], pl, "max_iters")?;
    params.threads = parse_int(f[9], pl, "threads")?;
    params.gamma = if f[10] == "-" {
        None
    } else {
        Some(parse_hex_f64(f[10], pl)?)
    };
    params
        .validate()
        .map_err(|e| err(pl, format!("invalid checkpointed parameters: {e}")))?;

    // grid
    let gline = next_line(&mut cur)?;
    let gl = cur.line();
    let g: Vec<&str> = gline.split_whitespace().collect();
    if g.len() != 7 || g[0] != "grid" {
        return Err(err(gl, "malformed grid line"));
    }
    let min = Point2::new(parse_hex_f64(g[1], gl)?, parse_hex_f64(g[2], gl)?);
    let max = Point2::new(parse_hex_f64(g[3], gl)?, parse_hex_f64(g[4], gl)?);
    let bbox = BBox::new(min, max).ok_or_else(|| err(gl, "degenerate grid bounding box"))?;
    let nx: u32 = parse_int(g[5], gl, "nx")?;
    let ny: u32 = parse_int(g[6], gl, "ny")?;
    let grid = Grid::new(bbox, nx, ny).map_err(|e| err(gl, format!("invalid grid: {e}")))?;
    let num_cells = grid.num_cells() as usize;

    // next_seq
    let nline = next_line(&mut cur)?;
    let nl = cur.line();
    let next_seq: u64 = match nline.split_whitespace().collect::<Vec<_>>()[..] {
        ["next_seq", v] => parse_int(v, nl, "next_seq")?,
        _ => return Err(err(nl, "expected 'next_seq <n>'")),
    };

    // stats — persisted fields only; `window_len` and `ledger_patterns`
    // are recomputed below once window and ledger are rebuilt.
    let sline = next_line(&mut cur)?;
    let sl = cur.line();
    let s: Vec<&str> = sline.split_whitespace().collect();
    let snames = StreamStats::persisted_names();
    if s.len() != snames.len() + 1 || s[0] != "stats" {
        return Err(err(sl, "malformed stats line"));
    }
    let mut svalues = Vec::with_capacity(snames.len());
    for (tok, name) in s[1..].iter().zip(&snames) {
        svalues.push(parse_int::<u64>(tok, sl, name)?);
    }
    let stats = StreamStats::from_persisted(&svalues).expect("length checked above");

    // window
    let wline = next_line(&mut cur)?;
    let wl = cur.line();
    let window_count: usize = match wline.split_whitespace().collect::<Vec<_>>()[..] {
        ["window", v] => parse_int(v, wl, "window count")?,
        _ => return Err(err(wl, "expected 'window <count>'")),
    };
    let mut window: VecDeque<(u64, Trajectory)> = VecDeque::with_capacity(window_count);
    let mut prev_seq: Option<u64> = None;
    for _ in 0..window_count {
        let line = next_line(&mut cur)?;
        let ln = cur.line();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || f[0] != "w" {
            return Err(err(ln, "malformed window entry"));
        }
        let seq: u64 = parse_int(f[1], ln, "sequence number")?;
        if prev_seq.is_some_and(|p| seq <= p) {
            return Err(err(ln, "window sequence numbers must be increasing"));
        }
        if seq >= next_seq {
            return Err(err(ln, "window sequence number beyond next_seq"));
        }
        prev_seq = Some(seq);
        let npoints: usize = parse_int(f[2], ln, "point count")?;
        if f.len() != 3 + npoints * 3 {
            return Err(err(
                ln,
                format!(
                    "window entry declares {npoints} points but has {} fields",
                    f.len() - 3
                ),
            ));
        }
        let points: Vec<SnapshotPoint> = f[3..]
            .chunks_exact(3)
            .map(|c| {
                Ok(SnapshotPoint {
                    mean: Point2::new(parse_hex_f64(c[0], ln)?, parse_hex_f64(c[1], ln)?),
                    sigma: parse_hex_f64(c[2], ln)?,
                })
            })
            .collect::<Result<_, CheckpointError>>()?;
        let traj =
            Trajectory::new(points).map_err(|e| err(ln, format!("invalid trajectory: {e}")))?;
        window.push_back((seq, traj));
    }

    // ledger
    let lline = next_line(&mut cur)?;
    let ll = cur.line();
    let ledger_count: usize = match lline.split_whitespace().collect::<Vec<_>>()[..] {
        ["ledger", v] => parse_int(v, ll, "ledger count")?,
        _ => return Err(err(ll, "expected 'ledger <count>'")),
    };
    let mut ledger = Ledger::new(params.min_prob.ln());
    // Contributions as the file lists them, row-major; transposed into
    // the ledger's columns once every row is read.
    let mut rows: Vec<f64> = Vec::new();
    let mut singulars = vec![false; num_cells];
    for _ in 0..ledger_count {
        let line = next_line(&mut cur)?;
        let ln = cur.line();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 2 || f[0] != "l" {
            return Err(err(ln, "malformed ledger entry"));
        }
        let ncells: usize = parse_int(f[1], ln, "cell count")?;
        if f.len() != 2 + ncells + window_count {
            return Err(err(
                ln,
                format!(
                    "ledger entry declares {ncells} cells over a {window_count}-entry window but has {} fields",
                    f.len() - 2
                ),
            ));
        }
        let cells: Vec<CellId> = f[2..2 + ncells]
            .iter()
            .map(|s| {
                let id: u32 = parse_int(s, ln, "cell id")?;
                if id as usize >= num_cells {
                    return Err(err(ln, format!("cell id {id} outside the grid")));
                }
                Ok(CellId(id))
            })
            .collect::<Result<_, CheckpointError>>()?;
        let pattern = Pattern::new(cells).ok_or_else(|| err(ln, "empty ledger pattern"))?;
        if ledger.contains(&pattern) {
            return Err(err(ln, format!("duplicate ledger pattern {pattern}")));
        }
        if pattern.is_singular() {
            singulars[pattern.cells()[0].index()] = true;
        }
        for s in &f[2 + ncells..] {
            let v = parse_hex_f64(s, ln)?;
            if !v.is_finite() {
                return Err(err(ln, "non-finite ledger contribution"));
            }
            rows.push(v);
        }
        ledger.track(pattern);
    }
    ledger.fill_columns(&rows, window_count);
    if ledger_count > 0 && !singulars.iter().all(|&s| s) {
        return Err(err(
            cur.line(),
            "ledger is missing singular patterns for some grid cells",
        ));
    }

    // mstats
    let mline = next_line(&mut cur)?;
    let ml = cur.line();
    let ms: Vec<&str> = mline.split_whitespace().collect();
    let mnames = MiningStats::persisted_names();
    if ms.len() != mnames.len() + 1 || ms[0] != "mstats" {
        return Err(err(ml, "malformed mstats line"));
    }
    let mut mvalues = Vec::with_capacity(mnames.len());
    for (tok, name) in ms[1..].iter().zip(&mnames) {
        mvalues.push(parse_int::<u64>(tok, ml, name)?);
    }
    let mstats = MiningStats::from_persisted(&mvalues).expect("length checked above");

    // topk
    let tline = next_line(&mut cur)?;
    let tl = cur.line();
    let topk_count: usize = match tline.split_whitespace().collect::<Vec<_>>()[..] {
        ["topk", v] => parse_int(v, tl, "topk count")?,
        _ => return Err(err(tl, "expected 'topk <count>'")),
    };
    if topk_count > params.k {
        return Err(err(tl, "checkpointed top-k exceeds k"));
    }
    let mut topk: Vec<MinedPattern> = Vec::with_capacity(topk_count);
    for _ in 0..topk_count {
        let line = next_line(&mut cur)?;
        let ln = cur.line();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || f[0] != "p" {
            return Err(err(ln, "malformed top-k entry"));
        }
        let ncells: usize = parse_int(f[1], ln, "cell count")?;
        if f.len() != 3 + ncells {
            return Err(err(ln, "top-k entry cell count mismatch"));
        }
        let cells: Vec<CellId> = f[2..2 + ncells]
            .iter()
            .map(|s| {
                let id: u32 = parse_int(s, ln, "cell id")?;
                if id as usize >= num_cells {
                    return Err(err(ln, format!("cell id {id} outside the grid")));
                }
                Ok(CellId(id))
            })
            .collect::<Result<_, CheckpointError>>()?;
        let pattern = Pattern::new(cells).ok_or_else(|| err(ln, "empty top-k pattern"))?;
        let nm = parse_hex_f64(f[2 + ncells], ln)?;
        if !nm.is_finite() {
            return Err(err(ln, "non-finite top-k NM"));
        }
        topk.push(MinedPattern::new(pattern, nm));
    }

    let end = next_line(&mut cur)?;
    if end != "end" {
        return Err(err(cur.line(), "expected 'end'"));
    }

    // Groups are a deterministic function of the top-k (see `finish` in
    // the batch grower), so they are recomputed rather than stored.
    let groups = match params.gamma {
        Some(gamma) => discover_groups(&topk, &grid, gamma),
        None => Vec::new(),
    };
    let mut stats = stats;
    stats.window_len = window.len();
    stats.ledger_patterns = ledger.patterns.len();
    // The certifier is a pure membership index over the ledger, and each
    // corridor table a function of its window entry, so both are derived
    // rather than stored.
    let certifier = Some(trajpattern::SeedCertifier::new(&ledger.patterns));
    let tables = window
        .iter()
        .map(|(_, t)| CorridorTable::build(t, &grid, params.delta, params.min_prob))
        .collect();
    Ok(StreamMiner {
        grid,
        params,
        next_seq,
        window,
        tables,
        ledger,
        certifier,
        last: MiningOutcome {
            patterns: topk,
            groups,
            stats: mstats,
            scorer: trajpattern::ScorerStats::default(),
        },
        stats,
        // Like the certifier, the change counter is derived in-process
        // state: consumers track deltas, so it restarts at zero.
        topk_version: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajgeo::Point2;
    use trajpattern::MiningParams;

    fn sample_miner() -> StreamMiner {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1)
            .unwrap()
            .with_max_len(3)
            .unwrap()
            .with_gamma(0.2)
            .unwrap();
        let mut m = StreamMiner::new(grid, params).unwrap();
        for j in 0..6 {
            let seq = m.push(Trajectory::from_exact((0..4).map(move |i| {
                Point2::new(0.125 + i as f64 * 0.25, 0.3 + j as f64 * 0.05)
            })));
            m.evict_before(seq.saturating_sub(3));
        }
        m
    }

    #[test]
    fn round_trips_bit_exactly() {
        let m = sample_miner();
        let restored = decode(&encode(&m)).unwrap();
        assert_eq!(restored.next_seq, m.next_seq);
        assert_eq!(restored.stats, *m.stats());
        assert_eq!(restored.window.len(), m.window.len());
        assert_eq!(restored.ledger.patterns, m.ledger.patterns);
        assert_eq!(restored.ledger.cols.len(), m.ledger.cols.len());
        for (a, b) in restored.ledger.cols.iter().zip(&m.ledger.cols) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(restored.tables.len(), restored.window.len());
        assert_eq!(restored.topk().len(), m.topk().len());
        for (a, b) in restored.topk().iter().zip(m.topk()) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
        assert_eq!(restored.groups().len(), m.groups().len());
    }

    #[test]
    fn save_and_resume_via_files() {
        let m = sample_miner();
        let path = std::env::temp_dir().join(format!("trajstream-ckpt-{}", std::process::id()));
        m.checkpoint(&path).unwrap();
        let restored = StreamMiner::resume(&path).unwrap();
        for (a, b) in restored.topk().iter().zip(m.topk()) {
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_version_and_corruption() {
        let m = sample_miner();
        let text = encode(&m);
        assert!(matches!(
            decode(&text.replace("v2", "v9")),
            Err(CheckpointError::Version { .. })
        ));
        assert!(matches!(decode(""), Err(CheckpointError::Version { .. })));
        // Truncation: drop the trailing 'end'.
        let truncated = text.trim_end().trim_end_matches("end").to_string();
        assert!(matches!(
            decode(&truncated),
            Err(CheckpointError::Format { .. })
        ));
        // Corrupt a ledger hex value.
        let corrupted = text.replacen("l 1 0 ", "l 1 99999 ", 1);
        if corrupted != text {
            assert!(decode(&corrupted).is_err());
        }
    }

    #[test]
    fn missing_resume_file_is_io_error() {
        let path = std::env::temp_dir().join("trajstream-never-written");
        assert!(matches!(
            StreamMiner::resume(&path),
            Err(CheckpointError::Io { .. })
        ));
    }
}
