//! Append-only trajectory event log — the interchange format between
//! workload generators and the `trajstream` sliding-window miner.
//!
//! The format is line-oriented text so a stream can be *tailed* without
//! any framing machinery (the target container is offline and single-core,
//! so there is no async runtime to lean on — a byte offset and a line
//! parser are the whole consumer):
//!
//! ```text
//! trajstream-events v1
//! t <x> <y> <sigma> <x> <y> <sigma> ...
//! t ...
//! ```
//!
//! One `t` line is one *arrival event*: a complete trajectory, as
//! `(mean.x, mean.y, sigma)` triples. Values are written with Rust's `{}`
//! float formatting, which is the shortest representation that parses back
//! to the identical bits — so a replayed log reproduces the generating
//! dataset exactly, and streamed results can be diffed bit-for-bit against
//! batch mining. Blank lines and `#` comments are ignored.

use crate::dataset::Dataset;
use crate::snapshot::SnapshotPoint;
use crate::trajectory::{Trajectory, TrajectoryError};
use std::fmt;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use trajgeo::Point2;
#[allow(unused_imports)] // referenced by intra-doc links on `recover_event_log`
use trajio::tail::TailVerdict;
use trajio::tail::{RecordStep, TailScan};

/// First line of every event log.
pub const EVENTS_VERSION_LINE: &str = "trajstream-events v1";

/// Why an event log could not be parsed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventLogError {
    /// The first non-blank line is not [`EVENTS_VERSION_LINE`].
    Version {
        /// What was found instead.
        found: String,
    },
    /// A line that could not be parsed.
    Line {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structurally valid line describing an invalid trajectory.
    Trajectory {
        /// 1-based line number.
        line: usize,
        /// The underlying validation error.
        source: TrajectoryError,
    },
}

impl fmt::Display for EventLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventLogError::Version { found } => write!(
                f,
                "not a trajectory event log: first line is '{found}' (expected '{EVENTS_VERSION_LINE}')"
            ),
            EventLogError::Line { line, message } => {
                write!(f, "event log line {line}: {message}")
            }
            EventLogError::Trajectory { line, .. } => {
                write!(f, "event log line {line}: invalid trajectory")
            }
        }
    }
}

impl std::error::Error for EventLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EventLogError::Trajectory { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Serializes a dataset as an event log, one arrival per trajectory in
/// dataset order. Round-trips exactly through [`parse_event_log`].
pub fn write_event_log(data: &Dataset) -> String {
    let mut out = String::from(EVENTS_VERSION_LINE);
    out.push('\n');
    for traj in data.iter() {
        append_event(&mut out, traj);
    }
    out
}

/// Appends one arrival event line for `traj` to `out` (no version line) —
/// the incremental producer used by live emitters.
pub fn append_event(out: &mut String, traj: &Trajectory) {
    out.push('t');
    for sp in traj.points() {
        use fmt::Write;
        write!(out, " {} {} {}", sp.mean.x, sp.mean.y, sp.sigma)
            .expect("writing to a String cannot fail");
    }
    out.push('\n');
}

/// Parses a complete event log (version line first) into arrival events in
/// order.
pub fn parse_event_log(text: &str) -> Result<Vec<Trajectory>, EventLogError> {
    match trajio::first_content_line(text, true) {
        Some(EVENTS_VERSION_LINE) => {}
        other => {
            return Err(EventLogError::Version {
                found: other.unwrap_or("").to_string(),
            })
        }
    }
    let mut events = Vec::new();
    let mut version_seen = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !version_seen {
            // The sniffed version line itself.
            version_seen = true;
            continue;
        }
        if let Some(traj) = parse_event_line(line, idx + 1)? {
            events.push(traj);
        }
    }
    Ok(events)
}

/// Parses one (already version-checked) log line. Returns `Ok(None)` for
/// blank lines and comments, so a tailing consumer can feed every appended
/// line through unconditionally.
pub fn parse_event_line(raw: &str, line_no: usize) -> Result<Option<Trajectory>, EventLogError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some("t") => {}
        Some(other) => {
            return Err(EventLogError::Line {
                line: line_no,
                message: format!("unknown event kind '{other}'"),
            })
        }
        None => return Ok(None),
    }
    let values: Vec<f64> = fields
        .map(|s| {
            s.parse::<f64>().map_err(|_| EventLogError::Line {
                line: line_no,
                message: format!("'{s}' is not a number"),
            })
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() || !values.len().is_multiple_of(3) {
        return Err(EventLogError::Line {
            line: line_no,
            message: format!(
                "expected (x, y, sigma) triples, found {} values",
                values.len()
            ),
        });
    }
    // Build unvalidated and let `Trajectory::new` report the offending
    // snapshot index.
    let points: Vec<SnapshotPoint> = values
        .chunks_exact(3)
        .map(|c| SnapshotPoint {
            mean: Point2::new(c[0], c[1]),
            sigma: c[2],
        })
        .collect();
    let traj = Trajectory::new(points).map_err(|source| EventLogError::Trajectory {
        line: line_no,
        source,
    })?;
    Ok(Some(traj))
}

/// A `tail -f`-style reader over any line-oriented log file — the raw
/// transport layer under the `trajfeed` file sources (the `.events` and
/// dead-reckoning protocols differ on top but share these follow/torn-line
/// semantics).
///
/// Semantics, version-agnostic (protocol layers interpret content):
///
/// * at end-of-file a following reader sleeps one poll interval and
///   retries — a writer appending to the file wakes it on the next poll;
/// * a partial line (no terminating newline yet) is never surfaced: the
///   reader accumulates until the newline arrives, so a torn append is
///   invisible to the consumer;
/// * the `stop` flag ends the tail cleanly at the next poll, which is
///   how SIGINT/SIGTERM drains reach a blocked reader without signals
///   interrupting I/O.
pub struct LineFollower {
    reader: std::io::BufReader<std::fs::File>,
    line: String,
    follow: bool,
    poll: Duration,
}

impl LineFollower {
    /// Opens `path` for tailing. `follow` selects live-tail semantics
    /// (sleep-and-retry at EOF); `poll` is the sleep interval between
    /// polls.
    pub fn open(
        path: &std::path::Path,
        follow: bool,
        poll: Duration,
    ) -> std::io::Result<LineFollower> {
        Ok(LineFollower {
            reader: std::io::BufReader::new(std::fs::File::open(path)?),
            line: String::new(),
            follow,
            poll,
        })
    }

    /// Returns the next complete line (trailing `\n`/`\r` stripped), or
    /// `Ok(None)` when the file ended: end-of-file in replay mode, or
    /// `stop` observed while waiting for more bytes.
    pub fn next_line(&mut self, stop: &AtomicBool) -> std::io::Result<Option<&str>> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            if !self.follow || stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            loop {
                std::thread::sleep(self.poll);
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                let m = self.reader.read_line(&mut self.line)?;
                if m > 0 {
                    break;
                }
            }
        }
        // In follow mode a partial line may arrive before its newline;
        // wait for the rest rather than surfacing half a record. (In
        // replay mode a final unterminated line is surfaced as-is.)
        if self.follow && !self.line.ends_with('\n') {
            loop {
                if stop.load(Ordering::SeqCst) {
                    // The torn tail is dropped; a resumed reader re-reads
                    // the whole line once it is complete.
                    return Ok(None);
                }
                std::thread::sleep(self.poll);
                let mut rest = String::new();
                let m = self.reader.read_line(&mut rest)?;
                self.line.push_str(&rest);
                if m > 0 && self.line.ends_with('\n') {
                    break;
                }
            }
        }
        Ok(Some(self.line.trim_end_matches(['\n', '\r'])))
    }
}

/// The crash-recovery view of an event log: the committed events plus
/// the tail diagnosis from the shared [`trajio::tail`] scanner.
#[derive(Debug, Clone)]
pub struct EventLogRecovery {
    /// Every event in the committed (pre-tear) prefix, in log order.
    pub events: Vec<Trajectory>,
    /// Committed length, record count, and tail verdict. Record counts
    /// include comment/blank lines; `events.len()` is the event count.
    pub scan: TailScan,
}

/// Recovers the committed prefix of a possibly crash-torn event log.
///
/// Where [`parse_event_log`] treats a torn or garbage tail as a fatal
/// parse error, this scanner — built on [`trajio::tail::recover`], the
/// same primitive trajdb segments use — keeps every complete, valid
/// event before the damage and reports a typed [`TailVerdict`]:
///
/// * a final line with no terminating newline is a torn append
///   ([`TailVerdict::TornTruncated`]);
/// * a complete line that does not parse is foreign bytes
///   ([`TailVerdict::Garbage`]);
/// * otherwise the log is [`TailVerdict::Clean`].
///
/// Only a missing or torn *version line* remains a hard error: such a
/// file has no committed prefix to recover.
pub fn recover_event_log(text: &str) -> Result<EventLogRecovery, EventLogError> {
    match trajio::first_content_line(text, true) {
        Some(EVENTS_VERSION_LINE) => {}
        other => {
            return Err(EventLogError::Version {
                found: other.unwrap_or("").to_string(),
            })
        }
    }
    // Scan starts after the version line; everything before it (blanks,
    // comments) was validated by the sniff above. Walk lines with byte
    // offsets rather than `str::find`, so a comment quoting the version
    // string cannot confuse the split.
    let mut body_start = text.len();
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        let content = line.trim();
        if !(content.is_empty() || content.starts_with('#')) {
            // The sniff guarantees this is the version line. If it has
            // no trailing newline the body is empty (clean tail) —
            // `parse_event_log` accepts this shape too.
            body_start = if line.ends_with('\n') {
                offset + line.len()
            } else {
                text.len()
            };
            break;
        }
        offset += line.len();
    }
    let body = &text[body_start..];

    let mut events = Vec::new();
    let step = |rest: &[u8]| -> RecordStep {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // No terminating newline: a torn append, even if the prefix
            // happens to parse (framing is the newline).
            return RecordStep::Incomplete;
        };
        let Ok(line) = std::str::from_utf8(&rest[..nl]) else {
            return RecordStep::Corrupt;
        };
        match parse_event_line(line.trim_end_matches('\r'), 0) {
            Ok(Some(traj)) => {
                events.push(traj);
                RecordStep::Complete(nl + 1)
            }
            Ok(None) => RecordStep::Complete(nl + 1),
            Err(_) => RecordStep::Corrupt,
        }
    };
    let mut scan = trajio::tail::recover(body.as_bytes(), step);
    scan.committed_len += body_start;
    Ok(EventLogRecovery { events, scan })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        (0..4)
            .map(|i| {
                Trajectory::new(
                    (0..3)
                        .map(|j| {
                            SnapshotPoint::new(
                                Point2::new(
                                    0.1 + i as f64 * 0.071 + j as f64 / 3.0,
                                    (0.3 + i as f64 * 0.17).fract(),
                                ),
                                0.01 + j as f64 * 0.013,
                            )
                            .unwrap()
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let data = sample();
        let text = write_event_log(&data);
        let events = parse_event_log(&text).unwrap();
        assert_eq!(events.len(), data.len());
        for (orig, parsed) in data.iter().zip(&events) {
            for (a, b) in orig.points().iter().zip(parsed.points()) {
                assert_eq!(a.mean.x.to_bits(), b.mean.x.to_bits());
                assert_eq!(a.mean.y.to_bits(), b.mean.y.to_bits());
                assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
            }
        }
    }

    #[test]
    fn round_trips_awkward_floats() {
        let pts = vec![
            SnapshotPoint::new(Point2::new(1.0 / 3.0, 2.0f64.sqrt()), 0.1 + 0.2).unwrap(),
            SnapshotPoint::new(Point2::new(f64::MIN_POSITIVE, 1e300), 0.0).unwrap(),
        ];
        let data: Dataset = vec![Trajectory::new(pts).unwrap()].into_iter().collect();
        let text = write_event_log(&data);
        let events = parse_event_log(&text).unwrap();
        for (a, b) in data.trajectories()[0]
            .points()
            .iter()
            .zip(events[0].points())
        {
            assert_eq!(a.mean.x.to_bits(), b.mean.x.to_bits());
            assert_eq!(a.mean.y.to_bits(), b.mean.y.to_bits());
            assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
        }
    }

    #[test]
    fn skips_blanks_and_comments() {
        let text = format!("# preamble\n\n{EVENTS_VERSION_LINE}\n# note\nt 0.1 0.2 0.0\n\n");
        let events = parse_event_log(&text).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].len(), 1);
    }

    #[test]
    fn rejects_bad_input_with_line_numbers() {
        assert!(matches!(
            parse_event_log("nonsense\n"),
            Err(EventLogError::Version { .. })
        ));
        assert!(matches!(
            parse_event_log(""),
            Err(EventLogError::Version { .. })
        ));
        let text = format!("{EVENTS_VERSION_LINE}\nt 0.1 0.2\n");
        assert!(matches!(
            parse_event_log(&text),
            Err(EventLogError::Line { line: 2, .. })
        ));
        let text = format!("{EVENTS_VERSION_LINE}\nt 0.1 oops 0.0\n");
        let err = parse_event_log(&text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let text = format!("{EVENTS_VERSION_LINE}\nx 0.1 0.2 0.0\n");
        assert!(matches!(
            parse_event_log(&text),
            Err(EventLogError::Line { line: 2, .. })
        ));
        let text = format!("{EVENTS_VERSION_LINE}\nt nan 0.2 0.0\n");
        assert!(matches!(
            parse_event_log(&text),
            Err(EventLogError::Trajectory { line: 2, .. })
        ));
    }
}
