//! The `.events` protocol decoder on the spine: version line, `t …`
//! arrival records, `# eof` terminator — over any [`LineSource`].
//!
//! This is the same protocol [`trajdata::eventlog`] defines; the decode
//! is shared via [`parse_event_line`], so a file replay, a live tail, a
//! TCP stream, and `trajmine mine` over a `.events` file cannot diverge
//! in what a record means.

use crate::line::{LineSource, LineStep};
use crate::{Feed, FeedBatch, FeedError, FeedStats, Pipeline};
use std::sync::atomic::AtomicBool;
use trajdata::eventlog::{parse_event_line, EVENTS_VERSION_LINE};

/// A feed decoding the `.events` line protocol from a line source.
pub struct EventsFeed<S: LineSource> {
    lines: S,
    pipeline: Pipeline,
    stats: FeedStats,
    seen_version: bool,
    honour_eof: bool,
    line_no: usize,
    kind: &'static str,
}

impl<S: LineSource> EventsFeed<S> {
    /// Wraps a line source. `honour_eof` selects live semantics: a
    /// `# eof` line ends the stream (replays treat it as a comment).
    pub fn new(lines: S, pipeline: Pipeline, honour_eof: bool, kind: &'static str) -> Self {
        EventsFeed {
            lines,
            pipeline,
            stats: FeedStats::default(),
            seen_version: false,
            honour_eof,
            line_no: 0,
            kind,
        }
    }

    fn advance(&mut self, stop: &AtomicBool) -> Result<FeedBatch, FeedError> {
        loop {
            match self.lines.next_line(stop)? {
                LineStep::End => return Ok(FeedBatch::End),
                LineStep::Restart => {
                    // Fresh stream after a reconnect: version line again.
                    self.seen_version = false;
                }
                LineStep::Line(raw) => {
                    self.line_no += 1;
                    let content = raw.trim();
                    if !self.seen_version {
                        if content.is_empty() || content.starts_with('#') {
                            continue;
                        }
                        if content != EVENTS_VERSION_LINE {
                            return Err(FeedError::Version {
                                found: content.to_string(),
                                expected: EVENTS_VERSION_LINE,
                            });
                        }
                        self.seen_version = true;
                        continue;
                    }
                    if self.honour_eof && content == "# eof" {
                        return Ok(FeedBatch::End);
                    }
                    match parse_event_line(&raw, self.line_no) {
                        Ok(Some(traj)) => {
                            if let Some(t) = self.pipeline.admit(traj, &mut self.stats)? {
                                self.stats.records += 1;
                                self.stats.batches += 1;
                                return Ok(FeedBatch::Records(vec![t]));
                            }
                        }
                        Ok(None) => {}
                        Err(e) => self.pipeline.tolerate(e.into(), &mut self.stats)?,
                    }
                }
            }
        }
    }
}

impl<S: LineSource> Feed for EventsFeed<S> {
    fn next_batch(&mut self, stop: &AtomicBool) -> Result<FeedBatch, FeedError> {
        let out = self.advance(stop);
        self.stats.reconnects = self.lines.reconnects();
        self.stats.recovery_clean = self.lines.recovery_clean();
        self.stats.recovery_torn = self.lines.recovery_torn();
        out
    }

    fn stats(&self) -> &FeedStats {
        &self.stats
    }

    fn kind(&self) -> &'static str {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::FileLineSource;
    use std::time::Duration;
    use trajdata::IngestPolicy;

    fn temp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("trajfeed-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn replay(path: &std::path::Path, policy: IngestPolicy) -> EventsFeed<FileLineSource> {
        let src = FileLineSource::open(path, false, Duration::from_millis(1)).unwrap();
        EventsFeed::new(src, Pipeline::new(policy), false, "events")
    }

    #[test]
    fn replays_a_log_bit_exactly() {
        let path = temp(
            "replay.events",
            "trajstream-events v1\nt 0.1 0.2 0.05\nt 0.30000000000000004 0.4 0.0\n",
        );
        let mut feed = replay(&path, IngestPolicy::Strict);
        let stop = AtomicBool::new(false);
        let out = crate::drain(&mut feed, &stop).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].points()[0].mean.x, 0.30000000000000004);
        assert_eq!(feed.stats().records, 2);
    }

    #[test]
    fn wrong_version_is_fatal_even_under_skip() {
        let path = temp("badver.events", "not-an-event-log\nt 0.1 0.2 0.05\n");
        let mut feed = replay(&path, IngestPolicy::Skip);
        let stop = AtomicBool::new(false);
        assert!(matches!(
            crate::drain(&mut feed, &stop),
            Err(FeedError::Version { .. })
        ));
    }

    #[test]
    fn skip_policy_counts_defective_lines() {
        let path = temp(
            "defect.events",
            "trajstream-events v1\nt 0.1 0.2 0.05\nt nonsense\nt 0.3 0.4 0.05\n",
        );
        let mut feed = replay(&path, IngestPolicy::Skip);
        let stop = AtomicBool::new(false);
        let out = crate::drain(&mut feed, &stop).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(feed.stats().defect_lines, 1);

        let mut strict = replay(&path, IngestPolicy::Strict);
        assert!(crate::drain(&mut strict, &stop).is_err());
    }

    fn follow(path: &std::path::Path) -> EventsFeed<FileLineSource> {
        let src = FileLineSource::open(path, true, Duration::from_millis(1)).unwrap();
        EventsFeed::new(src, Pipeline::default(), true, "events")
    }

    #[test]
    fn follows_torn_appends_until_the_eof_marker() {
        use std::io::Write;
        let path = temp("follow.events", &format!("{EVENTS_VERSION_LINE}\n"));
        let lines: Vec<String> = (0..4)
            .map(|i| format!("t 0.{i} 0.5 0.05 0.{i}5 0.5 0.05\n"))
            .collect();
        let writer_path = path.clone();
        let writer_lines = lines.clone();
        let writer = std::thread::spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            for line in &writer_lines {
                // Torn append: half the line, a pause, then the rest —
                // the feed must wait for the newline.
                let half = line.len() / 2;
                f.write_all(&line.as_bytes()[..half]).unwrap();
                f.flush().unwrap();
                std::thread::sleep(Duration::from_millis(3));
                f.write_all(&line.as_bytes()[half..]).unwrap();
                f.flush().unwrap();
            }
            f.write_all(b"# eof\n").unwrap();
        });

        let stop = AtomicBool::new(false);
        let mut feed = follow(&path);
        let out = crate::drain(&mut feed, &stop).unwrap();
        writer.join().unwrap();
        assert_eq!(out.len(), lines.len());
        assert_eq!(feed.stats().defect_lines, 0);
        for (i, traj) in out.iter().enumerate() {
            assert_eq!(traj.len(), 2);
            assert_eq!(
                traj.points()[0].mean.x,
                format!("0.{i}").parse::<f64>().unwrap()
            );
        }
    }

    #[test]
    fn stop_flag_ends_a_blocked_follow() {
        let path = temp(
            "stop.events",
            &format!("{EVENTS_VERSION_LINE}\nt 0.1 0.2 0.0\n"),
        );
        let stop = AtomicBool::new(false);
        let mut feed = follow(&path);
        assert!(matches!(feed.next_batch(&stop), Ok(FeedBatch::Records(r)) if r.len() == 1));
        // No more bytes and no `# eof`: without the stop flag this would
        // poll forever. Raise it and the feed ends cleanly.
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(feed.next_batch(&stop), Ok(FeedBatch::End)));
    }

    #[test]
    fn eof_marker_ends_live_streams_only() {
        let text = "trajstream-events v1\nt 0.1 0.2 0.05\n# eof\nt 0.3 0.4 0.05\n";
        let path = temp("eof.events", text);
        let stop = AtomicBool::new(false);

        let mut live = EventsFeed::new(
            FileLineSource::open(&path, false, Duration::from_millis(1)).unwrap(),
            Pipeline::default(),
            true,
            "events",
        );
        assert_eq!(crate::drain(&mut live, &stop).unwrap().len(), 1);

        let mut rep = replay(&path, IngestPolicy::Strict);
        assert_eq!(crate::drain(&mut rep, &stop).unwrap().len(), 2);
    }
}
