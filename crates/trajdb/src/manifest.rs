//! The sealed-segment manifest: the store's single source of truth for
//! which segment files exist and what they contain.
//!
//! ```text
//! trajdb-manifest v1
//! active 3
//! next_file 4
//! segments 2
//! s 1 24 8 2210 9f0a1b2c 0 7 0 23 0 7
//! s 2 24 8 2218 4d5e6f70 8 15 24 47 8 15
//! end
//! ```
//!
//! Each `s` line records one *sealed* (immutable, fully fsynced)
//! segment: file number, record count, batch count, byte length, whole-
//! file CRC-32, and the inclusive `[first, last]` ranges of batch
//! sequence numbers, record ids, and batch timestamps — enough to skip
//! a segment during range reads without opening it, and to detect a
//! damaged or resized sealed file before trusting it.
//!
//! The manifest is always replaced atomically via
//! [`trajio::write_atomic`], so a crash leaves either the old manifest
//! or the new one, never a torn hybrid; the `end` sentinel guards
//! against a truncated copy made by non-atomic tooling.

use crate::StoreError;
use std::fmt::Write as _;
use std::path::Path;
use trajio::crc::{crc32_from_hex, crc32_hex};
use trajio::{parse_int, CodecError, LineCursor};

/// First line of every manifest.
pub const MANIFEST_VERSION_LINE: &str = "trajdb-manifest v1";

/// Manifest entry for one sealed segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment file number (`seg-NNNNNN.log`).
    pub file_no: u64,
    /// Records across all batches in the segment.
    pub records: u64,
    /// Committed batches in the segment.
    pub batches: u64,
    /// Exact byte length of the segment file.
    pub bytes: u64,
    /// CRC-32 of the whole segment file.
    pub crc: u32,
    /// First batch sequence number in the segment.
    pub first_seq: u64,
    /// Last batch sequence number in the segment.
    pub last_seq: u64,
    /// Smallest record id in the segment.
    pub first_id: u64,
    /// Largest record id in the segment.
    pub last_id: u64,
    /// Smallest batch timestamp in the segment.
    pub first_t: u64,
    /// Largest batch timestamp in the segment.
    pub last_t: u64,
}

/// The decoded manifest: sealed segments in commit order plus the
/// numbers of the active segment and the next file to allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// File number of the segment currently receiving appends.
    pub active: u64,
    /// Next unused file number.
    pub next_file: u64,
    /// Sealed segments, oldest first.
    pub sealed: Vec<SegmentMeta>,
}

impl Default for Manifest {
    fn default() -> Manifest {
        Manifest::new()
    }
}

impl Manifest {
    /// A fresh manifest for an empty store.
    pub fn new() -> Manifest {
        Manifest {
            active: 1,
            next_file: 2,
            sealed: Vec::new(),
        }
    }

    /// Serialises the manifest to its canonical text form.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{MANIFEST_VERSION_LINE}\nactive {}\nnext_file {}\nsegments {}\n",
            self.active,
            self.next_file,
            self.sealed.len()
        );
        for s in &self.sealed {
            writeln!(
                out,
                "s {} {} {} {} {} {} {} {} {} {} {}",
                s.file_no,
                s.records,
                s.batches,
                s.bytes,
                crc32_hex(s.crc),
                s.first_seq,
                s.last_seq,
                s.first_id,
                s.last_id,
                s.first_t,
                s.last_t
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("end\n");
        out
    }

    /// Parses a manifest, validating the version line, the declared
    /// segment count, and the `end` sentinel.
    pub fn decode(text: &str, path: &Path) -> Result<Manifest, StoreError> {
        let fail = |cursor: &LineCursor<'_>, message: String| StoreError::Manifest {
            path: path.to_path_buf(),
            line: cursor.line(),
            message,
        };
        let codec = |cursor: &LineCursor<'_>, e: CodecError| fail(cursor, e.message().to_string());
        let mut cursor = LineCursor::lenient(text);
        match cursor.next_line() {
            Some(line) if line == MANIFEST_VERSION_LINE => {}
            other => {
                return Err(fail(
                    &cursor,
                    format!(
                        "expected version line '{MANIFEST_VERSION_LINE}', found '{}'",
                        other.unwrap_or("")
                    ),
                ))
            }
        }
        let mut field = |key: &str| -> Result<u64, StoreError> {
            let line = cursor
                .next_line()
                .ok_or_else(|| fail(&cursor, format!("missing '{key}' line")))?;
            let value = line
                .strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .ok_or_else(|| fail(&cursor, format!("expected '{key} <n>', found '{line}'")))?;
            parse_int(value.trim(), key).map_err(|e| codec(&cursor, e))
        };
        let active = field("active")?;
        let next_file = field("next_file")?;
        // The declared count reserves nothing: each segment must have a line.
        let count = field("segments")?;
        let mut sealed = Vec::new();
        for _ in 0..count {
            let line = cursor
                .next_line()
                .ok_or_else(|| fail(&cursor, "missing segment line".to_string()))?;
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 12 || fields[0] != "s" {
                return Err(fail(
                    &cursor,
                    format!("expected 's' line with 11 fields, found '{line}'"),
                ));
            }
            let u = |i: usize, what: &str| parse_int::<u64>(fields[i], what);
            let meta = SegmentMeta {
                file_no: u(1, "file_no").map_err(|e| codec(&cursor, e))?,
                records: u(2, "records").map_err(|e| codec(&cursor, e))?,
                batches: u(3, "batches").map_err(|e| codec(&cursor, e))?,
                bytes: u(4, "bytes").map_err(|e| codec(&cursor, e))?,
                crc: crc32_from_hex(fields[5]).map_err(|e| codec(&cursor, e))?,
                first_seq: u(6, "first_seq").map_err(|e| codec(&cursor, e))?,
                last_seq: u(7, "last_seq").map_err(|e| codec(&cursor, e))?,
                first_id: u(8, "first_id").map_err(|e| codec(&cursor, e))?,
                last_id: u(9, "last_id").map_err(|e| codec(&cursor, e))?,
                first_t: u(10, "first_t").map_err(|e| codec(&cursor, e))?,
                last_t: u(11, "last_t").map_err(|e| codec(&cursor, e))?,
            };
            // Recovery continues the sequence and the ids after the last
            // sealed segment, so neither range may be inverted or end at
            // `u64::MAX`.
            if meta.first_seq > meta.last_seq || meta.last_seq == u64::MAX {
                return Err(fail(
                    &cursor,
                    format!("bad seq range {}..={}", meta.first_seq, meta.last_seq),
                ));
            }
            if meta.first_id > meta.last_id || meta.last_id == u64::MAX {
                return Err(fail(
                    &cursor,
                    format!("bad id range {}..={}", meta.first_id, meta.last_id),
                ));
            }
            sealed.push(meta);
        }
        match cursor.next_line() {
            Some("end") => {}
            other => {
                return Err(fail(
                    &cursor,
                    format!("expected 'end' sentinel, found '{}'", other.unwrap_or("")),
                ))
            }
        }
        if let Some(extra) = cursor.next_line() {
            return Err(fail(
                &cursor,
                format!("unexpected line after 'end': '{extra}'"),
            ));
        }
        Ok(Manifest {
            active,
            next_file,
            sealed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Manifest {
        Manifest {
            active: 3,
            next_file: 4,
            sealed: vec![
                SegmentMeta {
                    file_no: 1,
                    records: 24,
                    batches: 8,
                    bytes: 2210,
                    crc: 0x9f0a_1b2c,
                    first_seq: 0,
                    last_seq: 7,
                    first_id: 0,
                    last_id: 23,
                    first_t: 0,
                    last_t: 7,
                },
                SegmentMeta {
                    file_no: 2,
                    records: 24,
                    batches: 8,
                    bytes: 2218,
                    crc: 0x4d5e_6f70,
                    first_seq: 8,
                    last_seq: 15,
                    first_id: 24,
                    last_id: 47,
                    first_t: 8,
                    last_t: 15,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample();
        let text = m.encode();
        let back = Manifest::decode(&text, &PathBuf::from("MANIFEST")).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.encode(), text, "canonical form is a fixed point");
    }

    #[test]
    fn truncated_manifest_is_rejected_by_the_sentinel() {
        let text = sample().encode();
        let torn = &text[..text.len() - "end\n".len()];
        match Manifest::decode(torn, &PathBuf::from("MANIFEST")) {
            Err(StoreError::Manifest { message, .. }) => {
                assert!(message.contains("end"), "got: {message}")
            }
            other => panic!("expected a Manifest error, got {other:?}"),
        }
    }

    #[test]
    fn segment_count_mismatch_is_rejected() {
        let mut text = sample().encode();
        text = text.replace("segments 2", "segments 3");
        assert!(matches!(
            Manifest::decode(&text, &PathBuf::from("MANIFEST")),
            Err(StoreError::Manifest { .. })
        ));
    }

    #[test]
    fn bad_version_line_is_rejected() {
        assert!(matches!(
            Manifest::decode("something else\nend\n", &PathBuf::from("MANIFEST")),
            Err(StoreError::Manifest { line: 1, .. })
        ));
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::new();
        let text = m.encode();
        assert_eq!(Manifest::decode(&text, &PathBuf::from("M")).unwrap(), m);
    }
}
