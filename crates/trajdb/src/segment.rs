//! The on-disk segment format: checksummed, length-prefixed record
//! batches appended to a text file.
//!
//! ```text
//! trajdb-segment v1
//! b <seq> <t> <n_records> <payload_len> <crc32:08x>
//! r <id> <x> <y> <sigma> [<x> <y> <sigma> ...]
//! …                                  (n_records lines, payload_len bytes)
//! b …
//! ```
//!
//! One `b` header frames one *batch*: `seq` is the store-wide batch
//! sequence number (strictly monotonic, so a replayed/duplicated append
//! is detected), `t` the batch's logical timestamp, `payload_len` the
//! exact byte length of the record lines that follow, and `crc32` the
//! CRC-32 (IEEE) of those payload bytes. Record lines carry the record
//! id and the trajectory's `(x, y, sigma)` triples in Rust's shortest
//! round-trip float formatting — the same codec the `.events` log uses —
//! so every value survives storage bit-exactly.
//!
//! Because batches are length-prefixed *and* checksummed, the committed
//! prefix of a crash-torn segment is decidable byte-by-byte; the scan is
//! [`trajio::tail::recover`] with the step function below, shared with
//! the eventlog's recovery path.

use crate::StoreError;
use std::fmt::Write as _;
use std::path::Path;
use trajdata::{SnapshotPoint, Trajectory};
use trajgeo::Point2;
use trajio::crc::{crc32, crc32_from_hex, crc32_hex};
use trajio::tail::{recover, RecordStep, TailScan, TailVerdict};

/// First line of every segment file.
pub const SEGMENT_VERSION_LINE: &str = "trajdb-segment v1";

/// Metadata of one committed batch inside a segment, as discovered by
/// [`scan_segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMeta {
    /// Store-wide batch sequence number.
    pub seq: u64,
    /// Logical timestamp of the batch.
    pub t: u64,
    /// Number of records in the batch.
    pub records: u64,
    /// First record id in the batch.
    pub first_id: u64,
    /// Last record id in the batch.
    pub last_id: u64,
    /// Absolute byte offset of the batch header within the segment.
    pub offset: usize,
    /// Total byte length of the batch (header line + payload).
    pub len: usize,
}

/// The outcome of scanning a segment: the committed batches and the
/// shared tail diagnosis (committed length is absolute within the file).
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// Every committed batch, in file order.
    pub batches: Vec<BatchMeta>,
    /// Committed byte length and tail verdict for the whole file.
    pub scan: TailScan,
}

/// Appends one encoded batch (header + payload) to `out`. Record ids are
/// assigned consecutively from `first_id` in slice order.
pub fn encode_batch(out: &mut Vec<u8>, seq: u64, t: u64, first_id: u64, trajs: &[Trajectory]) {
    let mut payload = String::new();
    for (i, traj) in trajs.iter().enumerate() {
        write!(payload, "r {}", first_id + i as u64).expect("writing to a String cannot fail");
        for sp in traj.points() {
            write!(payload, " {} {} {}", sp.mean.x, sp.mean.y, sp.sigma)
                .expect("writing to a String cannot fail");
        }
        payload.push('\n');
    }
    let header = format!(
        "b {seq} {t} {} {} {}\n",
        trajs.len(),
        payload.len(),
        crc32_hex(crc32(payload.as_bytes()))
    );
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// Parses one `r` record line into `(id, trajectory)`.
fn parse_record_line(line: &str) -> Result<(u64, Trajectory), String> {
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some("r") => {}
        other => {
            return Err(format!(
                "expected 'r' record line, found '{}'",
                other.unwrap_or("")
            ))
        }
    }
    let id: u64 = fields
        .next()
        .ok_or("record line missing id")?
        .parse()
        .map_err(|_| "bad record id".to_string())?;
    let values: Vec<f64> = fields
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("'{s}' is not a number"))
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() || !values.len().is_multiple_of(3) {
        return Err(format!(
            "expected (x, y, sigma) triples, found {} values",
            values.len()
        ));
    }
    let points: Vec<SnapshotPoint> = values
        .chunks_exact(3)
        .map(|c| SnapshotPoint {
            mean: Point2::new(c[0], c[1]),
            sigma: c[2],
        })
        .collect();
    let traj = Trajectory::new(points).map_err(|e| format!("invalid trajectory: {e}"))?;
    Ok((id, traj))
}

/// Parses a batch payload into records, verifying the declared count.
fn parse_payload(payload: &[u8], declared: u64) -> Result<Vec<(u64, Trajectory)>, String> {
    if !payload.is_empty() && payload[payload.len() - 1] != b'\n' {
        return Err("payload does not end with a newline".into());
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    // `declared` comes from the header, which the checksum does not cover,
    // so nothing is reserved from it.
    let mut records = Vec::new();
    for line in text.lines() {
        records.push(parse_record_line(line)?);
    }
    if records.len() as u64 != declared {
        return Err(format!(
            "batch declares {declared} records but payload holds {}",
            records.len()
        ));
    }
    Ok(records)
}

/// Scans a segment's bytes, reporting every committed batch, streaming
/// each committed record through `on_record`, and diagnosing the tail.
///
/// `expected_seq` is the sequence number the first batch must carry
/// (`None` skips continuity checking — used only by tooling); a batch
/// with any other sequence — including a *duplicated* append replayed
/// after a crash — is diagnosed as garbage, so recovery keeps exactly
/// the committed-batch prefix.
///
/// Records of a batch are surfaced only once the whole batch (length and
/// checksum) has validated, so `on_record` never sees torn data.
pub fn scan_segment(
    bytes: &[u8],
    expected_seq: Option<u64>,
    mut on_record: impl FnMut(&BatchMeta, u64, Trajectory),
) -> SegmentScan {
    if bytes.is_empty() {
        return SegmentScan {
            batches: Vec::new(),
            scan: TailScan::empty(),
        };
    }
    // The version line is part of the committed prefix: a file torn
    // inside it has no committed bytes at all.
    let version = format!("{SEGMENT_VERSION_LINE}\n");
    let body_start =
        if bytes.len() >= version.len() && bytes[..version.len()] == *version.as_bytes() {
            version.len()
        } else if version.as_bytes().starts_with(bytes) {
            return SegmentScan {
                batches: Vec::new(),
                scan: TailScan {
                    committed_len: 0,
                    records: 0,
                    verdict: TailVerdict::TornTruncated(bytes.len()),
                },
            };
        } else {
            return SegmentScan {
                batches: Vec::new(),
                scan: TailScan {
                    committed_len: 0,
                    records: 0,
                    verdict: TailVerdict::Garbage(bytes.len()),
                },
            };
        };

    let mut batches: Vec<BatchMeta> = Vec::new();
    let mut next_seq = expected_seq;
    let mut cursor = body_start;
    let step = |rest: &[u8]| -> RecordStep {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            return RecordStep::Incomplete;
        };
        let Ok(header) = std::str::from_utf8(&rest[..nl]) else {
            return RecordStep::Corrupt;
        };
        let mut fields = header.split_whitespace();
        if fields.next() != Some("b") {
            return RecordStep::Corrupt;
        }
        let parsed: Option<(u64, u64, u64, usize, u32)> = (|| {
            let seq = fields.next()?.parse().ok()?;
            let t = fields.next()?.parse().ok()?;
            let n = fields.next()?.parse().ok()?;
            let len = fields.next()?.parse().ok()?;
            let crc = crc32_from_hex(fields.next()?).ok()?;
            fields.next().is_none().then_some((seq, t, n, len, crc))
        })();
        let Some((seq, t, n, payload_len, crc)) = parsed else {
            return RecordStep::Corrupt;
        };
        let header_len = nl + 1;
        let Some(batch_len) = header_len.checked_add(payload_len) else {
            return RecordStep::Corrupt;
        };
        if rest.len() < batch_len {
            return RecordStep::Incomplete;
        }
        let payload = &rest[header_len..batch_len];
        if crc32(payload) != crc {
            return RecordStep::Corrupt;
        }
        if let Some(expected) = next_seq {
            if seq != expected {
                // Out-of-order or duplicated batch: everything from here
                // on is not part of the committed stream.
                return RecordStep::Corrupt;
            }
        }
        let Ok(records) = parse_payload(payload, n) else {
            return RecordStep::Corrupt;
        };
        let meta = BatchMeta {
            seq,
            t,
            records: n,
            first_id: records.first().map(|(id, _)| *id).unwrap_or(0),
            last_id: records.last().map(|(id, _)| *id).unwrap_or(0),
            offset: cursor,
            len: header_len + payload_len,
        };
        for (id, traj) in records {
            on_record(&meta, id, traj);
        }
        batches.push(meta);
        next_seq = Some(seq + 1);
        cursor += header_len + payload_len;
        RecordStep::Complete(header_len + payload_len)
    };
    let mut scan = recover(&bytes[body_start..], step);
    scan.committed_len += body_start;
    SegmentScan { batches, scan }
}

/// Reads and fully validates a *sealed* segment file, streaming every
/// record in `…` order. Sealed segments admit no tail: any torn or
/// garbage byte is a hard [`StoreError::Corrupt`], never silent
/// truncation — sealed data loss must be loud.
pub fn read_sealed(
    path: &Path,
    expected_seq: u64,
    expected_batches: u64,
    mut on_record: impl FnMut(&BatchMeta, u64, Trajectory),
) -> Result<(), StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let result = scan_segment(&bytes, Some(expected_seq), |m, id, t| on_record(m, id, t));
    if result.scan.verdict != TailVerdict::Clean {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            message: format!(
                "sealed segment tail is not clean: {} (committed {} of {} bytes)",
                result.scan.verdict,
                result.scan.committed_len,
                bytes.len()
            ),
        });
    }
    if result.batches.len() as u64 != expected_batches {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            message: format!(
                "sealed segment holds {} batches, manifest records {expected_batches}",
                result.batches.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(x0: f64) -> Trajectory {
        Trajectory::new(
            (0..3)
                .map(|i| SnapshotPoint {
                    mean: Point2::new(x0 + i as f64 * 0.125, 0.25),
                    sigma: 0.01,
                })
                .collect(),
        )
        .unwrap()
    }

    fn sample_segment(batches: usize) -> Vec<u8> {
        let mut bytes = format!("{SEGMENT_VERSION_LINE}\n").into_bytes();
        for b in 0..batches {
            encode_batch(
                &mut bytes,
                b as u64,
                10 + b as u64,
                (b * 2) as u64,
                &[traj(0.1 + b as f64 * 0.01), traj(0.2 + b as f64 * 0.01)],
            );
        }
        bytes
    }

    #[test]
    fn round_trips_records_bit_exactly() {
        let original = [traj(1.0 / 3.0), traj(2.0f64.sqrt())];
        let mut bytes = format!("{SEGMENT_VERSION_LINE}\n").into_bytes();
        encode_batch(&mut bytes, 0, 7, 40, &original);
        let mut seen = Vec::new();
        let s = scan_segment(&bytes, Some(0), |m, id, t| seen.push((m.t, id, t)));
        assert_eq!(s.scan.verdict, TailVerdict::Clean);
        assert_eq!(s.batches.len(), 1);
        assert_eq!(s.batches[0].first_id, 40);
        assert_eq!(s.batches[0].last_id, 41);
        assert_eq!(seen.len(), 2);
        for ((t_batch, id, got), (i, want)) in seen.iter().zip(original.iter().enumerate()) {
            assert_eq!(*t_batch, 7);
            assert_eq!(*id, 40 + i as u64);
            for (a, b) in got.points().iter().zip(want.points()) {
                assert_eq!(a.mean.x.to_bits(), b.mean.x.to_bits());
                assert_eq!(a.mean.y.to_bits(), b.mean.y.to_bits());
                assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
            }
        }
    }

    #[test]
    fn every_truncation_recovers_a_batch_prefix() {
        let bytes = sample_segment(3);
        let full = scan_segment(&bytes, Some(0), |_, _, _| {});
        let boundaries: Vec<usize> = full.batches.iter().map(|m| m.offset + m.len).collect();
        for cut in 0..=bytes.len() {
            let s = scan_segment(&bytes[..cut], Some(0), |_, _, _| {});
            let committed = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(s.batches.len(), committed, "cut at byte {cut}");
            if cut == 0 || boundaries.contains(&cut) || cut == SEGMENT_VERSION_LINE.len() + 1 {
                assert_eq!(s.scan.verdict, TailVerdict::Clean, "cut at byte {cut}");
            } else {
                assert_ne!(s.scan.verdict, TailVerdict::Clean, "cut at byte {cut}");
            }
            assert!(s.scan.committed_len <= cut);
        }
    }

    #[test]
    fn corrupted_crc_is_garbage_not_torn() {
        let mut bytes = sample_segment(2);
        let last = bytes.len() - 2;
        bytes[last] = if bytes[last] == b'1' { b'2' } else { b'1' };
        let s = scan_segment(&bytes, Some(0), |_, _, _| {});
        assert_eq!(s.batches.len(), 1);
        assert!(matches!(s.scan.verdict, TailVerdict::Garbage(_)));
    }

    #[test]
    fn duplicated_batch_is_rejected_by_sequence_check() {
        let mut bytes = sample_segment(2);
        let full = scan_segment(&bytes, Some(0), |_, _, _| {});
        let last = full.batches[1];
        let dup = bytes[last.offset..last.offset + last.len].to_vec();
        bytes.extend_from_slice(&dup);
        let s = scan_segment(&bytes, Some(0), |_, _, _| {});
        assert_eq!(s.batches.len(), 2, "the doubled batch is not re-committed");
        assert!(matches!(s.scan.verdict, TailVerdict::Garbage(_)));
    }

    #[test]
    fn torn_version_line_has_no_committed_prefix() {
        let s = scan_segment(b"trajdb-seg", Some(0), |_, _, _| {});
        assert_eq!(s.scan.committed_len, 0);
        assert!(matches!(s.scan.verdict, TailVerdict::TornTruncated(10)));
        let s = scan_segment(b"not a segment at all\n", Some(0), |_, _, _| {});
        assert!(matches!(s.scan.verdict, TailVerdict::Garbage(_)));
    }

    #[test]
    fn wrong_expected_seq_stops_the_scan() {
        let bytes = sample_segment(2);
        let s = scan_segment(&bytes, Some(5), |_, _, _| {});
        assert_eq!(s.batches.len(), 0);
        assert!(matches!(s.scan.verdict, TailVerdict::Garbage(_)));
    }
}
