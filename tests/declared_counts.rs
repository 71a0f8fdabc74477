//! Declared counts in outside bytes: each decoder of a persisted format
//! reads counts from its input, and must refuse an absurd one with its
//! own typed error. It must never abort on a huge reservation or panic on
//! an overflowing sum.
//!
//! Every case is a committed fixture under `tests/golden/` with exactly
//! one count replaced.

use std::path::Path;
use trajdb::segment::scan_segment;
use trajdb::{Manifest, StoreError, SEGMENT_VERSION_LINE};
use trajio::tail::TailVerdict;
use trajstream::{parse_checkpoint, CheckpointError};

/// A count no input of this size can hold, small enough not to overflow.
const HUGE: &str = "99999999999999";

/// The named fixture with its first `from` replaced by `to`.
fn fixture_with(name: &str, from: &str, to: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    assert!(text.contains(from), "{name} has no '{from}'");
    text.replacen(from, to, 1)
}

fn assert_checkpoint_format_error(text: &str) {
    match parse_checkpoint(text) {
        Err(CheckpointError::Format { .. }) => {}
        Err(e) => panic!("expected a format error, got {e}"),
        Ok(_) => panic!("a checkpoint with an absurd count decoded"),
    }
}

fn checkpoint_with(from: &str, to: &str) -> String {
    fixture_with("checkpoint_v2.txt", from, to)
}

#[test]
fn checkpoint_window_count_reserves_nothing() {
    assert_checkpoint_format_error(&checkpoint_with("window 4\n", &format!("window {HUGE}\n")));
}

#[test]
fn checkpoint_window_point_count_cannot_overflow() {
    // 3 × 6148914691236517206 is just past u64::MAX.
    assert_checkpoint_format_error(&checkpoint_with("w 4 4 ", "w 4 6148914691236517206 "));
}

#[test]
fn checkpoint_ledger_cell_count_cannot_overflow() {
    assert_checkpoint_format_error(&checkpoint_with("l 1 0 ", &format!("l {} 0 ", u64::MAX)));
}

#[test]
fn checkpoint_topk_cell_count_cannot_overflow() {
    assert_checkpoint_format_error(&checkpoint_with("p 1 8 ", &format!("p {} 8 ", u64::MAX)));
}

#[test]
fn checkpoint_topk_count_reserves_nothing() {
    // The top-k count may not exceed k, so both are raised.
    let text = checkpoint_with("params 3 ", &format!("params {HUGE} "));
    assert_checkpoint_format_error(&text.replacen("topk 3\n", &format!("topk {HUGE}\n"), 1));
}

#[test]
fn manifest_segment_count_reserves_nothing() {
    let text = fixture_with(
        "trajdb_manifest.txt",
        "segments 1\n",
        &format!("segments {HUGE}\n"),
    );
    assert!(matches!(
        Manifest::decode(&text, Path::new("MANIFEST")),
        Err(StoreError::Manifest { .. })
    ));
}

/// Scans the fixture segment with one batch-header field replaced: the
/// first batch must be refused as garbage, leaving only the version line.
fn assert_first_batch_is_garbage(from: &str, to: &str) {
    let text = fixture_with("trajdb_segment.log", from, to);
    let scan = scan_segment(text.as_bytes(), Some(0), |_, _, _| {});
    assert!(scan.batches.is_empty());
    let committed = SEGMENT_VERSION_LINE.len() + 1;
    assert_eq!(scan.scan.committed_len, committed);
    assert_eq!(
        scan.scan.verdict,
        TailVerdict::Garbage(text.len() - committed)
    );
}

#[test]
fn segment_record_count_reserves_nothing() {
    // The header is outside the payload checksum, so the payload still
    // verifies and only the count is wrong.
    assert_first_batch_is_garbage("b 0 0 2 1036 ", &format!("b 0 0 {HUGE} 1036 "));
}

#[test]
fn segment_payload_length_cannot_overflow() {
    assert_first_batch_is_garbage("b 0 0 2 1036 ", &format!("b 0 0 2 {} ", u64::MAX));
}
