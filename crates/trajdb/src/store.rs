//! The store: open/recover, append, seal, compact, range-read.

use crate::manifest::{Manifest, SegmentMeta};
use crate::segment::{encode_batch, read_sealed, scan_segment, BatchMeta, SEGMENT_VERSION_LINE};
use crate::{FsyncPolicy, Record, StoreError, StoreOptions};
use std::ops::Range;
use std::path::{Path, PathBuf};
use trajdata::{Dataset, Trajectory};
use trajio::crc::crc32;
use trajio::durable;
use trajio::tail::{TailScan, TailVerdict};

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Snapshot subdirectory name inside a store directory.
pub const SNAPSHOT_DIR: &str = "snapshots";

/// Shard subdirectory name inside a fleet root directory: each child of
/// `<root>/shards/` is itself a complete store owned by one shard of a
/// `trajmine serve --live` deployment.
pub const SHARD_DIR: &str = "shards";

/// Per-shard stream checkpoint file name inside a shard's store
/// directory (`trajpattern-checkpoint v2` format, written by the live
/// ingester so `serve --live` resumes per shard after a restart).
pub const SHARD_CHECKPOINT_FILE: &str = "stream.ckpt";

/// What [`Store::open`] found and repaired while recovering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Diagnosis of the active segment's tail at open time.
    pub verdict: TailVerdict,
    /// Bytes truncated from the active segment tail.
    pub dropped_bytes: u64,
    /// Orphan segment files removed (left by an interrupted compaction
    /// or seal).
    pub orphans_removed: u32,
    /// Stray temporary files removed.
    pub tmp_removed: u32,
}

/// A point-in-time summary of the store, cheap to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Sealed segment count.
    pub sealed_segments: usize,
    /// Records across sealed segments.
    pub sealed_records: u64,
    /// Batches across sealed segments.
    pub sealed_batches: u64,
    /// Bytes across sealed segment files.
    pub sealed_bytes: u64,
    /// Records in the active segment.
    pub active_records: u64,
    /// Batches in the active segment.
    pub active_batches: u64,
    /// Bytes in the active segment file.
    pub active_bytes: u64,
    /// Next record id to be assigned.
    pub next_id: u64,
    /// Next batch sequence number to be assigned.
    pub next_seq: u64,
    /// Batches appended through this handle.
    pub appends: u64,
    /// fsyncs issued for appended batches through this handle.
    pub syncs: u64,
    /// What recovery found when this handle opened the store.
    pub recovery: RecoveryReport,
}

impl StoreStats {
    /// Total committed records (sealed + active).
    pub fn total_records(&self) -> u64 {
        self.sealed_records + self.active_records
    }

    /// Total committed bytes on disk (sealed + active segments).
    pub fn total_bytes(&self) -> u64 {
        self.sealed_bytes + self.active_bytes
    }
}

/// An inclusive id/time filter for [`Store::read`]; `None` bounds are
/// open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadFilter {
    /// Keep records with `id >= min_id`.
    pub min_id: Option<u64>,
    /// Keep records with `id <= max_id`.
    pub max_id: Option<u64>,
    /// Keep records from batches with `t >= min_t`.
    pub min_t: Option<u64>,
    /// Keep records from batches with `t <= max_t`.
    pub max_t: Option<u64>,
}

impl ReadFilter {
    /// The unfiltered read.
    pub fn all() -> ReadFilter {
        ReadFilter::default()
    }

    fn admits(&self, id: u64, t: u64) -> bool {
        self.min_id.is_none_or(|m| id >= m)
            && self.max_id.is_none_or(|m| id <= m)
            && self.min_t.is_none_or(|m| t >= m)
            && self.max_t.is_none_or(|m| t <= m)
    }

    fn may_overlap(&self, meta: &SegmentMeta) -> bool {
        self.min_id.is_none_or(|m| meta.last_id >= m)
            && self.max_id.is_none_or(|m| meta.first_id <= m)
            && self.min_t.is_none_or(|m| meta.last_t >= m)
            && self.max_t.is_none_or(|m| meta.first_t <= m)
    }
}

/// An open trajectory store rooted at one directory.
///
/// A `Store` is single-writer: open it once per process. Reads re-read
/// files from disk (segments are immutable once committed), so a
/// separate read-only opener sees a consistent committed prefix.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    manifest: Manifest,
    active_len: u64,
    active_batches: Vec<BatchMeta>,
    next_seq: u64,
    next_id: u64,
    last_t: u64,
    unsynced_batches: u32,
    appends: u64,
    syncs: u64,
    recovery: RecoveryReport,
}

/// `seg-NNNNNN.log` for a file number.
pub fn segment_file_name(no: u64) -> String {
    format!("seg-{no:06}.log")
}

fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if stem.len() != 6 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

impl Store {
    /// Opens (creating if absent) the store at `dir`, running recovery:
    /// validate sealed segments against the manifest, scan the active
    /// segment tail, truncate torn/garbage bytes, sweep orphan files.
    pub fn open(dir: impl Into<PathBuf>, opts: StoreOptions) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = if manifest_path.exists() {
            let text = std::fs::read_to_string(&manifest_path).map_err(|e| StoreError::Io {
                path: manifest_path.clone(),
                message: e.to_string(),
            })?;
            Manifest::decode(&text, &manifest_path)?
        } else {
            let m = Manifest::new();
            durable::write_atomic(&manifest_path, &m.encode())?;
            m
        };

        let mut recovery = RecoveryReport {
            verdict: TailVerdict::Clean,
            dropped_bytes: 0,
            orphans_removed: 0,
            tmp_removed: 0,
        };

        // Sweep files the manifest does not own: segments orphaned by an
        // interrupted compaction and temporaries from torn atomic writes.
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io {
                path: dir.clone(),
                message: e.to_string(),
            })?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                durable::remove_file(&entry.path())?;
                recovery.tmp_removed += 1;
            } else if let Some(no) = parse_segment_file_name(name) {
                let owned =
                    no == manifest.active || manifest.sealed.iter().any(|s| s.file_no == no);
                if !owned {
                    durable::remove_file(&entry.path())?;
                    recovery.orphans_removed += 1;
                }
            }
        }

        // Sealed segments are trusted via the manifest, but a cheap size
        // check catches resized/missing files before any read does.
        for meta in &manifest.sealed {
            let path = dir.join(segment_file_name(meta.file_no));
            let len = std::fs::metadata(&path)
                .map_err(|e| StoreError::Io {
                    path: path.clone(),
                    message: format!("sealed segment missing: {e}"),
                })?
                .len();
            if len != meta.bytes {
                return Err(StoreError::Corrupt {
                    path,
                    message: format!(
                        "sealed segment is {len} bytes, manifest records {}",
                        meta.bytes
                    ),
                });
            }
        }

        // Scan the active segment: keep the committed-batch prefix,
        // physically truncate everything after it.
        // `Manifest::decode` refuses a `last_seq` or `last_id` of
        // `u64::MAX`, so the sealed `+ 1`s below cannot overflow.
        let first_active_seq = manifest.sealed.last().map(|s| s.last_seq + 1).unwrap_or(0);
        let active_path = dir.join(segment_file_name(manifest.active));
        let (active_batches, scan): (Vec<BatchMeta>, TailScan) = if active_path.exists() {
            let bytes = std::fs::read(&active_path).map_err(|e| StoreError::Io {
                path: active_path.clone(),
                message: e.to_string(),
            })?;
            let result = scan_segment(&bytes, Some(first_active_seq), |_, _, _| {});
            if result.scan.verdict != TailVerdict::Clean {
                durable::truncate(&active_path, result.scan.committed_len as u64)?;
            }
            (result.batches, result.scan)
        } else {
            (Vec::new(), TailScan::empty())
        };
        recovery.verdict = scan.verdict;
        recovery.dropped_bytes = scan.verdict.dropped_bytes() as u64;

        let overflow = |what: &str| StoreError::Corrupt {
            path: active_path.clone(),
            message: format!("the last committed batch leaves no {what} to continue with"),
        };
        let next_seq = match active_batches.last() {
            Some(b) => b
                .seq
                .checked_add(1)
                .ok_or_else(|| overflow("sequence number"))?,
            None => first_active_seq,
        };
        let next_id = match active_batches.last() {
            Some(b) => b
                .last_id
                .checked_add(1)
                .ok_or_else(|| overflow("record id"))?,
            None => manifest.sealed.last().map(|s| s.last_id + 1).unwrap_or(0),
        };
        let last_t = active_batches
            .last()
            .map(|b| b.t)
            .or_else(|| manifest.sealed.last().map(|s| s.last_t))
            .unwrap_or(0);

        Ok(Store {
            dir,
            opts,
            manifest,
            active_len: scan.committed_len as u64,
            active_batches,
            next_seq,
            next_id,
            last_t,
            unsynced_batches: 0,
            appends: 0,
            syncs: 0,
            recovery,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The latest batch timestamp committed (0 for an empty store);
    /// appends must not regress below it.
    pub fn last_t(&self) -> u64 {
        self.last_t
    }

    fn active_path(&self) -> PathBuf {
        self.dir.join(segment_file_name(self.manifest.active))
    }

    /// Appends one batch of trajectories at logical timestamp `t`
    /// (monotonic, non-decreasing), returning the assigned id range.
    pub fn append_batch(&mut self, t: u64, trajs: &[Trajectory]) -> Result<Range<u64>, StoreError> {
        if trajs.is_empty() {
            return Err(StoreError::InvalidArgument(
                "append_batch: a batch must hold at least one trajectory".into(),
            ));
        }
        if (self.next_seq > 0 || !self.active_batches.is_empty()) && t < self.last_t {
            return Err(StoreError::InvalidArgument(format!(
                "append_batch: timestamp {t} regresses below {}",
                self.last_t
            )));
        }
        let mut bytes = Vec::new();
        if self.active_len == 0 {
            bytes.extend_from_slice(SEGMENT_VERSION_LINE.as_bytes());
            bytes.push(b'\n');
        }
        let header_start = self.active_len as usize + (bytes.len());
        let before = bytes.len();
        encode_batch(&mut bytes, self.next_seq, t, self.next_id, trajs);
        let batch_len = bytes.len() - before;

        let path = self.active_path();
        let offset = durable::append(&path, &bytes)?;
        if offset != self.active_len {
            return Err(StoreError::Corrupt {
                path,
                message: format!(
                    "active segment was {offset} bytes on disk but {} in memory — \
                     modified outside the store",
                    self.active_len
                ),
            });
        }
        let ids = self.next_id..self.next_id + trajs.len() as u64;
        self.active_batches.push(BatchMeta {
            seq: self.next_seq,
            t,
            records: trajs.len() as u64,
            first_id: ids.start,
            last_id: ids.end - 1,
            offset: header_start,
            len: batch_len,
        });
        self.active_len += bytes.len() as u64;
        self.next_seq += 1;
        self.next_id = ids.end;
        self.last_t = t;
        self.appends += 1;

        match self.opts.fsync {
            FsyncPolicy::Always => {
                durable::sync_file(&path)?;
                self.syncs += 1;
            }
            FsyncPolicy::EveryN(n) => {
                self.unsynced_batches += 1;
                if self.unsynced_batches >= n {
                    durable::sync_file(&path)?;
                    self.syncs += 1;
                    self.unsynced_batches = 0;
                }
            }
            FsyncPolicy::Never => {}
        }

        if self.active_len >= self.opts.segment_max_bytes {
            self.seal_active()?;
        }
        Ok(ids)
    }

    /// Flushes the active segment to stable storage regardless of
    /// policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.active_len > 0 {
            durable::sync_file(&self.active_path())?;
            self.syncs += 1;
        }
        self.unsynced_batches = 0;
        Ok(())
    }

    /// Seals the active segment: fsync it, record it in the manifest
    /// (atomically replaced), and start a fresh active segment. A no-op
    /// when the active segment is empty.
    pub fn seal_active(&mut self) -> Result<(), StoreError> {
        if self.active_batches.is_empty() {
            return Ok(());
        }
        let path = self.active_path();
        durable::sync_file(&path)?;
        self.syncs += 1;
        self.unsynced_batches = 0;
        let bytes = std::fs::read(&path).map_err(|e| StoreError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        if bytes.len() as u64 != self.active_len {
            return Err(StoreError::Corrupt {
                path,
                message: format!(
                    "active segment is {} bytes on disk but {} in memory",
                    bytes.len(),
                    self.active_len
                ),
            });
        }
        let first = self.active_batches.first().expect("non-empty");
        let last = self.active_batches.last().expect("non-empty");
        let meta = SegmentMeta {
            file_no: self.manifest.active,
            records: self.active_batches.iter().map(|b| b.records).sum(),
            batches: self.active_batches.len() as u64,
            bytes: self.active_len,
            crc: crc32(&bytes),
            first_seq: first.seq,
            last_seq: last.seq,
            first_id: first.first_id,
            last_id: last.last_id,
            first_t: self
                .active_batches
                .iter()
                .map(|b| b.t)
                .min()
                .expect("non-empty"),
            last_t: self
                .active_batches
                .iter()
                .map(|b| b.t)
                .max()
                .expect("non-empty"),
        };
        let mut next = self.manifest.clone();
        next.sealed.push(meta);
        next.active = next.next_file;
        next.next_file += 1;
        durable::write_atomic(&self.dir.join(MANIFEST_FILE), &next.encode())?;
        // The manifest write is the commit point: only now forget the
        // old active state.
        self.manifest = next;
        self.active_len = 0;
        self.active_batches.clear();
        Ok(())
    }

    /// Folds every sealed segment into one. Seals the active segment
    /// first, so afterwards the store is exactly one sealed segment
    /// (plus an empty active one). Batch bytes are concatenated
    /// verbatim — compaction is bit-preserving by construction.
    ///
    /// Crash-safe at every point: the merged file is written atomically,
    /// the manifest swap is the commit, and any file stranded on either
    /// side of the crash is swept as an orphan on the next open.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.seal_active()?;
        if self.manifest.sealed.len() <= 1 {
            return Ok(());
        }
        let version = format!("{SEGMENT_VERSION_LINE}\n");
        let mut merged = version.clone().into_bytes();
        let mut records = 0u64;
        let mut batches = 0u64;
        for meta in &self.manifest.sealed {
            let path = self.dir.join(segment_file_name(meta.file_no));
            let bytes = std::fs::read(&path).map_err(|e| StoreError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            if crc32(&bytes) != meta.crc {
                return Err(StoreError::Corrupt {
                    path,
                    message: "sealed segment checksum mismatch (refusing to compact)".into(),
                });
            }
            let body =
                bytes
                    .strip_prefix(version.as_bytes())
                    .ok_or_else(|| StoreError::Corrupt {
                        path: path.clone(),
                        message: "sealed segment is missing its version line".into(),
                    })?;
            merged.extend_from_slice(body);
            records += meta.records;
            batches += meta.batches;
        }
        let first = self.manifest.sealed.first().expect("len > 1");
        let last = self.manifest.sealed.last().expect("len > 1");
        let merged_no = self.manifest.next_file;
        let merged_path = self.dir.join(segment_file_name(merged_no));
        durable::write_atomic_bytes(&merged_path, &merged)?;
        let merged_meta = SegmentMeta {
            file_no: merged_no,
            records,
            batches,
            bytes: merged.len() as u64,
            crc: crc32(&merged),
            first_seq: first.first_seq,
            last_seq: last.last_seq,
            first_id: first.first_id,
            last_id: last.last_id,
            first_t: self
                .manifest
                .sealed
                .iter()
                .map(|s| s.first_t)
                .min()
                .expect("len > 1"),
            last_t: self
                .manifest
                .sealed
                .iter()
                .map(|s| s.last_t)
                .max()
                .expect("len > 1"),
        };
        let old: Vec<u64> = self.manifest.sealed.iter().map(|s| s.file_no).collect();
        let mut next = self.manifest.clone();
        next.sealed = vec![merged_meta];
        next.next_file = merged_no + 1;
        // Keep the same (empty) active segment number; seal_active above
        // guarantees it holds no batches.
        durable::write_atomic(&self.dir.join(MANIFEST_FILE), &next.encode())?;
        self.manifest = next;
        for no in old {
            durable::remove_file(&self.dir.join(segment_file_name(no)))?;
        }
        Ok(())
    }

    /// Reads every record admitted by `filter`, in id order. Sealed
    /// segments whose manifest ranges cannot overlap the filter are
    /// skipped without being opened; every batch actually decoded is
    /// checksum-verified again.
    pub fn read(&self, filter: &ReadFilter) -> Result<Vec<Record>, StoreError> {
        let mut out = Vec::new();
        for meta in &self.manifest.sealed {
            if !filter.may_overlap(meta) {
                continue;
            }
            let path = self.dir.join(segment_file_name(meta.file_no));
            read_sealed(
                &path,
                meta.first_seq,
                meta.batches,
                |batch, id, trajectory| {
                    if filter.admits(id, batch.t) {
                        out.push(Record {
                            id,
                            t: batch.t,
                            trajectory,
                        });
                    }
                },
            )?;
        }
        let active_path = self.active_path();
        if self.active_len > 0 {
            let bytes = std::fs::read(&active_path).map_err(|e| StoreError::Io {
                path: active_path.clone(),
                message: e.to_string(),
            })?;
            let first_seq = self.active_batches.first().map(|b| b.seq);
            let result = scan_segment(&bytes, first_seq, |batch, id, trajectory| {
                if filter.admits(id, batch.t) {
                    out.push(Record {
                        id,
                        t: batch.t,
                        trajectory,
                    });
                }
            });
            // This handle is the only writer, so the active file must
            // hold at least what we committed through it.
            if (result.scan.committed_len as u64) < self.active_len {
                return Err(StoreError::Corrupt {
                    path: active_path,
                    message: format!(
                        "active segment committed length shrank to {} (expected {})",
                        result.scan.committed_len, self.active_len
                    ),
                });
            }
        }
        Ok(out)
    }

    /// Reads admitted records as a [`Dataset`] (trajectories in id
    /// order), the shape the mining engines consume.
    pub fn read_dataset(&self, filter: &ReadFilter) -> Result<Dataset, StoreError> {
        let records = self.read(filter)?;
        Ok(Dataset::from_trajectories(
            records.into_iter().map(|r| r.trajectory).collect(),
        ))
    }

    /// Current stats for this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            sealed_segments: self.manifest.sealed.len(),
            sealed_records: self.manifest.sealed.iter().map(|s| s.records).sum(),
            sealed_batches: self.manifest.sealed.iter().map(|s| s.batches).sum(),
            sealed_bytes: self.manifest.sealed.iter().map(|s| s.bytes).sum(),
            active_records: self.active_batches.iter().map(|b| b.records).sum(),
            active_batches: self.active_batches.len() as u64,
            active_bytes: self.active_len,
            next_id: self.next_id,
            next_seq: self.next_seq,
            appends: self.appends,
            syncs: self.syncs,
            recovery: self.recovery.clone(),
        }
    }

    /// The manifest as currently committed.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Verifies every sealed segment's whole-file checksum. Quadratic
    /// in data size with reads — an explicit integrity pass, not part
    /// of open.
    pub fn verify(&self) -> Result<(), StoreError> {
        for meta in &self.manifest.sealed {
            let path = self.dir.join(segment_file_name(meta.file_no));
            let bytes = std::fs::read(&path).map_err(|e| StoreError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            if crc32(&bytes) != meta.crc {
                return Err(StoreError::Corrupt {
                    path,
                    message: "sealed segment checksum mismatch".into(),
                });
            }
        }
        Ok(())
    }

    /// Where a named snapshot lives under a store directory, without
    /// opening the store (used by `trajmine serve --db` so the watcher
    /// can poll the path before the snapshot exists).
    pub fn snapshot_path_in(dir: &Path, name: &str) -> Result<PathBuf, StoreError> {
        validate_snapshot_name(name)?;
        Ok(dir.join(SNAPSHOT_DIR).join(format!("{name}.json")))
    }

    /// Where a named snapshot lives in this store.
    pub fn snapshot_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        Store::snapshot_path_in(&self.dir, name)
    }

    /// Durably persists a named snapshot document (mining output JSON)
    /// under `snapshots/`, replacing any previous version atomically.
    pub fn put_snapshot(&self, name: &str, contents: &str) -> Result<PathBuf, StoreError> {
        let path = self.snapshot_path(name)?;
        let parent = path.parent().expect("snapshot path has a parent");
        std::fs::create_dir_all(parent).map_err(|e| StoreError::Io {
            path: parent.to_path_buf(),
            message: e.to_string(),
        })?;
        durable::write_atomic(&path, contents)?;
        Ok(path)
    }

    /// Names of the snapshots currently stored, sorted.
    pub fn list_snapshots(&self) -> Result<Vec<String>, StoreError> {
        let dir = self.dir.join(SNAPSHOT_DIR);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io {
                path: dir.clone(),
                message: e.to_string(),
            })?;
            if let Some(name) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_suffix(".json"))
            {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Where shard `name`'s store lives under a fleet root, without
    /// opening anything. Shard names obey the same rules as snapshot
    /// names (1-64 of `[A-Za-z0-9_-]`), so a name can never escape the
    /// `shards/` subtree.
    pub fn shard_dir(root: &Path, name: &str) -> Result<PathBuf, StoreError> {
        validate_name("shard", name)?;
        Ok(root.join(SHARD_DIR).join(name))
    }

    /// Where shard `name`'s stream checkpoint lives under a fleet root
    /// ([`SHARD_CHECKPOINT_FILE`] inside the shard's store directory).
    pub fn shard_checkpoint_path(root: &Path, name: &str) -> Result<PathBuf, StoreError> {
        Ok(Store::shard_dir(root, name)?.join(SHARD_CHECKPOINT_FILE))
    }

    /// Names of the shards under a fleet root, sorted — the fixed fold
    /// order the live server's cross-shard merge relies on. A missing
    /// `shards/` directory is an empty fleet, not an error; entries that
    /// are not directories or carry invalid names are ignored (they
    /// cannot have been created through [`Store::shard_dir`]).
    pub fn list_shards(root: &Path) -> Result<Vec<String>, StoreError> {
        let dir = root.join(SHARD_DIR);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io {
                path: dir.clone(),
                message: e.to_string(),
            })?;
            if !entry.path().is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if validate_name("shard", name).is_ok() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

fn validate_name(kind: &str, name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidArgument(format!(
            "bad {kind} name '{name}': use 1-64 of [A-Za-z0-9_-]"
        )))
    }
}

fn validate_snapshot_name(name: &str) -> Result<(), StoreError> {
    validate_name("snapshot", name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_file_names_round_trip() {
        assert_eq!(segment_file_name(1), "seg-000001.log");
        assert_eq!(parse_segment_file_name("seg-000001.log"), Some(1));
        assert_eq!(parse_segment_file_name("seg-123456.log"), Some(123456));
        assert_eq!(parse_segment_file_name("seg-1.log"), None);
        assert_eq!(parse_segment_file_name("seg-00000a.log"), None);
        assert_eq!(parse_segment_file_name("MANIFEST"), None);
    }

    #[test]
    fn snapshot_names_are_validated() {
        assert!(validate_snapshot_name("nightly-01").is_ok());
        assert!(validate_snapshot_name("A_b-3").is_ok());
        for bad in ["", "../etc", "a b", "x/y", &"n".repeat(65)] {
            assert!(validate_snapshot_name(bad).is_err(), "'{bad}'");
        }
    }

    #[test]
    fn shard_layout_lists_created_shards_sorted() {
        let root = std::env::temp_dir().join(format!("trajdb-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Empty fleet: no `shards/` directory yet.
        assert_eq!(Store::list_shards(&root).unwrap(), Vec::<String>::new());
        for name in ["west", "east", "north"] {
            let dir = Store::shard_dir(&root, name).unwrap();
            assert!(dir.starts_with(root.join(SHARD_DIR)));
            Store::open(&dir, StoreOptions::default()).unwrap();
        }
        // Stray files and invalid names are not shards.
        std::fs::write(root.join(SHARD_DIR).join("README"), "not a shard").unwrap();
        assert_eq!(
            Store::list_shards(&root).unwrap(),
            ["east", "north", "west"]
        );
        let ckpt = Store::shard_checkpoint_path(&root, "east").unwrap();
        assert_eq!(
            ckpt,
            Store::shard_dir(&root, "east").unwrap().join("stream.ckpt")
        );
        for bad in ["", "a/b", "..", "a b"] {
            assert!(Store::shard_dir(&root, bad).is_err(), "'{bad}'");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn read_filter_bounds_are_inclusive() {
        let f = ReadFilter {
            min_id: Some(2),
            max_id: Some(4),
            min_t: Some(10),
            max_t: Some(20),
        };
        assert!(f.admits(2, 10));
        assert!(f.admits(4, 20));
        assert!(!f.admits(1, 15));
        assert!(!f.admits(5, 15));
        assert!(!f.admits(3, 9));
        assert!(!f.admits(3, 21));
        assert!(ReadFilter::all().admits(u64::MAX, 0));
    }
}
