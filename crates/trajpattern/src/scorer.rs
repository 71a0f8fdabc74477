//! Computing match and normalized match (Eq. 2–4 of the paper).
//!
//! Scoring a pattern against the dataset is the dominant cost of mining
//! (the paper's complexity analysis charges `O(MN)` per pattern). The
//! [`Scorer`] therefore:
//!
//! - builds, once per trajectory shard, a *corridor table*: for each
//!   trajectory, the per-snapshot log probabilities
//!   `ln Prob(l, σ, center(cell), δ)` of exactly the cells that can
//!   receive above-floor probability. A snapshot only gives non-floor
//!   probability to cells within `δ + 8σ` of its mean, so one corridor
//!   pass per trajectory replaces the per-pattern dense row fills older
//!   revisions did — every probability evaluated once per (cell,
//!   snapshot), never per pattern;
//! - skips negligible-mass work while scoring: a pattern touching no
//!   corridor cell of a trajectory contributes a constant depending only
//!   on the pattern and trajectory lengths, replicated addition by
//!   addition ([`untouched_window_mean`]) so the result is bit-identical
//!   to the dense fold;
//! - computes all `G` singular-pattern NMs in one sparse streaming pass
//!   ([`Scorer::nm_all_singulars`]) without materializing the `G × ΣL`
//!   table;
//! - scores whole candidate *batches* ([`Scorer::score_batch`]) by
//!   partitioning trajectories into contiguous shards, evaluating shards on
//!   scoped worker threads, and reducing the per-trajectory `NM(P, T)`
//!   contributions in ascending trajectory order — so the result is
//!   bit-identical to the sequential fold for every thread count (the
//!   determinism convention in DESIGN.md §5).
//!
//! The one front door for scoring work is [`Scorer::query`], which
//! returns a [`ScoreRequest`] builder: pick the [`Measure`], optionally
//! attach a [`PatternIndex`](crate::index::PatternIndex) so patterns
//! provably far from every trajectory resolve analytically without
//! touching the tables, then [`ScoreRequest::run`]. The classic entry
//! points ([`Scorer::score_batch`] and friends) remain as thin wrappers;
//! CLI, bench, the stream repair path and the server all construct
//! scoring work through the same builder.
//!
//! Internally the scorer is split into a `Send + Sync` read-only core
//! ([`ScorerCore`]: dataset/grid/δ) shared by all workers, and per-shard
//! mutable state (the shard's corridor tables), so the parallel path
//! needs no locks and no `unsafe`.
//!
//! Per-position probabilities are clamped below by `min_prob` so `log M`
//! stays finite; DESIGN.md §5 explains why this preserves the min-max
//! property exactly.

use crate::pattern::Pattern;
use std::cell::{Cell, RefCell};
use trajdata::{Dataset, SnapshotPoint};
use trajgeo::fxhash::{FxHashMap, FxHashSet};
use trajgeo::stats::prob_within_delta;
use trajgeo::{CellId, Grid};

/// Below this many trajectories the parallel path is all overhead; scoring
/// falls back to the single-shard loop (results are identical either way).
const MIN_TRAJECTORIES_PER_SHARD: usize = 8;

/// The read-only half of the scorer: everything workers share. Contains
/// only borrows of immutable data and plain floats, so it is `Send + Sync`
/// by construction and can be captured by scoped threads.
#[derive(Debug, Clone, Copy)]
struct ScorerCore<'a> {
    data: &'a Dataset,
    grid: &'a Grid,
    delta: f64,
    min_prob: f64,
    floor_log: f64,
}

impl<'a> ScorerCore<'a> {
    /// `ln(max(Prob(l, σ, center(cell), δ), min_prob))` for one snapshot.
    #[inline]
    fn log_prob(&self, sp: &SnapshotPoint, cell: CellId) -> f64 {
        prob_within_delta(sp.mean, sp.sigma, self.grid.center(cell), self.delta)
            .max(self.min_prob)
            .ln()
    }

    /// Builds `shard`'s corridor tables if they are not built yet: per
    /// local trajectory, a probability row for every cell some snapshot
    /// reaches within `δ + 8σ`. Row entries the corridor scan does not
    /// touch are the floor *exactly* (the invariant
    /// [`Scorer::nm_all_singulars`] is built on), so these sparse rows
    /// carry bit-identical values to a dense fill.
    fn build_shard(&self, shard: &mut Shard) {
        if shard.built {
            return;
        }
        let trajs = &self.data.trajectories()[shard.start..shard.end];
        let max_l = trajs.iter().map(|t| t.len()).max().unwrap_or(0);
        shard.floor = vec![self.floor_log; max_l].into_boxed_slice();
        shard.rows = trajs
            .iter()
            .map(|traj| {
                let l = traj.len();
                let mut rows: FxHashMap<CellId, Box<[f64]>> = FxHashMap::default();
                for (t, sp) in traj.points().iter().enumerate() {
                    let radius = self.delta + 8.0 * sp.sigma;
                    for cell in self.grid.cells_within(sp.mean, radius) {
                        let lp = self.log_prob(sp, cell);
                        if lp > self.floor_log {
                            let row = rows
                                .entry(cell)
                                .or_insert_with(|| vec![self.floor_log; l].into_boxed_slice());
                            row[t] = lp;
                        }
                    }
                }
                rows
            })
            .collect();
        shard.built = true;
    }

    /// Best-window mean of `cells` over one shard-local trajectory, read
    /// from the corridor tables. `buf` is caller-owned scratch reused
    /// across calls.
    fn window_mean<'s>(
        &self,
        shard: &'s Shard,
        local: usize,
        cells: &[CellId],
        buf: &mut Vec<&'s [f64]>,
    ) -> f64 {
        let l = self.data.trajectories()[shard.start + local].len();
        let m = cells.len();
        let rows = &shard.rows[local];
        buf.clear();
        let mut near = false;
        for c in cells {
            match rows.get(c) {
                Some(r) => {
                    near = true;
                    buf.push(r);
                }
                None => buf.push(&shard.floor[..l]),
            }
        }
        if near {
            best_window_mean_rows(buf, m, self.floor_log)
        } else {
            untouched_window_mean(m, l, self.floor_log)
        }
    }

    /// Per-trajectory contributions of every pattern in `batch` over one
    /// shard, in (pattern, ascending local trajectory) order.
    fn score_shard(&self, shard: &mut Shard, batch: &[Pattern], kind: Measure) -> Vec<Vec<f64>> {
        self.build_shard(shard);
        let shard: &Shard = shard;
        let locals = shard.end - shard.start;
        let mut buf: Vec<&[f64]> = Vec::new();
        let mut out = Vec::with_capacity(batch.len());
        for pattern in batch {
            let m = pattern.len();
            let mut contributions = Vec::with_capacity(locals);
            for local in 0..locals {
                let mean = self.window_mean(shard, local, pattern.cells(), &mut buf);
                contributions.push(match kind {
                    Measure::Nm => mean,
                    // best window *sum* (not mean); the match contribution
                    // is its exp.
                    Measure::Match => (mean * m as f64).exp(),
                });
            }
            out.push(contributions);
        }
        out
    }

    /// The sparse singular-NM pass over one shard: for each trajectory (in
    /// ascending order) the `(cell, best log-prob)` updates it produces, in
    /// the exact order the sequential pass would apply them.
    fn singular_updates(&self, start: usize, end: usize) -> Vec<(u32, f64)> {
        let mut updates = Vec::new();
        let mut best: FxHashMap<u32, f64> = FxHashMap::default();
        for traj in &self.data.trajectories()[start..end] {
            best.clear();
            for sp in traj.points() {
                let radius = self.delta + 8.0 * sp.sigma;
                for cell in self.grid.cells_within(sp.mean, radius) {
                    let lp = self.log_prob(sp, cell);
                    if lp > self.floor_log {
                        let e = best.entry(cell.0).or_insert(f64::NEG_INFINITY);
                        if lp > *e {
                            *e = lp;
                        }
                    }
                }
            }
            for (&cell, &b) in best.iter() {
                updates.push((cell, b));
            }
        }
        updates
    }
}

/// Which measure a [`ScoreRequest`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Normalized match (Eq. 3+4 summed over the dataset) — the mining
    /// measure; what [`Scorer::score_batch`] computes.
    Nm,
    /// The match measure of Yang et al. \[14\]: expected best-window
    /// occurrence count; what [`Scorer::score_batch_match`] computes.
    Match,
}

/// One worker's mutable state: a contiguous trajectory range and its
/// corridor tables — per local trajectory, a map from cell to the full
/// log-probability row, plus one shared all-floor row (sliced to each
/// trajectory's length) standing in for every absent cell.
#[derive(Debug)]
struct Shard {
    start: usize,
    end: usize,
    built: bool,
    rows: Vec<FxHashMap<CellId, Box<[f64]>>>,
    floor: Box<[f64]>,
}

impl Shard {
    /// Drops the (possibly half-built) tables so the next use rebuilds
    /// them from scratch — the degradation path after a worker panic.
    fn reset(&mut self) {
        self.built = false;
        self.rows = Vec::new();
        self.floor = Box::default();
    }
}

/// Pattern scoring engine over one dataset/grid/δ configuration.
///
/// Construct with [`Scorer::new`] for the sequential engine or
/// [`Scorer::with_threads`] for the deterministic parallel one; both
/// produce bit-identical scores (see the module docs). Scoring work is
/// described by a [`ScoreRequest`] from [`Scorer::query`].
pub struct Scorer<'a> {
    core: ScorerCore<'a>,
    threads: usize,
    shards: RefCell<Vec<Shard>>,
    /// Distinct cells referenced by scored patterns — the demand-driven
    /// "cache size" figure surfaced by [`Scorer::cached_cells`], kept
    /// stable across the corridor-table refactor.
    touched: RefCell<FxHashSet<CellId>>,
    evaluations: Cell<u64>,
    degraded: Cell<u64>,
    panic_injection: Cell<Option<usize>>,
}

impl<'a> std::fmt::Debug for Scorer<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scorer")
            .field("trajectories", &self.core.data.len())
            .field("grid_cells", &self.core.grid.num_cells())
            .field("delta", &self.core.delta)
            .field("min_prob", &self.core.min_prob)
            .field("threads", &self.threads)
            .field("cached_cells", &self.cached_cells())
            .finish()
    }
}

impl<'a> Scorer<'a> {
    /// Creates a sequential (single-shard) scorer. `min_prob` must be in
    /// `(0, 1)` (validated by `MiningParams`; debug-asserted here).
    pub fn new(data: &'a Dataset, grid: &'a Grid, delta: f64, min_prob: f64) -> Scorer<'a> {
        Scorer::with_threads(data, grid, delta, min_prob, 1)
    }

    /// Creates a scorer that scores batches on `threads` worker threads
    /// (`0` = one per available CPU). Scores are bit-identical to the
    /// sequential scorer for every thread count: trajectories are split
    /// into contiguous shards and per-trajectory contributions are reduced
    /// in ascending trajectory order.
    pub fn with_threads(
        data: &'a Dataset,
        grid: &'a Grid,
        delta: f64,
        min_prob: f64,
        threads: usize,
    ) -> Scorer<'a> {
        debug_assert!(min_prob > 0.0 && min_prob < 1.0);
        debug_assert!(delta > 0.0);
        let threads = effective_threads(threads);
        // Never split below MIN_TRAJECTORIES_PER_SHARD per worker: tiny
        // shards cost more in spawn/cache duplication than they win.
        let shard_count = (data.len() / MIN_TRAJECTORIES_PER_SHARD).clamp(1, threads);
        let n = data.len();
        let shards = (0..shard_count)
            .map(|s| Shard {
                start: n * s / shard_count,
                end: n * (s + 1) / shard_count,
                built: false,
                rows: Vec::new(),
                floor: Box::default(),
            })
            .collect();
        Scorer {
            core: ScorerCore {
                data,
                grid,
                delta,
                min_prob,
                floor_log: min_prob.ln(),
            },
            threads,
            shards: RefCell::new(shards),
            touched: RefCell::new(FxHashSet::default()),
            evaluations: Cell::new(0),
            degraded: Cell::new(0),
            panic_injection: Cell::new(None),
        }
    }

    /// The dataset being scored.
    #[inline]
    pub fn data(&self) -> &'a Dataset {
        self.core.data
    }

    /// The grid defining pattern positions.
    #[inline]
    pub fn grid(&self) -> &'a Grid {
        self.core.grid
    }

    /// The indifference distance δ.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.core.delta
    }

    /// `ln(min_prob)` — the per-position contribution floor, and also the
    /// NM a pattern receives from a trajectory it cannot fit in.
    #[inline]
    pub fn floor_log(&self) -> f64 {
        self.core.floor_log
    }

    /// The worker-thread count this scorer was built with (≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of pattern scorings performed so far (NM or match).
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// How many worker-shard panics were absorbed by rescoring the failed
    /// shard sequentially (see the module docs on graceful degradation).
    /// `0` in a healthy run.
    #[inline]
    pub fn degraded_rescores(&self) -> u64 {
        self.degraded.get()
    }

    /// Number of trajectory shards this scorer partitions work into.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.borrow().len()
    }

    /// Fault-injection hook: make the worker for shard `shard` panic during
    /// the next multi-shard batch, exercising the degradation path (the
    /// shard is then rescored sequentially and counted by
    /// [`Scorer::degraded_rescores`]). Consumed by the next batch; ignored
    /// when the scorer runs single-sharded (there is no worker thread to
    /// isolate). Testing aid — never set in production paths.
    pub fn inject_panic_next_batch(&self, shard: usize) {
        self.panic_injection.set(Some(shard));
    }

    /// Starts a [`ScoreRequest`] over `batch` — the single front door for
    /// scoring work, mirrored by the server's `/v1` `QueryRequest` schema.
    /// Defaults to the NM measure with no index; see [`ScoreRequest`].
    pub fn query<'q>(&'q self, batch: &'q [Pattern]) -> ScoreRequest<'q, 'a> {
        ScoreRequest {
            scorer: self,
            batch,
            measure: Measure::Nm,
            index: None,
        }
    }

    /// `NM(P)` over the whole dataset (Eq. 3 + 4 summed over `D`).
    pub fn nm(&self, pattern: &Pattern) -> f64 {
        self.score_batch(std::slice::from_ref(pattern))[0]
    }

    /// `NM(P)` for every pattern of `batch`, in order. One corridor-table
    /// build per shard (amortized across batches); shards are scored on
    /// scoped worker threads when the scorer was built with more than one.
    pub fn score_batch(&self, batch: &[Pattern]) -> Vec<f64> {
        self.run_batch(batch, Measure::Nm)
    }

    /// The *match* measure of Yang et al. \[14\]: `Σ_T max_window M(P,T')`
    /// — the expected number of (best-aligned) occurrences, without length
    /// normalization. Used by the baseline match miner.
    pub fn match_score(&self, pattern: &Pattern) -> f64 {
        self.score_batch_match(std::slice::from_ref(pattern))[0]
    }

    /// Match measure for every pattern of `batch`, in order.
    pub fn score_batch_match(&self, batch: &[Pattern]) -> Vec<f64> {
        self.run_batch(batch, Measure::Match)
    }

    fn run_batch(&self, batch: &[Pattern], kind: Measure) -> Vec<f64> {
        self.evaluations
            .set(self.evaluations.get() + batch.len() as u64);
        if batch.is_empty() {
            return Vec::new();
        }
        {
            let mut touched = self.touched.borrow_mut();
            for pattern in batch {
                touched.extend(pattern.cells().iter().copied());
            }
        }
        let mut shards = self.shards.borrow_mut();
        let core = self.core;
        let injected = self.panic_injection.take();
        let per_shard: Vec<Vec<Vec<f64>>> = if shards.len() == 1 {
            vec![core.score_shard(&mut shards[0], batch, kind)]
        } else {
            let joined: Vec<std::thread::Result<Vec<Vec<f64>>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(i, shard)| {
                        let inject = injected == Some(i);
                        scope.spawn(move || {
                            if inject {
                                panic!("injected scorer fault (shard {i})");
                            }
                            core.score_shard(shard, batch, kind)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            // Graceful degradation: a worker panic must not poison the
            // batch. Drop the failed shard's (possibly half-built)
            // corridor tables and rescore that shard on this thread. The
            // rebuild and the reduction below are deterministic, so the
            // result stays bit-identical to a healthy run.
            joined
                .into_iter()
                .enumerate()
                .map(|(i, res)| match res {
                    Ok(contributions) => contributions,
                    Err(_) => {
                        self.degraded.set(self.degraded.get() + 1);
                        shards[i].reset();
                        core.score_shard(&mut shards[i], batch, kind)
                    }
                })
                .collect()
        };
        // Deterministic reduction: fold per-trajectory contributions in
        // ascending trajectory order — shards are contiguous and ordered,
        // so this is the exact sequential summation order.
        batch
            .iter()
            .enumerate()
            .map(|(p, _)| {
                let mut total = 0.0;
                for contributions in per_shard.iter() {
                    for &c in &contributions[p] {
                        total += c;
                    }
                }
                total
            })
            .collect()
    }

    /// The index-pruned batch path behind [`ScoreRequest::run`]: patterns
    /// whose bounding box provably misses every trajectory's probability
    /// corridor are resolved analytically (every position at the floor),
    /// with the same per-trajectory fold order as the dense path — so the
    /// returned scores are bit-identical to an unindexed run.
    fn run_indexed(
        &self,
        batch: &[Pattern],
        kind: Measure,
        index: &crate::index::PatternIndex,
    ) -> Vec<f64> {
        let near_mask = index.candidates(self.core.data, self.core.delta);
        if near_mask.iter().all(|&n| n) {
            return self.run_batch(batch, kind);
        }
        let near: Vec<Pattern> = batch
            .iter()
            .zip(&near_mask)
            .filter(|(_, &n)| n)
            .map(|(p, _)| p.clone())
            .collect();
        let far = (batch.len() - near.len()) as u64;
        let near_scores = self.run_batch(&near, kind);
        // Far patterns were still evaluated (analytically): charge them,
        // and record their cells like any scored pattern.
        self.evaluations.set(self.evaluations.get() + far);
        {
            let mut touched = self.touched.borrow_mut();
            for (pattern, &n) in batch.iter().zip(&near_mask) {
                if !n {
                    touched.extend(pattern.cells().iter().copied());
                }
            }
        }
        let lens: Vec<usize> = self
            .core
            .data
            .trajectories()
            .iter()
            .map(|t| t.len())
            .collect();
        let mut near_iter = near_scores.into_iter();
        batch
            .iter()
            .zip(&near_mask)
            .map(|(pattern, &n)| {
                if n {
                    near_iter.next().expect("one score per near pattern")
                } else {
                    far_fold(pattern.len(), &lens, kind, self.core.floor_log)
                }
            })
            .collect()
    }

    /// `NM(P, T_i)` for every trajectory, in ascending trajectory order —
    /// the contribution-ledger hook used by the streaming layer
    /// (`trajstream`). Folding the returned values in order with `total +=
    /// c` reproduces [`Scorer::nm`] bit-for-bit (the reduction convention
    /// of DESIGN.md §5), and each value equals, bit for bit, the NM a
    /// scorer built over that trajectory alone computes, with or without
    /// a [`PatternIndex`](crate::index::PatternIndex).
    pub fn nm_contributions(&self, pattern: &Pattern) -> Vec<f64> {
        self.evaluations.set(self.evaluations.get() + 1);
        self.touched
            .borrow_mut()
            .extend(pattern.cells().iter().copied());
        let mut shards = self.shards.borrow_mut();
        let mut out = Vec::with_capacity(self.core.data.len());
        let mut buf: Vec<&[f64]> = Vec::new();
        for shard in shards.iter_mut() {
            self.core.build_shard(shard);
            let shard: &Shard = shard;
            for local in 0..shard.end - shard.start {
                out.push(
                    self.core
                        .window_mean(shard, local, pattern.cells(), &mut buf),
                );
            }
        }
        out
    }

    /// `NM` of a *gapped* pattern (§5): positions `cells` with
    /// `gaps[i] = (min, max)` wildcard snapshots allowed between positions
    /// `i` and `i+1`. Dynamic programming over each trajectory reusing the
    /// corridor tables; normalization is by the number of specified
    /// positions (wildcards contribute probability 1 and no normalization
    /// mass). Callers must pass `gaps.len() == cells.len()-1` with
    /// `min <= max` everywhere (debug-asserted).
    pub fn nm_gapped(&self, cells: &[CellId], gaps: &[(u8, u8)]) -> f64 {
        debug_assert_eq!(gaps.len() + 1, cells.len());
        debug_assert!(gaps.iter().all(|&(lo, hi)| lo <= hi));
        self.evaluations.set(self.evaluations.get() + 1);
        self.touched.borrow_mut().extend(cells.iter().copied());
        let m = cells.len();
        let min_span: usize = m + gaps.iter().map(|&(lo, _)| lo as usize).sum::<usize>();
        let mut total = 0.0;
        let mut shards = self.shards.borrow_mut();
        let mut buf: Vec<&[f64]> = Vec::new();
        for shard in shards.iter_mut() {
            self.core.build_shard(shard);
            let shard: &Shard = shard;
            for local in 0..shard.end - shard.start {
                let l = self.core.data.trajectories()[shard.start + local].len();
                if l < min_span {
                    total += self.core.floor_log;
                    continue;
                }
                let rows = &shard.rows[local];
                buf.clear();
                for c in cells {
                    match rows.get(c) {
                        Some(r) => buf.push(r),
                        None => buf.push(&shard.floor[..l]),
                    }
                }
                // dp[j]: best sum with the current position at snapshot j.
                let mut dp: Vec<f64> = buf[0].to_vec();
                for i in 1..m {
                    let (lo, hi) = gaps[i - 1];
                    let row = buf[i];
                    let mut next = vec![f64::NEG_INFINITY; l];
                    for (j, slot) in next.iter_mut().enumerate() {
                        let mut best_prev = f64::NEG_INFINITY;
                        for g in lo..=hi {
                            let offset = 1 + g as usize;
                            if j >= offset && dp[j - offset] > best_prev {
                                best_prev = dp[j - offset];
                            }
                        }
                        if best_prev > f64::NEG_INFINITY {
                            *slot = best_prev + row[j];
                        }
                    }
                    dp = next;
                }
                let best = dp.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                total += if best.is_finite() {
                    best / m as f64
                } else {
                    self.core.floor_log
                };
            }
        }
        total
    }

    /// NM of every singular pattern, indexed by `CellId`. One sparse pass:
    /// memory `O(G + touched cells per trajectory)`, no table building.
    /// Runs sharded on the scorer's worker threads; the per-cell
    /// accumulations are applied in the exact order of the sequential
    /// pass, so results are bit-identical for every thread count.
    pub fn nm_all_singulars(&self) -> Vec<f64> {
        let g = self.core.grid.num_cells() as usize;
        let n = self.core.data.len() as f64;
        let mut totals = vec![self.core.floor_log * n; g];
        let shards = self.shards.borrow();
        let core = self.core;
        let injected = self.panic_injection.take();
        let per_shard: Vec<Vec<(u32, f64)>> = if shards.len() == 1 {
            vec![core.singular_updates(shards[0].start, shards[0].end)]
        } else {
            let ranges: Vec<(usize, usize)> = shards.iter().map(|s| (s.start, s.end)).collect();
            let joined: Vec<std::thread::Result<Vec<(u32, f64)>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .enumerate()
                    .map(|(i, &(start, end))| {
                        let inject = injected == Some(i);
                        scope.spawn(move || {
                            if inject {
                                panic!("injected scorer fault (shard {i})");
                            }
                            core.singular_updates(start, end)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            // Same degradation as `run_batch`: recompute a panicked
            // shard's updates sequentially; application order below is
            // unchanged, so the totals stay bit-identical.
            joined
                .into_iter()
                .zip(ranges)
                .map(|(res, (start, end))| match res {
                    Ok(updates) => updates,
                    Err(_) => {
                        self.degraded.set(self.degraded.get() + 1);
                        core.singular_updates(start, end)
                    }
                })
                .collect()
        };
        for updates in per_shard.iter() {
            for &(cell, b) in updates {
                totals[cell as usize] += b - self.core.floor_log;
            }
        }
        totals
    }

    /// Number of distinct cells referenced by pattern scorings so far —
    /// the demand-driven cache-size figure surfaced in [`ScorerStats`]
    /// (semantics unchanged from the per-cell row-cache era, so persisted
    /// snapshots stay byte-identical).
    pub fn cached_cells(&self) -> usize {
        self.touched.borrow().len()
    }

    /// Snapshot of this scorer's counters, for surfacing in mining output
    /// and server metrics.
    pub fn stats(&self) -> ScorerStats {
        ScorerStats {
            scorings: self.evaluations(),
            cached_cells: self.cached_cells() as u64,
            degraded_rescores: self.degraded_rescores(),
        }
    }
}

/// A batch scoring request under construction — the library-side mirror of
/// the server's `/v1` `QueryRequest`. Built by [`Scorer::query`];
/// configure with [`ScoreRequest::measure`] / [`ScoreRequest::with_index`]
/// and execute with [`ScoreRequest::run`]. Every configuration returns
/// scores bit-identical to the corresponding direct entry point.
#[derive(Debug, Clone, Copy)]
pub struct ScoreRequest<'q, 'a> {
    scorer: &'q Scorer<'a>,
    batch: &'q [Pattern],
    measure: Measure,
    index: Option<&'q crate::index::PatternIndex>,
}

impl<'q, 'a> ScoreRequest<'q, 'a> {
    /// Selects the measure to compute (default: [`Measure::Nm`]).
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Attaches a [`PatternIndex`](crate::index::PatternIndex) built over
    /// *exactly this batch* (entry `i` ↔ `batch[i]`; debug-asserted).
    /// Patterns the index proves far from every trajectory resolve
    /// analytically; results are bit-identical with or without the index.
    pub fn with_index(mut self, index: &'q crate::index::PatternIndex) -> Self {
        debug_assert_eq!(
            index.len(),
            self.batch.len(),
            "index must be built over the scored batch"
        );
        self.index = Some(index);
        self
    }

    /// Executes the request, returning one score per batch pattern.
    pub fn run(self) -> Vec<f64> {
        match self.index {
            // A misaligned index cannot be trusted; score unindexed.
            Some(index) if index.len() == self.batch.len() && !self.batch.is_empty() => {
                self.scorer.run_indexed(self.batch, self.measure, index)
            }
            _ => self.scorer.run_batch(self.batch, self.measure),
        }
    }
}

pub use crate::stats::ScorerStats;

/// Resolves a requested thread count: `0` means one per available CPU.
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Maximum over windows of the mean log probability (Eq. 3+4 for one
/// trajectory) over row slices — window sums accumulate position by
/// position and the best window strictly improves, the canonical fold
/// order every scoring path replicates. Returns `floor_log` if the
/// trajectory is shorter than the pattern.
fn best_window_mean_rows(rows: &[&[f64]], m: usize, floor_log: f64) -> f64 {
    let l = rows[0].len();
    if l < m {
        return floor_log;
    }
    let mut best = f64::NEG_INFINITY;
    for start in 0..=(l - m) {
        let mut sum = 0.0;
        for (j, row) in rows.iter().enumerate() {
            sum += row[start + j];
        }
        if sum > best {
            best = sum;
        }
    }
    best / m as f64
}

/// What [`best_window_mean_rows`] returns when every row entry is
/// `floor_log` (the trajectory never comes near any pattern cell): all
/// window sums are the same sequential fold of `m` floor terms, replicated
/// here addition by addition so the result is bit-identical to the dense
/// evaluation.
fn untouched_window_mean(m: usize, l: usize, floor_log: f64) -> f64 {
    if l < m {
        return floor_log;
    }
    let mut sum = 0.0;
    for _ in 0..m {
        sum += floor_log;
    }
    sum / m as f64
}

/// The whole-dataset fold for a pattern no trajectory comes near: per
/// trajectory the untouched window value, reduced in ascending trajectory
/// order — addition for addition what the dense path computes, so the
/// index-pruned path stays bit-identical.
fn far_fold(m: usize, lens: &[usize], kind: Measure, floor_log: f64) -> f64 {
    let mut total = 0.0;
    for &l in lens {
        let mean = untouched_window_mean(m, l, floor_log);
        total += match kind {
            Measure::Nm => mean,
            Measure::Match => (mean * m as f64).exp(),
        };
    }
    total
}

/// `log M(P, segment)` (Eq. 2 in log space) for an arbitrary snapshot
/// segment *outside* any dataset — used by the prediction module to test
/// whether a recent trajectory fragment "confirms" a pattern (or pattern
/// prefix, hence the cell-slice signature). Returns `None` if the segment
/// length differs from the number of cells.
pub fn log_match_segment(
    segment: &[SnapshotPoint],
    cells: &[trajgeo::CellId],
    grid: &Grid,
    delta: f64,
    min_prob: f64,
) -> Option<f64> {
    if segment.len() != cells.len() || cells.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for (sp, &cell) in segment.iter().zip(cells) {
        sum += prob_within_delta(sp.mean, sp.sigma, grid.center(cell), delta)
            .max(min_prob)
            .ln();
    }
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PatternIndex;
    use trajdata::Trajectory;
    use trajgeo::{BBox, Point2};

    /// 4×4 unit grid; helper building a dataset of identical L-to-R sweeps.
    fn setup(n: usize, sigma: f64) -> (Dataset, Grid) {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let data: Dataset = (0..n)
            .map(|_| {
                Trajectory::new(
                    (0..4)
                        .map(|i| {
                            SnapshotPoint::new(Point2::new(0.125 + i as f64 * 0.25, 0.625), sigma)
                                .unwrap()
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        (data, grid)
    }

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| CellId(i)).collect()).unwrap()
    }

    // Cells of row y=0.625 (third row, cy=2) are 8,9,10,11.

    #[test]
    fn nm_prefers_the_true_path() {
        let (data, grid) = setup(5, 0.05);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let on_path = s.nm(&pat(&[8, 9, 10, 11]));
        let off_path = s.nm(&pat(&[0, 1, 2, 3]));
        assert!(
            on_path > off_path,
            "on-path {on_path} must beat off-path {off_path}"
        );
        // NM values are sums of log-probability means: never positive.
        assert!(on_path <= 0.0);
    }

    #[test]
    fn nm_scales_linearly_with_dataset_size() {
        let (d1, grid) = setup(1, 0.05);
        let (d3, _) = setup(3, 0.05);
        let p = pat(&[8, 9]);
        let nm1 = Scorer::new(&d1, &grid, 0.1, 1e-12).nm(&p);
        let nm3 = Scorer::new(&d3, &grid, 0.1, 1e-12).nm(&p);
        assert!((nm3 - 3.0 * nm1).abs() < 1e-9);
    }

    #[test]
    fn nm_uses_best_window() {
        // Pattern (9,10) occurs in the middle of the sweep; NM must pick
        // that window rather than the first.
        let (data, grid) = setup(1, 0.02);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let p = pat(&[9, 10]);
        let nm = s.nm(&p);
        // The best window should be nearly perfect: cells 9,10 sit exactly
        // under snapshots 1,2, and ±0.1 around a cell center with σ=0.02
        // captures almost all mass.
        assert!(nm > (0.99f64).ln(), "nm = {nm}");
    }

    #[test]
    fn too_short_trajectory_contributes_floor() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let short: Dataset = vec![Trajectory::from_exact([Point2::new(0.125, 0.625)])]
            .into_iter()
            .collect();
        let s = Scorer::new(&short, &grid, 0.1, 1e-12);
        let nm = s.nm(&pat(&[8, 9]));
        assert!((nm - (1e-12f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn probability_floor_bounds_nm() {
        let (data, grid) = setup(2, 0.01);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        // A pattern in the far corner: every position hits the floor.
        let nm = s.nm(&pat(&[15, 15, 15]));
        let floor_nm = 2.0 * (1e-12f64).ln();
        assert!((nm - floor_nm).abs() < 1e-6, "nm = {nm}");
    }

    #[test]
    fn match_score_counts_expected_occurrences() {
        let (data, grid) = setup(10, 0.01);
        let s = Scorer::new(&data, &grid, 0.12, 1e-12);
        // Each of the 10 trajectories matches (8,9) nearly perfectly.
        let m = s.match_score(&pat(&[8, 9]));
        assert!(m > 9.0 && m <= 10.0, "match = {m}");
        // The off-path pattern matches essentially never.
        assert!(s.match_score(&pat(&[4, 5])) < 1.0);
    }

    #[test]
    fn match_is_antimonotone_under_extension() {
        // The Apriori property holds for match (it fails for NM) — spot
        // check here; the property test covers random data.
        let (data, grid) = setup(6, 0.05);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let m2 = s.match_score(&pat(&[8, 9]));
        let m3 = s.match_score(&pat(&[8, 9, 10]));
        let m4 = s.match_score(&pat(&[8, 9, 10, 11]));
        assert!(m2 >= m3 && m3 >= m4, "{m2} >= {m3} >= {m4} violated");
    }

    #[test]
    fn singular_pass_agrees_with_direct_scoring() {
        let (data, grid) = setup(4, 0.07);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let all = s.nm_all_singulars();
        for cell in grid.cells() {
            let direct = s.nm(&Pattern::singular(cell));
            assert!(
                (all[cell.index()] - direct).abs() < 1e-6,
                "cell {cell}: sparse {} vs direct {direct}",
                all[cell.index()]
            );
        }
    }

    #[test]
    fn evaluation_counter_and_cache_grow() {
        let (data, grid) = setup(2, 0.05);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        assert_eq!(s.evaluations(), 0);
        s.nm(&pat(&[8, 9]));
        s.nm(&pat(&[8, 9]));
        assert_eq!(s.evaluations(), 2);
        assert_eq!(s.cached_cells(), 2);
    }

    #[test]
    fn log_match_segment_matches_pattern_length_only() {
        let (data, grid) = setup(1, 0.05);
        let seg = &data.trajectories()[0].points()[..2];
        let p2 = pat(&[8, 9]);
        let p3 = pat(&[8, 9, 10]);
        assert!(log_match_segment(seg, p2.cells(), &grid, 0.1, 1e-12).is_some());
        assert!(log_match_segment(seg, p3.cells(), &grid, 0.1, 1e-12).is_none());
        // The well-aligned segment has high probability (σ=0.05, δ=0.1:
        // each axis captures ±2σ ≈ 0.954, so each position ≈ 0.911 and the
        // two-position product ≈ 0.83).
        let lm = log_match_segment(seg, p2.cells(), &grid, 0.1, 1e-12).unwrap();
        assert!(lm > (0.8f64).ln(), "lm = {lm}");
    }

    #[test]
    fn nm_contributions_fold_to_nm() {
        let (data, grid) = setup(24, 0.06);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let p = pat(&[8, 9, 10]);
        let contribs = s.nm_contributions(&p);
        assert_eq!(contribs.len(), data.len());
        // Each contribution is what a scorer over that trajectory alone
        // computes, indexed or not — the stream ledger appends such
        // single-trajectory scores to rows built here.
        for q in [p.clone(), pat(&[0, 1])] {
            let batch = std::slice::from_ref(&q);
            let index = PatternIndex::build(batch, &grid);
            for (i, &c) in s.nm_contributions(&q).iter().enumerate() {
                let alone: Dataset = std::iter::once(data.trajectories()[i].clone()).collect();
                let one = Scorer::new(&alone, &grid, 0.1, 1e-12);
                assert_eq!(c.to_bits(), one.query(batch).run()[0].to_bits());
                assert_eq!(
                    c.to_bits(),
                    one.query(batch).with_index(&index).run()[0].to_bits()
                );
            }
        }
        let mut total = 0.0;
        for &c in &contribs {
            total += c;
        }
        assert_eq!(total.to_bits(), s.nm(&p).to_bits());
        // Same values from a sharded scorer.
        let par = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 3);
        for (a, b) in contribs.iter().zip(par.nm_contributions(&p)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn score_batch_matches_one_at_a_time() {
        let (data, grid) = setup(7, 0.05);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let batch = [pat(&[8, 9]), pat(&[9, 10, 11]), pat(&[0, 1]), pat(&[8, 9])];
        let batched = s.score_batch(&batch);
        let fresh = Scorer::new(&data, &grid, 0.1, 1e-12);
        for (p, &b) in batch.iter().zip(&batched) {
            assert_eq!(fresh.nm(p).to_bits(), b.to_bits());
        }
        // One evaluation is charged per pattern, duplicates included.
        assert_eq!(s.evaluations(), 4);
    }

    #[test]
    fn query_builder_matches_direct_entry_points() {
        let (data, grid) = setup(9, 0.05);
        let batch = [pat(&[8, 9]), pat(&[0, 1, 2]), pat(&[15]), pat(&[9, 10])];
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        let via_builder = s.query(&batch).run();
        let direct = Scorer::new(&data, &grid, 0.1, 1e-12).score_batch(&batch);
        for (a, b) in via_builder.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let via_builder = s.query(&batch).measure(Measure::Match).run();
        let direct = Scorer::new(&data, &grid, 0.1, 1e-12).score_batch_match(&batch);
        for (a, b) in via_builder.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn indexed_query_is_bit_identical_and_charges_every_pattern() {
        // Far patterns (bottom row 12..16 vs data on row 8..12) take the
        // analytic path; scores and evaluation counts must not change.
        let (data, grid) = setup(10, 0.04);
        let batch = [
            pat(&[8, 9, 10]),
            pat(&[12, 13]),
            pat(&[15]),
            pat(&[8, 9]),
            pat(&[0, 1, 2, 3]),
        ];
        let index = PatternIndex::build(&batch, &grid);
        let plain = Scorer::new(&data, &grid, 0.1, 1e-12);
        let want = plain.score_batch(&batch);
        let indexed = Scorer::new(&data, &grid, 0.1, 1e-12);
        let got = indexed.query(&batch).with_index(&index).run();
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
        assert_eq!(indexed.evaluations(), plain.evaluations());
        assert_eq!(indexed.cached_cells(), plain.cached_cells());
        // Match measure through the same indexed path.
        let want = plain.score_batch_match(&batch);
        let got = indexed
            .query(&batch)
            .measure(Measure::Match)
            .with_index(&index)
            .run();
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn parallel_scores_are_bit_identical() {
        // 4 workers over 32 trajectories: both measures, every pattern,
        // down to the last bit. (The dedicated proptest covers random
        // data; this is the deterministic spot check.)
        let (data, grid) = setup(32, 0.05);
        let seq = Scorer::new(&data, &grid, 0.1, 1e-12);
        let par = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 4);
        assert_eq!(par.threads(), 4);
        let batch = [pat(&[8, 9, 10]), pat(&[0, 1]), pat(&[15]), pat(&[8, 9])];
        for (s, p) in seq.score_batch(&batch).iter().zip(par.score_batch(&batch)) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
        for (s, p) in seq
            .score_batch_match(&batch)
            .iter()
            .zip(par.score_batch_match(&batch))
        {
            assert_eq!(s.to_bits(), p.to_bits());
        }
        for (s, p) in seq.nm_all_singulars().iter().zip(par.nm_all_singulars()) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
        assert_eq!(
            seq.nm_gapped(&[CellId(8), CellId(10)], &[(0, 2)]).to_bits(),
            par.nm_gapped(&[CellId(8), CellId(10)], &[(0, 2)]).to_bits()
        );
    }

    #[test]
    fn thread_count_zero_means_auto() {
        let (data, grid) = setup(2, 0.05);
        let s = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 0);
        assert!(s.threads() >= 1);
    }

    #[test]
    fn worker_panic_degrades_to_identical_scores() {
        let (data, grid) = setup(32, 0.05);
        let healthy = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 4);
        let faulty = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 4);
        assert_eq!(faulty.num_shards(), 4);
        let batch = [pat(&[8, 9, 10]), pat(&[0, 1]), pat(&[15])];
        let want = healthy.score_batch(&batch);
        faulty.inject_panic_next_batch(2);
        let got = faulty.score_batch(&batch);
        assert_eq!(faulty.degraded_rescores(), 1);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
        // The injection is consumed: the next batch runs healthy.
        let again = faulty.score_batch(&batch);
        assert_eq!(faulty.degraded_rescores(), 1);
        for (w, g) in want.iter().zip(&again) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn singular_pass_survives_worker_panic() {
        let (data, grid) = setup(32, 0.05);
        let healthy = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 4);
        let faulty = Scorer::with_threads(&data, &grid, 0.1, 1e-12, 4);
        let want = healthy.nm_all_singulars();
        faulty.inject_panic_next_batch(0);
        let got = faulty.nm_all_singulars();
        assert_eq!(faulty.degraded_rescores(), 1);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn injection_on_single_shard_scorer_is_ignored() {
        let (data, grid) = setup(4, 0.05);
        let s = Scorer::new(&data, &grid, 0.1, 1e-12);
        assert_eq!(s.num_shards(), 1);
        s.inject_panic_next_batch(0);
        let nm = s.nm(&pat(&[8, 9]));
        assert!(nm.is_finite());
        assert_eq!(s.degraded_rescores(), 0);
    }
}
