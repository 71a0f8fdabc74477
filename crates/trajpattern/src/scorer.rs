//! Computing match and normalized match (Eq. 2–4 of the paper).
//!
//! Scoring a pattern against the dataset is the dominant cost of mining
//! (the paper's complexity analysis charges `O(MN)` per pattern). Every
//! production scoring call runs on one exact kernel here. The [`Scorer`]:
//!
//! - builds, once per trajectory, a *corridor table* ([`CorridorTable`]):
//!   the per-snapshot log probabilities
//!   `ln Prob(l, σ, center(cell), δ)` of exactly the cells that can
//!   receive above-floor probability. A snapshot only gives non-floor
//!   probability to cells within `δ + 8σ` of its mean, and that L∞ ball
//!   is a rectangle of grid columns × rows ([`Grid::span_within`]).
//!   `Prob` factors into one term per axis, and a cell's center x depends
//!   only on its column (y only on its row), so each snapshot evaluates
//!   one factor per column and one per row of its rectangle, and each
//!   cell's probability is their product — every probability computed
//!   once per (cell, snapshot), never per pattern. A caller that scores
//!   the same trajectories many times builds their tables once and lends
//!   them to [`Scorer::with_tables`];
//! - reads all `G` singular-pattern NMs off those same tables
//!   ([`Scorer::nm_all_singulars`]): a singular's best window is its
//!   row's best entry, so mining's first step and its scoring share one
//!   corridor pass;
//! - scores each window-sum prefix once per trajectory
//!   (`ScorerCore::score_shard`): the batch is visited in lexicographic
//!   cell order, so patterns grown as `P'·P''` from a shared `P'` sit
//!   together, and each pattern folds only the rows past the prefix it
//!   shares with the previous one. Its last row goes straight into a
//!   four-lane max over its windows. A prefix touching no corridor cell
//!   of the trajectory is a constant, the fold of its floor terms. Every
//!   window sum takes the additions of a window-by-window scan in the
//!   same order, so each score is bit-identical to the dense fold;
//! - scores whole candidate *batches* ([`Scorer::score_batch`]) by
//!   partitioning trajectories into contiguous shards, evaluating shards on
//!   scoped worker threads, and reducing the per-trajectory `NM(P, T)`
//!   contributions in ascending trajectory order — so the result is
//!   bit-identical to the sequential fold for every thread count (the
//!   determinism convention in DESIGN.md §5). A single shard folds each
//!   contribution into its pattern's total as it is scored.
//!
//! The one front door for scoring work is [`Scorer::query`], which
//! returns a [`ScoreRequest`] builder: pick the [`Measure`], then
//! [`ScoreRequest::run`]. The classic entry points
//! ([`Scorer::score_batch`] and friends) remain as thin wrappers; CLI,
//! bench, the stream ledger and repair paths and the server all construct
//! scoring work through the same builder. [`ScoreRequest::with_index`]
//! attaches a [`PatternIndex`](crate::index::PatternIndex) so patterns
//! provably far from every trajectory resolve analytically; no production
//! caller uses it (measured slower than the tables alone), and it stays
//! as an exact reference path for the benchmark.
//!
//! Internally the scorer is split into a `Send + Sync` read-only core
//! ([`ScorerCore`]: dataset/grid/δ) shared by all workers, and per-shard
//! mutable state (the shard's corridor tables, built or borrowed), so the
//! parallel path needs no locks and no `unsafe`.
//!
//! Per-position probabilities are clamped below by `min_prob` so `log M`
//! stays finite; DESIGN.md §5 explains why this preserves the min-max
//! property exactly.

use crate::pattern::Pattern;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::fxhash::{FxHashMap, FxHashSet};
use trajgeo::stats::{prob_within_delta, prob_within_delta_axis};
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
    /// Builds `shard`'s corridor tables if it has none yet: one
    /// [`CorridorTable`] per local trajectory.
    fn build_shard(&self, shard: &mut Shard<'_>) {
        if shard.built {
            return;
        }
        shard.tables = self.data.trajectories()[shard.start..shard.end]
            .iter()
            .map(|traj| {
                Cow::Owned(CorridorTable::build(
                    traj,
                    self.grid,
                    self.delta,
                    self.min_prob,
                ))
            })
            .collect();
        shard.built = true;
    }

    /// The corridor rows of `cells` for one shard-local trajectory, in
    /// pattern order, into `out` (the shared all-floor row stands in for
    /// cells the trajectory never comes near).
    fn pattern_rows<'s>(
        &self,
        shard: &'s Shard<'_>,
        local: usize,
        cells: &[CellId],
        out: &mut Vec<&'s [f64]>,
    ) {
        let table: &'s CorridorTable = &shard.tables[local];
        let floor = &shard.floor[..table.len()];
        out.clear();
        out.extend(cells.iter().map(|&c| table.row(c).unwrap_or(floor)));
    }

    /// Scores every pattern of `batch` over one shard, handing each
    /// per-trajectory contribution to `sink(pattern index, local
    /// trajectory, value)`. Within a trajectory the patterns are visited
    /// in `order` (every batch index once; see [`visit_order`]), or as
    /// given when it is `None`. Each window-sum prefix is folded once and
    /// kept for the next pattern that starts with it, and a pattern's last
    /// position is folded straight into its best window. A window's sum
    /// is the left fold `((0 + r0[s]) + r1[s+1]) + …` of the pattern's
    /// rows and the best window is the first strictly largest sum; why
    /// every value is bit for bit that scan's:
    ///
    /// - (i) The fold of a prefix `P[..d]` is the first `d` steps of the
    ///   fold of `P`. Level `d` of `levels` holds the `l − d + 1` window
    ///   sums of the depth-`d` prefix of `held`, and a length-`m`
    ///   pattern's window `s < l − m + 1` is one of the `l − d` windows
    ///   its depth-`d` prefix computes. So a pattern folds only the rows
    ///   past the prefix it shares with `held`, each extending level `d`
    ///   to `d + 1` by one corridor row. A level whose prefix touches no
    ///   corridor cell is not stored: each of its sums is the fold of `d`
    ///   floor terms, `folds[d]`.
    /// - (ii) The last position adds one row to level `m − 1`, and
    ///   [`lane_max_sum`] takes the best of those sums as it forms them.
    ///   When one side is a constant `c` (a row-less cell adds the floor;
    ///   a row-less prefix sums to `folds[m − 1]`), the best sum is `c`
    ///   plus the best of the other side: round-to-nearest addition of `c`
    ///   is monotone, so `max_s fl(c + x_s) = fl(c + max_s x_s)`.
    /// - (iii) [`lane_max`] and [`lane_max_sum`] keep four lanes of
    ///   `x > acc` maxima. They give the same value as the serial
    ///   first-strictly-largest scan except on a `+0.0`/`−0.0` tie, and
    ///   both skip NaN. A tie cannot occur: every entry is `ln` of a value
    ///   in `[min_prob, 1]` or the floor, and round-to-nearest addition of
    ///   such values never gives `−0.0`. `SnapshotPoint::new` rejects
    ///   non-finite input.
    /// - (iv) Trajectories form the outer loop, so each pattern's
    ///   contributions reach `sink` in ascending trajectory order.
    fn score_shard(
        &self,
        shard: &mut Shard<'_>,
        batch: &[Pattern],
        order: Option<&[usize]>,
        kind: Measure,
        mut sink: impl FnMut(usize, usize, f64),
    ) {
        self.build_shard(shard);
        let shard: &Shard<'_> = shard;
        let floor = self.floor_log;
        let depth = batch.iter().map(Pattern::len).max().unwrap_or(0);
        // Level `d` (from 1) starts at `(d − 1) · stride`; a pattern's
        // last level is never stored.
        let stride = shard.floor.len();
        let mut levels = vec![0.0; depth.saturating_sub(1) * stride];
        // `near[d]`: whether the depth-`d` prefix of `held` touches a
        // corridor cell, so that level `d` is stored.
        let mut near = vec![false; depth];
        let mut folds = vec![0.0; depth + 1];
        for d in 0..depth {
            folds[d + 1] = folds[d] + floor;
        }
        for (local, table) in shard.tables.iter().enumerate() {
            let l = table.len();
            // The cells whose prefix levels are stored.
            let mut held: &[CellId] = &[];
            for i in 0..batch.len() {
                let p = order.map_or(i, |order| order[i]);
                let cells = batch[p].cells();
                let m = cells.len();
                let mean = if l < m {
                    floor
                } else {
                    let (head, last) = (&cells[..m - 1], cells[m - 1]);
                    let shared = held.iter().zip(head).take_while(|(a, b)| a == b).count();
                    for (d, &cell) in head.iter().enumerate().skip(shared) {
                        let row = table.row(cell);
                        let (below, above) = levels.split_at_mut(d * stride);
                        let next = &mut above[..l - d];
                        match (near[d], row) {
                            (true, Some(row)) => {
                                let prev = &below[(d - 1) * stride..];
                                for ((n, &s), &v) in next.iter_mut().zip(prev).zip(&row[d..]) {
                                    *n = s + v;
                                }
                            }
                            (true, None) => {
                                let prev = &below[(d - 1) * stride..];
                                for (n, &s) in next.iter_mut().zip(prev) {
                                    *n = s + floor;
                                }
                            }
                            (false, Some(row)) => {
                                for (n, &v) in next.iter_mut().zip(&row[d..]) {
                                    *n = folds[d] + v;
                                }
                            }
                            (false, None) => {}
                        }
                        near[d + 1] = near[d] || row.is_some();
                    }
                    held = head;
                    let d = m - 1;
                    let sums = || &levels[(d - 1) * stride..][..l - d];
                    let best = match (near[d], table.row(last)) {
                        (true, Some(row)) => lane_max_sum(sums(), &row[d..]),
                        (true, None) => lane_max(sums()) + floor,
                        (false, Some(row)) => folds[d] + lane_max(&row[d..]),
                        (false, None) => folds[m],
                    };
                    best / m as f64
                };
                sink(
                    p,
                    local,
                    match kind {
                        Measure::Nm => mean,
                        // best window *sum* (not mean); the match
                        // contribution is its exp.
                        Measure::Match => (mean * m as f64).exp(),
                    },
                );
            }
        }
    }
}

/// The order [`ScorerCore::score_shard`] visits `batch` in, or `None`
/// for the given order. Sorted by cells, patterns that share a prefix sit
/// next to each other. The sort pays for itself only when more than one
/// trajectory reuses it: a stream arrival scores the whole ledger against
/// one trajectory, and there the given order is kept (DESIGN.md §12).
fn visit_order(batch: &[Pattern], trajectories: usize) -> Option<Vec<usize>> {
    (trajectories > 1).then(|| {
        let mut keyed: Vec<(&[CellId], usize)> = batch.iter().map(|p| p.cells()).zip(0..).collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    })
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

/// One trajectory's corridor table: for every cell some snapshot comes
/// within `δ + 8σ` of, the log-probability row over the trajectory's
/// snapshots. Entry `t` of cell `c`'s row is
/// `ln(max(Prob(l_t, σ_t, center(c), δ), min_prob))`, with `Prob`
/// evaluated as the product of its per-axis factors — the same product
/// [`prob_within_delta`] computes, so bit for bit the same value. Entries
/// the corridor scan does not reach are the floor `ln(min_prob)`
/// *exactly*, and a cell no snapshot reaches has no row at all (the
/// invariant [`Scorer::nm_all_singulars`] and the untouched-window
/// shortcut rest on), so these sparse rows carry bit-identical values to
/// a dense fill.
///
/// [`CorridorTable::build`] is the only table builder: a [`Scorer`]
/// builds one per trajectory on first use, and a caller that scores the
/// same trajectory many times (the streaming window) builds it once and
/// lends it to [`Scorer::with_tables`]. A table records the grid, δ and
/// `min_prob` it was built under, so a scorer can refuse one built under
/// another configuration.
#[derive(Debug, Clone)]
pub struct CorridorTable {
    grid: Grid,
    delta: f64,
    min_prob: f64,
    len: usize,
    rows: FxHashMap<CellId, Box<[f64]>>,
}

impl CorridorTable {
    /// Builds `traj`'s table under `grid`, δ and `min_prob`. Each
    /// snapshot's `δ + 8σ` L∞ ball is a rectangle of grid columns × rows
    /// ([`Grid::span_within`]); the snapshot evaluates one probability
    /// factor per column and one per row of it, and each cell's
    /// probability is their product.
    pub fn build(traj: &Trajectory, grid: &Grid, delta: f64, min_prob: f64) -> CorridorTable {
        let floor_log = min_prob.ln();
        let l = traj.len();
        let nx = grid.nx();
        let (mut fx, mut fy) = (Vec::new(), Vec::new());
        let mut rows: FxHashMap<CellId, Box<[f64]>> = FxHashMap::default();
        for (t, sp) in traj.points().iter().enumerate() {
            let radius = delta + 8.0 * sp.sigma;
            let (cols, lines) = grid.span_within(sp.mean, radius);
            fx.clear();
            fx.extend(
                cols.clone().map(|cx| {
                    prob_within_delta_axis(sp.mean.x, sp.sigma, grid.center_x(cx), delta)
                }),
            );
            fy.clear();
            fy.extend(
                lines.clone().map(|cy| {
                    prob_within_delta_axis(sp.mean.y, sp.sigma, grid.center_y(cy), delta)
                }),
            );
            for (cy, &py) in lines.zip(&fy) {
                for (cx, &px) in cols.clone().zip(&fx) {
                    let lp = (px * py).max(min_prob).ln();
                    if lp > floor_log {
                        let row = rows
                            .entry(CellId(cy * nx + cx))
                            .or_insert_with(|| vec![floor_log; l].into_boxed_slice());
                        row[t] = lp;
                    }
                }
            }
        }
        CorridorTable {
            grid: grid.clone(),
            delta,
            min_prob,
            len: l,
            rows,
        }
    }

    /// Snapshots of the trajectory the table was built from (the length
    /// of every row).
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// `cell`'s log-probability row, or `None` when no snapshot comes
    /// near the cell (every entry would be the floor).
    #[inline]
    fn row(&self, cell: CellId) -> Option<&[f64]> {
        self.rows.get(&cell).map(|r| &r[..])
    }

    /// Whether the table was built under exactly this configuration
    /// (δ and `min_prob` compared bit for bit).
    fn built_under(&self, grid: &Grid, delta: f64, min_prob: f64) -> bool {
        self.grid == *grid
            && self.delta.to_bits() == delta.to_bits()
            && self.min_prob.to_bits() == min_prob.to_bits()
    }
}

/// Why [`Scorer::with_tables`] refused a set of prebuilt corridor tables.
/// A mismatched table would silently give wrong scores.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableError {
    /// The number of tables differs from the number of trajectories.
    Count {
        /// Tables passed.
        tables: usize,
        /// Trajectories in the dataset.
        trajectories: usize,
    },
    /// Table `index` was built from a trajectory of another length.
    Length {
        /// Position of the table (and its trajectory).
        index: usize,
        /// The table's snapshot count.
        table: usize,
        /// The trajectory's snapshot count.
        trajectory: usize,
    },
    /// Table `index` was built under another grid, δ or `min_prob`.
    Config {
        /// Position of the table (and its trajectory).
        index: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Count {
                tables,
                trajectories,
            } => write!(
                f,
                "{tables} corridor tables for a dataset of {trajectories} trajectories"
            ),
            TableError::Length {
                index,
                table,
                trajectory,
            } => write!(
                f,
                "corridor table {index} covers {table} snapshots but its trajectory has {trajectory}"
            ),
            TableError::Config { index } => write!(
                f,
                "corridor table {index} was built under another grid, delta or min_prob"
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// One worker's mutable state: a contiguous trajectory range and its
/// corridor tables — built on first use, or borrowed from the caller
/// ([`Scorer::with_tables`]) — plus one shared all-floor row (sliced to
/// each trajectory's length) standing in for every absent cell.
#[derive(Debug)]
struct Shard<'t> {
    start: usize,
    end: usize,
    built: bool,
    tables: Vec<Cow<'t, CorridorTable>>,
    floor: Box<[f64]>,
}

impl Shard<'_> {
    /// Number of trajectories in this shard.
    fn len(&self) -> usize {
        self.end - self.start
    }

    /// Drops the shard's tables, owned or borrowed, so the next use
    /// rebuilds them from the trajectories — the degradation path after a
    /// worker panic. The rebuild is deterministic, so a rebuilt table
    /// equals a lent one bit for bit.
    fn reset(&mut self) {
        self.built = false;
        self.tables = Vec::new();
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
    shards: RefCell<Vec<Shard<'a>>>,
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
        let floor_log = min_prob.ln();
        // Never split below MIN_TRAJECTORIES_PER_SHARD per worker: tiny
        // shards cost more in spawn/cache duplication than they win.
        let shard_count = (data.len() / MIN_TRAJECTORIES_PER_SHARD).clamp(1, threads);
        let n = data.len();
        let shards = (0..shard_count)
            .map(|s| {
                let (start, end) = (n * s / shard_count, n * (s + 1) / shard_count);
                let longest = data.trajectories()[start..end]
                    .iter()
                    .map(|t| t.len())
                    .max()
                    .unwrap_or(0);
                Shard {
                    start,
                    end,
                    built: false,
                    tables: Vec::new(),
                    floor: vec![floor_log; longest].into_boxed_slice(),
                }
            })
            .collect();
        Scorer {
            core: ScorerCore {
                data,
                grid,
                delta,
                min_prob,
                floor_log,
            },
            threads,
            shards: RefCell::new(shards),
            touched: RefCell::new(FxHashSet::default()),
            evaluations: Cell::new(0),
            degraded: Cell::new(0),
            panic_injection: Cell::new(None),
        }
    }

    /// [`Scorer::with_threads`] over prebuilt corridor tables:
    /// `tables[i]` must be [`CorridorTable::build`]'s table for
    /// `data`'s `i`-th trajectory under `grid`, δ and `min_prob`. The
    /// shards borrow the tables instead of building their own, so a caller
    /// that scores the same trajectories again and again (the streaming
    /// window) pays for each table once. Scores, counters and the
    /// worker-panic degradation path are bit-identical to
    /// [`Scorer::with_threads`] over the same data.
    ///
    /// Rejects a table count that differs from the trajectory count, a
    /// table whose length differs from its trajectory's, and a table built
    /// under another grid, δ or `min_prob`.
    pub fn with_tables(
        data: &'a Dataset,
        tables: impl IntoIterator<Item = &'a CorridorTable>,
        grid: &'a Grid,
        delta: f64,
        min_prob: f64,
        threads: usize,
    ) -> Result<Scorer<'a>, TableError> {
        let tables: Vec<&'a CorridorTable> = tables.into_iter().collect();
        if tables.len() != data.len() {
            return Err(TableError::Count {
                tables: tables.len(),
                trajectories: data.len(),
            });
        }
        for (index, (table, traj)) in tables.iter().zip(data.iter()).enumerate() {
            if !table.built_under(grid, delta, min_prob) {
                return Err(TableError::Config { index });
            }
            if table.len() != traj.len() {
                return Err(TableError::Length {
                    index,
                    table: table.len(),
                    trajectory: traj.len(),
                });
            }
        }
        let mut scorer = Scorer::with_threads(data, grid, delta, min_prob, threads);
        for shard in scorer.shards.get_mut() {
            shard.tables = tables[shard.start..shard.end]
                .iter()
                .map(|&t| Cow::Borrowed(t))
                .collect();
            shard.built = true;
        }
        Ok(scorer)
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
        let mut totals = vec![0.0; batch.len()];
        let order = visit_order(batch, core.data.len());
        if let [shard] = &mut shards[..] {
            // No worker to isolate; the injection is consumed all the same.
            self.panic_injection.take();
            // Contributions arrive in ascending trajectory order per
            // pattern, so folding them on arrival is the sequential fold.
            core.score_shard(shard, batch, order.as_deref(), kind, |p, _, c| {
                totals[p] += c
            });
            return totals;
        }
        // One flat buffer per shard, entry `p · locals + i` for pattern
        // `p` and local trajectory `i`.
        let per_shard = self.on_shards(&mut shards, |shard| {
            let locals = shard.len();
            let mut flat = vec![0.0; batch.len() * locals];
            core.score_shard(shard, batch, order.as_deref(), kind, |p, i, c| {
                flat[p * locals + i] = c
            });
            flat
        });
        // Deterministic reduction: fold per-trajectory contributions in
        // ascending trajectory order — shards are contiguous and ordered,
        // so this is the exact sequential summation order.
        for (shard, flat) in shards.iter().zip(&per_shard) {
            let locals = shard.len();
            for (p, total) in totals.iter_mut().enumerate() {
                for &c in &flat[p * locals..(p + 1) * locals] {
                    *total += c;
                }
            }
        }
        totals
    }

    /// Runs `work` on every shard, on scoped worker threads when there is
    /// more than one, and returns the results in shard order. Graceful
    /// degradation: a worker panic must not poison the call. The failed
    /// shard's (possibly half-built) corridor tables are dropped and
    /// `work` reruns on this thread. The rebuild is deterministic, so the
    /// result stays bit-identical to a healthy run.
    fn on_shards<R: Send>(
        &self,
        shards: &mut [Shard<'a>],
        work: impl Fn(&mut Shard<'a>) -> R + Sync,
    ) -> Vec<R> {
        let injected = self.panic_injection.take();
        if let [shard] = shards {
            return vec![work(shard)];
        }
        let work = &work;
        let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .map(|(i, shard)| {
                    let inject = injected == Some(i);
                    scope.spawn(move || {
                        if inject {
                            panic!("injected scorer fault (shard {i})");
                        }
                        work(shard)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        joined
            .into_iter()
            .enumerate()
            .map(|(i, res)| match res {
                Ok(r) => r,
                Err(_) => {
                    self.degraded.set(self.degraded.get() + 1);
                    shards[i].reset();
                    work(&mut shards[i])
                }
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
        for shard in shards.iter_mut() {
            self.core.score_shard(
                shard,
                std::slice::from_ref(pattern),
                None,
                Measure::Nm,
                |_, _, c| out.push(c),
            );
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
            let shard: &Shard<'_> = shard;
            for local in 0..shard.len() {
                let l = shard.tables[local].len();
                if l < min_span {
                    total += self.core.floor_log;
                    continue;
                }
                self.core.pattern_rows(shard, local, cells, &mut buf);
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

    /// NM of every singular pattern, indexed by `CellId`, read off the
    /// corridor tables (built here if they are not yet, on the scorer's
    /// worker threads when it is sharded; the later scoring reuses them).
    /// A singular's best window is its row's best entry `b`, and a cell
    /// with no row scores the floor, so the NM is `floor·n + Σ (b − floor)`
    /// over the trajectories with a row, applied in ascending trajectory
    /// order — bit-identical for every thread count.
    pub fn nm_all_singulars(&self) -> Vec<f64> {
        let g = self.core.grid.num_cells() as usize;
        let n = self.core.data.len() as f64;
        let floor = self.core.floor_log;
        let mut totals = vec![floor * n; g];
        let mut shards = self.shards.borrow_mut();
        let core = self.core;
        self.on_shards(&mut shards, |shard| core.build_shard(shard));
        for shard in shards.iter() {
            for table in &shard.tables {
                for (cell, row) in &table.rows {
                    totals[cell.index()] += lane_max(row) - floor;
                }
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
    /// A reference path for the benchmark: no production caller attaches
    /// one (see the module docs).
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

/// The largest of `sums` (`−∞` when empty).
fn lane_max(sums: &[f64]) -> f64 {
    lane_max_of(sums, sums, |x, _| x)
}

/// The largest `a[s] + b[s]` over `s < a.len()`, each sum formed as it is
/// compared (`b` is at least as long as `a`).
fn lane_max_sum(a: &[f64], b: &[f64]) -> f64 {
    lane_max_of(a, b, |x, y| x + y)
}

/// The largest `f(a[s], b[s])` over `s < a.len()` (`−∞` when empty): four
/// running maxima over the lanes of four-wide chunks, then the remainder,
/// each kept by the serial scan's `v > best` test. The value is that
/// scan's (see [`ScorerCore::score_shard`] for why window sums hold no
/// `+0.0`/`−0.0` tie that could tell them apart).
#[inline(always)]
fn lane_max_of(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    let b = &b[..a.len()];
    let mut lanes = [f64::NEG_INFINITY; 4];
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let rest = ca.remainder().iter().zip(cb.remainder());
    for (xs, ys) in ca.zip(cb) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xs).zip(ys) {
            let v = f(x, y);
            if v > *lane {
                *lane = v;
            }
        }
    }
    let mut best = f64::NEG_INFINITY;
    for v in lanes {
        if v > best {
            best = v;
        }
    }
    for (&x, &y) in rest {
        let v = f(x, y);
        if v > best {
            best = v;
        }
    }
    best
}

/// A pattern's best-window mean over a trajectory that never comes near
/// any of its cells (every row entry is `floor_log`): all window sums are
/// the same sequential fold of `m` floor terms, replicated here addition
/// by addition so the result is bit-identical to the dense evaluation.
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

    /// A mixed dataset for the kernel pins: `n` trajectories of 2–9
    /// snapshots with σ from 0 to past the box, means partly outside it.
    fn mixed_data(n: usize, bbox: BBox, seed: u64) -> Dataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (w, h) = (bbox.width(), bbox.height());
        (0..n)
            .map(|i| {
                let len = 2 + i % 8;
                let points = (0..len)
                    .map(|_| {
                        let x = bbox.min().x + w * rng.gen_range(-0.3..1.3);
                        let y = bbox.min().y + h * rng.gen_range(-0.3..1.3);
                        let sigma = match rng.gen_range(0u32..4) {
                            0 => 0.0,
                            1 => w * 1e-4,
                            2 => w * rng.gen_range(0.01..0.1),
                            _ => w * 2.0,
                        };
                        SnapshotPoint::new(Point2::new(x, y), sigma).unwrap()
                    })
                    .collect();
                Trajectory::new(points).unwrap()
            })
            .collect()
    }

    /// Grids for the kernel pins: the unit box, and a non-unit box with an
    /// offset origin and non-square cells.
    fn kernel_grids() -> Vec<Grid> {
        vec![
            Grid::new(BBox::unit(), 6, 6).unwrap(),
            Grid::new(
                BBox::new(Point2::new(-3.0, 10.0), Point2::new(4.0, 12.5)).unwrap(),
                9,
                4,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn corridor_tables_equal_the_per_cell_kernel() {
        // Every row entry is `prob_within_delta` at a cell `cells_within`
        // returns, floored and logged; cells and entries the scan leaves
        // out are the floor.
        for grid in kernel_grids() {
            let data = mixed_data(20, grid.bbox(), 11);
            // The last δ's corridor covers the whole grid.
            for delta in [0.02 * grid.bbox().width(), 0.1, 3.0 * grid.bbox().width()] {
                let s = Scorer::new(&data, &grid, delta, 1e-9);
                let floor = s.floor_log();
                let mut shards = s.shards.borrow_mut();
                s.core.build_shard(&mut shards[0]);
                for (traj, table) in data.trajectories().iter().zip(&shards[0].tables) {
                    let rows = &table.rows;
                    let mut want: FxHashMap<CellId, Vec<f64>> = FxHashMap::default();
                    for (t, sp) in traj.points().iter().enumerate() {
                        for cell in grid.cells_within(sp.mean, delta + 8.0 * sp.sigma) {
                            let lp = prob_within_delta(sp.mean, sp.sigma, grid.center(cell), delta)
                                .max(1e-9)
                                .ln();
                            if lp > floor {
                                want.entry(cell).or_insert_with(|| vec![floor; traj.len()])[t] = lp;
                            }
                        }
                    }
                    assert_eq!(rows.len(), want.len());
                    for (cell, row) in &want {
                        let got: Vec<u64> = rows[cell].iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "cell {cell}, delta {delta}");
                    }
                }
            }
        }
    }

    /// The window-by-window scan the prefix-shared kernel replaced.
    fn window_major(rows: &[&[f64]], floor_log: f64) -> f64 {
        let m = rows.len();
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

    /// `n` trajectories of 2–9 snapshots that stay in the lower-left
    /// fifth of `bbox` with σ of at most 1% of its width, so the cells
    /// of the opposite corner have no corridor row.
    fn corner_data(n: usize, bbox: BBox, seed: u64) -> Dataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (w, h) = (bbox.width(), bbox.height());
        (0..n)
            .map(|i| {
                let points = (0..2 + i % 8)
                    .map(|_| {
                        let x = bbox.min().x + w * rng.gen_range(0.0..0.2);
                        let y = bbox.min().y + h * rng.gen_range(0.0..0.2);
                        let sigma = w * rng.gen_range(0.0..0.01);
                        SnapshotPoint::new(Point2::new(x, y), sigma).unwrap()
                    })
                    .collect();
                Trajectory::new(points).unwrap()
            })
            .collect()
    }

    /// A batch in runs of shared prefixes: stems of 1–3 cells, each
    /// extended to lengths 1–7 (longer than some trajectories), with
    /// repeats. Cells come from `near` (the data's corridor) and `far`
    /// (cells with no row), mixed within patterns.
    fn prefix_runs(near: &[CellId], far: &[CellId], rng: &mut impl rand::Rng) -> Vec<Pattern> {
        fn pick(near: &[CellId], far: &[CellId], rng: &mut impl rand::Rng) -> CellId {
            let from = if rng.gen_range(0u32..3) == 0 {
                far
            } else {
                near
            };
            from[rng.gen_range(0..from.len())]
        }
        let mut batch = Vec::new();
        for _ in 0..12 {
            let stem: Vec<CellId> = (0..rng.gen_range(1usize..4))
                .map(|_| pick(near, far, rng))
                .collect();
            for _ in 0..rng.gen_range(1usize..7) {
                let mut cells = stem.clone();
                let m = rng.gen_range(1usize..8);
                cells.truncate(m);
                while cells.len() < m {
                    cells.push(pick(near, far, rng));
                }
                batch.push(Pattern::new(cells).unwrap());
                if rng.gen_range(0u32..5) == 0 {
                    batch.push(batch[batch.len() - 1].clone());
                }
            }
        }
        // Patterns on far cells alone touch no corridor cell.
        batch.push(Pattern::new(far[..far.len().min(3)].to_vec()).unwrap());
        batch.push(Pattern::singular(far[0]));
        batch
    }

    #[test]
    fn row_major_fold_equals_the_window_major_scan() {
        // The prefix-shared kernel against the window-by-window scan of
        // each pattern's table rows, bit for bit, for every measure,
        // trajectory count, thread count and batch order.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for grid in kernel_grids() {
            let bbox = grid.bbox();
            let corner = |cell: CellId| {
                let c = grid.center(cell);
                (c.x - bbox.min().x) < 0.3 * bbox.width()
                    && (c.y - bbox.min().y) < 0.3 * bbox.height()
            };
            let near: Vec<CellId> = grid.cells().filter(|&c| corner(c)).collect();
            let far: Vec<CellId> = grid
                .cells()
                .filter(|&c| {
                    let p = grid.center(c);
                    (p.x - bbox.min().x) > 0.7 * bbox.width()
                        && (p.y - bbox.min().y) > 0.5 * bbox.height()
                })
                .collect();
            let delta = 0.05 * bbox.width();
            let datasets = [
                corner_data(1, bbox, 3),
                corner_data(30, bbox, 4),
                mixed_data(1, bbox, 5),
                mixed_data(30, bbox, 6),
            ];
            for data in &datasets {
                let floor = (1e-9f64).ln();
                let tables = tables_for(data, &grid, delta, 1e-9);
                let floor_row = [floor; 9];
                let reference = |p: &Pattern, measure: Measure| -> Vec<f64> {
                    tables
                        .iter()
                        .map(|table| {
                            let rows: Vec<&[f64]> = p
                                .cells()
                                .iter()
                                .map(|&c| table.row(c).unwrap_or(&floor_row[..table.len()]))
                                .collect();
                            let mean = window_major(&rows, floor);
                            match measure {
                                Measure::Nm => mean,
                                Measure::Match => (mean * p.len() as f64).exp(),
                            }
                        })
                        .collect()
                };
                for _ in 0..4 {
                    let unsorted = prefix_runs(&near, &far, &mut rng);
                    let mut sorted = unsorted.clone();
                    sorted.sort();
                    for batch in [&unsorted, &sorted] {
                        for threads in [1, 3] {
                            let s = Scorer::with_threads(data, &grid, delta, 1e-9, threads);
                            assert_eq!(s.num_shards(), threads.min(data.len()));
                            for measure in [Measure::Nm, Measure::Match] {
                                let got = s.query(batch).measure(measure).run();
                                for (p, g) in batch.iter().zip(&got) {
                                    let mut want = 0.0;
                                    for c in reference(p, measure) {
                                        want += c;
                                    }
                                    assert_eq!(g.to_bits(), want.to_bits(), "{p}, {measure:?}");
                                }
                            }
                            for p in batch.iter().step_by(7) {
                                let want = reference(p, Measure::Nm);
                                assert_eq!(bits(&s.nm_contributions(p)), bits(&want), "{p}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_max_equals_the_serial_scan() {
        // Ties, NaN and the infinities, at every length from 0 to 9 so
        // the remainder path runs with 0–3 entries; the sums take a
        // longer second operand, as a row past a level's windows is.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let values = [-1.5, -0.25, 0.0, -30.0, f64::NEG_INFINITY, f64::NAN];
        for len in 0..10 {
            for _ in 0..200 {
                let sums: Vec<f64> = (0..len)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect();
                let addends: Vec<f64> = (0..len + 2)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect();
                let (mut want, mut want_sum) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for (&x, &y) in sums.iter().zip(&addends) {
                    if x > want {
                        want = x;
                    }
                    if x + y > want_sum {
                        want_sum = x + y;
                    }
                }
                assert_eq!(lane_max(&sums).to_bits(), want.to_bits(), "{sums:?}");
                assert_eq!(
                    lane_max_sum(&sums, &addends).to_bits(),
                    want_sum.to_bits(),
                    "{sums:?} + {addends:?}"
                );
            }
        }
    }

    #[test]
    fn singular_nms_equal_the_per_snapshot_max_pass() {
        // The pass the tables replaced: per trajectory, the best
        // above-floor log-prob of each cell over the corridor scan,
        // applied as `b − floor` in ascending trajectory order.
        for grid in kernel_grids() {
            let data = mixed_data(30, grid.bbox(), 23);
            let delta = 0.05 * grid.bbox().width();
            let floor = (1e-9f64).ln();
            let mut want = vec![floor * data.len() as f64; grid.num_cells() as usize];
            for traj in data.trajectories() {
                let mut best: FxHashMap<CellId, f64> = FxHashMap::default();
                for sp in traj.points() {
                    for cell in grid.cells_within(sp.mean, delta + 8.0 * sp.sigma) {
                        let lp = prob_within_delta(sp.mean, sp.sigma, grid.center(cell), delta)
                            .max(1e-9)
                            .ln();
                        if lp > floor {
                            let e = best.entry(cell).or_insert(f64::NEG_INFINITY);
                            if lp > *e {
                                *e = lp;
                            }
                        }
                    }
                }
                for (cell, b) in best {
                    want[cell.index()] += b - floor;
                }
            }
            for threads in [1, 3] {
                let s = Scorer::with_threads(&data, &grid, delta, 1e-9, threads);
                assert_eq!(s.num_shards(), threads);
                let got = s.nm_all_singulars();
                for (cell, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "cell {cell}, threads {threads}");
                }
                // The tables it built serve the later scoring unchanged.
                let singulars: Vec<Pattern> = grid.cells().map(Pattern::singular).collect();
                let fresh = Scorer::new(&data, &grid, delta, 1e-9).score_batch(&singulars);
                for (a, b) in s.score_batch(&singulars).iter().zip(&fresh) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Every trajectory's table, built the one way there is.
    fn tables_for(data: &Dataset, grid: &Grid, delta: f64, min_prob: f64) -> Vec<CorridorTable> {
        data.iter()
            .map(|t| CorridorTable::build(t, grid, delta, min_prob))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lent_tables_score_like_built_ones() {
        for grid in kernel_grids() {
            let data = mixed_data(30, grid.bbox(), 41);
            let delta = 0.05 * grid.bbox().width();
            let tables = tables_for(&data, &grid, delta, 1e-9);
            let cells: Vec<CellId> = grid.cells().collect();
            let mut batch: Vec<Pattern> = cells.iter().map(|&c| Pattern::singular(c)).collect();
            for (i, w) in cells.windows(3).enumerate() {
                batch.push(Pattern::new(w[..2 + i % 2].to_vec()).unwrap());
            }
            for threads in [1, 3] {
                // Second round: a worker panics in the singular pass and in
                // the match batch; lent tables degrade like built ones.
                for faulty in [false, true] {
                    let built = Scorer::with_threads(&data, &grid, delta, 1e-9, threads);
                    let lent =
                        Scorer::with_tables(&data, &tables, &grid, delta, 1e-9, threads).unwrap();
                    assert_eq!(lent.num_shards(), threads);
                    assert_eq!(lent.num_shards(), built.num_shards());
                    let inject = |s: &Scorer<'_>| {
                        if faulty {
                            s.inject_panic_next_batch(1);
                        }
                    };
                    for s in [&built, &lent] {
                        inject(s);
                    }
                    assert_eq!(
                        bits(&lent.nm_all_singulars()),
                        bits(&built.nm_all_singulars())
                    );
                    assert_eq!(
                        bits(&lent.score_batch(&batch)),
                        bits(&built.score_batch(&batch))
                    );
                    for s in [&built, &lent] {
                        inject(s);
                    }
                    assert_eq!(
                        bits(&lent.score_batch_match(&batch)),
                        bits(&built.score_batch_match(&batch))
                    );
                    for p in batch.iter().step_by(5) {
                        assert_eq!(
                            bits(&lent.nm_contributions(p)),
                            bits(&built.nm_contributions(p))
                        );
                    }
                    for w in cells.windows(3).step_by(4) {
                        let gaps = [(0, 2), (1, 1)];
                        assert_eq!(
                            lent.nm_gapped(w, &gaps).to_bits(),
                            built.nm_gapped(w, &gaps).to_bits()
                        );
                    }
                    assert_eq!(lent.stats(), built.stats());
                    let degraded = if faulty && threads > 1 { 2 } else { 0 };
                    assert_eq!(lent.degraded_rescores(), degraded);
                }
            }
        }
    }

    #[test]
    fn tables_from_another_configuration_are_rejected() {
        let (data, grid) = setup(4, 0.05);
        let good = tables_for(&data, &grid, 0.1, 1e-12);
        assert!(Scorer::with_tables(&data, &good, &grid, 0.1, 1e-12, 1).is_ok());
        let other_delta = tables_for(&data, &grid, 0.2, 1e-12);
        let err = Scorer::with_tables(&data, &other_delta, &grid, 0.1, 1e-12, 1).unwrap_err();
        assert_eq!(err, TableError::Config { index: 0 });
        // One stale table among good ones is found where it sits.
        let mut mixed = good.clone();
        mixed[2] = other_delta[2].clone();
        let err = Scorer::with_tables(&data, &mixed, &grid, 0.1, 1e-12, 1).unwrap_err();
        assert_eq!(err, TableError::Config { index: 2 });
        let other_floor = tables_for(&data, &grid, 0.1, 1e-9);
        assert!(Scorer::with_tables(&data, &other_floor, &grid, 0.1, 1e-12, 1).is_err());
        let coarse = Grid::new(BBox::unit(), 2, 2).unwrap();
        let other_grid = tables_for(&data, &coarse, 0.1, 1e-12);
        assert!(Scorer::with_tables(&data, &other_grid, &grid, 0.1, 1e-12, 1).is_err());
        let err = Scorer::with_tables(&data, &good[..3], &grid, 0.1, 1e-12, 1).unwrap_err();
        assert_eq!(
            err,
            TableError::Count {
                tables: 3,
                trajectories: 4
            }
        );
        let short: Dataset = vec![Trajectory::from_exact([Point2::new(0.1, 0.1)]); 4]
            .into_iter()
            .collect();
        let err = Scorer::with_tables(&short, &good, &grid, 0.1, 1e-12, 1).unwrap_err();
        assert_eq!(
            err,
            TableError::Length {
                index: 0,
                table: 4,
                trajectory: 1
            }
        );
        assert!(err.to_string().contains("4 snapshots"));
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
