//! Incremental sliding-window top-k pattern maintenance (`trajstream`).
//!
//! The batch miner answers "top-k patterns of dataset `D`"; this crate
//! answers the same question *continuously* as trajectories arrive and
//! expire from a sliding window, without re-mining the world on every
//! event. Two structural facts of the paper make that possible:
//!
//! 1. **Additivity.** `NM(P) = Σ_{T∈D} NM(P,T)` — a pattern's score is a
//!    sum of independent per-trajectory contributions, so arrival and
//!    eviction are *delta updates* on a maintained contribution ledger
//!    `pattern → [NM(P,T) per window entry]`: an arrival scores each
//!    ledger pattern against one trajectory (`O(patterns)`), an eviction
//!    just drops the front contributions.
//! 2. **Exact certification.** Folding each ledger row in window order
//!    yields *exact* NM values for the current window. Per event, a
//!    [`trajpattern::SeedCertifier`] replays the min-max/1-extension
//!    pruning decisions over those folded NMs without touching the data:
//!    if every candidate pair is either bound-pruned or already in the
//!    ledger, the top-k is the ledger's own best k and the event costs
//!    `O(|ledger|)` — no dataset, no scorer, no pair memo. When
//!    accumulated deltas move the bounds enough that a candidate passes
//!    which the ledger cannot answer, the event becomes a *repair*: the
//!    growing process re-runs seeded with the folded NMs
//!    ([`trajpattern::mine_seeded`]) and scores only what the ledger is
//!    missing, which is then absorbed so later events are deltas again.
//!
//! The result after every event is **bit-identical** to batch
//! [`trajpattern::Miner`] over the window contents (property-tested in
//! `tests/stream_batch_identity.rs`, including across checkpoint/resume).
//! [`StreamStats`] counts deltas, repairs and repair depth so operators
//! can see how often certification failed. Stream state checkpoints to a
//! `trajpattern-checkpoint v2` file (window + ledger), reusing the v1
//! error type and encoding conventions.
//!
//! Each window entry carries its corridor table
//! ([`trajpattern::CorridorTable`]), built once when the trajectory
//! arrives: the arrival's ledger delta scores through it, and a repair
//! lends the whole window's tables to [`trajpattern::Scorer::with_tables`]
//! instead of rebuilding them.
//!
//! Memory note: the ledger retains every pattern the growth has ever
//! scored (that is what makes steady-state events pure deltas), so the
//! miner holds `O(window × corridor cells + ledger × window)`: one
//! corridor table per window entry (a few KB for a 20-snapshot trip) and
//! one float per (ledger pattern, window entry). A live-serving shard
//! (window 256, ledger ≈ 1200 patterns) holds ~300k ledger floats
//! (≈ 2.4 MB) and ≈ 0.6 MB of tables; a long-running deployment would
//! add periodic ledger pruning at the cost of extra repairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;

use std::collections::VecDeque;
use trajdata::{Dataset, Trajectory};
use trajgeo::fxhash::FxHashMap;
use trajgeo::Grid;
use trajpattern::{
    certified_topk, effective_max_len_from, mine_seeded, CorridorTable, MinedPattern, MiningParams,
    ParamsError, Pattern, Scorer, SeedCertifier,
};

pub use checkpoint::{parse_checkpoint, STREAM_VERSION_LINE};
pub use trajpattern::{CheckpointError, MiningOutcome, MiningStats, PatternGroup, ScorerStats};

trajpattern::counter_stats! {
    /// Counters describing a stream miner's life so far.
    ///
    /// Defined through [`trajpattern::counter_stats!`], so the serde
    /// field names, the checkpoint `stats` line order (persisted fields
    /// only — `window_len` and `ledger_patterns` are recomputed from the
    /// window and ledger sections on load), and the Prometheus gauge
    /// names all derive from this one field list.
    pub struct StreamStats {
        /// Trajectories pushed.
        persisted arrivals: u64,
        /// Trajectories evicted.
        persisted evictions: u64,
        /// Per-pattern ledger delta updates applied (one per ledger pattern
        /// per arrival).
        persisted deltas_applied: u64,
        /// Maintenance passes answered by the pure-delta certificate alone:
        /// the ledger's folded NMs proved no candidate needs scoring, so the
        /// top-k was selected straight from the ledger — no window dataset,
        /// no scorer, no pair enumeration.
        persisted certified: u64,
        /// Maintenance passes that had to score at least one candidate
        /// against the window — the ledger could no longer certify the top-k.
        persisted repairs: u64,
        /// Candidates scored across all repairs.
        persisted repair_scored: u64,
        /// Deepest repair re-growth (levels of the growing process).
        persisted max_repair_depth: usize,
        /// Current window occupancy.
        derived window_len: usize,
        /// Patterns currently tracked by the contribution ledger.
        derived ledger_patterns: usize,
        /// Worker-shard panics absorbed by sequential rescoring (see
        /// [`trajpattern::MiningStats::degraded_shard_rescores`]).
        persisted degraded_shard_rescores: u64,
    }
}

/// Per-pattern contribution ledger, stored column-major: `cols[j][i]` is
/// `NM(patterns[i], window[j])`, one column per window entry, kept
/// aligned with the window deque (an empty column while the ledger has no
/// patterns). An arrival pushes one column, an eviction pops one, and an
/// absorbed pattern appends one value to every column. Folding each row
/// in window order reproduces the batch scorer's reduction bit-for-bit
/// ([`Ledger::fold_nms`]).
struct Ledger {
    patterns: Vec<Pattern>,
    index: FxHashMap<Pattern, usize>,
    /// What each row subtracts from every contribution before adding it:
    /// `floor_log` for singular rows, `+0.0` for the rest.
    subtrahends: Vec<f64>,
    cols: VecDeque<Vec<f64>>,
    /// The column the last eviction dropped, kept to hold the next
    /// arrival's, so a steady slide allocates no column.
    spare: Option<Vec<f64>>,
    floor_log: f64,
}

/// Spare room a ledger column keeps for absorbed patterns when it has to
/// grow: enough for a few repairs, without doubling every column's
/// capacity the way `Vec::push` would.
fn column_headroom(len: usize) -> usize {
    len / 16 + 8
}

impl Ledger {
    /// An empty ledger whose singular rows fold around `floor_log`.
    fn new(floor_log: f64) -> Ledger {
        Ledger {
            patterns: Vec::new(),
            index: FxHashMap::default(),
            subtrahends: Vec::new(),
            cols: VecDeque::new(),
            spare: None,
            floor_log,
        }
    }

    fn contains(&self, p: &Pattern) -> bool {
        self.index.contains_key(p)
    }

    /// Appends a row: `contribs[j]` is the pattern's NM over window entry
    /// `j`.
    fn add(&mut self, p: Pattern, contribs: &[f64]) {
        debug_assert_eq!(contribs.len(), self.cols.len());
        for (col, &c) in self.cols.iter_mut().zip(contribs) {
            if col.len() == col.capacity() {
                col.reserve_exact(column_headroom(col.len()));
            }
            col.push(c);
        }
        self.track(p);
    }

    /// Registers a row's pattern without touching the columns (the
    /// checkpoint reader fills them all at once, [`Ledger::fill_columns`]).
    fn track(&mut self, p: Pattern) {
        debug_assert!(!self.contains(&p));
        self.subtrahends
            .push(if p.is_singular() { self.floor_log } else { 0.0 });
        self.index.insert(p.clone(), self.patterns.len());
        self.patterns.push(p);
    }

    /// Replaces the columns with `window` columns transposed from
    /// row-major contributions: `rows[i * window + j]` is `patterns[i]`'s
    /// NM over window entry `j`.
    fn fill_columns(&mut self, rows: &[f64], window: usize) {
        let n = self.patterns.len();
        debug_assert_eq!(rows.len(), n * window);
        self.cols = (0..window)
            .map(|j| {
                let mut col = Vec::with_capacity(n + column_headroom(n));
                col.extend((0..n).map(|i| rows[i * window + j]));
                col
            })
            .collect();
    }

    /// Appends the column of a window arrival: `values[i]` is
    /// `patterns[i]`'s NM over it. The column reuses the last evicted
    /// one's buffer and gets headroom for absorbed patterns whenever it
    /// has to grow.
    fn push_column(&mut self, values: &[f64]) {
        debug_assert_eq!(values.len(), self.patterns.len());
        let mut col = self.spare.take().unwrap_or_default();
        col.clear();
        if col.capacity() < values.len() {
            col.reserve_exact(values.len() + column_headroom(values.len()));
        }
        col.extend_from_slice(values);
        self.cols.push_back(col);
    }

    /// Drops the column of the oldest window entry, keeping its buffer
    /// for the next arrival.
    fn pop_column(&mut self) {
        self.spare = self.cols.pop_front();
    }

    /// The contributions transposed to row-major, the inverse of
    /// [`Ledger::fill_columns`]: entry `i * window + j` is `patterns[i]`'s
    /// NM over window entry `j`. Reads each column once, in order.
    fn to_rows(&self) -> Vec<f64> {
        let window = self.cols.len();
        let mut rows = vec![0.0; self.patterns.len() * window];
        for (j, col) in self.cols.iter().enumerate() {
            for (i, &c) in col.iter().enumerate() {
                rows[i * window + j] = c;
            }
        }
        rows
    }

    /// Exact NM of every ledger pattern over the current window (aligned
    /// with `patterns`), folded so the bits match what batch mining puts
    /// in its store. Multi-cell patterns fold front-to-back with
    /// `total += c` — the DESIGN.md §5 reduction order of
    /// `Scorer::score_batch`. Singulars must instead reproduce
    /// `Scorer::nm_all_singulars` (which seeds the batch grower):
    /// `floor_log·n + Σ (c − floor_log)`. The two expressions are equal but
    /// not bit-equal, and for trajectories that never touch the cell
    /// `c == floor_log` exactly, so their `c − floor_log` terms are exact
    /// `+0.0` no-ops — matching `nm_all_singulars` skipping them.
    ///
    /// One loop serves both kinds of row: every row starts at
    /// `subtrahend·n` and adds `c − subtrahend` per entry, and a multi-cell
    /// row's subtrahend is `+0.0`, for which `0.0·n == 0.0` and
    /// `c − 0.0 == c` exactly. The columns are walked in window order and
    /// each is added into the totals in one streaming pass, so every row
    /// still takes its additions front to back.
    fn fold_nms(&self) -> Vec<f64> {
        let n = self.cols.len() as f64;
        let mut totals: Vec<f64> = self.subtrahends.iter().map(|&s| s * n).collect();
        for col in &self.cols {
            for ((total, &c), &s) in totals.iter_mut().zip(col).zip(&self.subtrahends) {
                *total += c - s;
            }
        }
        totals
    }
}

/// Maintains the top-k pattern set over a sliding window of trajectories.
///
/// ```
/// use trajdata::Trajectory;
/// use trajgeo::{BBox, Grid, Point2};
/// use trajpattern::MiningParams;
/// use trajstream::StreamMiner;
///
/// let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
/// let mut miner = StreamMiner::new(grid, MiningParams::new(3, 0.1).unwrap()).unwrap();
/// for _ in 0..8 {
///     // Keep at most 5 trajectories in the window.
///     miner.slide(
///         Trajectory::from_exact((0..4).map(|i| Point2::new(0.125 + i as f64 * 0.25, 0.625))),
///         5,
///     );
/// }
/// assert_eq!(miner.topk().len(), 3);
/// assert_eq!(miner.stats().window_len, 5);
/// ```
pub struct StreamMiner {
    grid: Grid,
    params: MiningParams,
    next_seq: u64,
    window: VecDeque<(u64, Trajectory)>,
    /// Each window entry's corridor table, aligned with `window`: built
    /// once on arrival, dropped on eviction, lent to every scorer over
    /// the window. Derived state — rebuilt from the window on resume.
    tables: VecDeque<CorridorTable>,
    ledger: Ledger,
    /// Membership index over `ledger.patterns`, extended whenever a repair
    /// absorbs new patterns; `None` until the bootstrap mine.
    certifier: Option<SeedCertifier>,
    last: MiningOutcome,
    stats: StreamStats,
    /// Bumped by [`StreamMiner::maintain`] only when the maintained top-k
    /// actually changed (pattern set or NM bits). Derived state: starts at
    /// zero on construction *and* on checkpoint resume — consumers compare
    /// against the last value they observed, never against a persisted
    /// absolute.
    topk_version: u64,
}

impl StreamMiner {
    /// Creates an empty stream miner over `grid` with the given mining
    /// parameters (validated here, like [`trajpattern::Miner`]).
    pub fn new(grid: Grid, params: MiningParams) -> Result<StreamMiner, ParamsError> {
        params.validate()?;
        let ledger = Ledger::new(params.min_prob.ln());
        Ok(StreamMiner {
            grid,
            params,
            next_seq: 0,
            window: VecDeque::new(),
            tables: VecDeque::new(),
            ledger,
            certifier: None,
            last: MiningOutcome {
                patterns: Vec::new(),
                groups: Vec::new(),
                stats: MiningStats::default(),
                scorer: trajpattern::ScorerStats::default(),
            },
            stats: StreamStats::default(),
            topk_version: 0,
        })
    }

    /// The grid patterns are defined over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The mining parameters.
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Pushes one arriving trajectory into the window and re-certifies the
    /// top-k. Returns the arrival's sequence number (0-based, dense).
    pub fn push(&mut self, traj: Trajectory) -> u64 {
        let seq = self.push_inner(traj);
        self.maintain();
        seq
    }

    /// Evicts every window entry with sequence number `< seq` (dropping
    /// their ledger contributions) and, if anything left, re-certifies the
    /// top-k. Returns the number of trajectories evicted.
    pub fn evict_before(&mut self, seq: u64) -> usize {
        let dropped = self.evict_inner(seq);
        if dropped > 0 {
            self.maintain();
        }
        dropped
    }

    /// Pushes `traj` and evicts down to the `window` most recent
    /// trajectories (at least the new arrival) in one event — equivalent
    /// to [`StreamMiner::push`] followed by [`StreamMiner::evict_before`],
    /// but with a single certification/maintenance pass instead of two.
    /// This is the natural operation for a fixed-capacity sliding window
    /// and what the `stream` CLI and benchmarks use. Returns the arrival's
    /// sequence number.
    pub fn slide(&mut self, traj: Trajectory, window: u64) -> u64 {
        let seq = self.push_inner(traj);
        self.evict_inner((seq + 1).saturating_sub(window.max(1)));
        self.maintain();
        seq
    }

    /// [`StreamMiner::push`] without the maintenance pass.
    fn push_inner(&mut self, traj: Trajectory) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;

        // Build the arrival's corridor table once; it stays with the
        // window entry and serves every later repair. Delta-update the
        // ledger: score every tracked pattern against the newcomer alone
        // through the unified query API. The table already resolves
        // patterns the trajectory never comes near to the floor constant,
        // so no pattern index is built. A single-trajectory fold equals
        // the raw per-trajectory contribution, so the new column holds
        // exactly what full-window scoring would produce for that
        // trajectory index.
        let table =
            CorridorTable::build(&traj, &self.grid, self.params.delta, self.params.min_prob);
        let nms = if self.ledger.patterns.is_empty() {
            Vec::new()
        } else {
            let single: Dataset = std::iter::once(traj.clone()).collect();
            let scorer = Scorer::with_tables(
                &single,
                [&table],
                &self.grid,
                self.params.delta,
                self.params.min_prob,
                1,
            )
            .expect("the arrival's table is built under the miner's configuration");
            self.stats.deltas_applied += self.ledger.patterns.len() as u64;
            scorer.query(&self.ledger.patterns).run()
        };
        self.ledger.push_column(&nms);
        self.tables.push_back(table);
        self.window.push_back((seq, traj));
        self.stats.arrivals += 1;
        seq
    }

    /// [`StreamMiner::evict_before`] without the maintenance pass.
    fn evict_inner(&mut self, seq: u64) -> usize {
        let mut dropped = 0;
        while self.window.front().is_some_and(|(s, _)| *s < seq) {
            self.window.pop_front();
            self.tables.pop_front();
            self.ledger.pop_column();
            dropped += 1;
        }
        self.stats.evictions += dropped as u64;
        dropped
    }

    /// The current top-k patterns — bit-identical to what
    /// [`trajpattern::Miner::mine`] returns for the window contents.
    pub fn topk(&self) -> &[MinedPattern] {
        &self.last.patterns
    }

    /// Pattern groups over the current top-k (when `params.gamma` is set)
    /// — identical to the batch miner's.
    pub fn groups(&self) -> &[PatternGroup] {
        &self.last.groups
    }

    /// Stream counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Mining counters of the most recent maintenance pass.
    pub fn last_mining_stats(&self) -> &MiningStats {
        &self.last.stats
    }

    /// Scorer counters of the most recent pass that touched the data
    /// (zeroed when the current state came from a checkpoint — engine
    /// telemetry is not persisted; see [`trajpattern::ScorerStats`]).
    pub fn last_scorer_stats(&self) -> trajpattern::ScorerStats {
        self.last.scorer
    }

    /// Sequence numbers and trajectories currently in the window, oldest
    /// first.
    pub fn window(&self) -> impl Iterator<Item = (u64, &Trajectory)> {
        self.window.iter().map(|(s, t)| (*s, t))
    }

    /// The window contents as a batch [`Dataset`] (window order) — what
    /// the bit-identity property compares against.
    pub fn window_dataset(&self) -> Dataset {
        self.window.iter().map(|(_, t)| t.clone()).collect()
    }

    /// The sequence number the next [`StreamMiner::push`] will return.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A change counter over [`StreamMiner::topk`]: bumped by each
    /// maintenance pass whose resulting top-k differs from the previous
    /// one (different patterns, or the same patterns with different NM
    /// bits). Events absorbed without moving the top-k leave it untouched,
    /// so a consumer republishing derived state (for example the live
    /// server swapping a pre-serialized snapshot) can skip no-op updates
    /// by comparing against the last version it saw.
    ///
    /// The counter is *derived* state: it restarts at zero on
    /// construction and on checkpoint resume, so only deltas within one
    /// process are meaningful.
    pub fn topk_version(&self) -> u64 {
        self.topk_version
    }

    /// Whether `new` and `old` are the same top-k, bit for bit.
    fn same_topk(a: &[MinedPattern], b: &[MinedPattern]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.pattern == y.pattern && x.nm.to_bits() == y.nm.to_bits())
    }

    /// Replaces the maintained outcome, bumping [`StreamMiner::topk_version`]
    /// if the top-k moved. Every `maintain` exit path funnels through here.
    fn publish(&mut self, out: MiningOutcome) {
        if !Self::same_topk(&out.patterns, &self.last.patterns) {
            self.topk_version += 1;
        }
        self.last = out;
    }

    /// Re-certifies the top-k for the current window. Fast path first:
    /// fold the ledger and ask the [`SeedCertifier`] whether a seeded
    /// re-growth would score anything — if not, the top-k is the ledger's
    /// own best k and the event costs `O(|ledger|)` with zero data access.
    /// Otherwise fall back to seeded re-growth over the window and absorb
    /// anything newly scored (so the next event can answer for it by
    /// delta alone).
    fn maintain(&mut self) {
        self.stats.window_len = self.window.len();
        if self.window.is_empty() {
            self.publish(MiningOutcome {
                patterns: Vec::new(),
                groups: Vec::new(),
                stats: MiningStats::default(),
                scorer: trajpattern::ScorerStats::default(),
            });
            self.stats.ledger_patterns = self.ledger.patterns.len();
            return;
        }

        let nms = self.ledger.fold_nms();
        let bootstrap = nms.is_empty();

        let longest = self.window.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
        let eff_max_len = effective_max_len_from(&self.params, longest);
        if let Some(cert) = &self.certifier {
            if cert.certify(&self.params, eff_max_len, &nms) {
                let mut out = certified_topk(
                    &self.ledger.patterns,
                    &nms,
                    &self.params,
                    eff_max_len,
                    &self.grid,
                );
                // Mining counters describe the last pass that touched the
                // data; a certified pass performs no mining work.
                out.stats = self.last.stats.clone();
                out.scorer = self.last.scorer;
                self.publish(out);
                self.stats.certified += 1;
                self.stats.ledger_patterns = self.ledger.patterns.len();
                return;
            }
        }

        // Certificate failed (or bootstrap): materialize the folded seed
        // and hand it to the seeded re-growth.
        let seed: Vec<MinedPattern> = self
            .ledger
            .patterns
            .iter()
            .zip(&nms)
            .map(|(p, &nm)| MinedPattern::new(p.clone(), nm))
            .collect();
        let data: Dataset = self.window.iter().map(|(_, t)| t.clone()).collect();
        let scorer = Scorer::with_tables(
            &data,
            &self.tables,
            &self.grid,
            self.params.delta,
            self.params.min_prob,
            self.params.threads,
        )
        .expect("window tables are built under the miner's configuration");
        let out = mine_seeded(&scorer, &self.params, &seed)
            .expect("ledger maintains the seed invariants (all singulars, exact finite NMs)");

        self.stats.degraded_shard_rescores += out.outcome.stats.degraded_shard_rescores;
        // The very first maintenance is a from-scratch mine, not a
        // certification failure; only count repairs after that.
        if !bootstrap && out.newly_scored > 0 {
            self.stats.repairs += 1;
            self.stats.repair_scored += out.newly_scored;
            self.stats.max_repair_depth = self.stats.max_repair_depth.max(out.levels);
        }

        // Absorb newly scored patterns so the next event can answer for
        // them by delta update alone, and extend the certifier's
        // membership index with them.
        let before = self.ledger.patterns.len();
        for m in &out.store {
            if !self.ledger.contains(&m.pattern) {
                let contribs = scorer.nm_contributions(&m.pattern);
                self.ledger.add(m.pattern.clone(), &contribs);
            }
        }
        // Only the bootstrap finds no certifier, and the ledger is empty
        // until then, so `before` is exactly what the certifier holds.
        self.certifier
            .get_or_insert_with(|| SeedCertifier::new(&[]))
            .extend(&self.ledger.patterns[before..]);
        self.stats.ledger_patterns = self.ledger.patterns.len();
        let mut outcome = out.outcome;
        // Absorption scored more patterns; report the scorer's final tally.
        outcome.scorer = scorer.stats();
        self.publish(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::SnapshotPoint;
    use trajgeo::{BBox, Point2};

    fn sweep(offset: f64) -> Trajectory {
        Trajectory::new(
            (0..4)
                .map(|i| {
                    SnapshotPoint::new(Point2::new(0.125 + i as f64 * 0.25, 0.625 + offset), 0.03)
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    fn miner(k: usize) -> StreamMiner {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        StreamMiner::new(
            grid,
            MiningParams::new(k, 0.1).unwrap().with_max_len(3).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn push_matches_batch_mine() {
        let mut m = miner(4);
        for i in 0..6 {
            m.push(sweep(0.001 * i as f64));
        }
        let data = m.window_dataset();
        let batch = trajpattern::Miner::new(&data, m.grid())
            .params(m.params().clone())
            .mine()
            .unwrap();
        assert_eq!(m.topk().len(), batch.patterns.len());
        for (a, b) in m.topk().iter().zip(&batch.patterns) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
    }

    #[test]
    fn eviction_shrinks_the_window() {
        let mut m = miner(3);
        let mut last = 0;
        for i in 0..8 {
            last = m.push(sweep(0.002 * i as f64));
        }
        assert_eq!(m.stats().window_len, 8);
        let dropped = m.evict_before(last - 2);
        assert_eq!(dropped, 5);
        assert_eq!(m.stats().window_len, 3);
        assert_eq!(m.stats().evictions, 5);
        // Still identical to batch over the 3 survivors.
        let data = m.window_dataset();
        assert_eq!(data.len(), 3);
        let batch = trajpattern::Miner::new(&data, m.grid())
            .params(m.params().clone())
            .mine()
            .unwrap();
        for (a, b) in m.topk().iter().zip(&batch.patterns) {
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
    }

    #[test]
    fn steady_state_applies_deltas() {
        let mut m = miner(3);
        for i in 0..10 {
            let seq = m.push(sweep(0.001 * i as f64));
            m.evict_before(seq.saturating_sub(3));
        }
        let s = m.stats();
        assert!(s.deltas_applied > 0, "{s:?}");
        assert!(s.ledger_patterns >= 16, "{s:?}");
        // Near-identical repeats: after bootstrap, the certificate
        // answers most events without touching the data.
        assert!(s.certified > 0, "{s:?}");
        assert!(s.repairs <= s.arrivals, "{s:?}");
    }

    #[test]
    fn slide_matches_batch_and_separate_ops() {
        // One slide-driven miner, one push+evict-driven miner: after every
        // event both must agree with each other and with batch mining over
        // the window contents, bit for bit.
        let mut slid = miner(3);
        let mut stepped = miner(3);
        for i in 0..10 {
            let seq = slid.slide(sweep(0.0015 * i as f64), 4);
            let seq2 = stepped.push(sweep(0.0015 * i as f64));
            stepped.evict_before((seq2 + 1).saturating_sub(4));
            assert_eq!(seq, seq2);
            assert_eq!(slid.stats().window_len, stepped.stats().window_len);
            let batch = trajpattern::Miner::new(&slid.window_dataset(), slid.grid())
                .params(slid.params().clone())
                .mine()
                .unwrap();
            assert_eq!(slid.topk().len(), batch.patterns.len());
            for ((a, b), c) in slid.topk().iter().zip(stepped.topk()).zip(&batch.patterns) {
                assert_eq!(a.pattern, c.pattern);
                assert_eq!(a.nm.to_bits(), c.nm.to_bits());
                assert_eq!(b.nm.to_bits(), c.nm.to_bits());
            }
        }
        assert_eq!(slid.stats().arrivals, 10);
        assert_eq!(slid.stats().evictions, 6);
    }

    #[test]
    fn emptied_window_yields_empty_topk() {
        let mut m = miner(3);
        let seq = m.push(sweep(0.0));
        m.evict_before(seq + 1);
        assert!(m.topk().is_empty());
        assert_eq!(m.stats().window_len, 0);
        // And refilling works (ledger rows restart from the delta path).
        m.push(sweep(0.01));
        assert!(!m.topk().is_empty());
        let data = m.window_dataset();
        let batch = trajpattern::Miner::new(&data, m.grid())
            .params(m.params().clone())
            .mine()
            .unwrap();
        for (a, b) in m.topk().iter().zip(&batch.patterns) {
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
    }

    #[test]
    fn topk_version_tracks_only_real_changes() {
        let mut m = miner(3);
        assert_eq!(m.topk_version(), 0);
        m.push(sweep(0.0));
        let after_first = m.topk_version();
        assert_eq!(after_first, 1, "bootstrap mine publishes a new top-k");
        // Every push changes the NM sums, so the version keeps moving and
        // never outruns one bump per maintenance pass.
        for i in 1..6 {
            let before = m.topk_version();
            m.push(sweep(0.001 * i as f64));
            let after = m.topk_version();
            assert!(after == before || after == before + 1);
            assert!(after >= before);
        }
        // Draining the window empties the top-k: one more change.
        let v = m.topk_version();
        m.evict_before(m.next_seq());
        assert!(m.topk().is_empty());
        assert_eq!(m.topk_version(), v + 1);
        // Evicting from an already-empty window publishes the same empty
        // top-k; the version must not move.
        m.evict_before(m.next_seq());
        assert_eq!(m.topk_version(), v + 1);
    }

    /// The row-major fold the column-major one replaced, over each row
    /// read back out of the columns in window order.
    fn row_major_fold(ledger: &Ledger, floor_log: f64) -> Vec<f64> {
        let rows = ledger.to_rows();
        let window = ledger.cols.len();
        (0..ledger.patterns.len())
            .map(|i| {
                let row = &rows[i * window..(i + 1) * window];
                if ledger.patterns[i].is_singular() {
                    let mut total = floor_log * row.len() as f64;
                    for &c in row {
                        total += c - floor_log;
                    }
                    total
                } else {
                    let mut total = 0.0;
                    for &c in row {
                        total += c;
                    }
                    total
                }
            })
            .collect()
    }

    /// A sweep along row `lane` of the 4×4 grid, reversed on odd lanes.
    fn lane(lane: usize, jitter: f64) -> Trajectory {
        let y = 0.125 + 0.25 * (lane % 4) as f64 + jitter;
        Trajectory::new(
            (0..4)
                .map(|i| {
                    let i = if lane % 2 == 1 { 3 - i } else { i };
                    SnapshotPoint::new(Point2::new(0.125 + i as f64 * 0.25, y), 0.04).unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn column_fold_equals_the_row_major_fold() {
        let mut m = miner(3);
        let floor = m.params().min_prob.ln();
        let check = |m: &StreamMiner| {
            assert_eq!(m.ledger.cols.len(), m.window.len());
            assert_eq!(m.tables.len(), m.window.len());
            let got: Vec<u64> = m.ledger.fold_nms().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = row_major_fold(&m.ledger, floor)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want);
        };
        let mut absorbs = 0;
        for i in 0..24 {
            let before = m.ledger.patterns.len();
            let seq = m.push(lane(i / 3, 0.002 * (i % 3) as f64));
            check(&m);
            if before > 0 && m.ledger.patterns.len() > before {
                absorbs += 1;
            }
            if m.evict_before(seq.saturating_sub(4)) > 0 {
                check(&m);
            }
        }
        assert!(absorbs > 0, "{:?}", m.stats());
        assert!(m.stats().evictions > 0);
        assert!(m.ledger.patterns.iter().any(|p| p.is_singular()));
        assert!(m.ledger.patterns.iter().any(|p| !p.is_singular()));
        // An emptied window folds every row over zero columns; refilling
        // starts the columns again from the delta path.
        m.evict_before(m.next_seq());
        assert!(m.ledger.cols.is_empty());
        check(&m);
        m.push(lane(1, 0.0));
        check(&m);
    }

    #[test]
    fn rejects_invalid_params() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let mut p = MiningParams::new(3, 0.1).unwrap();
        p.k = 0;
        assert!(StreamMiner::new(grid, p).is_err());
    }
}
