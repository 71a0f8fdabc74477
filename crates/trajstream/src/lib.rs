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
//! Memory note: the ledger retains every pattern the growth has ever
//! scored (that is what makes steady-state events pure deltas), so it is
//! `O(scored patterns × window)`. For the paper-scale workloads this is
//! a few thousand floats; a long-running deployment would add periodic
//! ledger pruning at the cost of extra repairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;

use std::collections::VecDeque;
use trajdata::{Dataset, Trajectory};
use trajgeo::fxhash::FxHashMap;
use trajgeo::Grid;
use trajpattern::{
    certified_topk, effective_max_len_from, mine_seeded, MinedPattern, MiningParams, ParamsError,
    Pattern, Scorer, SeedCertifier,
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

/// Per-pattern contribution ledger: `contribs[i][j]` is `NM(patterns[i],
/// window[j])`, kept aligned with the window deque. Folding a row in
/// order reproduces the batch scorer's reduction bit-for-bit.
#[derive(Default)]
struct Ledger {
    patterns: Vec<Pattern>,
    index: FxHashMap<Pattern, usize>,
    contribs: Vec<VecDeque<f64>>,
}

impl Ledger {
    fn contains(&self, p: &Pattern) -> bool {
        self.index.contains_key(p)
    }

    fn add(&mut self, p: Pattern, contribs: VecDeque<f64>) {
        debug_assert!(!self.contains(&p));
        self.index.insert(p.clone(), self.patterns.len());
        self.patterns.push(p);
        self.contribs.push(contribs);
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
    fn fold_nms(&self, floor_log: f64) -> Vec<f64> {
        self.patterns
            .iter()
            .zip(&self.contribs)
            .map(|(p, row)| {
                if p.is_singular() {
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
    ledger: Ledger,
    /// Membership index over `ledger.patterns`, rebuilt whenever a repair
    /// changes ledger membership; `None` until the bootstrap mine.
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
        Ok(StreamMiner {
            grid,
            params,
            next_seq: 0,
            window: VecDeque::new(),
            ledger: Ledger::default(),
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

        // Delta-update the ledger: score every tracked pattern against the
        // newcomer alone through the unified query API. The scorer's
        // corridor table for the one trajectory already resolves patterns
        // it never comes near to the floor constant, so no pattern index
        // is built (rebuilding one over the whole ledger on every arrival
        // cost more than it saved). A single-trajectory fold equals the
        // raw per-trajectory contribution, so appending these keeps every
        // ledger row bit-identical to what full-window scoring would
        // produce for that trajectory index.
        if !self.ledger.patterns.is_empty() {
            let single: Dataset = std::iter::once(traj.clone()).collect();
            let scorer = Scorer::new(&single, &self.grid, self.params.delta, self.params.min_prob);
            let nms = scorer.query(&self.ledger.patterns).run();
            for (row, nm) in self.ledger.contribs.iter_mut().zip(nms) {
                row.push_back(nm);
            }
            self.stats.deltas_applied += self.ledger.patterns.len() as u64;
        }

        self.window.push_back((seq, traj));
        self.stats.arrivals += 1;
        seq
    }

    /// [`StreamMiner::evict_before`] without the maintenance pass.
    fn evict_inner(&mut self, seq: u64) -> usize {
        let mut dropped = 0;
        while self.window.front().is_some_and(|(s, _)| *s < seq) {
            self.window.pop_front();
            for row in self.ledger.contribs.iter_mut() {
                row.pop_front();
            }
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

        let nms = self.ledger.fold_nms(self.params.min_prob.ln());
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
        let scorer = Scorer::with_threads(
            &data,
            &self.grid,
            self.params.delta,
            self.params.min_prob,
            self.params.threads,
        );
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
        // them by delta update alone, and rebuild the certifier's
        // membership index over the (possibly grown) ledger.
        for m in &out.store {
            if !self.ledger.contains(&m.pattern) {
                let contribs: VecDeque<f64> = scorer.nm_contributions(&m.pattern).into();
                self.ledger.add(m.pattern.clone(), contribs);
            }
        }
        self.certifier = Some(SeedCertifier::new(&self.ledger.patterns));
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

    #[test]
    fn rejects_invalid_params() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let mut p = MiningParams::new(3, 0.1).unwrap();
        p.k = 0;
        assert!(StreamMiner::new(grid, p).is_err());
    }
}
