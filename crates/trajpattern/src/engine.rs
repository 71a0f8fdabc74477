//! The shared growth engine: one candidate/prune/top-k loop for every
//! miner in the stack.
//!
//! The batch miner, the seeded re-growth behind the streaming repair path
//! ([`crate::mine_seeded`]) and the checkpointing session API
//! ([`crate::Miner`]) all drive this one implementation — the same
//! candidate enumeration, the same weighted-mean bound, the same τ
//! pruning — over one dense [`Scorer`].
//!
//! Every batch goes through `indexed_score`: large batches get a
//! [`PatternIndex`](crate::index::PatternIndex) over their bounding boxes
//! so patterns far from every trajectory resolve analytically —
//! bit-identical either way, so exactness arguments are untouched.
//!
//! Because every caller shares [`grow_level`] *and* [`init_state`], a
//! pruning decision (bound, τ, 1-extension) can never differ between the
//! batch, seeded, resumed, and streaming paths: parity is true by
//! construction, not by test. The bit-identity suites
//! (`parallel_determinism`, `stream_batch_identity`, `checkpoint_resume`)
//! pin it end to end anyway.

use crate::groups::discover_groups;
use crate::minmax::weighted_mean_bound;
use crate::params::MiningParams;
use crate::pattern::{MinedPattern, Pattern};
use crate::prune::is_one_extension;
use crate::scorer::Scorer;
use crate::topk::ThresholdTracker;
use std::fmt;
use trajgeo::fxhash::{FxHashMap, FxHashSet};

pub use crate::algorithm::{MiningOutcome, MiningStats};

/// Below this many patterns, building a spatial index costs more than the
/// window scans it could skip; such batches score unindexed (the scores
/// are bit-identical either way, so the cutoff is pure tuning).
const INDEX_BATCH_THRESHOLD: usize = 32;

/// Scores `batch` through [`Scorer::query`], attaching a
/// [`crate::index::PatternIndex`] over the batch when it is large enough
/// to pay for one. This is the one batch-scoring funnel of the growth
/// loop, so index-pruning behavior cannot diverge between the batch,
/// seeded, and streaming paths.
fn indexed_score(scorer: &Scorer<'_>, batch: &[Pattern]) -> Vec<f64> {
    if batch.len() < INDEX_BATCH_THRESHOLD {
        return scorer.query(batch).run();
    }
    let index = crate::index::PatternIndex::build(batch, scorer.grid());
    scorer.query(batch).with_index(&index).run()
}

/// Why a seed set was rejected by [`init_state`] (and therefore by
/// [`crate::mine_seeded`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SeedError {
    /// The mining parameters were invalid.
    Params(crate::params::ParamsError),
    /// The seed does not contain every singular pattern of the grid —
    /// without them neither `nm_best` nor Lemma-1 reachability holds.
    MissingSingulars {
        /// Singular seeds provided.
        have: usize,
        /// Grid cells (singulars required).
        need: usize,
    },
    /// The same pattern appears twice in the seed.
    Duplicate(String),
    /// A seed NM is NaN or infinite.
    NonFinite(String),
    /// A seed pattern references a cell outside the grid.
    CellOutOfRange(String),
}

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedError::Params(e) => write!(f, "invalid mining parameters: {e}"),
            SeedError::MissingSingulars { have, need } => write!(
                f,
                "seed must contain every singular pattern: have {have}, grid has {need} cells"
            ),
            SeedError::Duplicate(p) => write!(f, "duplicate seed pattern {p}"),
            SeedError::NonFinite(p) => write!(f, "seed pattern {p} has a non-finite NM"),
            SeedError::CellOutOfRange(p) => {
                write!(f, "seed pattern {p} references a cell outside the grid")
            }
        }
    }
}

impl std::error::Error for SeedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeedError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::params::ParamsError> for SeedError {
    fn from(e: crate::params::ParamsError) -> Self {
        SeedError::Params(e)
    }
}

/// Pattern interner: dense u32 ids for cheap pair bookkeeping.
#[derive(Default)]
pub(crate) struct Store {
    patterns: Vec<Pattern>,
    ids: FxHashMap<Pattern, u32>,
    nms: Vec<f64>,
    lens: Vec<u32>,
}

impl Store {
    pub(crate) fn add(&mut self, p: Pattern, nm: f64) -> u32 {
        debug_assert!(!self.ids.contains_key(&p));
        let id = self.patterns.len() as u32;
        self.lens.push(p.len() as u32);
        self.nms.push(nm);
        self.ids.insert(p.clone(), id);
        self.patterns.push(p);
        id
    }

    #[inline]
    pub(crate) fn id_of(&self, p: &Pattern) -> Option<u32> {
        self.ids.get(p).copied()
    }

    #[inline]
    pub(crate) fn get(&self, id: u32) -> &Pattern {
        &self.patterns[id as usize]
    }

    #[inline]
    pub(crate) fn nm(&self, id: u32) -> f64 {
        self.nms[id as usize]
    }

    #[inline]
    pub(crate) fn len(&self, id: u32) -> u32 {
        self.lens[id as usize]
    }

    /// Number of interned patterns (ids are `0..count`).
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.patterns.len()
    }

    /// Patterns in id order — the checkpoint codec serializes (and
    /// re-adds) them in exactly this order so ids survive a round-trip.
    #[inline]
    pub(crate) fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }
}

/// Everything the growing process carries between levels. A checkpoint is
/// a serialization of this struct; [`run_growth`] advances it one level at
/// a time so mining can stop and resume at any level boundary with
/// bit-identical results.
pub(crate) struct GrowthState {
    /// Every pattern ever scored (dense ids, with NM and length).
    pub(crate) store: Store,
    /// The active candidate set Q (ids into the store).
    pub(crate) q: FxHashSet<u32>,
    /// Ordered pairs already attempted: `(a << 32) | b`.
    pub(crate) tried: FxHashSet<u64>,
    /// ω over qualifying patterns (length ≥ min_len).
    pub(crate) qual_tracker: ThresholdTracker,
    /// Cached `qual_tracker.omega()` as of the last level boundary.
    pub(crate) omega: f64,
    /// Current high set `H` (NM ≥ ω).
    pub(crate) high: FxHashSet<u32>,
    /// Highs whose (h × Q) pairs have been fully enumerated.
    pub(crate) enumerated_high: FxHashSet<u32>,
    /// Q members not yet enumerated as the "any" side of a pair, in
    /// insertion order.
    pub(crate) fresh: Vec<u32>,
    /// Best NM overall (attained by a singular, by min-max).
    pub(crate) nm_best: f64,
    /// Counters so far (`stats.iterations` is the level number).
    pub(crate) stats: MiningStats,
    /// Whether the high set reached a fixpoint.
    pub(crate) converged: bool,
}

/// The outcome of mining nothing (empty dataset or empty grid).
pub(crate) fn empty_outcome() -> MiningOutcome {
    MiningOutcome {
        patterns: Vec::new(),
        groups: Vec::new(),
        stats: MiningStats::default(),
        scorer: crate::ScorerStats::default(),
    }
}

/// The effective maximum pattern length for `scorer`'s data: patterns
/// longer than the longest trajectory only ever score the floor, so
/// growing past it is wasted.
pub(crate) fn effective_max_len(scorer: &Scorer<'_>, params: &MiningParams) -> usize {
    let longest = scorer.data().iter().map(|t| t.len()).max().unwrap_or(0);
    effective_max_len_from(params, longest)
}

/// [`effective_max_len`] for callers that already know the longest
/// trajectory length (e.g. a streaming window) and don't want to build a
/// scorer just to ask: `min(params.max_len, longest.max(1))`.
pub fn effective_max_len_from(params: &MiningParams, longest: usize) -> usize {
    params.max_len.min(longest.max(1))
}

/// Level 0 of the growing process, for both entry modes:
///
/// - **empty `seed`** — a from-scratch (batch) mine: score every singular
///   pattern and seed ω from them;
/// - **non-empty `seed`** — seeded re-growth: the validated seed becomes
///   the store and the whole of `Q` with an *empty* pair memo, so growth
///   re-enumerates every pair against current thresholds (see
///   [`crate::mine_seeded`] for the exactness argument).
///
/// Both modes then share the same tail verbatim: the `min_len > 1`
/// bootstrap (seed ω with genuine length-`min_len` windows read off the
/// data — their true NMs are valid lower-bound evidence for ω, so pruning
/// stays exact), the initial high set `H = {NM ≥ ω}`, and everything
/// marked fresh. Before this function existed the two modes carried
/// duplicate copies of that tail; now a threshold decision at level 0
/// cannot differ between them.
pub(crate) fn init_state(
    scorer: &Scorer<'_>,
    params: &MiningParams,
    seed: &[MinedPattern],
) -> Result<GrowthState, SeedError> {
    let grid = scorer.grid();
    let mut stats = MiningStats::default();
    let degraded_base = scorer.degraded_rescores();

    let mut store = Store::default();
    let mut q: FxHashSet<u32> = FxHashSet::default();

    // ω over *qualifying* patterns (length ≥ min_len). §5: "The NM
    // threshold ω is set to the minimum NM of the set of k patterns with
    // the most NM of length at least d."
    let mut qual_tracker = ThresholdTracker::new(params.k);
    let mut nm_best = f64::NEG_INFINITY;

    if seed.is_empty() {
        // Initialization: all singular patterns.
        let singular_nms = scorer.nm_all_singulars();
        stats.nm_evaluations += grid.num_cells() as u64;
        for cell in grid.cells() {
            let nm = singular_nms[cell.index()];
            let id = store.add(Pattern::singular(cell), nm);
            q.insert(id);
            if params.min_len <= 1 {
                qual_tracker.offer(nm);
            }
            nm_best = nm_best.max(nm);
        }
    } else {
        let num_cells = grid.num_cells() as usize;
        let max_len = effective_max_len(scorer, params);
        let mut singulars_seen = 0usize;
        for m in seed {
            if !m.nm.is_finite() {
                return Err(SeedError::NonFinite(m.pattern.to_string()));
            }
            if m.pattern.cells().iter().any(|c| c.index() >= num_cells) {
                return Err(SeedError::CellOutOfRange(m.pattern.to_string()));
            }
            if m.pattern.is_singular() {
                singulars_seen += 1;
                nm_best = nm_best.max(m.nm);
            } else if m.pattern.len() > max_len {
                // The batch miner never generates patterns longer than the
                // longest trajectory; keeping them would perturb
                // tie-breaking.
                continue;
            }
            if store.id_of(&m.pattern).is_some() {
                return Err(SeedError::Duplicate(m.pattern.to_string()));
            }
            let id = store.add(m.pattern.clone(), m.nm);
            q.insert(id);
            if m.pattern.len() >= params.min_len {
                qual_tracker.offer(m.nm);
            }
        }
        if singulars_seen != num_cells {
            return Err(SeedError::MissingSingulars {
                have: singulars_seen,
                need: num_cells,
            });
        }
    }

    // min_len > 1 bootstrap: until k qualifying patterns exist, ω is -∞
    // and nothing can be pruned, which explodes on large grids. Seed the
    // tracker with genuine length-min_len patterns read directly off the
    // data (most frequent discretized windows) — their true NMs are valid
    // lower-bound evidence for ω, so pruning stays exact.
    if params.min_len > 1 {
        let seeds: Vec<Pattern> = seed_patterns(scorer, params.min_len, params.k)
            .into_iter()
            .filter(|p| store.id_of(p).is_none())
            .collect();
        let nms = indexed_score(scorer, &seeds);
        stats.candidates_scored += seeds.len() as u64;
        stats.nm_evaluations += seeds.len() as u64;
        for (p, nm) in seeds.into_iter().zip(nms) {
            let id = store.add(p, nm);
            q.insert(id);
            qual_tracker.offer(nm);
        }
    }
    stats.degraded_shard_rescores += scorer.degraded_rescores() - degraded_base;

    let omega = qual_tracker.omega();
    let high: FxHashSet<u32> = q
        .iter()
        .copied()
        .filter(|&id| store.nm(id) >= omega)
        .collect();
    let fresh: Vec<u32> = {
        let mut v: Vec<u32> = q.iter().copied().collect();
        v.sort_unstable();
        v
    };

    Ok(GrowthState {
        store,
        q,
        tried: FxHashSet::default(),
        qual_tracker,
        omega,
        high,
        enumerated_high: FxHashSet::default(),
        fresh,
        nm_best,
        stats,
        converged: false,
    })
}

/// Runs growth levels until the high set converges or `max_iters` is
/// reached, calling `on_level` after every completed level (this is the
/// checkpoint hook). `state.stats.iterations` counts completed levels, so
/// resuming a restored state continues exactly where it stopped.
pub(crate) fn run_growth<E>(
    scorer: &Scorer<'_>,
    params: &MiningParams,
    state: &mut GrowthState,
    mut on_level: impl FnMut(&GrowthState) -> Result<(), E>,
) -> Result<(), E> {
    while !state.converged && state.stats.iterations < params.max_iters {
        grow_level(scorer, params, state);
        on_level(state)?;
    }
    Ok(())
}

/// One growing level: enumerate new pairs, bound-prune, batch-score,
/// re-threshold, re-mark, and prune Q.
pub(crate) fn grow_level(scorer: &Scorer<'_>, params: &MiningParams, state: &mut GrowthState) {
    let max_len = effective_max_len(scorer, params);
    let degraded_base = scorer.degraded_rescores();
    state.stats.iterations += 1;

    let fresh_vec: Vec<u32> = {
        let mut v: Vec<u32> = state
            .fresh
            .iter()
            .copied()
            .filter(|id| state.q.contains(id))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut fresh_high_vec: Vec<u32> = state
        .high
        .iter()
        .copied()
        .filter(|id| !state.enumerated_high.contains(id))
        .collect();
    fresh_high_vec.sort_unstable();
    let mut high_vec: Vec<u32> = state.high.iter().copied().collect();
    high_vec.sort_unstable();
    let mut q_vec: Vec<u32> = state.q.iter().copied().collect();
    q_vec.sort_unstable();

    let mut next_fresh: Vec<u32> = Vec::new();

    // Candidates surviving the bound check are *collected* here and
    // scored in one batch after pair enumeration. This is exact: ω and
    // τ are deliberately read once per iteration (the seed code also
    // refreshed them only after enumeration), so no pruning decision
    // inside the loop can depend on a score produced within it.
    let mut pending: Vec<Pattern> = Vec::new();
    let mut pending_ids: FxHashMap<Pattern, usize> = FxHashMap::default();

    // One candidate pair (ordered): bound-check, dedupe, enqueue.
    macro_rules! try_pair {
        ($a:expr, $b:expr) => {{
            let a: u32 = $a;
            let b: u32 = $b;
            let la = state.store.len(a);
            let lb = state.store.len(b);
            let total_len = (la + lb) as usize;
            if total_len <= max_len {
                let key = ((a as u64) << 32) | b as u64;
                if state.tried.insert(key) {
                    state.stats.candidates_generated += 1;
                    // Candidate shapes high·singular / singular·high
                    // are the Lemma-1 building blocks: prune them
                    // against the composability threshold τ, others
                    // against ω.
                    let one_ext_shape = (lb == 1 && state.high.contains(&a))
                        || (la == 1 && state.high.contains(&b));
                    let mut pruned = false;
                    if params.use_bound_prune {
                        let bound = weighted_mean_bound(
                            state.store.nm(a),
                            la as usize,
                            state.store.nm(b),
                            lb as usize,
                        );
                        let threshold = if one_ext_shape {
                            tau(total_len, state.omega, state.nm_best, max_len)
                        } else {
                            state.omega
                        };
                        if bound < threshold {
                            state.stats.candidates_bound_pruned += 1;
                            pruned = true;
                        }
                    }
                    if !pruned {
                        let cand = state.store.get(a).concat(state.store.get(b));
                        match state.store.id_of(&cand) {
                            Some(id) => {
                                if state.q.insert(id) {
                                    next_fresh.push(id);
                                }
                            }
                            None => {
                                // Defer scoring to the per-iteration
                                // batch; dedupe within the batch so a
                                // candidate reachable through several
                                // pairs is scored once.
                                if !pending_ids.contains_key(&cand) {
                                    pending_ids.insert(cand.clone(), pending.len());
                                    pending.push(cand);
                                }
                            }
                        }
                    }
                }
            }
        }};
    }

    // New Q members × current highs, both orders.
    for &h in &high_vec {
        for &x in &fresh_vec {
            try_pair!(h, x);
            try_pair!(x, h);
        }
    }
    // Newly promoted highs × all of Q, both orders.
    for &h in &fresh_high_vec {
        for &x in &q_vec {
            try_pair!(h, x);
            try_pair!(x, h);
        }
    }
    state.enumerated_high.extend(fresh_high_vec);

    // Batch-score everything enqueued this iteration (in enumeration
    // order, so store ids — and therefore the whole run — are
    // identical to one-at-a-time scoring).
    let nms = indexed_score(scorer, &pending);
    state.stats.candidates_scored += pending.len() as u64;
    state.stats.nm_evaluations += pending.len() as u64;
    for (cand, nm) in pending.into_iter().zip(nms) {
        let total_len = cand.len();
        let id = state.store.add(cand, nm);
        if total_len >= params.min_len {
            state.qual_tracker.offer(nm);
        }
        state.q.insert(id);
        next_fresh.push(id);
    }

    // Re-threshold and re-mark.
    state.omega = state.qual_tracker.omega();
    let high_new: FxHashSet<u32> = state
        .q
        .iter()
        .copied()
        .filter(|&id| state.store.nm(id) >= state.omega)
        .collect();

    // Prune low patterns: keep only 1-extension lows above τ.
    if params.use_one_extension_prune {
        let high_patterns: FxHashSet<Pattern> = high_new
            .iter()
            .map(|&id| state.store.get(id).clone())
            .collect();
        let omega_snapshot = state.omega;
        let nm_best = state.nm_best;
        let store = &state.store;
        state.q.retain(|&id| {
            if high_new.contains(&id) {
                return true;
            }
            if !is_one_extension(store.get(id), &high_patterns) {
                return false;
            }
            !params.use_bound_prune
                || store.nm(id) >= tau(store.len(id) as usize, omega_snapshot, nm_best, max_len)
        });
    }

    state.converged = high_new == state.high;
    state.high = high_new;
    state.fresh = next_fresh;
    state.stats.degraded_shard_rescores += scorer.degraded_rescores() - degraded_base;
}

/// Extracts the final top-k answer (and groups) from a finished — or
/// deliberately interrupted — growth state.
pub(crate) fn finish(
    scorer: &Scorer<'_>,
    params: &MiningParams,
    mut state: GrowthState,
) -> MiningOutcome {
    state.stats.final_queue_size = state.q.len();
    state.stats.nm_evaluations = scorer.evaluations().max(state.stats.nm_evaluations);
    let store = &state.store;

    // Final answer: best k qualifying patterns over everything scored.
    let mut order: Vec<u32> = (0..store.count() as u32)
        .filter(|&id| store.len(id) as usize >= params.min_len)
        .collect();
    order.sort_unstable_by(|&a, &b| {
        store
            .nm(b)
            .partial_cmp(&store.nm(a))
            .expect("NM values are finite")
            .then_with(|| store.get(a).cmp(store.get(b)))
    });
    order.truncate(params.k);
    let qualifying: Vec<MinedPattern> = order
        .into_iter()
        .map(|id| MinedPattern::new(store.get(id).clone(), store.nm(id)))
        .collect();

    let groups = match params.gamma {
        Some(gamma) => discover_groups(&qualifying, scorer.grid(), gamma),
        None => Vec::new(),
    };

    MiningOutcome {
        patterns: qualifying,
        groups,
        stats: state.stats,
        scorer: scorer.stats(),
    }
}

/// Harvests up to `k` seed patterns of exactly `min_len` positions from
/// the data itself: each trajectory's snapshot means are discretized to
/// cells and every contiguous window becomes a candidate; the most
/// frequent distinct windows are returned (deterministic order).
///
/// Used to bootstrap the qualifying threshold ω when mining with a
/// minimum-length constraint (§5) — the seeds are genuine patterns, so the
/// ω they establish is a valid (exact) pruning threshold. The baseline
/// miners share this bootstrap for a fair comparison.
pub fn seed_patterns(scorer: &Scorer<'_>, min_len: usize, k: usize) -> Vec<Pattern> {
    let grid = scorer.grid();
    let mut counts: FxHashMap<Vec<trajgeo::CellId>, u32> = FxHashMap::default();
    for traj in scorer.data().iter() {
        if traj.len() < min_len {
            continue;
        }
        let cells: Vec<trajgeo::CellId> = traj
            .points()
            .iter()
            .map(|sp| grid.locate(sp.mean))
            .collect();
        for w in cells.windows(min_len) {
            *counts.entry(w.to_vec()).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(Vec<trajgeo::CellId>, u32)> = counts.into_iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(k)
        .map(|(cells, _)| Pattern::new(cells).expect("windows are non-empty"))
        .collect()
}

/// The composability threshold τ for a (potential) low building block of
/// length `len`: a pattern below τ cannot participate in any high pattern
/// of length ≤ `max_len` (see the [`crate::algorithm`] module docs). `-∞`
/// while ω is unset.
pub(crate) fn tau(len: usize, omega: f64, nm_best: f64, max_len: usize) -> f64 {
    if !omega.is_finite() {
        return f64::NEG_INFINITY;
    }
    let slack = max_len.saturating_sub(len) as f64;
    omega + slack * (omega - nm_best) / len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::{Dataset, SnapshotPoint, Trajectory};
    use trajgeo::{BBox, Grid, Point2};

    fn sweep_data(n: usize, sigma: f64) -> (Dataset, Grid) {
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

    #[test]
    fn tau_is_no_higher_than_omega() {
        let omega = -2.0;
        let best = -0.5;
        for len in 1..8 {
            let t = tau(len, omega, best, 8);
            assert!(t <= omega + 1e-12, "tau({len}) = {t} > omega");
        }
        // Unset omega disables the threshold.
        assert_eq!(tau(3, f64::NEG_INFINITY, best, 8), f64::NEG_INFINITY);
    }

    #[test]
    fn batch_init_rejects_nothing_and_seeds_omega() {
        let (data, grid) = sweep_data(5, 0.05);
        let params = MiningParams::new(4, 0.1).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let state = init_state(&scorer, &params, &[]).unwrap();
        assert_eq!(state.store.count(), grid.num_cells() as usize);
        assert!(state.omega.is_finite());
        assert!(!state.high.is_empty());
        assert_eq!(state.fresh.len(), state.q.len());
    }

    #[test]
    fn seeded_init_shares_the_batch_tail() {
        // A seed of exactly the singulars must produce a level-0 state
        // identical (store contents, ω, high set, fresh) to batch init.
        let (data, grid) = sweep_data(6, 0.04);
        let params = MiningParams::new(5, 0.1).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let batch = init_state(&scorer, &params, &[]).unwrap();
        let singular_nms = Scorer::nm_all_singulars(&scorer);
        let seed: Vec<MinedPattern> = grid
            .cells()
            .map(|c| MinedPattern::new(Pattern::singular(c), singular_nms[c.index()]))
            .collect();
        let seeded = init_state(&scorer, &params, &seed).unwrap();
        assert_eq!(batch.store.count(), seeded.store.count());
        for id in 0..batch.store.count() as u32 {
            assert_eq!(batch.store.get(id), seeded.store.get(id));
            assert_eq!(batch.store.nm(id).to_bits(), seeded.store.nm(id).to_bits());
        }
        assert_eq!(batch.omega.to_bits(), seeded.omega.to_bits());
        assert_eq!(batch.high, seeded.high);
        assert_eq!(batch.fresh, seeded.fresh);
        assert_eq!(batch.nm_best.to_bits(), seeded.nm_best.to_bits());
    }
}
