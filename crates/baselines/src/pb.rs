//! Projection-based (PB) miner for NM patterns — the scalability baseline.
//!
//! §6.2: "A projection based (PB) approach \[13\] to mine the normalized
//! match is presented as a baseline algorithm. … At each unspecified
//! position, the maximum match of a position p is used as the up-bound of
//! the possible match. However, this bound could be very loose. As a
//! result, it could be true that every prefix up to length c could be
//! extensible … we need to keep G^c prefixes, which may be too large."
//!
//! The miner grows prefixes depth-first. For a prefix `R` of length `r`,
//! the best NM any completion of length `n` can reach is bounded by
//!
//! ```text
//! NM(R·S) ≤ ( r·NM(R) + (n−r)·B ) / n,   B = Σ_T max_cell NM(cell, T)
//! ```
//!
//! because each unspecified position contributes at most the best
//! per-trajectory singular log-probability. When the maximum of this bound
//! over admissible completion lengths falls below the running k-th-best
//! threshold ω, the subtree is pruned; otherwise **every grid cell** is
//! tried as the next position — the `G^c` explosion the paper measures.
//!
//! The returned pattern set is identical to TrajPattern's (both are exact
//! top-k algorithms); only the work differs.

use trajdata::Dataset;
use trajgeo::fxhash::FxHashSet;
use trajgeo::Grid;
use trajpattern::engine::seed_patterns;
use trajpattern::pattern::{MinedPattern, Pattern};
use trajpattern::topk::ThresholdTracker;
use trajpattern::{MiningParams, ParamsError, Scorer};

/// Work counters of a PB run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PbStats {
    /// Prefixes whose NM was computed against the data.
    pub prefixes_scored: u64,
    /// Subtrees pruned by the completion bound.
    pub subtrees_pruned: u64,
    /// Maximum depth reached.
    pub max_depth: usize,
    /// Whether the search hit its node budget and stopped early (the
    /// result is then a best-effort answer, not the exact top-k).
    pub truncated: bool,
}

/// Result of a PB mining run.
#[derive(Debug, Clone)]
pub struct PbOutcome {
    /// Top-k qualifying patterns, best NM first (same contract as
    /// `trajpattern::Miner::mine`).
    pub patterns: Vec<MinedPattern>,
    /// Work counters.
    pub stats: PbStats,
}

/// Mines the top-k NM patterns with the projection-based strategy.
pub fn mine_pb(
    data: &Dataset,
    grid: &Grid,
    params: &MiningParams,
) -> Result<PbOutcome, ParamsError> {
    mine_pb_budgeted(data, grid, params, None)
}

/// Like [`mine_pb`], but stops once `budget` prefixes have been scored
/// (`stats.truncated` is then set). The prefix explosion the paper
/// describes makes PB intractable on large configurations; the budget lets
/// the scalability experiments report an honest lower bound instead of
/// hanging.
pub fn mine_pb_budgeted(
    data: &Dataset,
    grid: &Grid,
    params: &MiningParams,
    budget: Option<u64>,
) -> Result<PbOutcome, ParamsError> {
    params.validate()?;
    let scorer = Scorer::with_threads(data, grid, params.delta, params.min_prob, params.threads);
    let mut stats = PbStats::default();

    if data.is_empty() || grid.num_cells() == 0 {
        return Ok(PbOutcome {
            patterns: Vec::new(),
            stats,
        });
    }
    let data_max_len = data.iter().map(|t| t.len()).max().unwrap_or(0);
    let max_len = params.max_len.min(data_max_len.max(1));
    let min_len = params.min_len;

    // B = Σ_T max_cell NM(cell, T): the per-position optimistic bound.
    // max_cell NM(cell, T) is the best per-trajectory singular value; the
    // sparse singular pass gives per-cell sums, so recompute per trajectory
    // directly (cheap: same sparse sweep, per-trajectory max).
    let per_position_bound = compute_per_position_bound(&scorer);

    let mut tracker = ThresholdTracker::new(params.k);
    let mut pool: Vec<MinedPattern> = Vec::new();

    // Bootstrap ω exactly like the TrajPattern miner when min_len > 1.
    // The DFS will reach these same patterns again; `seeds` prevents the
    // tracker from counting a pattern's NM twice (which would overstate ω
    // and break exactness).
    let mut seeds: FxHashSet<Pattern> = FxHashSet::default();
    if min_len > 1 {
        let seed_pats = seed_patterns(&scorer, min_len, params.k);
        let nms = scorer.score_batch(&seed_pats);
        stats.prefixes_scored += seed_pats.len() as u64;
        for (p, nm) in seed_pats.into_iter().zip(nms) {
            tracker.offer(nm);
            pool.push(MinedPattern::new(p.clone(), nm));
            seeds.insert(p);
        }
    }

    // Depth-first growth from every singular, best singulars first so ω
    // rises quickly.
    let singulars = scorer.nm_all_singulars();
    let mut order: Vec<u32> = (0..grid.num_cells()).collect();
    order.sort_unstable_by(|&a, &b| {
        singulars[b as usize]
            .partial_cmp(&singulars[a as usize])
            .expect("NM values are finite")
            .then_with(|| a.cmp(&b))
    });

    for &cell in &order {
        let p = Pattern::singular(trajgeo::CellId(cell));
        let nm = singulars[cell as usize];
        dfs(
            &scorer,
            &p,
            nm,
            &mut tracker,
            &mut pool,
            &mut stats,
            per_position_bound,
            min_len,
            max_len,
            params.k,
            budget,
            &seeds,
        );
        if stats.truncated {
            break;
        }
    }

    pool.sort_by(|a, b| {
        b.nm.partial_cmp(&a.nm)
            .expect("NM values are finite")
            .then_with(|| a.pattern.cmp(&b.pattern))
    });
    pool.dedup_by(|a, b| a.pattern == b.pattern);
    pool.truncate(params.k);

    Ok(PbOutcome {
        patterns: pool,
        stats,
    })
}

/// `Σ_T max_cell NM(cell, T)`: for each trajectory, the best log
/// probability any single position can score anywhere in it.
fn compute_per_position_bound(scorer: &Scorer<'_>) -> f64 {
    let grid = scorer.grid();
    let floor = scorer.floor_log();
    let mut total = 0.0;
    for traj in scorer.data().iter() {
        let mut best = floor;
        for sp in traj.points() {
            let radius = scorer.delta() + 8.0 * sp.sigma;
            for cell in grid.cells_within(sp.mean, radius) {
                let p = trajgeo::stats::prob_within_delta(
                    sp.mean,
                    sp.sigma,
                    grid.center(cell),
                    scorer.delta(),
                );
                let lp = p.max(floor.exp()).ln();
                if lp > best {
                    best = lp;
                }
            }
        }
        total += best;
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    scorer: &Scorer<'_>,
    prefix: &Pattern,
    prefix_nm: f64,
    tracker: &mut ThresholdTracker,
    pool: &mut Vec<MinedPattern>,
    stats: &mut PbStats,
    per_position_bound: f64,
    min_len: usize,
    max_len: usize,
    k: usize,
    budget: Option<u64>,
    seeds: &FxHashSet<Pattern>,
) {
    if let Some(b) = budget {
        if stats.prefixes_scored >= b {
            stats.truncated = true;
            return;
        }
    }
    stats.max_depth = stats.max_depth.max(prefix.len());
    // Seeds were already offered during the bootstrap; offering them again
    // would double-count their NM in the top-k tracker.
    if prefix.len() >= min_len && !(prefix.len() == min_len && seeds.contains(prefix)) {
        tracker.offer(prefix_nm);
        pool.push(MinedPattern::new(prefix.clone(), prefix_nm));
        // Keep the pool from growing unboundedly: compact periodically
        // (dedup before truncation so duplicates never evict distinct
        // patterns).
        if pool.len() >= 4 * k + 64 {
            pool.sort_by(|a, b| {
                b.nm.partial_cmp(&a.nm)
                    .expect("NM values are finite")
                    .then_with(|| a.pattern.cmp(&b.pattern))
            });
            pool.dedup_by(|a, b| a.pattern == b.pattern);
            pool.truncate(k);
        }
    }
    if prefix.len() >= max_len {
        return;
    }

    // Completion bound: max over n in (max(r+1, min_len))..=max_len of
    // (r·NM + (n−r)·B)/n. The bound is monotone in n toward B, so the max
    // sits at one endpoint.
    let omega = tracker.omega();
    if omega.is_finite() {
        let r = prefix.len() as f64;
        let lo_n = (prefix.len() + 1).max(min_len) as f64;
        let hi_n = max_len as f64;
        let bound_at = |n: f64| (r * prefix_nm + (n - r) * per_position_bound) / n;
        let bound = bound_at(lo_n).max(bound_at(hi_n));
        if bound < omega {
            stats.subtrees_pruned += 1;
            return;
        }
    }

    // Score all G children of this prefix in one batch before recursing —
    // the values are ω-independent, so they are identical to one-at-a-time
    // scoring. Only a budget-truncated run can differ (the cutoff lands on
    // a batch boundary, at most G−1 scores later than sequentially).
    let children: Vec<Pattern> = scorer
        .grid()
        .cells()
        .map(|cell| prefix.concat(&Pattern::singular(cell)))
        .collect();
    let nms = scorer.score_batch(&children);
    stats.prefixes_scored += children.len() as u64;
    for (child, nm) in children.into_iter().zip(nms) {
        if stats.truncated {
            return;
        }
        dfs(
            scorer,
            &child,
            nm,
            tracker,
            pool,
            stats,
            per_position_bound,
            min_len,
            max_len,
            k,
            budget,
            seeds,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::{SnapshotPoint, Trajectory};
    use trajgeo::{BBox, Point2};
    use trajpattern::bruteforce::brute_force_top_k;

    fn sweep(n: usize, sigma: f64) -> (Dataset, Grid) {
        let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
        let data: Dataset = (0..n)
            .map(|_| {
                Trajectory::new(
                    (0..3)
                        .map(|i| {
                            SnapshotPoint::new(Point2::new(1.0 / 6.0 + i as f64 / 3.0, 0.5), sigma)
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
    fn agrees_with_brute_force() {
        let (data, grid) = sweep(5, 0.06);
        let params = MiningParams::new(7, 0.15).unwrap().with_max_len(3).unwrap();
        let reference = brute_force_top_k(&data, &grid, &params).unwrap();
        let out = mine_pb(&data, &grid, &params).unwrap();
        assert_eq!(out.patterns.len(), reference.len());
        for (m, r) in out.patterns.iter().zip(&reference) {
            assert!(
                (m.nm - r.nm).abs() < 1e-9,
                "PB {} ({}) vs brute {} ({})",
                m.pattern,
                m.nm,
                r.pattern,
                r.nm
            );
        }
    }

    #[test]
    fn agrees_with_trajpattern_miner() {
        let (data, grid) = sweep(6, 0.08);
        let params = MiningParams::new(5, 0.15)
            .unwrap()
            .with_min_len(2)
            .unwrap()
            .with_max_len(3)
            .unwrap();
        let a = trajpattern::Miner::new(&data, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        let b = mine_pb(&data, &grid, &params).unwrap();
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert!((x.nm - y.nm).abs() < 1e-9);
        }
    }

    #[test]
    fn pruning_fires_once_threshold_established() {
        let (data, grid) = sweep(6, 0.04);
        let params = MiningParams::new(2, 0.15).unwrap().with_max_len(3).unwrap();
        let out = mine_pb(&data, &grid, &params).unwrap();
        assert!(out.stats.subtrees_pruned > 0);
        assert!(out.stats.prefixes_scored > 0);
        assert_eq!(out.stats.max_depth, 3);
    }

    #[test]
    fn empty_dataset_is_empty() {
        let grid = Grid::new(BBox::unit(), 2, 2).unwrap();
        let params = MiningParams::new(3, 0.1).unwrap();
        let out = mine_pb(&Dataset::new(), &grid, &params).unwrap();
        assert!(out.patterns.is_empty());
    }
}
