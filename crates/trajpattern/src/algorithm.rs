//! The TrajPattern mining algorithm (§4 of the paper).
//!
//! Mining proceeds by *growing*:
//!
//! 1. Initialize the candidate set `Q` with every singular pattern (one per
//!    grid cell) and set the threshold ω to the k-th best NM seen.
//! 2. Mark patterns with NM ≥ ω *high* (`H`), the rest *low*.
//! 3. For each high pattern `P` and every pattern `P' ∈ Q`, generate the
//!    two concatenations `P·P'` and `P'·P`, score them, and insert them
//!    into `Q`.
//! 4. Update ω, re-mark high/low, and prune: low patterns survive only if
//!    they satisfy the 1-extension property (Lemma 1) — and, in this
//!    implementation, only if their NM clears an *exact composability
//!    threshold* τ derived from the weighted-mean bound (see below).
//! 5. Stop when the high set does not change.
//!
//! # Bound pruning (exact)
//!
//! The min-max proof gives `NM(A·B) ≤ (|A|·NM(A) + |B|·NM(B))/(|A|+|B|)`.
//! Before scoring a candidate we evaluate this bound:
//!
//! - a candidate that cannot reach ω can never become high (ω only rises);
//! - a candidate kept *as a low 1-extension building block* only matters if
//!   some high pattern `F = H'·P` with `|F| ≤ max_len` exists; unrolling
//!   the weighted-mean bound along the Lemma-1 composition chain shows `P`
//!   is useful only if `NM(P) ≥ τ(|P|) = ω + (max_len−|P|)·(ω−NM_best)/|P|`
//!   where `NM_best` is the best NM overall (always attained by a singular,
//!   by min-max). The τ threshold is self-consistent under recursion, so
//!   pruning against it never loses a reachable high pattern.
//!
//! Both prunings can be disabled via [`MiningParams`] for ablation.
//!
//! # Incremental pair enumeration
//!
//! Naively, step 3 re-enumerates `2·|H|·|Q|` pairs every iteration even
//! though almost all of them were already tried. This implementation
//! interns patterns (so pair identity is a cheap `u64`) and enumerates
//! only pairs involving something *new*: newly inserted `Q` members pair
//! with all current highs, and newly promoted highs pair with all of `Q`.
//! This is exact: ω and τ are monotone non-decreasing, so a pair that was
//! bound-pruned stays prunable forever, and a pattern that leaves the high
//! set (ω rose past it) can never return. Pruned-then-needed patterns are
//! regenerated through `(singular × fresh high)` pairs, which is exactly
//! the shape Lemma 1 requires.
//!
//! The loop itself — level initialization, pair enumeration, pruning,
//! convergence — lives in [`crate::engine`], shared with the seeded
//! re-growth and the streaming repair path; this module holds the
//! scorer-reusing batch entry point plus the outcome/stat types. Most
//! callers mine through [`crate::Miner`].

use crate::engine::{empty_outcome, finish, init_state, run_growth};
use crate::groups::PatternGroup;
use crate::params::{MiningParams, ParamsError};
use crate::pattern::MinedPattern;
use crate::scorer::Scorer;

pub use crate::engine::{effective_max_len_from, seed_patterns};
pub use crate::stats::MiningStats;

/// The result of a mining run.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// The top-k patterns (length ≥ `min_len`), best NM first. Ties are
    /// broken by pattern content for determinism.
    pub patterns: Vec<MinedPattern>,
    /// Pattern groups over `patterns` (§4.2), if `params.gamma` was set;
    /// empty otherwise.
    pub groups: Vec<PatternGroup>,
    /// Run counters.
    pub stats: MiningStats,
    /// Counters of the [`Scorer`] that produced this outcome. Engine
    /// telemetry, not part of the mining result proper: a resumed run
    /// reports different numbers (its scorer rebuilt less cache) while
    /// `patterns`/`groups`/`stats` stay bit-identical.
    pub scorer: crate::ScorerStats,
}

/// Mines the top-k NM patterns with an existing [`Scorer`], reusing its
/// probability cache — useful when several mining configurations run
/// over the same data. [`crate::Miner`] builds its own scorer instead.
/// Returns `Err` only for invalid parameters.
pub fn mine_with_scorer(
    scorer: &Scorer<'_>,
    params: &MiningParams,
) -> Result<MiningOutcome, ParamsError> {
    params.validate()?;
    if scorer.data().is_empty() || scorer.grid().num_cells() == 0 {
        return Ok(empty_outcome());
    }
    let mut state = init_state(scorer, params, &[]).expect("an empty seed is always valid");
    match run_growth::<std::convert::Infallible>(scorer, params, &mut state, |_| Ok(())) {
        Ok(()) => {}
        Err(e) => match e {},
    }
    Ok(finish(scorer, params, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::Miner;
    use trajdata::{Dataset, SnapshotPoint, Trajectory};
    use trajgeo::fxhash::FxHashSet;
    use trajgeo::{BBox, CellId, Grid, Point2};

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| CellId(i)).collect()).unwrap()
    }

    /// Objects sweeping the third row (cells 8..12) of a 4×4 unit grid.
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
    fn finds_the_dominant_singulars() {
        let (data, grid) = sweep_data(8, 0.03);
        let params = MiningParams::new(4, 0.1).unwrap().with_max_len(1).unwrap();
        let out = Miner::new(&data, &grid).params(params).mine().unwrap();
        assert_eq!(out.patterns.len(), 4);
        // The four on-path cells dominate all others.
        let found: FxHashSet<Pattern> = out.patterns.iter().map(|m| m.pattern.clone()).collect();
        for c in [8u32, 9, 10, 11] {
            assert!(found.contains(&pat(&[c])), "missing singular c{c}");
        }
    }

    #[test]
    fn grows_long_patterns_on_clean_data() {
        let (data, grid) = sweep_data(10, 0.02);
        let params = MiningParams::new(1, 0.1)
            .unwrap()
            .with_min_len(4)
            .unwrap()
            .with_max_len(4)
            .unwrap();
        let out = Miner::new(&data, &grid).params(params).mine().unwrap();
        assert_eq!(out.patterns.len(), 1);
        assert_eq!(out.patterns[0].pattern, pat(&[8, 9, 10, 11]));
    }

    #[test]
    fn results_are_sorted_and_truncated() {
        let (data, grid) = sweep_data(5, 0.05);
        let params = MiningParams::new(7, 0.1).unwrap().with_max_len(3).unwrap();
        let out = Miner::new(&data, &grid).params(params).mine().unwrap();
        assert_eq!(out.patterns.len(), 7);
        for w in out.patterns.windows(2) {
            assert!(w[0].nm >= w[1].nm);
        }
    }

    #[test]
    fn empty_dataset_returns_empty() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1).unwrap();
        let out = Miner::new(&Dataset::new(), &grid)
            .params(params)
            .mine()
            .unwrap();
        assert!(out.patterns.is_empty());
        assert_eq!(out.stats.iterations, 0);
    }

    #[test]
    fn pruning_does_not_change_results() {
        // Ablation invariant: both prunings are exact, so the mined set is
        // identical with and without them.
        let (data, grid) = sweep_data(6, 0.06);
        let base = MiningParams::new(5, 0.1).unwrap().with_max_len(4).unwrap();
        let mut no_prune = base.clone();
        no_prune.use_bound_prune = false;
        no_prune.use_one_extension_prune = false;
        let a = Miner::new(&data, &grid).params(base).mine().unwrap();
        let b = Miner::new(&data, &grid).params(no_prune).mine().unwrap();
        let pa: Vec<_> = a.patterns.iter().map(|m| m.pattern.clone()).collect();
        let pb: Vec<_> = b.patterns.iter().map(|m| m.pattern.clone()).collect();
        assert_eq!(pa, pb);
        // And the pruned run does no more scoring work.
        assert!(a.stats.candidates_scored <= b.stats.candidates_scored);
    }

    #[test]
    fn bound_pruning_saves_work() {
        let (data, grid) = sweep_data(6, 0.06);
        let base = MiningParams::new(3, 0.1).unwrap().with_max_len(4).unwrap();
        let out = Miner::new(&data, &grid).params(base).mine().unwrap();
        assert!(
            out.stats.candidates_bound_pruned > 0,
            "bound pruning should fire on a 16-cell grid"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (data, grid) = sweep_data(6, 0.05);
        let params = MiningParams::new(6, 0.1).unwrap().with_max_len(3).unwrap();
        let a = Miner::new(&data, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        let b = Miner::new(&data, &grid).params(params).mine().unwrap();
        let pa: Vec<_> = a
            .patterns
            .iter()
            .map(|m| (m.pattern.clone(), m.nm))
            .collect();
        let pb: Vec<_> = b
            .patterns
            .iter()
            .map(|m| (m.pattern.clone(), m.nm))
            .collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn min_len_filters_results() {
        let (data, grid) = sweep_data(6, 0.05);
        let params = MiningParams::new(5, 0.1)
            .unwrap()
            .with_min_len(3)
            .unwrap()
            .with_max_len(4)
            .unwrap();
        let out = Miner::new(&data, &grid).params(params).mine().unwrap();
        assert!(!out.patterns.is_empty());
        for m in &out.patterns {
            assert!(m.pattern.len() >= 3, "pattern {} too short", m.pattern);
        }
    }

    #[test]
    fn pair_memoization_does_not_rescore() {
        // Candidates are scored at most once across iterations.
        let (data, grid) = sweep_data(8, 0.05);
        let params = MiningParams::new(8, 0.1).unwrap().with_max_len(4).unwrap();
        let out = Miner::new(&data, &grid).params(params).mine().unwrap();
        // generated counts distinct ordered pairs only.
        assert!(out.stats.candidates_scored <= out.stats.candidates_generated);
    }
}
