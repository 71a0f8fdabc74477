//! Wildcard positions and gaps (§5 of the paper).
//!
//! "It is desirable to find patterns with some wild card positions or
//! gaps. A wild card position represented by the '*' symbol can be
//! considered as a 'don't care' position … A gap can be viewed as a
//! variant number of consecutive '*'s. When computing the NM of a pattern,
//! the dynamic programming technique can be used."
//!
//! A [`GappedPattern`] is a list of specified positions with a *gap
//! constraint* between consecutive positions: position `i+1` must occur
//! between `min+1` and `max+1` snapshots after position `i` (a gap of `g`
//! means `g` wildcard snapshots in between; `(0, 0)` recovers contiguous
//! patterns). Wildcard snapshots contribute probability 1 (log 0) and do
//! **not** count toward the normalization length — otherwise padding any
//! pattern with '*'s would raise its NM for free.
//!
//! NM with flexible gaps is computed by [`Scorer::nm_gapped`], a dynamic
//! program over each trajectory's corridor tables in `O(L · m · max_gap)`.

use crate::pattern::{MinedPattern, Pattern};
use crate::scorer::Scorer;
use std::fmt;
use trajgeo::CellId;

/// A pattern with gap constraints between consecutive positions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GappedPattern {
    positions: Vec<CellId>,
    /// `gaps[i]` = (min, max) wildcard snapshots between positions i, i+1.
    gaps: Vec<(u8, u8)>,
}

/// Errors constructing a [`GappedPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GappedError {
    /// A gapped pattern needs at least one position.
    Empty,
    /// There must be exactly `positions.len() - 1` gap constraints.
    GapCountMismatch,
    /// A gap constraint had `min > max`.
    InvalidGap {
        /// Which gap constraint is invalid.
        index: usize,
    },
}

impl fmt::Display for GappedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GappedError::Empty => write!(f, "gapped pattern needs at least one position"),
            GappedError::GapCountMismatch => {
                write!(f, "need exactly positions-1 gap constraints")
            }
            GappedError::InvalidGap { index } => {
                write!(f, "gap constraint {index} has min > max")
            }
        }
    }
}

impl std::error::Error for GappedError {}

impl GappedPattern {
    /// Builds a gapped pattern from positions and per-adjacency gap
    /// bounds.
    pub fn new(positions: Vec<CellId>, gaps: Vec<(u8, u8)>) -> Result<GappedPattern, GappedError> {
        if positions.is_empty() {
            return Err(GappedError::Empty);
        }
        if gaps.len() + 1 != positions.len() {
            return Err(GappedError::GapCountMismatch);
        }
        if let Some(index) = gaps.iter().position(|&(lo, hi)| lo > hi) {
            return Err(GappedError::InvalidGap { index });
        }
        Ok(GappedPattern { positions, gaps })
    }

    /// A contiguous pattern (all gaps `(0,0)`).
    pub fn contiguous(pattern: &Pattern) -> GappedPattern {
        GappedPattern {
            positions: pattern.cells().to_vec(),
            gaps: vec![(0, 0); pattern.len() - 1],
        }
    }

    /// Number of *specified* positions (the normalization length `m`).
    pub fn num_positions(&self) -> usize {
        self.positions.len()
    }

    /// The specified positions.
    pub fn positions(&self) -> &[CellId] {
        &self.positions
    }

    /// The gap constraints.
    pub fn gaps(&self) -> &[(u8, u8)] {
        &self.gaps
    }

    /// Minimum number of snapshots the pattern spans.
    pub fn min_span(&self) -> usize {
        self.positions.len() + self.gaps.iter().map(|&(lo, _)| lo as usize).sum::<usize>()
    }
}

impl fmt::Display for GappedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.positions.iter().enumerate() {
            if i > 0 {
                let (lo, hi) = self.gaps[i - 1];
                write!(f, ", ")?;
                if lo == hi {
                    for _ in 0..lo {
                        write!(f, "*, ")?;
                    }
                } else if hi > 0 {
                    write!(f, "*{{{lo},{hi}}}, ")?;
                }
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A gapped pattern with its NM.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MinedGappedPattern {
    /// The pattern.
    pub pattern: GappedPattern,
    /// Its NM over the dataset it was mined from.
    pub nm: f64,
}

/// §5 wildcard *mining*: starts from the contiguous top-k and repeatedly
/// joins the current pool's patterns with `1..=max_gap` wildcards between
/// them, keeping the best `k` gapped patterns, until a fixpoint (or the
/// iteration cap). Scoring reuses the [`Scorer`]'s per-cell probability
/// rows, so each join costs one DP pass over the data.
///
/// This realizes the paper's "for each pattern P in Q, we can add between
/// 0 and d '*' symbols" as a post-mining growing process; leading/trailing
/// wildcards are omitted because under length normalization they only
/// restrict the alignment without adding information.
pub fn mine_gapped(
    scorer: &Scorer<'_>,
    base: &[MinedPattern],
    max_gap: u8,
    k: usize,
    max_iters: usize,
) -> Vec<MinedGappedPattern> {
    let mut pool: Vec<MinedGappedPattern> = base
        .iter()
        .map(|m| MinedGappedPattern {
            pattern: GappedPattern::contiguous(&m.pattern),
            nm: m.nm,
        })
        .collect();
    sort_dedup_truncate(&mut pool, k);
    if max_gap == 0 {
        return pool;
    }

    let mut seen: std::collections::HashSet<GappedPattern> =
        pool.iter().map(|m| m.pattern.clone()).collect();
    for _ in 0..max_iters {
        let snapshot = pool.clone();
        let mut grew = false;
        for a in &snapshot {
            for b in &snapshot {
                for g in 1..=max_gap {
                    let joined = join_gapped(&a.pattern, &b.pattern, g);
                    if !seen.insert(joined.clone()) {
                        continue;
                    }
                    let nm = scorer.nm_gapped(joined.positions(), joined.gaps());
                    pool.push(MinedGappedPattern {
                        pattern: joined,
                        nm,
                    });
                    grew = true;
                }
            }
        }
        sort_dedup_truncate(&mut pool, k);
        if !grew {
            break;
        }
        // Fixpoint check: if the pool didn't change, stop.
        if pool.len() == snapshot.len()
            && pool
                .iter()
                .zip(&snapshot)
                .all(|(x, y)| x.pattern == y.pattern)
        {
            break;
        }
    }
    pool
}

/// Joins two gapped patterns with a fixed run of `g` wildcards between
/// them.
fn join_gapped(a: &GappedPattern, b: &GappedPattern, g: u8) -> GappedPattern {
    let mut positions = a.positions().to_vec();
    positions.extend_from_slice(b.positions());
    let mut gaps = a.gaps().to_vec();
    gaps.push((g, g));
    gaps.extend_from_slice(b.gaps());
    GappedPattern::new(positions, gaps).expect("joining valid patterns is valid")
}

fn sort_dedup_truncate(pool: &mut Vec<MinedGappedPattern>, k: usize) {
    pool.sort_by(|x, y| {
        y.nm.partial_cmp(&x.nm)
            .expect("NM values are finite")
            .then_with(|| x.pattern.positions().cmp(y.pattern.positions()))
            .then_with(|| x.pattern.gaps().cmp(y.pattern.gaps()))
    });
    pool.dedup_by(|a, b| a.pattern == b.pattern);
    pool.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::Scorer;
    use trajdata::{Dataset, SnapshotPoint, Trajectory};
    use trajgeo::{BBox, Grid, Point2};

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| CellId(i)).collect()).unwrap()
    }

    /// `a`, then `g` wildcards, then `b`.
    fn join(a: &[u32], b: &[u32], g: u8) -> GappedPattern {
        join_gapped(
            &GappedPattern::contiguous(&pat(a)),
            &GappedPattern::contiguous(&pat(b)),
            g,
        )
    }

    fn nm(scorer: &Scorer<'_>, gp: &GappedPattern) -> f64 {
        scorer.nm_gapped(gp.positions(), gp.gaps())
    }

    /// 5×1 grid; objects visit cells 0,1,2,3,4 — except the middle snapshot
    /// wanders unpredictably (uniformly different rows per object).
    fn detour_data() -> (Dataset, Grid) {
        let grid = Grid::new(
            BBox::new(Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)).unwrap(),
            5,
            5,
        )
        .unwrap();
        let data: Dataset = (0..6)
            .map(|i| {
                let detour_y = 0.5 + (i % 5) as f64; // varies per object
                Trajectory::new(vec![
                    SnapshotPoint::new(Point2::new(0.5, 0.5), 0.1).unwrap(),
                    SnapshotPoint::new(Point2::new(1.5, 0.5), 0.1).unwrap(),
                    SnapshotPoint::new(Point2::new(2.5, detour_y), 0.1).unwrap(),
                    SnapshotPoint::new(Point2::new(3.5, 0.5), 0.1).unwrap(),
                    SnapshotPoint::new(Point2::new(4.5, 0.5), 0.1).unwrap(),
                ])
                .unwrap()
            })
            .collect();
        (data, grid)
    }

    #[test]
    fn engine_parity_with_zero_gap() {
        // mine_gapped with max_gap = 0 over the shared growing engine's
        // contiguous top-k returns that top-k, bit-for-bit — the gapped
        // miner extends mine_with_scorer, it does not re-implement the loop.
        let (data, grid) = detour_data();
        let params = crate::params::MiningParams::new(6, 0.4)
            .unwrap()
            .with_max_len(4)
            .unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let base = crate::algorithm::mine_with_scorer(&scorer, &params).unwrap();
        let gapped = mine_gapped(&scorer, &base.patterns, 0, params.k, 8);
        assert_eq!(gapped.len(), base.patterns.len());
        for (g, m) in gapped.iter().zip(&base.patterns) {
            assert_eq!(g.pattern, GappedPattern::contiguous(&m.pattern));
            assert_eq!(g.nm.to_bits(), m.nm.to_bits());
        }
    }

    #[test]
    fn gapped_topk_grows_wildcards_over_the_engine_base() {
        // End-to-end: wildcard growth over the engine's contiguous base
        // finds the detour-bridging pattern the base cannot express.
        let (data, grid) = detour_data();
        let params = crate::params::MiningParams::new(4, 0.4)
            .unwrap()
            .with_max_len(4)
            .unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let base = crate::algorithm::mine_with_scorer(&scorer, &params).unwrap();
        let out = mine_gapped(&scorer, &base.patterns, 1, params.k, 8);
        assert!(!out.is_empty());
        assert!(
            out.iter()
                .any(|m| !m.pattern.gaps().iter().all(|&(lo, hi)| lo == 0 && hi == 0)),
            "expected at least one genuinely gapped pattern in the top-k"
        );
        for w in out.windows(2) {
            assert!(w[0].nm >= w[1].nm);
        }
    }

    #[test]
    fn construction_validates() {
        assert_eq!(GappedPattern::new(vec![], vec![]), Err(GappedError::Empty));
        assert_eq!(
            GappedPattern::new(vec![CellId(0), CellId(1)], vec![]),
            Err(GappedError::GapCountMismatch)
        );
        assert_eq!(
            GappedPattern::new(vec![CellId(0), CellId(1)], vec![(3, 1)]),
            Err(GappedError::InvalidGap { index: 0 })
        );
        let ok = GappedPattern::new(vec![CellId(0), CellId(1)], vec![(0, 2)]).unwrap();
        assert_eq!(ok.min_span(), 2);
    }

    #[test]
    fn contiguous_gapped_matches_plain_nm() {
        let (data, grid) = detour_data();
        let p = pat(&[0, 1]);
        let scorer = Scorer::new(&data, &grid, 0.4, 1e-12);
        let plain = scorer.nm(&p);
        let gapped = nm(&scorer, &GappedPattern::contiguous(&p));
        assert!(
            (plain - gapped).abs() < 1e-9,
            "plain {plain} vs gapped {gapped}"
        );
    }

    #[test]
    fn wildcard_bridges_the_detour() {
        // Cells along the bottom row are 0,1,2,3,4. The contiguous pattern
        // (0,1,2,3,4) is hurt by the detour at snapshot 2; the gapped
        // pattern (0,1,*,3,4) skips it.
        let (data, grid) = detour_data();
        let scorer = Scorer::new(&data, &grid, 0.4, 1e-12);
        let nm_contig = nm(&scorer, &GappedPattern::contiguous(&pat(&[0, 1, 2, 3, 4])));
        let nm_skip = nm(&scorer, &join(&[0, 1], &[3, 4], 1));
        assert!(
            nm_skip > nm_contig,
            "skipping {nm_skip} should beat contiguous {nm_contig}"
        );
    }

    #[test]
    fn flexible_gap_at_least_as_good_as_any_fixed_gap() {
        let (data, grid) = detour_data();
        let scorer = Scorer::new(&data, &grid, 0.4, 1e-12);
        let flexible = GappedPattern::new(
            vec![CellId(0), CellId(1), CellId(3), CellId(4)],
            vec![(0, 0), (0, 2), (0, 0)],
        )
        .unwrap();
        let nm_flex = nm(&scorer, &flexible);
        for g in 0..=2u8 {
            let nm_fixed = nm(&scorer, &join(&[0, 1], &[3, 4], g));
            assert!(
                nm_flex >= nm_fixed - 1e-9,
                "flex {nm_flex} < fixed(g={g}) {nm_fixed}"
            );
        }
    }

    #[test]
    fn too_short_trajectory_scores_floor() {
        let grid = Grid::new(BBox::unit(), 2, 2).unwrap();
        let data: Dataset = vec![Trajectory::from_exact([Point2::new(0.25, 0.25)])]
            .into_iter()
            .collect();
        let gp = join(&[0], &[1], 2);
        assert_eq!(gp.min_span(), 4);
        let score = nm(&Scorer::new(&data, &grid, 0.1, 1e-12), &gp);
        assert!((score - (1e-12f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mine_gapped_finds_the_detour_bridge() {
        let (data, grid) = detour_data();
        let scorer = Scorer::new(&data, &grid, 0.4, 1e-12);
        let base: Vec<MinedPattern> = [&[0u32, 1][..], &[3, 4][..], &[0, 1, 2, 3, 4][..]]
            .iter()
            .map(|ids| {
                let p = pat(ids);
                let nm = scorer.nm(&p);
                MinedPattern::new(p, nm)
            })
            .collect();
        let mined = mine_gapped(&scorer, &base, 2, 4, 3);
        assert_eq!(mined.len(), 4);
        for w in mined.windows(2) {
            assert!(w[0].nm >= w[1].nm);
        }
        // The wildcard bridge (0,1,*,3,4) must beat the contiguous
        // detour-crossing pattern and appear in the gapped top-k.
        let has_bridge = mined.iter().any(|m| {
            m.pattern.positions().len() == 4
                && m.pattern.gaps().iter().any(|&(lo, hi)| lo == 1 && hi == 1)
        });
        assert!(has_bridge, "expected a bridged pattern in {mined:?}");
    }

    #[test]
    fn mine_gapped_zero_gap_returns_base() {
        let (data, grid) = detour_data();
        let scorer = Scorer::new(&data, &grid, 0.4, 1e-12);
        let p = pat(&[0, 1]);
        let base = vec![MinedPattern::new(p.clone(), scorer.nm(&p))];
        let mined = mine_gapped(&scorer, &base, 0, 5, 3);
        assert_eq!(mined.len(), 1);
        assert_eq!(mined[0].pattern, GappedPattern::contiguous(&p));
    }

    #[test]
    fn display_shows_wildcards() {
        assert_eq!(join(&[1], &[2], 2).to_string(), "(c1, *, *, c2)");
        let flex = GappedPattern::new(vec![CellId(1), CellId(2)], vec![(0, 3)]).unwrap();
        assert_eq!(flex.to_string(), "(c1, *{0,3}, c2)");
    }
}
