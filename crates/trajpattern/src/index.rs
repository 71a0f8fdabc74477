//! Pattern spatial index: which patterns can a trajectory come near?
//!
//! [`PatternIndex`] stores, per pattern, the axis-aligned rectangle
//! enclosing the pattern's cell centers, in a
//! [`HybridIndex`](trajgeo::index::HybridIndex) (geohash buckets for the
//! compact majority, an STR R-tree for long spans). A query asks: which
//! patterns intersect a trajectory's *probability corridor* — the
//! bounding box of its snapshot means expanded by the largest `δ + 8σ`
//! radius any snapshot carries?
//!
//! The answer is conservative in exactly the direction scoring needs.
//! If a pattern's rectangle misses the corridor, every one of its cell
//! centers is farther (in L∞) than `δ + 8σ` from every snapshot mean, so
//! by the corridor invariant (see `Scorer::nm_all_singulars`) every
//! position probability is clamped to the floor and the pattern's score
//! is a closed-form function of the pattern and trajectory lengths. False
//! positives merely get scored normally. Either way the result is
//! bit-identical to an unindexed run.
//!
//! This is a reference path, not a production one. The growth engine,
//! the stream ledger and the server's `/v1` routes all score unindexed:
//! on the measured workloads the index proved almost no pattern far, so
//! it only added its build and query cost (DESIGN.md §12). It stays
//! public and exact because the benchmark times it and checks `/v1/score`
//! answers against it.

use crate::pattern::Pattern;
use trajdata::Dataset;
use trajgeo::index::{HybridIndex, Rect};
use trajgeo::Grid;

/// `Grid::cells_within` widens its radius by `r·1e-9 + 1e-12` to absorb
/// floating-point noise; the index widens strictly more so its notion of
/// "far" never contradicts the corridor scan's.
fn widen(r: f64) -> f64 {
    r * (1.0 + 1e-6) + 1e-9
}

/// A spatial index over one batch of patterns (entry `i` ↔ pattern `i`).
#[derive(Debug, Clone)]
pub struct PatternIndex {
    index: HybridIndex,
    len: usize,
}

impl PatternIndex {
    /// Indexes every pattern of `batch` by the bounding box of its cell
    /// centers on `grid`.
    pub fn build(batch: &[Pattern], grid: &Grid) -> PatternIndex {
        let entries = batch
            .iter()
            .enumerate()
            .map(|(i, pattern)| {
                let mut cells = pattern.cells().iter();
                let first = cells.next().expect("patterns are non-empty");
                let rect = cells.fold(Rect::point(grid.center(*first)), |r, &c| {
                    r.union(Rect::point(grid.center(c)))
                });
                (rect, i as u32)
            })
            .collect();
        PatternIndex {
            index: HybridIndex::build(entries),
            len: batch.len(),
        }
    }

    /// Number of indexed patterns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-pattern mask: `true` if some trajectory's probability corridor
    /// reaches the pattern's rectangle (the pattern *may* score above
    /// all-floor), `false` if the pattern is provably at the floor for
    /// every position of every trajectory.
    pub fn candidates(&self, data: &Dataset, delta: f64) -> Vec<bool> {
        let mut mask = vec![false; self.len];
        for traj in data.trajectories() {
            let points = traj.points();
            let Some(first) = points.first() else {
                continue;
            };
            let mut rect = Rect::point(first.mean);
            let mut radius = 0.0f64;
            for sp in points {
                rect = rect.union(Rect::point(sp.mean));
                radius = radius.max(delta + 8.0 * sp.sigma);
            }
            for id in self.index.query(&rect.expanded(widen(radius))) {
                mask[id as usize] = true;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::{SnapshotPoint, Trajectory};
    use trajgeo::{BBox, CellId, Point2};

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| CellId(i)).collect()).unwrap()
    }

    fn sweep(y: f64, sigma: f64) -> Trajectory {
        Trajectory::new(
            (0..4)
                .map(|i| {
                    SnapshotPoint::new(Point2::new(0.125 + i as f64 * 0.25, y), sigma).unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn far_patterns_are_excluded_and_near_ones_kept() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let data: Dataset = vec![sweep(0.625, 0.01)].into_iter().collect();
        // Row y=0.625 is cells 8..12; row y=0.125 (cells 0..4) is 0.5 away
        // — far beyond δ + 8σ = 0.13.
        let batch = [pat(&[8, 9, 10, 11]), pat(&[0, 1]), pat(&[9]), pat(&[3])];
        let index = PatternIndex::build(&batch, &grid);
        assert_eq!(index.len(), 4);
        let mask = index.candidates(&data, 0.05);
        assert_eq!(mask, vec![true, false, true, false]);
    }

    #[test]
    fn huge_sigma_makes_everything_a_candidate() {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let data: Dataset = vec![sweep(0.625, 0.5)].into_iter().collect();
        let batch = [pat(&[0]), pat(&[15]), pat(&[3, 7])];
        let mask = PatternIndex::build(&batch, &grid).candidates(&data, 0.05);
        assert!(mask.iter().all(|&m| m), "corridor covers the whole grid");
    }

    #[test]
    fn candidate_set_is_a_superset_of_cells_within() {
        // Every cell the corridor scan reaches must be a candidate as a
        // singular pattern — the conservative direction the scorer needs.
        let grid = Grid::new(BBox::unit(), 8, 8).unwrap();
        let data: Dataset = vec![sweep(0.40625, 0.06)].into_iter().collect();
        let batch: Vec<Pattern> = grid.cells().map(Pattern::singular).collect();
        let delta = 0.07;
        let mask = PatternIndex::build(&batch, &grid).candidates(&data, delta);
        for traj in data.trajectories() {
            for sp in traj.points() {
                for cell in grid.cells_within(sp.mean, delta + 8.0 * sp.sigma) {
                    assert!(mask[cell.index()], "cell {cell} reached but not candidate");
                }
            }
        }
    }
}
