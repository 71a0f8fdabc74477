//! Exhaustive reference miner, for correctness testing.
//!
//! Enumerates *every* pattern up to `max_len` over the grid and ranks by
//! NM. Exponential in pattern length (`G^len` candidates) — usable only on
//! tiny instances, which is exactly its job: the integration tests compare
//! [`crate::Miner`] and the baseline miners against this ground truth.

use crate::params::MiningParams;
use crate::pattern::{MinedPattern, Pattern};
use crate::scorer::Scorer;
use trajdata::Dataset;
use trajgeo::{CellId, Grid};

/// Upper bound on the number of patterns the brute-force enumeration will
/// evaluate before refusing (protects tests from accidental explosions).
pub const MAX_ENUMERATION: u64 = 5_000_000;

/// Exhaustively mines the top-k patterns by NM. Returns `None` if the
/// enumeration would exceed [`MAX_ENUMERATION`] patterns.
///
/// Honors `params.k`, `params.delta`, `params.min_prob`, `params.min_len`
/// and `params.max_len`; pruning flags are irrelevant here.
pub fn brute_force_top_k(
    data: &Dataset,
    grid: &Grid,
    params: &MiningParams,
) -> Option<Vec<MinedPattern>> {
    let g = grid.num_cells() as u64;
    if g == 0 || data.is_empty() {
        return Some(Vec::new());
    }
    let data_max_len = data.iter().map(|t| t.len()).max().unwrap_or(0);
    let max_len = params.max_len.min(data_max_len.max(1));

    // Count the enumeration size: Σ_{len=min..=max} G^len.
    let mut total: u64 = 0;
    let mut pow: u64 = 1;
    for len in 1..=max_len {
        pow = pow.checked_mul(g)?;
        if len >= params.min_len {
            total = total.checked_add(pow)?;
        }
        if total > MAX_ENUMERATION {
            return None;
        }
    }

    let scorer = Scorer::new(data, grid, params.delta, params.min_prob);
    let mut all: Vec<MinedPattern> = Vec::new();
    let mut cells: Vec<CellId> = Vec::new();
    for len in params.min_len..=max_len {
        enumerate(grid, len, &mut cells, &scorer, &mut all);
    }
    all.sort_unstable_by(|a, b| {
        b.nm.partial_cmp(&a.nm)
            .expect("NM values are finite")
            .then_with(|| a.pattern.cmp(&b.pattern))
    });
    all.truncate(params.k);
    Some(all)
}

fn enumerate(
    grid: &Grid,
    remaining: usize,
    cells: &mut Vec<CellId>,
    scorer: &Scorer<'_>,
    out: &mut Vec<MinedPattern>,
) {
    if remaining == 0 {
        let p = Pattern::new(cells.clone()).expect("non-empty by construction");
        let nm = scorer.nm(&p);
        out.push(MinedPattern::new(p, nm));
        return;
    }
    for cell in grid.cells() {
        cells.push(cell);
        enumerate(grid, remaining - 1, cells, scorer, out);
        cells.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::{SnapshotPoint, Trajectory};
    use trajgeo::{BBox, Point2};

    fn tiny() -> (Dataset, Grid) {
        let grid = Grid::new(BBox::unit(), 3, 1).unwrap();
        let data: Dataset = (0..4)
            .map(|_| {
                Trajectory::new(
                    (0..3)
                        .map(|i| {
                            SnapshotPoint::new(Point2::new(1.0 / 6.0 + i as f64 / 3.0, 0.5), 0.05)
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
    fn top_pattern_on_clean_sweep_is_the_path() {
        let (data, grid) = tiny();
        let params = MiningParams::new(1, 0.15)
            .unwrap()
            .with_min_len(3)
            .unwrap()
            .with_max_len(3)
            .unwrap();
        let top = brute_force_top_k(&data, &grid, &params).unwrap();
        assert_eq!(top.len(), 1);
        let cells: Vec<u32> = top[0].pattern.cells().iter().map(|c| c.0).collect();
        assert_eq!(cells, vec![0, 1, 2]);
    }

    #[test]
    fn refuses_oversized_enumeration() {
        let grid = Grid::new(BBox::unit(), 100, 100).unwrap();
        let (data, _) = tiny();
        let params = MiningParams::new(1, 0.1).unwrap().with_max_len(4).unwrap();
        assert!(brute_force_top_k(&data, &grid, &params).is_none());
    }

    #[test]
    fn result_is_sorted_and_respects_k() {
        let (data, grid) = tiny();
        let params = MiningParams::new(5, 0.15).unwrap().with_max_len(2).unwrap();
        let top = brute_force_top_k(&data, &grid, &params).unwrap();
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].nm >= w[1].nm);
        }
    }

    #[test]
    fn empty_dataset_is_empty() {
        let grid = Grid::new(BBox::unit(), 2, 2).unwrap();
        let params = MiningParams::new(3, 0.1).unwrap();
        assert_eq!(
            brute_force_top_k(&Dataset::new(), &grid, &params),
            Some(Vec::new())
        );
    }
}
