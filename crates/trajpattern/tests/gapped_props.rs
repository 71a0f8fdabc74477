//! Property tests for the §5 gapped-pattern dynamic program
//! ([`Scorer::nm_gapped`]): the DP must agree with brute-force alignment
//! enumeration, and widening a gap must never lower the NM.

use proptest::prelude::*;
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::stats::prob_within_delta;
use trajgeo::{BBox, CellId, Grid, Point2};
use trajpattern::gapped::GappedPattern;
use trajpattern::Scorer;

const DELTA: f64 = 0.1;
const MIN_PROB: f64 = 1e-12;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.3), 3..9),
        1..4,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|pts| {
                Trajectory::new(
                    pts.into_iter()
                        .map(|(x, y, s)| SnapshotPoint::new(Point2::new(x, y), s).unwrap())
                        .collect(),
                )
                .unwrap()
            })
            .collect()
    })
}

fn dp_nm(gp: &GappedPattern, data: &Dataset, grid: &Grid) -> f64 {
    Scorer::new(data, grid, DELTA, MIN_PROB).nm_gapped(gp.positions(), gp.gaps())
}

/// Brute-force NM of a gapped pattern: enumerate every admissible
/// assignment of snapshot indices to positions.
fn brute_force_nm(gp: &GappedPattern, data: &Dataset, grid: &Grid) -> f64 {
    let floor = MIN_PROB.ln();
    let centers: Vec<Point2> = gp.positions().iter().map(|&c| grid.center(c)).collect();
    let m = centers.len();
    let mut total = 0.0;
    for traj in data.iter() {
        let l = traj.len();
        let mut best = f64::NEG_INFINITY;
        // Recursive enumeration of index assignments.
        fn rec(
            pos: usize,
            last_idx: usize,
            sum: f64,
            traj: &Trajectory,
            centers: &[Point2],
            gaps: &[(u8, u8)],
            best: &mut f64,
        ) {
            if pos == centers.len() {
                if sum > *best {
                    *best = sum;
                }
                return;
            }
            let (lo, hi) = gaps[pos - 1];
            for g in lo..=hi {
                let idx = last_idx + 1 + g as usize;
                if idx >= traj.len() {
                    continue;
                }
                let sp = &traj[idx];
                let lp = prob_within_delta(sp.mean, sp.sigma, centers[pos], DELTA)
                    .max(MIN_PROB)
                    .ln();
                rec(pos + 1, idx, sum + lp, traj, centers, gaps, best);
            }
        }
        for start in 0..l {
            let sp = &traj[start];
            let lp = prob_within_delta(sp.mean, sp.sigma, centers[0], DELTA)
                .max(MIN_PROB)
                .ln();
            if m == 1 {
                best = best.max(lp);
            } else {
                rec(1, start, lp, traj, &centers, gp.gaps(), &mut best);
            }
        }
        total += if best.is_finite() {
            best / m as f64
        } else {
            floor
        };
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_matches_brute_force(
        data in arb_dataset(),
        cells in prop::collection::vec(0u32..9, 1..4),
        gaps_raw in prop::collection::vec((0u8..3, 0u8..3), 3),
    ) {
        let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
        let gaps: Vec<(u8, u8)> = gaps_raw
            .iter()
            .take(cells.len().saturating_sub(1))
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        let gp = GappedPattern::new(
            cells.into_iter().map(CellId).collect(),
            gaps,
        ).unwrap();
        let dp = dp_nm(&gp, &data, &grid);
        let brute = brute_force_nm(&gp, &data, &grid);
        prop_assert!((dp - brute).abs() < 1e-9,
            "DP {dp} != brute {brute} for {gp}");
    }

    #[test]
    fn widening_gaps_never_hurts(
        data in arb_dataset(),
        a in 0u32..9,
        b in 0u32..9,
        lo in 0u8..2,
    ) {
        let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
        let narrow = GappedPattern::new(
            vec![CellId(a), CellId(b)], vec![(lo, lo)]).unwrap();
        let wide = GappedPattern::new(
            vec![CellId(a), CellId(b)], vec![(0, lo + 2)]).unwrap();
        let nm_narrow = dp_nm(&narrow, &data, &grid);
        let nm_wide = dp_nm(&wide, &data, &grid);
        prop_assert!(nm_wide >= nm_narrow - 1e-9,
            "widening the gap lowered NM: {nm_wide} < {nm_narrow}");
    }
}
