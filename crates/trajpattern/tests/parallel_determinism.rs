//! Property tests for the sharded batch scorer: for random datasets,
//! grids, and pattern batches, scoring with 2 or 4 worker threads must be
//! **bit-identical** to sequential scoring — the fixed-order reduction
//! over trajectory shards (DESIGN.md §5) guarantees it, and this suite
//! enforces it.

use proptest::prelude::*;
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::{BBox, CellId, Grid, Point2};
use trajpattern::pattern::Pattern;
use trajpattern::Scorer;

const MIN_PROB: f64 = 1e-12;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.3), 3..9),
        1..24,
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

fn arb_patterns(num_cells: u32) -> impl Strategy<Value = Vec<Pattern>> {
    prop::collection::vec(prop::collection::vec(0u32..num_cells, 1..5), 1..8).prop_map(|batches| {
        batches
            .into_iter()
            .map(|cells| Pattern::new(cells.into_iter().map(CellId).collect()).unwrap())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_nm_scores_are_bit_identical(
        data in arb_dataset(),
        patterns in arb_patterns(16),
        nx in 2u32..5,
        ny in 2u32..5,
        delta in 0.02f64..0.2,
    ) {
        let grid = Grid::new(BBox::unit(), nx, ny).unwrap();
        let patterns: Vec<Pattern> = patterns
            .into_iter()
            .filter(|p| p.cells().iter().all(|c| c.0 < grid.num_cells()))
            .collect();
        let sequential = Scorer::new(&data, &grid, delta, MIN_PROB);
        let seq_nm = sequential.score_batch(&patterns);
        let seq_match = sequential.score_batch_match(&patterns);
        let seq_singulars = sequential.nm_all_singulars();
        for threads in [2usize, 4] {
            let parallel = Scorer::with_threads(&data, &grid, delta, MIN_PROB, threads);
            let par_nm = parallel.score_batch(&patterns);
            let par_match = parallel.score_batch_match(&patterns);
            for (s, p) in seq_nm.iter().zip(&par_nm) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
            for (s, p) in seq_match.iter().zip(&par_match) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
            let par_singulars = parallel.nm_all_singulars();
            for (s, p) in seq_singulars.iter().zip(&par_singulars) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn parallel_mining_outcomes_are_bit_identical(
        data in arb_dataset(),
        k in 1usize..6,
        delta in 0.05f64..0.2,
    ) {
        let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
        let params = trajpattern::MiningParams::new(k, delta)
            .unwrap()
            .with_max_len(3)
            .unwrap();
        let seq = trajpattern::Miner::new(&data, &grid).params(params.clone()).mine().unwrap();
        for threads in [2usize, 4] {
            let par_params = params.clone().with_threads(threads).unwrap();
            let par = trajpattern::Miner::new(&data, &grid).params(par_params).mine().unwrap();
            prop_assert_eq!(seq.patterns.len(), par.patterns.len());
            for (a, b) in seq.patterns.iter().zip(&par.patterns) {
                prop_assert_eq!(&a.pattern, &b.pattern);
                prop_assert_eq!(a.nm.to_bits(), b.nm.to_bits());
            }
            prop_assert_eq!(&seq.stats, &par.stats);
        }
    }
}
