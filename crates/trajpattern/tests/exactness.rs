//! Exactness of the TrajPattern miner against brute-force enumeration.
//!
//! DESIGN.md notes that the paper's Theorem 1 rests on an informal
//! induction; these tests quantify agreement empirically: on small random
//! instances the miner must return exactly the brute-force top-k (up to NM
//! ties, which are resolved by a deterministic pattern order on both
//! sides).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::{BBox, Grid, Point2};
use trajpattern::bruteforce::brute_force_top_k;
use trajpattern::{Miner, MiningParams};

/// Random walk dataset on the unit square.
fn random_dataset(seed: u64, n_traj: usize, len: usize, sigma: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_traj)
        .map(|_| {
            let mut pos = Point2::new(rng.gen::<f64>(), rng.gen::<f64>());
            let pts: Vec<SnapshotPoint> = (0..len)
                .map(|_| {
                    let step = trajgeo::Vec2::new(
                        (rng.gen::<f64>() - 0.5) * 0.3,
                        (rng.gen::<f64>() - 0.5) * 0.3,
                    );
                    pos = BBox::unit().reflect(pos + step);
                    SnapshotPoint::new(pos, sigma).unwrap()
                })
                .collect();
            Trajectory::new(pts).unwrap()
        })
        .collect()
}

/// Compare miner output to brute force on one configuration. NM ties can
/// legitimately reorder patterns at the boundary, so compare the NM value
/// sequences and require every mined NM to match the reference NM.
fn check(seed: u64, k: usize, min_len: usize, max_len: usize, sigma: f64) {
    let data = random_dataset(seed, 6, 8, sigma);
    let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
    let params = MiningParams::new(k, 0.12)
        .unwrap()
        .with_min_len(min_len)
        .unwrap()
        .with_max_len(max_len)
        .unwrap();
    let reference = brute_force_top_k(&data, &grid, &params).expect("instance small enough");
    let mined = Miner::new(&data, &grid).params(params).mine().unwrap();
    assert_eq!(
        mined.patterns.len(),
        reference.len(),
        "seed {seed}: result cardinality"
    );
    for (i, (m, r)) in mined.patterns.iter().zip(&reference).enumerate() {
        assert!(
            (m.nm - r.nm).abs() < 1e-9,
            "seed {seed}, rank {i}: mined {} (NM {}) vs brute {} (NM {})",
            m.pattern,
            m.nm,
            r.pattern,
            r.nm
        );
    }
}

#[test]
fn matches_brute_force_basic_topk() {
    for seed in 0..8 {
        check(seed, 5, 1, 3, 0.08);
    }
}

#[test]
fn matches_brute_force_with_larger_k() {
    for seed in 0..4 {
        check(seed, 20, 1, 3, 0.1);
    }
}

#[test]
fn matches_brute_force_with_min_len() {
    for seed in 0..8 {
        check(seed + 100, 4, 2, 3, 0.08);
    }
}

#[test]
fn matches_brute_force_with_min_len_three() {
    for seed in 0..4 {
        check(seed + 200, 3, 3, 3, 0.12);
    }
}

#[test]
fn matches_brute_force_with_tight_uncertainty() {
    // Small sigma concentrates probability, stressing the tail accuracy of
    // the scoring kernel.
    for seed in 0..4 {
        check(seed + 300, 5, 1, 3, 0.02);
    }
}

#[test]
fn matches_brute_force_without_prunes() {
    // The unpruned variant is the paper's literal algorithm; it must agree
    // with brute force too (and with the pruned run, covered in unit
    // tests).
    let data = random_dataset(42, 5, 8, 0.08);
    let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
    let mut params = MiningParams::new(6, 0.12).unwrap().with_max_len(3).unwrap();
    params.use_bound_prune = false;
    params.use_one_extension_prune = false;
    let reference = brute_force_top_k(&data, &grid, &params).unwrap();
    let mined = Miner::new(&data, &grid).params(params).mine().unwrap();
    for (m, r) in mined.patterns.iter().zip(&reference) {
        assert!((m.nm - r.nm).abs() < 1e-9);
    }
}

mod property {
    //! Property-test flavor: random datasets and parameters, always equal
    //! to brute force.
    use proptest::prelude::*;
    use trajdata::{Dataset, SnapshotPoint, Trajectory};
    use trajgeo::{BBox, Grid, Point2};
    use trajpattern::bruteforce::brute_force_top_k;
    use trajpattern::{Miner, MiningParams};

    fn arb_dataset() -> impl Strategy<Value = Dataset> {
        prop::collection::vec(
            prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.25), 3..8),
            1..5,
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn always_matches_brute_force(
            data in arb_dataset(),
            k in 1usize..12,
            min_len in 1usize..3,
            delta in 0.05f64..0.2,
        ) {
            let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
            let params = MiningParams::new(k, delta)
                .unwrap()
                .with_min_len(min_len)
                .unwrap()
                .with_max_len(3)
                .unwrap();
            let reference = brute_force_top_k(&data, &grid, &params)
                .expect("instance small enough");
            let mined = Miner::new(&data, &grid).params(params).mine().unwrap();
            prop_assert_eq!(mined.patterns.len(), reference.len());
            for (i, (m, r)) in mined.patterns.iter().zip(&reference).enumerate() {
                prop_assert!(
                    (m.nm - r.nm).abs() < 1e-9,
                    "rank {}: mined {} vs brute {}", i, m.nm, r.nm
                );
            }
        }
    }
}
