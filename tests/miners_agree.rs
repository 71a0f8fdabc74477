//! Cross-miner consistency on realistic workloads: TrajPattern, the PB
//! baseline and brute force must rank the same top-k NM values.

use datagen::{observe_directly, UniformConfig, ZebraConfig};
use trajgeo::{BBox, Grid};
use trajpattern::bruteforce::brute_force_top_k;
use trajpattern::{Miner, MiningParams};

fn assert_same_nms(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: cardinality");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < 1e-9, "{label}: rank {i}: {x} vs {y}");
    }
}

#[test]
fn trajpattern_equals_pb_on_multi_herd_zebranet() {
    let cfg = ZebraConfig {
        num_groups: 2,
        zebras_per_group: 6,
        snapshots: 20,
        ..ZebraConfig::default()
    };
    let data = observe_directly(&cfg.paths(3), 0.02, 4);
    let grid = Grid::new(BBox::unit(), 6, 6).unwrap();
    let params = MiningParams::new(8, 0.06).unwrap().with_max_len(3).unwrap();

    let ours: Vec<f64> = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .unwrap()
        .patterns
        .iter()
        .map(|m| m.nm)
        .collect();
    let pb: Vec<f64> = baselines::mine_pb(&data, &grid, &params)
        .unwrap()
        .patterns
        .iter()
        .map(|m| m.nm)
        .collect();
    assert_same_nms(&ours, &pb, "zebranet");
}

#[test]
fn trajpattern_equals_brute_force_on_uniform_objects() {
    let cfg = UniformConfig {
        num_objects: 8,
        snapshots: 15,
        ..UniformConfig::default()
    };
    let data = observe_directly(&cfg.paths(7), 0.02, 8);
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(10, 0.1).unwrap().with_max_len(3).unwrap();

    let ours: Vec<f64> = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .unwrap()
        .patterns
        .iter()
        .map(|m| m.nm)
        .collect();
    let brute: Vec<f64> = brute_force_top_k(&data, &grid, &params)
        .expect("small enough")
        .iter()
        .map(|m| m.nm)
        .collect();
    assert_same_nms(&ours, &brute, "uniform");
}

#[test]
fn all_three_agree_with_min_len_constraint() {
    let cfg = ZebraConfig {
        num_groups: 1,
        zebras_per_group: 8,
        snapshots: 18,
        ..ZebraConfig::default()
    };
    let data = observe_directly(&cfg.paths(12), 0.02, 13);
    let grid = Grid::new(BBox::unit(), 5, 5).unwrap();
    let params = MiningParams::new(6, 0.08)
        .unwrap()
        .with_min_len(2)
        .unwrap()
        .with_max_len(3)
        .unwrap();

    let ours: Vec<f64> = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .unwrap()
        .patterns
        .iter()
        .map(|m| m.nm)
        .collect();
    let pb: Vec<f64> = baselines::mine_pb(&data, &grid, &params)
        .unwrap()
        .patterns
        .iter()
        .map(|m| m.nm)
        .collect();
    let brute: Vec<f64> = brute_force_top_k(&data, &grid, &params)
        .expect("small enough")
        .iter()
        .map(|m| m.nm)
        .collect();
    assert_same_nms(&ours, &brute, "vs brute");
    assert_same_nms(&pb, &brute, "pb vs brute");
}

#[test]
fn match_miner_top_patterns_have_nonincreasing_match_under_extension() {
    // Apriori sanity on a real workload: every mined pattern's match is
    // bounded by the match of its length-1-shorter sub-patterns.
    let cfg = ZebraConfig {
        num_groups: 2,
        zebras_per_group: 5,
        snapshots: 20,
        ..ZebraConfig::default()
    };
    let data = observe_directly(&cfg.paths(21), 0.02, 22);
    let grid = Grid::new(BBox::unit(), 6, 6).unwrap();
    let params = MiningParams::new(12, 0.06)
        .unwrap()
        .with_max_len(3)
        .unwrap();
    let out = baselines::mine_match(&data, &grid, &params).unwrap();
    assert!(!out.patterns.is_empty());

    let scorer = trajpattern::Scorer::new(&data, &grid, 0.06, 1e-12);
    for m in &out.patterns {
        for sub in [m.pattern.drop_first(), m.pattern.drop_last()]
            .into_iter()
            .flatten()
        {
            let sub_match = scorer.match_score(&sub);
            assert!(
                sub_match >= m.match_value - 1e-9,
                "Apriori violated: {} ({}) ⊃ {} ({})",
                m.pattern,
                m.match_value,
                sub,
                sub_match
            );
        }
    }
}
