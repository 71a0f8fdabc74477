//! End-to-end integration: generators → reporting protocol → miner →
//! prediction, across crate boundaries.

use datagen::{observe_via_reporting, BusConfig, ZebraConfig};
use mobility::{KalmanModel, LinearModel, MotionModel, RecursiveMotionModel, ReportingScheme};
use prediction::{evaluate_paths, PatternLibrary};
use trajgeo::{BBox, Grid, Point2};
use trajpattern::{Miner, MiningParams};

#[test]
fn zebranet_to_patterns_pipeline() {
    let herd = ZebraConfig {
        num_groups: 2,
        zebras_per_group: 8,
        snapshots: 40,
        ..ZebraConfig::default()
    };
    let paths = herd.paths(1);
    let scheme = ReportingScheme::new(0.03, 2.0, 0.05).unwrap();
    let mut model = LinearModel::new();
    let data = observe_via_reporting(&paths, &mut model, &scheme, 2);
    assert_eq!(data.len(), 16);

    let grid = Grid::new(BBox::unit(), 10, 10).unwrap();
    let params = MiningParams::new(6, 0.05)
        .unwrap()
        .with_max_len(4)
        .unwrap()
        .with_gamma(0.12)
        .unwrap();
    let out = Miner::new(&data, &grid).params(params).mine().unwrap();
    assert_eq!(out.patterns.len(), 6);
    // Results sorted, finite, non-positive (log-probability means).
    for w in out.patterns.windows(2) {
        assert!(w[0].nm >= w[1].nm);
    }
    for m in &out.patterns {
        assert!(m.nm.is_finite() && m.nm <= 0.0);
    }
    // Groups partition the answer.
    let grouped: usize = out.groups.iter().map(|g| g.len()).sum();
    assert_eq!(grouped, out.patterns.len());
}

#[test]
fn bus_velocity_patterns_assist_all_three_models() {
    let fleet = BusConfig {
        days: 1,
        buses_per_route: 6,
        ..BusConfig::default()
    };
    let paths = fleet.paths_interleaved(11);
    let (train, test) = paths.split_at(25);
    let scheme = ReportingScheme::new(0.012, 2.0, 0.0).unwrap();
    let mut observer = LinearModel::new();
    let locations = observe_via_reporting(train, &mut observer, &scheme, 3);
    let velocities = locations.to_velocity().unwrap();

    let grid = Grid::new(
        BBox::new(Point2::new(-0.045, -0.045), Point2::new(0.045, 0.045)).unwrap(),
        9,
        9,
    )
    .unwrap();
    let params = MiningParams::new(60, 0.005)
        .unwrap()
        .with_min_len(4)
        .unwrap()
        .with_max_len(6)
        .unwrap();
    let mined = Miner::new(&velocities, &grid)
        .params(params)
        .mine()
        .unwrap();
    assert!(!mined.patterns.is_empty());
    let lib = PatternLibrary::new(mined.patterns, grid, 0.005, 1e-12, 0.9).unwrap();

    let models: Vec<Box<dyn MotionModel>> = vec![
        Box::new(LinearModel::new()),
        Box::new(KalmanModel::with_defaults()),
        Box::new(RecursiveMotionModel::with_defaults()),
    ];
    for mut model in models {
        let r = evaluate_paths(test, model.as_mut(), &scheme, &lib);
        assert!(
            r.base_mispredictions > 0,
            "{} never mispredicts?",
            model.name()
        );
        // Patterns must not make prediction catastrophically worse.
        assert!(
            (r.assisted_mispredictions as f64) <= r.base_mispredictions as f64 * 1.3 + 5.0,
            "{}: assisted {} vs base {}",
            model.name(),
            r.assisted_mispredictions,
            r.base_mispredictions
        );
    }
}

#[test]
fn message_loss_degrades_gracefully() {
    // The same herd observed with and without message loss: loss increases
    // the average uncertainty of the reconstructed data but mining still
    // succeeds and returns the full k.
    let herd = ZebraConfig {
        num_groups: 1,
        zebras_per_group: 10,
        snapshots: 30,
        ..ZebraConfig::default()
    };
    let paths = herd.paths(9);
    let grid = Grid::new(BBox::unit(), 8, 8).unwrap();
    let params = MiningParams::new(5, 0.06).unwrap().with_max_len(3).unwrap();

    let mut sigmas = Vec::new();
    for loss in [0.0, 0.3] {
        let scheme = ReportingScheme::new(0.03, 2.0, loss).unwrap();
        let mut model = LinearModel::new();
        let data = observe_via_reporting(&paths, &mut model, &scheme, 5);
        sigmas.push(data.stats().unwrap().avg_sigma);
        let out = Miner::new(&data, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        assert_eq!(out.patterns.len(), 5, "loss {loss}");
    }
    assert!(
        sigmas[1] >= sigmas[0],
        "loss should not reduce uncertainty: {sigmas:?}"
    );
}

#[test]
fn velocity_and_location_mining_find_different_structure() {
    // Two buses on parallel streets never share locations but share
    // velocities — the paper's §3.2 motivation for velocity trajectories.
    let make_line = |y: f64| -> Vec<Point2> {
        (0..30)
            .map(|i| Point2::new(0.05 + i as f64 * 0.03, y))
            .collect()
    };
    let paths = vec![make_line(0.2), make_line(0.8)];
    let scheme = ReportingScheme::new(0.02, 2.0, 0.0).unwrap();
    let mut model = LinearModel::new();
    let locations = observe_via_reporting(&paths, &mut model, &scheme, 8);

    // Location mining: top pattern matches at most one of the two lines.
    let grid = Grid::new(BBox::unit(), 10, 10).unwrap();
    let params = MiningParams::new(1, 0.05)
        .unwrap()
        .with_min_len(2)
        .unwrap()
        .with_max_len(2)
        .unwrap();
    let loc_out = Miner::new(&locations, &grid)
        .params(params.clone())
        .mine()
        .unwrap();

    // Velocity mining: both objects share velocity (0.03, 0) exactly, so
    // the top velocity pattern scores (near-)perfectly on both.
    let velocities = locations.to_velocity().unwrap();
    let vgrid = Grid::new(
        BBox::new(Point2::new(-0.05, -0.05), Point2::new(0.05, 0.05)).unwrap(),
        5,
        5,
    )
    .unwrap();
    let vel_out = Miner::new(&velocities, &vgrid)
        .params(params)
        .mine()
        .unwrap();

    // Per-trajectory NM: the location pattern can fit one line only, so
    // its total carries one floored trajectory; the velocity pattern fits
    // both.
    let floor = (1e-12f64).ln();
    assert!(
        loc_out.patterns[0].nm < floor / 2.0,
        "location pattern should miss one line: {}",
        loc_out.patterns[0].nm
    );
    assert!(
        vel_out.patterns[0].nm > floor / 2.0,
        "velocity pattern should fit both lines: {}",
        vel_out.patterns[0].nm
    );
}
