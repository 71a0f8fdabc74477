//! The paper's §6.1 motivating scenario: a bus fleet whose velocity
//! patterns improve location prediction.
//!
//! Generates bus traces, mines velocity patterns by NM, and shows how much
//! the patterns reduce the mis-predictions of three prediction modules
//! (LM, LKF, RMF) on held-out buses — a small-scale Fig. 3.
//!
//! Run with: `cargo run --release --example bus_routes`

use datagen::{observe_via_reporting, BusConfig};
use mobility::{KalmanModel, LinearModel, MotionModel, RecursiveMotionModel, ReportingScheme};
use prediction::{evaluate_paths, PatternLibrary};
use trajgeo::{BBox, Grid, Point2};
use trajpattern::{Miner, MiningParams};

fn main() {
    // A reduced fleet: 5 routes x 10 buses x 2 days = 100 traces.
    let fleet = BusConfig {
        days: 2,
        ..BusConfig::default()
    };
    let paths = fleet.paths_interleaved(11);
    let (train, test) = paths.split_at(85);
    println!(
        "{} training traces, {} test traces",
        train.len(),
        test.len()
    );

    // Observe the training traces through the reporting protocol and move
    // to velocity space (two buses on different streets share velocity
    // motifs even though their locations never coincide — Section 3.2).
    let scheme = ReportingScheme::new(0.012, 2.0, 0.0).expect("valid scheme");
    let mut observer = LinearModel::new();
    let locations = observe_via_reporting(train, &mut observer, &scheme, 13);
    let velocities = locations.to_velocity().expect("traces are long enough");

    // Velocity grid: 9x9 cells of 0.01 centered on zero velocity.
    let grid = Grid::new(
        BBox::new(Point2::new(-0.045, -0.045), Point2::new(0.045, 0.045)).unwrap(),
        9,
        9,
    )
    .unwrap();

    let params = MiningParams::new(300, 0.005)
        .expect("valid params")
        .with_min_len(4)
        .expect("valid params")
        .with_max_len(8)
        .expect("valid params");
    let mined = Miner::new(&velocities, &grid)
        .params(params)
        .mine()
        .expect("mining succeeds");
    let avg_len: f64 = mined
        .patterns
        .iter()
        .map(|m| m.pattern.len())
        .sum::<usize>() as f64
        / mined.patterns.len().max(1) as f64;
    println!(
        "mined {} velocity patterns (avg length {:.2})",
        mined.patterns.len(),
        avg_len
    );

    let library =
        PatternLibrary::new(mined.patterns, grid, 0.005, 1e-12, 0.9).expect("valid library");

    println!("\nmis-prediction reduction on held-out buses:");
    let models: Vec<Box<dyn MotionModel>> = vec![
        Box::new(LinearModel::new()),
        Box::new(KalmanModel::with_defaults()),
        Box::new(RecursiveMotionModel::with_defaults()),
    ];
    for mut model in models {
        let r = evaluate_paths(test, model.as_mut(), &scheme, &library);
        println!(
            "  {:<4} base {:>4} -> assisted {:>4}  ({:+.1}% reduction)",
            model.name(),
            r.base_mispredictions,
            r.assisted_mispredictions,
            r.reduction() * 100.0
        );
    }
}
