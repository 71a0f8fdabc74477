//! Diagnostic: how often does the pattern library fire during the Fig. 3
//! evaluation, and how accurate are its overrides?
//!
//! Usage: `cargo run -p bench --release --bin diag_fig3 [k]`

use bench::workloads::{bus_velocity_grid, bus_workload};
use datagen::observe_via_reporting;
use mobility::{LinearModel, ReportingScheme};
use prediction::{evaluate_paths_detailed, PatternLibrary};
use trajpattern::{Miner, MiningParams};

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let w = bus_workload(100, 11);
    let scheme = ReportingScheme::new(w.uncertainty, w.c, 0.0).unwrap();
    let (train, test) = w.paths.split_at(85);

    let mut observe_model = LinearModel::new();
    let locations = observe_via_reporting(train, &mut observe_model, &scheme, 11 ^ 0xf13);
    let velocities = locations.to_velocity().unwrap();
    let grid = bus_velocity_grid();
    let params = MiningParams::new(k, 0.005)
        .unwrap()
        .with_min_len(4)
        .unwrap()
        .with_max_len(8)
        .unwrap();
    let nm_out = Miner::new(&velocities, &grid)
        .params(params)
        .mine()
        .unwrap();
    let lib =
        PatternLibrary::new(nm_out.patterns.clone(), grid.clone(), 0.005, 1e-12, 0.9).unwrap();

    let mut model = LinearModel::new();
    let (result, stats) = evaluate_paths_detailed(test, &mut model, &scheme, &lib);
    println!(
        "base {} -> assisted {} ({:.1}% reduction)",
        result.base_mispredictions,
        result.assisted_mispredictions,
        result.reduction() * 100.0
    );
    println!(
        "fires {} (correct {}), at model-wrong steps {}, saved {}, hurt {} (net {:+})",
        stats.fires,
        stats.fires_correct,
        stats.fires_at_model_errors,
        stats.saved,
        stats.hurt,
        stats.net_saved()
    );
    let mut hist = std::collections::BTreeMap::new();
    for m in &nm_out.patterns {
        *hist.entry(m.pattern.len()).or_insert(0) += 1;
    }
    println!("NM pattern lengths: {hist:?}");
}
