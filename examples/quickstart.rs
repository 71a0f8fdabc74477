//! Quickstart: the full TrajPattern pipeline in ~80 lines.
//!
//! 1. Simulate mobile objects (a small zebra herd).
//! 2. Observe them through the dead-reckoning reporting protocol — the
//!    server only ever sees *imprecise* trajectories.
//! 3. Mine the top-k normalized-match patterns and their pattern groups.
//!
//! Run with: `cargo run --release --example quickstart`

use datagen::{observe_via_reporting, ZebraConfig};
use mobility::{LinearModel, ReportingScheme};
use trajgeo::{BBox, Grid};
use trajpattern::{Miner, MiningParams};

fn main() {
    // --- 1. Ground truth: two herds of zebras roaming the unit square.
    let herd = ZebraConfig {
        num_groups: 2,
        zebras_per_group: 15,
        snapshots: 60,
        ..ZebraConfig::default()
    };
    let paths = herd.paths(42);
    println!("simulated {} zebras for {} snapshots", paths.len(), 60);

    // --- 2. The server tracks each zebra with a linear dead-reckoning
    // model: a zebra reports only when it drifts more than U = 0.03 from
    // the prediction; in between, the server knows its position only as a
    // normal distribution with sigma = U/c.
    let scheme = ReportingScheme::new(0.03, 2.0, 0.0).expect("valid scheme");
    let mut model = LinearModel::new();
    let data = observe_via_reporting(&paths, &mut model, &scheme, 7);
    let stats = data.stats().expect("non-empty dataset");
    println!(
        "server reconstructed {} imprecise trajectories (avg sigma {:.4})",
        stats.num_trajectories, stats.avg_sigma
    );

    // --- 3. Mine the top-10 patterns over a 12x12 grid, grouping similar
    // patterns within gamma = 3*sigma (the paper's suggestion, Section 5).
    let grid = Grid::new(BBox::unit(), 12, 12).expect("valid grid");
    let params = MiningParams::new(10, 0.04)
        .expect("valid params")
        .with_max_len(5)
        .expect("valid params")
        .with_gamma(3.0 * scheme.sigma())
        .expect("valid params");
    let outcome = Miner::new(&data, &grid)
        .params(params)
        .mine()
        .expect("mining succeeds");

    println!(
        "\nmined {} patterns in {} iterations ({} candidates scored, {} bound-pruned):",
        outcome.patterns.len(),
        outcome.stats.iterations,
        outcome.stats.candidates_scored,
        outcome.stats.candidates_bound_pruned,
    );
    for m in &outcome.patterns {
        let cells: Vec<String> = m
            .pattern
            .centers(&grid)
            .iter()
            .map(|p| format!("({:.2},{:.2})", p.x, p.y))
            .collect();
        println!("  NM {:>9.2}  {}", m.nm, cells.join(" -> "));
    }

    println!("\npattern groups ({}):", outcome.groups.len());
    for (i, g) in outcome.groups.iter().enumerate() {
        println!(
            "  group {}: {} pattern(s), representative NM {:.2}",
            i + 1,
            g.len(),
            g.representative().nm
        );
    }
}
