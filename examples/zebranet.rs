//! Wildlife-tracking scenario (§1, §6.2): mining migration motifs of
//! zebra herds from lossy sensor data, comparing TrajPattern against the
//! projection-based baseline.
//!
//! Run with: `cargo run --release --example zebranet`

use baselines::pb::mine_pb_budgeted;
use datagen::{observe_via_reporting, ZebraConfig};
use mobility::{LinearModel, ReportingScheme};
use std::time::Instant;
use trajgeo::{BBox, Grid};
use trajpattern::{Miner, MiningParams};

fn main() {
    // Three herds tracked by low-power collars; 10% of reports are lost in
    // transit (the paper's motivation for c = 2).
    let herds = ZebraConfig {
        num_groups: 3,
        zebras_per_group: 12,
        snapshots: 50,
        leave_prob: 0.003,
        ..ZebraConfig::default()
    };
    let paths = herds.paths(2024);

    let scheme = ReportingScheme::new(0.03, 2.0, 0.10).expect("valid scheme");
    let mut model = LinearModel::new();
    let data = observe_via_reporting(&paths, &mut model, &scheme, 99);
    println!(
        "{} zebras observed through a lossy collar network",
        data.len()
    );

    let grid = Grid::new(BBox::unit(), 10, 10).expect("valid grid");
    let params = MiningParams::new(8, 0.05)
        .expect("valid params")
        .with_max_len(5)
        .expect("valid params")
        .with_gamma(3.0 * scheme.sigma())
        .expect("valid params");

    // TrajPattern.
    let t0 = Instant::now();
    let ours = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .expect("mining succeeds");
    let t_ours = t0.elapsed();

    // Projection-based baseline (same exact answer, much more work).
    let t1 = Instant::now();
    let pb = mine_pb_budgeted(&data, &grid, &params, Some(2_000_000)).expect("mining succeeds");
    let t_pb = t1.elapsed();

    println!("\ntop migration motifs (pattern groups):");
    for (i, g) in ours.groups.iter().enumerate() {
        let rep = g.representative();
        let cells: Vec<String> = rep
            .pattern
            .centers(&grid)
            .iter()
            .map(|p| format!("({:.1},{:.1})", p.x, p.y))
            .collect();
        println!(
            "  group {} ({} variants): NM {:.1}  {}",
            i + 1,
            g.len(),
            rep.nm,
            cells.join(" -> ")
        );
    }

    println!(
        "\nTrajPattern: {:?} ({} candidates scored)",
        t_ours, ours.stats.candidates_scored
    );
    println!(
        "PB baseline: {:?} ({} prefixes scored{})",
        t_pb,
        pb.stats.prefixes_scored,
        if pb.stats.truncated {
            ", truncated at budget"
        } else {
            ""
        }
    );
    if !pb.stats.truncated {
        let same = ours
            .patterns
            .iter()
            .zip(&pb.patterns)
            .all(|(a, b)| (a.nm - b.nm).abs() < 1e-9);
        println!("both miners agree on the top-k: {same}");
    }
}
