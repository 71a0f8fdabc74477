//! Location-based commerce scenario (§1 of the paper): pedestrians on a
//! street grid, where commuter-route motifs tell an advertiser where a
//! device is heading.
//!
//! Run with: `cargo run --release --example streets`

use datagen::{observe_directly, StreetConfig};
use trajgeo::Grid;
use trajpattern::{Miner, MiningParams};

fn main() {
    let city = StreetConfig {
        blocks: 8,
        num_walkers: 60,
        snapshots: 60,
        commuter_fraction: 0.7,
        num_routes: 3,
        ..StreetConfig::default()
    };
    let paths = city.paths(77);
    let data = observe_directly(&paths, 0.01, 78);
    println!(
        "{} pedestrians in an {}x{} block city ({}% commuters on {} routes)",
        data.len(),
        city.blocks,
        city.blocks,
        (city.commuter_fraction * 100.0) as u32,
        city.num_routes
    );

    // One grid cell per street block.
    let grid =
        Grid::new(trajgeo::BBox::unit(), city.blocks * 2, city.blocks * 2).expect("valid grid");
    let params = MiningParams::new(9, 0.04)
        .expect("valid params")
        .with_min_len(3)
        .expect("valid params")
        .with_max_len(6)
        .expect("valid params")
        .with_gamma(0.08)
        .expect("valid params");
    let out = Miner::new(&data, &grid)
        .params(params)
        .mine()
        .expect("mining succeeds");

    println!(
        "\ntop street motifs ({} candidates scored, {} bound-pruned):",
        out.stats.candidates_scored, out.stats.candidates_bound_pruned
    );
    for g in &out.groups {
        let rep = g.representative();
        let hops: Vec<String> = rep
            .pattern
            .centers(&grid)
            .iter()
            .map(|p| format!("({:.2},{:.2})", p.x, p.y))
            .collect();
        println!(
            "  NM {:>8.1}  x{:<2}  {}",
            rep.nm,
            g.len(),
            hops.join(" -> ")
        );
    }
    println!(
        "\nan advertiser watching a device confirm one of these prefixes can \
         pre-position an e-flyer at the pattern's next block"
    );
}
