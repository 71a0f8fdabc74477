//! §5 extension: wildcard positions and flexible gaps.
//!
//! Posture sequences dwell a variable number of snapshots at each posture,
//! so contiguous patterns struggle to bridge two postures. Gapped patterns
//! `(stand, *{0,3}, walk)` absorb the variable dwell.
//!
//! Run with: `cargo run --release --example wildcards`

use datagen::{observe_directly, PostureConfig};
use trajgeo::Grid;
use trajpattern::gapped::{mine_gapped, GappedPattern};
use trajpattern::{Miner, MiningParams, Scorer};

fn main() {
    let cfg = PostureConfig {
        num_subjects: 30,
        snapshots: 60,
        num_postures: 5,
        dwell_mean: 3,
        noise: 0.015,
    };
    let paths = cfg.paths(5);
    let data = observe_directly(&paths, 0.01, 55);
    println!(
        "{} posture sequences cycling through {} archetypes",
        data.len(),
        cfg.num_postures
    );

    let bbox = data.bounding_box().expect("non-empty dataset");
    let grid = Grid::new(bbox, 12, 12).expect("valid grid");
    let params = MiningParams::new(12, 0.05)
        .expect("valid params")
        .with_min_len(2)
        .expect("valid params")
        .with_max_len(4)
        .expect("valid params");

    // Contiguous mining first…
    let base = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .expect("mining succeeds");
    println!("\ntop contiguous patterns:");
    for m in base.patterns.iter().take(5) {
        println!("  NM {:>8.2}  {}", m.nm, m.pattern);
    }

    // …then one round of joins with up to 3 wildcards between mined
    // fragments (§5).
    let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
    let gapped = mine_gapped(&scorer, &base.patterns, 3, 8, 1);
    println!("\ntop gapped patterns after wildcard growth:");
    for g in &gapped {
        println!("  NM {:>8.2}  {}", g.nm, g.pattern);
    }

    // Flexible gaps: let the dwell between two fragments vary 0..=3.
    let a = &base.patterns[0].pattern;
    let b = &base.patterns[1].pattern;
    let flexible = GappedPattern::new(
        a.cells()
            .iter()
            .chain(b.cells())
            .copied()
            .collect::<Vec<_>>(),
        {
            let mut gaps = vec![(0u8, 0u8); a.len() - 1];
            gaps.push((0, 3)); // variable dwell between the fragments
            gaps.extend(vec![(0, 0); b.len() - 1]);
            gaps
        },
    )
    .expect("valid gapped pattern");
    let nm_flex = scorer.nm_gapped(flexible.positions(), flexible.gaps());
    println!(
        "\nflexible-gap join of the top two fragments: NM {:.2}  {}",
        nm_flex, flexible
    );
}
