//! Diagnostic: inspect the NM/match ranking on the bus velocity workload.

use bench::workloads::{bus_velocity_grid, bus_workload};
use datagen::observe_via_reporting;
use mobility::{LinearModel, ReportingScheme};
use trajpattern::{Miner, MiningParams, Scorer};

fn main() {
    let w = bus_workload(100, 11);
    let scheme = ReportingScheme::new(w.uncertainty, w.c, 0.0).unwrap();
    let mut model = LinearModel::new();
    let locations = observe_via_reporting(&w.paths, &mut model, &scheme, 11 ^ 0xf16);
    let velocities = locations.to_velocity().unwrap();
    let grid = bus_velocity_grid();
    let stats = velocities.stats().unwrap();
    println!(
        "velocity data: {} trajs, avg len {:.1}, avg sigma {:.4}",
        stats.num_trajectories, stats.avg_len, stats.avg_sigma
    );

    // Singular landscape.
    let scorer = Scorer::new(&velocities, &grid, 0.005, 1e-12);
    let mut singulars: Vec<(u32, f64)> = scorer
        .nm_all_singulars()
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u32, v))
        .collect();
    singulars.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top singulars (cell center, nm):");
    for (c, v) in singulars.iter().take(8) {
        let p = grid.center(trajgeo::CellId(*c));
        println!("  c{c} ({:+.3},{:+.3})  nm={v:.1}", p.x, p.y);
    }

    let params = MiningParams::new(50, 0.005)
        .unwrap()
        .with_min_len(4)
        .unwrap()
        .with_max_len(8)
        .unwrap();
    let out = Miner::new(&velocities, &grid)
        .params(params.clone())
        .mine()
        .unwrap();
    println!(
        "NM top-50 (iters {}, scored {}):",
        out.stats.iterations, out.stats.candidates_scored
    );
    let name = |c: trajgeo::CellId| -> String {
        let p = grid.center(c);
        let lab = |v: f64| -> &'static str {
            if v > 0.015 {
                "F+"
            } else if v > 0.0055 {
                "s+"
            } else if v < -0.015 {
                "F-"
            } else if v < -0.0055 {
                "s-"
            } else {
                "0"
            }
        };
        format!("({},{})", lab(p.x), lab(p.y))
    };
    let show = |cells: &[trajgeo::CellId]| -> String {
        cells.iter().map(|&c| name(c)).collect::<Vec<_>>().join(" ")
    };
    for m in out.patterns.iter().take(50) {
        println!(
            "  len {}  nm {:>7.1}  {}",
            m.pattern.len(),
            m.nm,
            show(m.pattern.cells())
        );
    }
    let mout = baselines::mine_match(&velocities, &grid, &params).unwrap();
    println!("match top-50:");
    for m in mout.patterns.iter().take(50) {
        println!(
            "  len {}  match {:>7.2}  {}",
            m.pattern.len(),
            m.match_value,
            show(m.pattern.cells())
        );
    }
}
