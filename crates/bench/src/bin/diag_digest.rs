//! Diagnostic: one digest of everything the scorer decides, for
//! comparing two builds bit for bit.
//!
//! For each seed it builds a fixed ZebraNet pool in the shapes of
//! perfbench's `mine` workload (single-herd sets, where the bound prunes,
//! and multi-herd sets, where it does not) and, at threads 1 and 2:
//!
//! - mines every set, hashing the patterns, their NM bits, the
//!   `MiningStats` and `ScorerStats` counters;
//! - scores the mined patterns again for their match measure and their
//!   per-trajectory `nm_contributions`;
//! - slides the set through a stream miner, hashing every top-k.
//!
//! It prints one line per (seed, threads): the `trajgeo::fxhash` digest
//! and the summed counters. To compare two commits, build each into its
//! own target dir and diff the output:
//!
//! ```text
//! CARGO_TARGET_DIR=/tmp/a cargo run --release -q --bin diag_digest -- 1 2 3
//! ```
//!
//! Arguments are seeds (default `1 2 3`).

use bench::workloads::zebranet_workload;
use datagen::{observe_directly, ZebraConfig};
use std::hash::Hasher;
use trajdata::Dataset;
use trajgeo::fxhash::FxHasher;
use trajgeo::{BBox, Grid};
use trajpattern::{Measure, MinedPattern, Miner, MiningParams, Scorer};
use trajstream::StreamMiner;

/// Sets per herd shape.
const PER_SHAPE: usize = 8;
/// Stream window, in trajectories.
const WINDOW: u64 = 12;

/// The pool for `seed`: single-herd sets, then multi-herd sets.
fn pool(seed: u64) -> Vec<Dataset> {
    let mut out = Vec::with_capacity(2 * PER_SHAPE);
    for i in 0..PER_SHAPE {
        let s = 24 + 4 * (i % 4);
        out.push(zebranet_workload(s, 24, 10, seed.wrapping_mul(256) + i as u64).data);
    }
    for i in 0..PER_SHAPE {
        let cfg = ZebraConfig {
            num_groups: 2 + i % 3,
            zebras_per_group: 10,
            snapshots: 24,
            leave_prob: 0.001,
            ..ZebraConfig::default()
        };
        let s = seed.wrapping_mul(256) + 128 + i as u64;
        out.push(observe_directly(&cfg.paths(s), 0.015, s ^ 0x0b5e));
    }
    out
}

fn hash_patterns(h: &mut FxHasher, patterns: &[MinedPattern]) {
    h.write_usize(patterns.len());
    for m in patterns {
        h.write_usize(m.pattern.len());
        for c in m.pattern.cells() {
            h.write_u32(c.0);
        }
        h.write_u64(m.nm.to_bits());
    }
}

fn hash_floats(h: &mut FxHasher, values: &[f64]) {
    h.write_usize(values.len());
    for v in values {
        h.write_u64(v.to_bits());
    }
}

fn main() {
    let seeds: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seeds are integers"))
        .collect();
    let seeds = if seeds.is_empty() {
        vec![1, 2, 3]
    } else {
        seeds
    };
    let grid = Grid::new(BBox::unit(), 10, 10).expect("valid grid");
    for seed in seeds {
        let sets = pool(seed);
        for threads in [1, 2] {
            let params = MiningParams::new(10, 0.03)
                .and_then(|p| p.with_max_len(5))
                .and_then(|p| p.with_threads(threads))
                .expect("valid mining parameters");
            let mut h = FxHasher::default();
            let (mut scored, mut evaluations, mut cells) = (0u64, 0u64, 0u64);
            for data in &sets {
                let out = Miner::new(data, &grid)
                    .params(params.clone())
                    .mine()
                    .expect("mining succeeds");
                hash_patterns(&mut h, &out.patterns);
                for (_, v) in out.stats.counters() {
                    h.write_u64(v);
                }
                for (_, v) in out.scorer.counters() {
                    h.write_u64(v);
                }
                scored += out.stats.candidates_scored;
                evaluations += out.stats.nm_evaluations;
                cells += out.scorer.cached_cells;

                let batch: Vec<_> = out.patterns.iter().map(|m| m.pattern.clone()).collect();
                let scorer =
                    Scorer::with_threads(data, &grid, params.delta, params.min_prob, threads);
                hash_floats(&mut h, &scorer.query(&batch).measure(Measure::Match).run());
                for p in &batch {
                    hash_floats(&mut h, &scorer.nm_contributions(p));
                }

                let mut stream = StreamMiner::new(grid.clone(), params.clone())
                    .expect("valid stream parameters");
                for traj in data.trajectories() {
                    stream.slide(traj.clone(), WINDOW);
                    hash_patterns(&mut h, stream.topk());
                }
            }
            println!(
                "seed {seed} threads {threads} digest {:016x} candidates_scored {scored} \
                 nm_evaluations {evaluations} cached_cells {cells}",
                h.finish()
            );
        }
    }
}
