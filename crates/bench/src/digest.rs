//! One digest of everything the scorer decides, for comparing two builds
//! bit for bit.
//!
//! [`pool`] builds a fixed ZebraNet pool in the shapes of perfbench's
//! `mine` workload: single-herd sets, where the bound prunes, and
//! multi-herd sets, where it does not. [`digest`] then, at one thread
//! count:
//!
//! - mines every set, hashing the patterns, their NM bits, the
//!   `MiningStats` and `ScorerStats` counters;
//! - scores the mined patterns again for their match measure, their
//!   per-trajectory `nm_contributions` and their §5 wildcard NM with a
//!   `(0, 1)` gap between every two positions;
//! - slides the set through a stream miner, hashing every top-k.
//!
//! The `diag_digest` binary prints one [`digest`] line per (seed,
//! threads) to diff two builds; `tests/digest_pin.rs` pins the line of a
//! small pool, so a kernel or engine change that moves a single bit fails
//! `cargo test`.

use crate::workloads::zebranet_workload;
use datagen::{observe_directly, ZebraConfig};
use std::hash::Hasher;
use trajdata::Dataset;
use trajgeo::fxhash::FxHasher;
use trajgeo::{BBox, Grid};
use trajpattern::{Measure, MinedPattern, Miner, MiningParams, Scorer};
use trajstream::StreamMiner;

/// Stream window, in trajectories.
const WINDOW: u64 = 12;

/// The pool for `seed`: `per_shape` single-herd sets, then `per_shape`
/// multi-herd sets. A set's shape depends only on its index within its
/// half, so a smaller pool is a prefix of each half of a larger one.
pub fn pool(seed: u64, per_shape: usize) -> Vec<Dataset> {
    let mut out = Vec::with_capacity(2 * per_shape);
    for i in 0..per_shape {
        let s = 24 + 4 * (i % 4);
        out.push(zebranet_workload(s, 24, 10, seed.wrapping_mul(256) + i as u64).data);
    }
    for i in 0..per_shape {
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

/// Mines, rescores and streams every set of `sets` (the pool of `seed`)
/// at `threads` scorer threads, on a 10² grid over the unit box with
/// perfbench `mine`'s parameters. The line holds the seed, the thread
/// count, the Fx digest, and the `candidates_scored`, `nm_evaluations`
/// and `cached_cells` counters summed over the pool.
pub fn digest(seed: u64, sets: &[Dataset], threads: usize) -> String {
    let grid = Grid::new(BBox::unit(), 10, 10).expect("valid grid");
    let params = MiningParams::new(10, 0.03)
        .and_then(|p| p.with_max_len(5))
        .and_then(|p| p.with_threads(threads))
        .expect("valid mining parameters");
    let mut h = FxHasher::default();
    let (mut scored, mut evaluations, mut cells) = (0, 0, 0);
    for data in sets {
        let mined = Miner::new(data, &grid)
            .params(params.clone())
            .mine()
            .expect("mining succeeds");
        hash_patterns(&mut h, &mined.patterns);
        for (_, v) in mined.stats.counters() {
            h.write_u64(v);
        }
        for (_, v) in mined.scorer.counters() {
            h.write_u64(v);
        }
        scored += mined.stats.candidates_scored;
        evaluations += mined.stats.nm_evaluations;
        cells += mined.scorer.cached_cells;

        let batch: Vec<_> = mined.patterns.iter().map(|m| m.pattern.clone()).collect();
        let scorer = Scorer::with_threads(data, &grid, params.delta, params.min_prob, threads);
        hash_floats(&mut h, &scorer.query(&batch).measure(Measure::Match).run());
        for p in &batch {
            hash_floats(&mut h, &scorer.nm_contributions(p));
        }
        for p in &batch {
            let gaps = vec![(0, 1); p.len() - 1];
            h.write_u64(scorer.nm_gapped(p.cells(), &gaps).to_bits());
        }

        let mut stream =
            StreamMiner::new(grid.clone(), params.clone()).expect("valid stream parameters");
        for traj in data.trajectories() {
            stream.slide(traj.clone(), WINDOW);
            hash_patterns(&mut h, stream.topk());
        }
    }
    format!(
        "seed {seed} threads {threads} digest {:016x} candidates_scored {scored} \
         nm_evaluations {evaluations} cached_cells {cells}",
        h.finish()
    )
}
