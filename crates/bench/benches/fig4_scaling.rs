//! Criterion version of Fig. 4(a)–(d): TrajPattern vs PB response time on
//! reduced configurations of the ZebraNet workload. The `exp_fig4` binary
//! produces the paper-scale sweeps; these benches give statistically
//! robust timings for the small points.

use baselines::pb::mine_pb_budgeted;
use bench::workloads::zebranet_workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trajpattern::{Miner, MiningParams};

const DELTA: f64 = 0.03;
const MAX_LEN: usize = 5;
const PB_BUDGET: Option<u64> = Some(500_000);

fn params(k: usize) -> MiningParams {
    MiningParams::new(k, DELTA)
        .unwrap()
        .with_max_len(MAX_LEN)
        .unwrap()
}

/// Fig. 4(a): response time vs k.
fn bench_vs_k(c: &mut Criterion) {
    let w = zebranet_workload(30, 30, 10, 7);
    let mut g = c.benchmark_group("fig4a_vs_k");
    g.sample_size(10);
    for k in [4usize, 8, 16] {
        g.bench_with_input(BenchmarkId::new("trajpattern", k), &k, |b, &k| {
            let miner = Miner::new(&w.data, &w.grid).params(params(k));
            b.iter(|| black_box(miner.mine().unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("pb", k), &k, |b, &k| {
            b.iter(|| black_box(mine_pb_budgeted(&w.data, &w.grid, &params(k), PB_BUDGET).unwrap()))
        });
    }
    g.finish();
}

/// Fig. 4(b): response time vs the number of trajectories S.
fn bench_vs_s(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4b_vs_s");
    g.sample_size(10);
    for s in [15usize, 30, 60] {
        let w = zebranet_workload(s, 30, 10, 7);
        g.bench_with_input(BenchmarkId::new("trajpattern", s), &s, |b, _| {
            let miner = Miner::new(&w.data, &w.grid).params(params(8));
            b.iter(|| black_box(miner.mine().unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("pb", s), &s, |b, _| {
            b.iter(|| black_box(mine_pb_budgeted(&w.data, &w.grid, &params(8), PB_BUDGET).unwrap()))
        });
    }
    g.finish();
}

/// Fig. 4(c): response time vs the trajectory length L.
fn bench_vs_l(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4c_vs_l");
    g.sample_size(10);
    for l in [15usize, 30, 60] {
        let w = zebranet_workload(30, l, 10, 7);
        g.bench_with_input(BenchmarkId::new("trajpattern", l), &l, |b, _| {
            let miner = Miner::new(&w.data, &w.grid).params(params(8));
            b.iter(|| black_box(miner.mine().unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("pb", l), &l, |b, _| {
            b.iter(|| black_box(mine_pb_budgeted(&w.data, &w.grid, &params(8), PB_BUDGET).unwrap()))
        });
    }
    g.finish();
}

/// Fig. 4(d): response time vs the number of grid cells G.
fn bench_vs_g(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4d_vs_g");
    g.sample_size(10);
    for side in [6u32, 10, 14] {
        let w = zebranet_workload(30, 30, side, 7);
        let cells = side * side;
        g.bench_with_input(BenchmarkId::new("trajpattern", cells), &cells, |b, _| {
            let miner = Miner::new(&w.data, &w.grid).params(params(8));
            b.iter(|| black_box(miner.mine().unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("pb", cells), &cells, |b, _| {
            b.iter(|| black_box(mine_pb_budgeted(&w.data, &w.grid, &params(8), PB_BUDGET).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_vs_k, bench_vs_s, bench_vs_l, bench_vs_g);
criterion_main!(benches);
