//! Micro-benchmarks of the mining building blocks: NM scoring, the sparse
//! singular pass, pattern-group discovery and an end-to-end small mine.

use bench::workloads::zebranet_workload;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use trajgeo::CellId;
use trajpattern::{Miner, MiningParams, Pattern, Scorer};

fn bench_nm_scoring(c: &mut Criterion) {
    let w = zebranet_workload(40, 40, 12, 3);
    let scorer = Scorer::new(&w.data, &w.grid, 0.03, 1e-12);
    // Pre-warm the row cache so the benchmark isolates window scanning.
    let pattern = Pattern::new(vec![CellId(50), CellId(51), CellId(52), CellId(53)]).unwrap();
    scorer.nm(&pattern);
    c.bench_function("nm_score_len4_40x40", |b| {
        b.iter(|| black_box(scorer.nm(black_box(&pattern))))
    });
}

fn bench_singular_pass(c: &mut Criterion) {
    let w = zebranet_workload(40, 40, 12, 3);
    c.bench_function("singular_pass_40x40_144cells", |b| {
        b.iter_batched(
            || Scorer::new(&w.data, &w.grid, 0.03, 1e-12),
            |scorer| black_box(scorer.nm_all_singulars()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_full_mine(c: &mut Criterion) {
    let w = zebranet_workload(20, 25, 8, 3);
    let params = MiningParams::new(8, 0.04).unwrap().with_max_len(4).unwrap();
    let miner = Miner::new(&w.data, &w.grid).params(params);
    c.bench_function("mine_small_k8", |b| {
        b.iter(|| black_box(miner.mine().unwrap()))
    });
}

fn bench_groups(c: &mut Criterion) {
    let w = zebranet_workload(30, 30, 10, 3);
    let params = MiningParams::new(30, 0.04)
        .unwrap()
        .with_max_len(4)
        .unwrap();
    let out = Miner::new(&w.data, &w.grid).params(params).mine().unwrap();
    c.bench_function("group_discovery_k30", |b| {
        b.iter(|| {
            black_box(trajpattern::groups::discover_groups(
                black_box(&out.patterns),
                &w.grid,
                0.15,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_nm_scoring, bench_singular_pass, bench_full_mine, bench_groups
}
criterion_main!(benches);
