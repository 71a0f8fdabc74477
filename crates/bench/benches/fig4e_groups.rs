//! Criterion version of Fig. 4(e): mining + pattern-group discovery at
//! several indifference thresholds δ.

use bench::workloads::zebranet_workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trajpattern::{Miner, MiningParams};

fn bench_vs_delta(c: &mut Criterion) {
    let w = zebranet_workload(30, 30, 10, 7);
    let mut g = c.benchmark_group("fig4e_vs_delta");
    g.sample_size(10);
    for delta in [0.02f64, 0.05, 0.10] {
        let params = MiningParams::new(20, delta)
            .unwrap()
            .with_max_len(4)
            .unwrap()
            .with_gamma(0.15)
            .unwrap();
        let miner = Miner::new(&w.data, &w.grid).params(params);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("delta_{delta}")),
            &delta,
            |b, _| b.iter(|| black_box(miner.mine().unwrap())),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_vs_delta);
criterion_main!(benches);
