//! Ablation bench: the cost of mining with and without the weighted-mean
//! bound and the 1-extension/τ retention rule. All four variants return
//! identical results (asserted by tests); this measures the work saved.

use bench::workloads::zebranet_workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trajpattern::{Miner, MiningParams};

fn bench_pruning_variants(c: &mut Criterion) {
    let w = zebranet_workload(25, 25, 8, 7);
    let base = MiningParams::new(8, 0.04).unwrap().with_max_len(4).unwrap();
    let variants: [(&str, bool, bool); 4] = [
        ("full", true, true),
        ("bound_only", true, false),
        ("one_ext_only", false, true),
        ("none", false, false),
    ];
    let mut g = c.benchmark_group("ablation_pruning");
    g.sample_size(10);
    for (label, bound, one_ext) in variants {
        let mut p = base.clone();
        p.use_bound_prune = bound;
        p.use_one_extension_prune = one_ext;
        let miner = Miner::new(&w.data, &w.grid).params(p);
        g.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| black_box(miner.mine().unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pruning_variants);
criterion_main!(benches);
