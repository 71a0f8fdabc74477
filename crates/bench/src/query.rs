//! Probabilistic query throughput experiment (ours): latency of
//! `trajquery` range and k-NN queries, indexed versus brute-force.
//!
//! Builds a [`trajquery::QuerySet`] over a uniform workload of S
//! imprecise trajectories and drives it with a fixed batch of
//! deterministic query points, once through the σ-expanded-bbox index
//! and once with the index disabled. Both paths are bit-identical by
//! construction (the bench asserts it on every query); the interesting
//! number is the ratio — how much of the scan the index prunes at a
//! given object count. The report gives p50/p99/mean per route plus the
//! indexed-vs-brute speedup, in the same `axis`/`config`/`points`
//! envelope as the other experiments.

use crate::report::percentile_ms;
use serde::Serialize;
use std::time::Instant;
use trajgeo::Point2;
use trajquery::QuerySet;

/// Configuration of the query throughput run.
#[derive(Debug, Clone, Serialize)]
pub struct QueryBenchConfig {
    /// Objects in the query set.
    pub objects: usize,
    /// Snapshots per trajectory.
    pub l: usize,
    /// Reported noise σ of every snapshot.
    pub sigma: f64,
    /// Query points per route.
    pub queries: usize,
    /// Range radius δ.
    pub delta: f64,
    /// Probability threshold τ.
    pub tau: f64,
    /// k for the k-NN route.
    pub k: usize,
    /// §3.1 uncertainty growth per unit of elapsed time.
    pub growth_rate: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for QueryBenchConfig {
    fn default() -> Self {
        QueryBenchConfig {
            objects: 10_000,
            l: 10,
            sigma: 0.01,
            queries: 200,
            delta: 0.02,
            tau: 0.1,
            k: 8,
            growth_rate: 0.1,
            seed: 23,
        }
    }
}

/// Per-route measurements.
#[derive(Debug, Clone, Serialize)]
pub struct QueryPoint {
    /// Route label (`prange` / `pnn`, `_brute` suffix = index off).
    pub route: String,
    /// Queries issued.
    pub queries: u64,
    /// Queries per second.
    pub qps: f64,
    /// Median query latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile query latency in milliseconds.
    pub p99_ms: f64,
    /// Mean query latency in milliseconds.
    pub mean_ms: f64,
}

/// Result of the query throughput experiment.
#[derive(Debug, Clone, Serialize)]
pub struct QueryThroughputResult {
    /// Always "route".
    pub axis: String,
    /// Configuration the run was based on.
    pub config: QueryBenchConfig,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// One point per route.
    pub points: Vec<QueryPoint>,
    /// Mean-latency speedup of indexed `prange` over the brute scan.
    pub prange_speedup: f64,
    /// Mean-latency speedup of indexed `pnn` over the brute scan.
    pub pnn_speedup: f64,
    /// Total matches returned across all indexed `prange` queries (pins
    /// the workload to a non-trivial selectivity).
    pub prange_matches: u64,
}

/// Deterministic query points: a seeded LCG over the unit square — the
/// same sequence every run, independent of the host.
fn query_points(n: usize, seed: u64) -> Vec<Point2> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point2::new(next(), next())).collect()
}

fn summarize(route: &str, lat: &mut [f64]) -> QueryPoint {
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = lat.len();
    let total: f64 = lat.iter().sum();
    QueryPoint {
        route: route.to_string(),
        queries: n as u64,
        qps: if total > 0.0 { n as f64 / total } else { 0.0 },
        p50_ms: percentile_ms(lat, 0.5),
        p99_ms: percentile_ms(lat, 0.99),
        mean_ms: if n > 0 { total / n as f64 * 1e3 } else { 0.0 },
    }
}

/// Runs the query throughput experiment.
pub fn run_query(cfg: &QueryBenchConfig) -> QueryThroughputResult {
    let paths = datagen::UniformConfig {
        num_objects: cfg.objects,
        snapshots: cfg.l,
        ..datagen::UniformConfig::default()
    }
    .paths(cfg.seed);
    let data = datagen::observe_directly(&paths, cfg.sigma, cfg.seed ^ 0x9e37);
    let set = QuerySet::from_dataset(&data, cfg.growth_rate);
    let points = query_points(cfg.queries, cfg.seed);
    let t = (cfg.l as f64 - 1.0) / 2.0 + 0.5;

    // Interleaving indexed and brute per point keeps cache effects
    // symmetric; identity is asserted on every single query.
    let mut lat_prange = Vec::with_capacity(points.len());
    let mut lat_prange_brute = Vec::with_capacity(points.len());
    let mut lat_pnn = Vec::with_capacity(points.len());
    let mut lat_pnn_brute = Vec::with_capacity(points.len());
    let mut prange_matches = 0u64;
    for &p in &points {
        let t0 = Instant::now();
        let indexed = set.prange(p, cfg.delta, t, cfg.tau).expect("valid query");
        lat_prange.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let brute = set
            .prange_bruteforce(p, cfg.delta, t, cfg.tau)
            .expect("valid query");
        lat_prange_brute.push(t0.elapsed().as_secs_f64());
        assert_eq!(indexed, brute, "index pruning changed a prange answer");
        prange_matches += indexed.len() as u64;

        let t0 = Instant::now();
        let indexed = set
            .pnn(p, t, cfg.k, cfg.tau, cfg.delta)
            .expect("valid query");
        lat_pnn.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let brute = set
            .pnn_bruteforce(p, t, cfg.k, cfg.tau, cfg.delta)
            .expect("valid query");
        lat_pnn_brute.push(t0.elapsed().as_secs_f64());
        assert_eq!(indexed, brute, "index pruning changed a pnn answer");
    }

    let points = vec![
        summarize("prange", &mut lat_prange),
        summarize("prange_brute", &mut lat_prange_brute),
        summarize("pnn", &mut lat_pnn),
        summarize("pnn_brute", &mut lat_pnn_brute),
    ];
    let speedup = |indexed: &QueryPoint, brute: &QueryPoint| {
        if indexed.mean_ms > 0.0 {
            brute.mean_ms / indexed.mean_ms
        } else {
            0.0
        }
    };
    QueryThroughputResult {
        axis: "route".into(),
        config: cfg.clone(),
        available_parallelism: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
        prange_speedup: speedup(&points[0], &points[1]),
        pnn_speedup: speedup(&points[2], &points[3]),
        prange_matches,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_bench_runs_and_asserts_identity() {
        let cfg = QueryBenchConfig {
            objects: 200,
            l: 6,
            queries: 20,
            ..QueryBenchConfig::default()
        };
        let r = run_query(&cfg);
        assert_eq!(r.axis, "route");
        assert_eq!(r.points.len(), 4);
        assert!(r.points.iter().all(|p| p.queries == 20));
        assert!(r.points.iter().all(|p| p.p99_ms >= p.p50_ms));
        assert!(r.prange_matches > 0, "workload must return matches");
        assert!(r.prange_speedup > 0.0 && r.pnn_speedup > 0.0);
    }
}
