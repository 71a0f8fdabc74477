//! Fig. 4(a)–(d): scalability of TrajPattern vs the PB baseline.
//!
//! Four sweeps over the ZebraNet-style workload, one per paper panel:
//!
//! - (a) response time vs `k` (number of patterns wanted);
//! - (b) response time vs `S` (number of trajectories);
//! - (c) response time vs `L` (average trajectory length);
//! - (d) response time vs `G` (number of grid cells).
//!
//! The paper's qualitative result: TrajPattern grows slowly (quadratic in
//! k, linear in S, L and G) while PB grows super-linearly in k and S and
//! exponentially in G. Both miners are exact, so their outputs must agree
//! whenever PB completes within budget — the sweep asserts this.

use crate::workloads::zebranet_workload;
use baselines::pb::mine_pb_budgeted;
use serde::Serialize;
use std::time::Instant;
use trajdata::Dataset;
use trajgeo::Grid;
use trajpattern::{Miner, MiningParams};

/// Base configuration shared by the four sweeps.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Config {
    /// Baseline number of trajectories `S`.
    pub s: usize,
    /// Baseline trajectory length `L`.
    pub l: usize,
    /// Baseline grid side (G = side²).
    pub grid_side: u32,
    /// Baseline `k`.
    pub k: usize,
    /// Pattern length cap.
    pub max_len: usize,
    /// Indifference distance δ.
    pub delta: f64,
    /// PB prefix-scoring budget (None = unbounded).
    pub pb_budget: Option<u64>,
    /// Workload seeds: each sweep point is measured once per seed and the
    /// times averaged (different seeds give different herd routes, which
    /// otherwise makes the curves noisy).
    pub seeds: Vec<u64>,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            s: 60,
            l: 40,
            grid_side: 12,
            k: 10,
            max_len: 6,
            delta: 0.03,
            pb_budget: Some(3_000_000),
            seeds: vec![7, 8, 9],
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The sweep variable's value at this point.
    pub x: f64,
    /// TrajPattern wall time in seconds.
    pub trajpattern_secs: f64,
    /// PB wall time in seconds.
    pub pb_secs: f64,
    /// Candidates TrajPattern actually scored.
    pub tp_scored: u64,
    /// Prefixes PB scored.
    pub pb_prefixes: u64,
    /// Whether PB hit its budget (its time is then a lower bound).
    pub pb_truncated: bool,
    /// Whether the two miners returned identical NM sequences (always
    /// true unless PB was truncated).
    pub agree: bool,
}

/// A complete sweep (one figure panel).
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    /// Sweep axis name: "k", "S", "L" or "G".
    pub axis: String,
    /// Configuration the sweep was based on.
    pub config: Fig4Config,
    /// The measured points.
    pub points: Vec<SweepPoint>,
}

/// Measures one (workload, k) pair once.
fn measure_once(data: &Dataset, grid: &Grid, k: usize, cfg: &Fig4Config, x: f64) -> SweepPoint {
    let params = MiningParams::new(k, cfg.delta)
        .expect("valid params")
        .with_max_len(cfg.max_len)
        .expect("valid params");

    let t0 = Instant::now();
    let tp = Miner::new(data, grid)
        .params(params.clone())
        .mine()
        .expect("mining succeeds");
    let trajpattern_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let pb = mine_pb_budgeted(data, grid, &params, cfg.pb_budget).expect("mining succeeds");
    let pb_secs = t1.elapsed().as_secs_f64();

    let agree = pb.stats.truncated
        || (tp.patterns.len() == pb.patterns.len()
            && tp
                .patterns
                .iter()
                .zip(&pb.patterns)
                .all(|(a, b)| (a.nm - b.nm).abs() < 1e-9));
    if !pb.stats.truncated {
        assert!(agree, "exact miners disagreed at x = {x}");
    }

    SweepPoint {
        x,
        trajpattern_secs,
        pb_secs,
        tp_scored: tp.stats.candidates_scored,
        pb_prefixes: pb.stats.prefixes_scored,
        pb_truncated: pb.stats.truncated,
        agree,
    }
}

/// Averages the measurement over the configured seeds. `make_workload`
/// receives each seed in turn.
fn run_point<F>(cfg: &Fig4Config, k: usize, x: f64, make_workload: F) -> SweepPoint
where
    F: Fn(u64) -> crate::workloads::ScalabilityWorkload,
{
    let mut acc: Option<SweepPoint> = None;
    let n = cfg.seeds.len().max(1) as f64;
    for &seed in &cfg.seeds {
        let w = make_workload(seed);
        let p = measure_once(&w.data, &w.grid, k, cfg, x);
        acc = Some(match acc {
            None => p,
            Some(mut a) => {
                a.trajpattern_secs += p.trajpattern_secs;
                a.pb_secs += p.pb_secs;
                a.tp_scored += p.tp_scored;
                a.pb_prefixes += p.pb_prefixes;
                a.pb_truncated |= p.pb_truncated;
                a.agree &= p.agree;
                a
            }
        });
    }
    let mut p = acc.expect("at least one seed");
    p.trajpattern_secs /= n;
    p.pb_secs /= n;
    p.tp_scored = (p.tp_scored as f64 / n) as u64;
    p.pb_prefixes = (p.pb_prefixes as f64 / n) as u64;
    p
}

/// One point of the scorer thread-scaling sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadsPoint {
    /// Scorer worker-thread count (`0` = auto).
    pub threads: usize,
    /// TrajPattern wall time in seconds (averaged over seeds).
    pub trajpattern_secs: f64,
    /// Wall-clock speedup relative to the 1-thread point.
    pub speedup_vs_one: f64,
    /// Candidates scored (identical across thread counts by construction).
    pub tp_scored: u64,
    /// Whether the mined patterns and NM values were bit-identical to the
    /// sequential run (must always hold; recorded as evidence).
    pub identical_to_sequential: bool,
}

/// Result of the thread-scaling sweep (the `--threads` panel).
#[derive(Debug, Clone, Serialize)]
pub struct ThreadsSweepResult {
    /// Always "threads".
    pub axis: String,
    /// Configuration the sweep was based on.
    pub config: Fig4Config,
    /// Cores the host reports — speedup is bounded by this, so a
    /// single-core machine honestly records ~1× for every thread count.
    pub available_parallelism: usize,
    /// The measured points.
    pub points: Vec<ThreadsPoint>,
}

/// Sweeps the scorer worker-thread count on the baseline (S, L, G)
/// workload, timing TrajPattern mining only (PB's runtime is unaffected
/// by this knob at its defaults). Every point's output is checked
/// bit-identical to the sequential run.
pub fn sweep_threads(cfg: &Fig4Config, thread_counts: &[usize]) -> ThreadsSweepResult {
    let params = MiningParams::new(cfg.k, cfg.delta)
        .expect("valid params")
        .with_max_len(cfg.max_len)
        .expect("valid params");

    let workloads: Vec<crate::workloads::ScalabilityWorkload> = cfg
        .seeds
        .iter()
        .map(|&seed| zebranet_workload(cfg.s, cfg.l, cfg.grid_side, seed))
        .collect();
    let references: Vec<_> = workloads
        .iter()
        .map(|w| {
            Miner::new(&w.data, &w.grid)
                .params(params.clone())
                .mine()
                .expect("mining succeeds")
        })
        .collect();

    let n = cfg.seeds.len().max(1) as f64;
    let mut points: Vec<ThreadsPoint> = thread_counts
        .iter()
        .map(|&threads| {
            let tparams = params.clone().with_threads(threads).expect("valid params");
            let mut secs = 0.0;
            let mut scored = 0u64;
            let mut identical = true;
            for (w, reference) in workloads.iter().zip(&references) {
                let t0 = Instant::now();
                let out = Miner::new(&w.data, &w.grid)
                    .params(tparams.clone())
                    .mine()
                    .expect("mining succeeds");
                secs += t0.elapsed().as_secs_f64();
                scored += out.stats.candidates_scored;
                identical &=
                    out.patterns.len() == reference.patterns.len()
                        && out.patterns.iter().zip(&reference.patterns).all(|(a, b)| {
                            a.pattern == b.pattern && a.nm.to_bits() == b.nm.to_bits()
                        });
                assert!(identical, "parallel mining diverged at threads = {threads}");
            }
            ThreadsPoint {
                threads,
                trajpattern_secs: secs / n,
                speedup_vs_one: 0.0,
                tp_scored: (scored as f64 / n) as u64,
                identical_to_sequential: identical,
            }
        })
        .collect();

    let base = points
        .iter()
        .find(|p| p.threads == 1)
        .or(points.first())
        .map(|p| p.trajpattern_secs)
        .unwrap_or(0.0);
    for p in &mut points {
        p.speedup_vs_one = if p.trajpattern_secs > 0.0 {
            base / p.trajpattern_secs
        } else {
            0.0
        };
    }

    ThreadsSweepResult {
        axis: "threads".into(),
        config: cfg.clone(),
        available_parallelism: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
        points,
    }
}

/// Fig. 4(a): sweep `k`.
pub fn sweep_k(cfg: &Fig4Config, ks: &[usize]) -> SweepResult {
    SweepResult {
        axis: "k".into(),
        config: cfg.clone(),
        points: ks
            .iter()
            .map(|&k| {
                run_point(cfg, k, k as f64, |seed| {
                    zebranet_workload(cfg.s, cfg.l, cfg.grid_side, seed)
                })
            })
            .collect(),
    }
}

/// Fig. 4(b): sweep the number of trajectories `S`.
pub fn sweep_s(cfg: &Fig4Config, ss: &[usize]) -> SweepResult {
    SweepResult {
        axis: "S".into(),
        config: cfg.clone(),
        points: ss
            .iter()
            .map(|&s| {
                run_point(cfg, cfg.k, s as f64, |seed| {
                    zebranet_workload(s, cfg.l, cfg.grid_side, seed)
                })
            })
            .collect(),
    }
}

/// Fig. 4(c): sweep the average trajectory length `L`.
pub fn sweep_l(cfg: &Fig4Config, ls: &[usize]) -> SweepResult {
    SweepResult {
        axis: "L".into(),
        config: cfg.clone(),
        points: ls
            .iter()
            .map(|&l| {
                run_point(cfg, cfg.k, l as f64, |seed| {
                    zebranet_workload(cfg.s, l, cfg.grid_side, seed)
                })
            })
            .collect(),
    }
}

/// Fig. 4(d): sweep the number of grid cells `G` (via the grid side).
pub fn sweep_g(cfg: &Fig4Config, sides: &[u32]) -> SweepResult {
    SweepResult {
        axis: "G".into(),
        config: cfg.clone(),
        points: sides
            .iter()
            .map(|&side| {
                run_point(cfg, cfg.k, (side * side) as f64, |seed| {
                    zebranet_workload(cfg.s, cfg.l, side, seed)
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig4Config {
        Fig4Config {
            s: 10,
            l: 15,
            grid_side: 6,
            k: 4,
            max_len: 4,
            pb_budget: Some(200_000),
            seeds: vec![3],
            ..Fig4Config::default()
        }
    }

    #[test]
    fn sweep_k_points_agree_and_are_positive() {
        let r = sweep_k(&tiny(), &[2, 4]);
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert!(p.agree, "miners must agree at k={}", p.x);
            assert!(p.trajpattern_secs > 0.0 && p.pb_secs > 0.0);
        }
    }

    #[test]
    fn sweep_s_runs() {
        let r = sweep_s(&tiny(), &[6, 12]);
        assert_eq!(r.axis, "S");
        assert!(r.points.iter().all(|p| p.agree));
    }

    #[test]
    fn sweep_g_runs() {
        let r = sweep_g(&tiny(), &[4, 8]);
        assert_eq!(r.points[0].x, 16.0);
        assert_eq!(r.points[1].x, 64.0);
    }

    #[test]
    fn sweep_threads_is_bit_identical() {
        let r = sweep_threads(&tiny(), &[1, 2, 4]);
        assert_eq!(r.axis, "threads");
        assert_eq!(r.points.len(), 3);
        assert!(r.available_parallelism >= 1);
        for p in &r.points {
            assert!(p.identical_to_sequential, "threads = {}", p.threads);
            assert!(p.trajpattern_secs > 0.0);
        }
        assert!((r.points[0].speedup_vs_one - 1.0).abs() < 1e-9);
    }
}
