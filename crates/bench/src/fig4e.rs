//! Fig. 4(e): number of discovered pattern groups vs the indifference
//! threshold δ.
//!
//! "The number of discovered pattern groups decreases with the growth of
//! the indifferent threshold δ … the more similar patterns will be found
//! from the same set of trajectories. Because the number of patterns to
//! mine is determined, the number of pattern groups becomes smaller when
//! δ becomes larger."

use crate::workloads::zebranet_workload;
use serde::Serialize;
use trajpattern::{Miner, MiningParams};

/// Configuration of the δ sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4eConfig {
    /// Trajectories.
    pub s: usize,
    /// Trajectory length.
    pub l: usize,
    /// Grid side.
    pub grid_side: u32,
    /// Patterns to mine per point.
    pub k: usize,
    /// Pattern length cap.
    pub max_len: usize,
    /// Baseline similar-pattern distance (§5 suggests 3σ); the effective
    /// γ per point is `gamma + 2δ`, since two pattern positions that are
    /// both within δ of the same location can sit up to 2δ apart while
    /// being observationally indistinguishable.
    pub gamma: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Fig4eConfig {
    fn default() -> Self {
        Fig4eConfig {
            s: 60,
            l: 40,
            grid_side: 12,
            k: 100,
            max_len: 6,
            gamma: 0.05,
            seed: 7,
        }
    }
}

/// One δ point.
#[derive(Debug, Clone, Serialize)]
pub struct DeltaPoint {
    /// The indifference threshold δ.
    pub delta: f64,
    /// Patterns mined (= k unless fewer exist).
    pub patterns: usize,
    /// Pattern groups discovered.
    pub groups: usize,
}

/// The full sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4eResult {
    /// Configuration used.
    pub config: Fig4eConfig,
    /// Measured points (δ ascending).
    pub points: Vec<DeltaPoint>,
}

/// Runs the δ sweep.
pub fn sweep_delta(cfg: &Fig4eConfig, deltas: &[f64]) -> Fig4eResult {
    let w = zebranet_workload(cfg.s, cfg.l, cfg.grid_side, cfg.seed);
    let points = deltas
        .iter()
        .map(|&delta| {
            let params = MiningParams::new(cfg.k, delta)
                .expect("valid params")
                .with_max_len(cfg.max_len)
                .expect("valid params")
                .with_gamma(cfg.gamma + 2.0 * delta)
                .expect("valid params");
            let out = Miner::new(&w.data, &w.grid)
                .params(params)
                .mine()
                .expect("mining succeeds");
            DeltaPoint {
                delta,
                patterns: out.patterns.len(),
                groups: out.groups.len(),
            }
        })
        .collect();
    Fig4eResult {
        config: cfg.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_groups() {
        let cfg = Fig4eConfig {
            s: 12,
            l: 15,
            grid_side: 6,
            k: 8,
            max_len: 3,
            gamma: 0.25,
            seed: 3,
        };
        let r = sweep_delta(&cfg, &[0.02, 0.08]);
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert!(p.patterns > 0);
            assert!(p.groups >= 1 && p.groups <= p.patterns);
        }
    }
}
