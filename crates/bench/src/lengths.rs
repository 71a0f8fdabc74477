//! The §6.1 pattern-length statistic.
//!
//! "The average length of top-1000 match patterns with length at least 3
//! is about 3.18, while the average length of top-1000 NM patterns with
//! length at least 3 is 4.2, which is much longer than that of match
//! patterns." This is the paper's core argument for normalization: the
//! raw match measure shrinks with length, so its top-k saturates at the
//! minimum allowed length, while NM surfaces longer (more informative)
//! patterns.

use crate::workloads::{bus_velocity_grid, bus_workload};
use baselines::mine_match;
use datagen::observe_via_reporting;
use mobility::{LinearModel, ReportingScheme};
use serde::Serialize;
use trajpattern::{Miner, MiningParams};

/// Configuration of the length-statistic experiment.
#[derive(Debug, Clone, Serialize)]
pub struct LengthsConfig {
    /// Bus traces to generate.
    pub traces: usize,
    /// Patterns to mine per measure (paper: 1000).
    pub k: usize,
    /// Minimum pattern length (paper: 3).
    pub min_len: usize,
    /// Maximum pattern length considered.
    pub max_len: usize,
    /// Indifference distance in velocity space.
    pub delta: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for LengthsConfig {
    fn default() -> Self {
        LengthsConfig {
            traces: 300,
            k: 500,
            min_len: 3,
            max_len: 8,
            delta: 0.005,
            seed: 11,
        }
    }
}

/// Result of the experiment.
#[derive(Debug, Clone, Serialize)]
pub struct LengthsResult {
    /// Configuration used.
    pub config: LengthsConfig,
    /// Average length of the top-k NM patterns (paper: ≈ 4.2).
    pub nm_avg_len: f64,
    /// Average length of the top-k match patterns (paper: ≈ 3.18).
    pub match_avg_len: f64,
    /// NM patterns actually mined.
    pub nm_count: usize,
    /// Match patterns actually mined.
    pub match_count: usize,
}

/// Runs the experiment on the bus velocity data.
pub fn run(cfg: &LengthsConfig) -> LengthsResult {
    let w = bus_workload(cfg.traces, cfg.seed);
    let scheme = ReportingScheme::new(w.uncertainty, w.c, 0.0).expect("valid scheme");
    let mut model = LinearModel::new();
    let locations = observe_via_reporting(&w.paths, &mut model, &scheme, cfg.seed ^ 0xf16);
    let velocities = locations.to_velocity().expect("traces have ≥ 2 snapshots");
    let grid = bus_velocity_grid();

    let params = MiningParams::new(cfg.k, cfg.delta)
        .expect("valid params")
        .with_min_len(cfg.min_len)
        .expect("valid params")
        .with_max_len(cfg.max_len)
        .expect("valid params");

    let nm_out = Miner::new(&velocities, &grid)
        .params(params.clone())
        .mine()
        .expect("NM mining succeeds");
    let match_out = mine_match(&velocities, &grid, &params).expect("match mining succeeds");

    let avg = |lens: Vec<usize>| -> f64 {
        if lens.is_empty() {
            0.0
        } else {
            lens.iter().sum::<usize>() as f64 / lens.len() as f64
        }
    };

    LengthsResult {
        config: cfg.clone(),
        nm_avg_len: avg(nm_out.patterns.iter().map(|m| m.pattern.len()).collect()),
        match_avg_len: avg(match_out.patterns.iter().map(|m| m.pattern.len()).collect()),
        nm_count: nm_out.patterns.len(),
        match_count: match_out.patterns.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nm_patterns_are_no_shorter_than_match_patterns() {
        // Deliberately tiny: this runs in debug CI; the real experiment
        // is `exp_lengths`.
        let cfg = LengthsConfig {
            traces: 20,
            k: 10,
            min_len: 3,
            max_len: 5,
            ..LengthsConfig::default()
        };
        let r = run(&cfg);
        assert!(r.nm_count > 0 && r.match_count > 0);
        assert!(r.nm_avg_len >= cfg.min_len as f64);
        assert!(r.match_avg_len >= cfg.min_len as f64);
        // The paper's headline (NM ≫ match) needs the full experiment's
        // k; at this tiny scale we only require NM not to be shorter by
        // more than a whisker.
        assert!(
            r.nm_avg_len >= r.match_avg_len - 0.5,
            "NM avg {} ≪ match avg {}",
            r.nm_avg_len,
            r.match_avg_len
        );
    }
}
