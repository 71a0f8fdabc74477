//! Fig. 3: reduction of mis-predictions by pattern-assisted prediction.
//!
//! The pipeline, following §6.1 end to end:
//!
//! 1. Generate the bus fleet's ground-truth traces (450 train / 50 test,
//!    route-balanced).
//! 2. Push the training traces through the dead-reckoning reporting
//!    protocol (the paper's "transform it to the predictive model M") to
//!    obtain imprecise location trajectories, then convert to velocity
//!    trajectories.
//! 3. Mine the top-k patterns of length ≥ 4 twice: once by NM
//!    (TrajPattern) and once by match (the \[14\]-style baseline).
//! 4. For each prediction module (LM, LKF, RMF) and each pattern set,
//!    count mis-predictions on the 50 test traces with and without
//!    pattern assistance; report the reduction ratio.
//!
//! Paper result: NM patterns cut mis-predictions by 20–40 %, match
//! patterns by only 10–20 %, across all three modules.

use crate::workloads::{bus_velocity_grid, bus_workload};
use baselines::mine_match;
use datagen::observe_via_reporting;
use mobility::{KalmanModel, LinearModel, MotionModel, RecursiveMotionModel, ReportingScheme};
use prediction::{evaluate_paths, PatternLibrary};
use serde::Serialize;
use trajpattern::{MinedPattern, Miner, MiningParams};

/// Configuration of the Fig. 3 experiment.
///
/// The default workload is 200 traces (paper: 500) — the match-measure
/// baseline's Apriori frontier grows with both the trace count and k, and
/// k = 400 on 500 traces does not finish in reasonable time on one core.
/// The train:test ratio (9:1) matches the paper's 450:50.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Config {
    /// Total bus traces (paper: 500).
    pub traces: usize,
    /// Training traces (paper: 450); the rest are test traces.
    pub train: usize,
    /// Patterns to mine.
    pub k: usize,
    /// Minimum pattern length (paper: 4).
    pub min_len: usize,
    /// Maximum pattern length.
    pub max_len: usize,
    /// Indifference distance in velocity space.
    pub delta: f64,
    /// Confirm probability threshold (paper: 0.9).
    pub confirm: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            traces: 200,
            train: 180,
            k: 400,
            min_len: 4,
            max_len: 7,
            delta: 0.005,
            confirm: 0.9,
            seed: 11,
        }
    }
}

/// One (model, measure) cell of Fig. 3.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Prediction module: "LM", "LKF" or "RMF".
    pub model: String,
    /// Pattern measure: "NM" or "match".
    pub measure: String,
    /// Mis-predictions without patterns.
    pub base: usize,
    /// Mis-predictions with patterns.
    pub assisted: usize,
    /// Reduction ratio `1 − assisted/base` (Fig. 3's y-axis).
    pub reduction: f64,
}

/// Full experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Result {
    /// Configuration used.
    pub config: Fig3Config,
    /// Number of NM patterns mined (length ≥ min_len).
    pub nm_patterns: usize,
    /// Number of match patterns mined.
    pub match_patterns: usize,
    /// Average length of the NM pattern set.
    pub nm_avg_len: f64,
    /// Average length of the match pattern set.
    pub match_avg_len: f64,
    /// The six rows (3 models × 2 measures).
    pub rows: Vec<Fig3Row>,
}

fn avg_len(patterns: &[MinedPattern]) -> f64 {
    if patterns.is_empty() {
        return 0.0;
    }
    patterns.iter().map(|m| m.pattern.len()).sum::<usize>() as f64 / patterns.len() as f64
}

/// Runs the full Fig. 3 pipeline.
pub fn run(cfg: &Fig3Config) -> Fig3Result {
    assert!(cfg.train < cfg.traces, "need at least one test trace");
    let w = bus_workload(cfg.traces, cfg.seed);
    let scheme = ReportingScheme::new(w.uncertainty, w.c, 0.0).expect("valid scheme");

    let (train_paths, test_paths) = w.paths.split_at(cfg.train);

    // Observe the training traces through the protocol and mine velocity
    // patterns.
    let mut observe_model = LinearModel::new();
    let locations =
        observe_via_reporting(train_paths, &mut observe_model, &scheme, cfg.seed ^ 0xf13);
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
    let match_as_mined: Vec<MinedPattern> = match_out
        .patterns
        .iter()
        .map(|m| MinedPattern::new(m.pattern.clone(), m.match_value))
        .collect();

    let nm_lib = PatternLibrary::new(
        nm_out.patterns.clone(),
        grid.clone(),
        cfg.delta,
        params.min_prob,
        cfg.confirm,
    )
    .expect("valid library");
    let match_lib = PatternLibrary::new(
        match_as_mined.clone(),
        grid.clone(),
        cfg.delta,
        params.min_prob,
        cfg.confirm,
    )
    .expect("valid library");

    let mut rows = Vec::new();
    let models: Vec<Box<dyn MotionModel>> = vec![
        Box::new(LinearModel::new()),
        Box::new(KalmanModel::with_defaults()),
        Box::new(RecursiveMotionModel::with_defaults()),
    ];
    for mut model in models {
        for (measure, lib) in [("NM", &nm_lib), ("match", &match_lib)] {
            let r = evaluate_paths(test_paths, model.as_mut(), &scheme, lib);
            rows.push(Fig3Row {
                model: model.name().to_string(),
                measure: measure.to_string(),
                base: r.base_mispredictions,
                assisted: r.assisted_mispredictions,
                reduction: r.reduction(),
            });
        }
    }

    Fig3Result {
        config: cfg.clone(),
        nm_patterns: nm_out.patterns.len(),
        match_patterns: match_out.patterns.len(),
        nm_avg_len: avg_len(&nm_out.patterns),
        match_avg_len: avg_len(&match_as_mined),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_rows() {
        // Tiny: debug-mode smoke test; `exp_fig3` is the real thing.
        let cfg = Fig3Config {
            traces: 30,
            train: 24,
            k: 20,
            max_len: 5,
            ..Fig3Config::default()
        };
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 6);
        let models: Vec<&str> = r.rows.iter().map(|x| x.model.as_str()).collect();
        assert!(models.contains(&"LM") && models.contains(&"LKF") && models.contains(&"RMF"));
        for row in &r.rows {
            assert!(row.base > 0, "{} should mis-predict sometimes", row.model);
            assert!(
                row.reduction <= 1.0,
                "reduction ratio out of range: {}",
                row.reduction
            );
        }
    }
}
