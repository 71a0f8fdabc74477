//! Ablation of the TrajPattern pruning machinery (not in the paper —
//! DESIGN.md calls this out as an extension).
//!
//! The miner has two exact prunings: the weighted-mean candidate bound
//! (derived from the min-max proof) and the 1-extension/τ retention rule
//! (Lemma 1). Both can be disabled independently; the mined top-k is
//! identical in all four configurations (asserted here), only the work
//! changes — which is the point of the paper's §4.1.

use crate::workloads::zebranet_workload;
use serde::Serialize;
use std::time::Instant;
use trajpattern::{Miner, MiningParams, MiningStats};

/// One ablation configuration's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Configuration label.
    pub variant: String,
    /// Wall time in seconds.
    pub secs: f64,
    /// Candidates scored against the data.
    pub scored: u64,
    /// Candidates skipped by the bound.
    pub bound_pruned: u64,
    /// Final |Q|.
    pub queue: usize,
}

/// Full ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// Workload descriptor.
    pub workload: String,
    /// The four variants.
    pub rows: Vec<AblationRow>,
    /// Whether all variants returned identical NM sequences.
    pub identical_results: bool,
}

/// Runs the four pruning variants on a ZebraNet workload.
pub fn run(
    s: usize,
    l: usize,
    grid_side: u32,
    k: usize,
    max_len: usize,
    seed: u64,
) -> AblationResult {
    let w = zebranet_workload(s, l, grid_side, seed);
    let base = MiningParams::new(k, 0.03)
        .expect("valid params")
        .with_max_len(max_len)
        .expect("valid params");

    let variants: Vec<(String, bool, bool)> = vec![
        ("bound+1ext (full)".into(), true, true),
        ("bound only".into(), true, false),
        ("1ext only".into(), false, true),
        ("no pruning".into(), false, false),
    ];

    let mut rows = Vec::new();
    let mut reference: Option<Vec<f64>> = None;
    let mut identical = true;
    for (label, bound, one_ext) in variants {
        let mut p = base.clone();
        p.use_bound_prune = bound;
        p.use_one_extension_prune = one_ext;
        let t0 = Instant::now();
        let out = Miner::new(&w.data, &w.grid)
            .params(p)
            .mine()
            .expect("mining succeeds");
        let secs = t0.elapsed().as_secs_f64();
        let nms: Vec<f64> = out.patterns.iter().map(|m| m.nm).collect();
        match &reference {
            None => reference = Some(nms),
            Some(r) => {
                if r.len() != nms.len() || r.iter().zip(&nms).any(|(a, b)| (a - b).abs() > 1e-9) {
                    identical = false;
                }
            }
        }
        let MiningStats {
            candidates_scored,
            candidates_bound_pruned,
            final_queue_size,
            ..
        } = out.stats;
        rows.push(AblationRow {
            variant: label,
            secs,
            scored: candidates_scored,
            bound_pruned: candidates_bound_pruned,
            queue: final_queue_size,
        });
    }

    AblationResult {
        workload: format!("zebranet s={s} l={l} grid={grid_side}² k={k} max_len={max_len}"),
        rows,
        identical_results: identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_and_full_pruning_does_least_work() {
        let r = run(12, 15, 6, 5, 4, 3);
        assert!(r.identical_results, "pruning must not change results");
        assert_eq!(r.rows.len(), 4);
        let full = &r.rows[0];
        let none = &r.rows[3];
        assert!(
            full.scored <= none.scored,
            "full pruning scored {} > unpruned {}",
            full.scored,
            none.scored
        );
    }
}
