//! Failure injection: message loss and growing uncertainty through the
//! full pipeline. The miner must degrade gracefully — same cardinality,
//! weaker (more negative) NM values — never crash or return nonsense.

use datagen::{observe_via_reporting, ZebraConfig};
use mobility::{LinearModel, ReportingScheme, UncertaintyModel};
use trajgeo::{BBox, Grid};
use trajpattern::{Miner, MiningParams};

fn herd_paths(seed: u64) -> Vec<Vec<trajgeo::Point2>> {
    ZebraConfig {
        num_groups: 1,
        zebras_per_group: 12,
        snapshots: 40,
        ..ZebraConfig::default()
    }
    .paths(seed)
}

fn mine_top_nm(data: &trajdata::Dataset) -> Vec<f64> {
    let grid = Grid::new(BBox::unit(), 8, 8).unwrap();
    let params = MiningParams::new(5, 0.06).unwrap().with_max_len(3).unwrap();
    Miner::new(data, &grid)
        .params(params)
        .mine()
        .unwrap()
        .patterns
        .iter()
        .map(|m| m.nm)
        .collect()
}

#[test]
fn increasing_message_loss_monotonically_degrades_certainty() {
    let paths = herd_paths(31);
    let mut prev_sigma = -1.0;
    for loss in [0.0, 0.2, 0.5, 0.8] {
        let scheme = ReportingScheme::new(0.03, 2.0, loss).unwrap();
        let mut model = LinearModel::new();
        let data = observe_via_reporting(&paths, &mut model, &scheme, 32);
        let sigma = data.stats().unwrap().avg_sigma;
        assert!(
            sigma >= prev_sigma - 1e-12,
            "avg sigma decreased when loss rose to {loss}: {sigma} < {prev_sigma}"
        );
        prev_sigma = sigma;
        // Mining still returns the requested k with finite values.
        let nms = mine_top_nm(&data);
        assert_eq!(nms.len(), 5);
        assert!(nms.iter().all(|v| v.is_finite() && *v <= 0.0));
    }
}

#[test]
fn extreme_loss_still_produces_usable_data() {
    let paths = herd_paths(33);
    let scheme = ReportingScheme::new(0.03, 2.0, 0.95).unwrap();
    let mut model = LinearModel::new();
    let data = observe_via_reporting(&paths, &mut model, &scheme, 34);
    assert_eq!(data.len(), paths.len());
    // Almost everything is dead-reckoned…
    let stats = data.stats().unwrap();
    assert!(stats.avg_sigma > 0.01, "sigma {}", stats.avg_sigma);
    // …but mining still works.
    assert_eq!(mine_top_nm(&data).len(), 5);
}

#[test]
fn growing_uncertainty_models_flow_through_the_pipeline() {
    let paths = herd_paths(35);
    for model_kind in [
        UncertaintyModel::Constant,
        UncertaintyModel::GrowingWithTime { rate: 0.1 },
        UncertaintyModel::GrowingWithDistance { rate: 1.0 },
    ] {
        let scheme = ReportingScheme::new(0.03, 2.0, 0.0)
            .unwrap()
            .with_uncertainty_model(model_kind)
            .unwrap();
        let mut model = LinearModel::new();
        let data = observe_via_reporting(&paths, &mut model, &scheme, 36);
        let nms = mine_top_nm(&data);
        assert_eq!(nms.len(), 5, "{model_kind:?}");
        assert!(nms.iter().all(|v| v.is_finite()), "{model_kind:?}");
    }
}

#[test]
fn growing_tolerance_trades_reports_for_uncertainty() {
    let paths = herd_paths(37);
    let constant = ReportingScheme::new(0.02, 2.0, 0.0).unwrap();
    let growing = constant
        .with_uncertainty_model(UncertaintyModel::GrowingWithTime { rate: 0.5 })
        .unwrap();
    let count_reports = |scheme: &ReportingScheme| -> (usize, f64) {
        let mut model = LinearModel::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(38);
        let mut reports = 0;
        let mut sigma_sum = 0.0;
        let mut snaps = 0;
        for path in &paths {
            let out = mobility::simulate_reporting(path, &mut model, scheme, &mut rng);
            reports += out.reports.len();
            for sp in out.reconstructed.points() {
                sigma_sum += sp.sigma;
                snaps += 1;
            }
        }
        (reports, sigma_sum / snaps as f64)
    };
    let (r_const, s_const) = count_reports(&constant);
    let (r_grow, s_grow) = count_reports(&growing);
    assert!(
        r_grow <= r_const,
        "growing tolerance must not report more: {r_grow} vs {r_const}"
    );
    assert!(
        s_grow >= s_const,
        "fewer reports must cost uncertainty: {s_grow} vs {s_const}"
    );
}
