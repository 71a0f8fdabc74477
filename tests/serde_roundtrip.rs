//! Serialization stability of the public data types: JSON round-trips
//! must be lossless, and the shapes must stay stable enough for external
//! tooling to consume (spot-checked field names).

use datagen::{observe_directly, UniformConfig};
use trajdata::Dataset;
use trajgeo::{BBox, CellId, Grid};
use trajpattern::{Miner, MiningParams, Pattern};

fn small_dataset() -> Dataset {
    let cfg = UniformConfig {
        num_objects: 4,
        snapshots: 10,
        ..UniformConfig::default()
    };
    observe_directly(&cfg.paths(5), 0.02, 6)
}

#[test]
fn dataset_json_round_trip_is_lossless() {
    let d = small_dataset();
    let j = d.to_json();
    let back = Dataset::from_json(&j).unwrap();
    assert_eq!(d, back);
}

#[test]
fn dataset_csv_round_trip_is_lossless() {
    let d = small_dataset();
    let back = trajdata::csv::from_csv(&trajdata::csv::to_csv(&d)).unwrap();
    assert_eq!(d, back);
}

#[test]
fn mined_patterns_serialize_with_stable_shape() {
    let d = small_dataset();
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(3, 0.1)
        .unwrap()
        .with_max_len(2)
        .unwrap()
        .with_gamma(0.3)
        .unwrap();
    let out = Miner::new(&d, &grid).params(params).mine().unwrap();

    let patterns_json = serde_json::to_value(&out.patterns).unwrap();
    let arr = patterns_json.as_array().unwrap();
    assert_eq!(arr.len(), 3);
    assert!(arr[0].get("pattern").is_some());
    assert!(arr[0].get("nm").is_some());

    let stats_json = serde_json::to_value(&out.stats).unwrap();
    for field in [
        "iterations",
        "candidates_generated",
        "candidates_scored",
        "candidates_bound_pruned",
        "final_queue_size",
        "nm_evaluations",
    ] {
        assert!(
            stats_json.get(field).is_some(),
            "missing stats field {field}"
        );
    }

    let groups_json = serde_json::to_value(&out.groups).unwrap();
    assert!(groups_json.as_array().unwrap().len() <= 3);
}

#[test]
fn pattern_serde_round_trip() {
    let p = Pattern::new(vec![CellId(3), CellId(1), CellId(4)]).unwrap();
    let j = serde_json::to_string(&p).unwrap();
    let back: Pattern = serde_json::from_str(&j).unwrap();
    assert_eq!(p, back);
}

#[test]
fn mining_params_serde_round_trip() {
    let params = MiningParams::new(7, 0.02)
        .unwrap()
        .with_min_len(3)
        .unwrap()
        .with_gamma(0.1)
        .unwrap();
    let j = serde_json::to_string(&params).unwrap();
    let back: MiningParams = serde_json::from_str(&j).unwrap();
    assert_eq!(params, back);
    assert!(back.validate().is_ok());
}

#[test]
fn reporting_scheme_serde_round_trip() {
    let scheme = mobility::ReportingScheme::new(0.05, 2.0, 0.1)
        .unwrap()
        .with_uncertainty_model(mobility::UncertaintyModel::GrowingWithTime { rate: 0.2 })
        .unwrap();
    let j = serde_json::to_string(&scheme).unwrap();
    let back: mobility::ReportingScheme = serde_json::from_str(&j).unwrap();
    assert_eq!(scheme, back);
}
