//! The `mine` workload: single-threaded `Miner::mine`, round-robin over
//! a fixed pool of ZebraNet datasets. Single-herd sets let the bound
//! prune bite; multi-herd sets leave thresholds far below the bounds so
//! pruning fails. No feed, window or HTTP code runs here.

use crate::trace::Tracer;
use crate::util::{self, Metrics, Tally};
use std::time::{Duration, Instant};
use trajdata::Dataset;
use trajgeo::{BBox, Grid};
use trajpattern::{Miner, MiningOutcome, MiningParams, PatternIndex, Scorer};

/// Pool datasets per herd shape (single herd, multi herd).
const PER_SHAPE: usize = 64;
/// Pool parses the traced run times for `trajdata.parse_ms`.
const SETUP_REPEATS: usize = 15;

/// One pool entry as the analyst hands it over: dataset JSON plus the
/// grid side it is mined at.
pub struct Input {
    pub json: String,
    pub grid_side: u32,
}

/// The parsed pool.
pub struct Pool {
    pub data: Vec<Dataset>,
    pub grids: Vec<Grid>,
}

pub fn params() -> MiningParams {
    MiningParams::new(10, 0.03)
        .and_then(|p| p.with_max_len(5))
        .expect("valid mining parameters")
}

/// Generates the pool from `seed` (input generation: never timed).
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::with_capacity(2 * PER_SHAPE);
    for i in 0..PER_SHAPE {
        let s = 24 + 4 * (i % 4);
        let w = bench::workloads::zebranet_workload(s, 24, 10, seed.wrapping_mul(256) + i as u64);
        out.push(Input {
            json: w.data.to_json(),
            grid_side: 10,
        });
    }
    for i in 0..PER_SHAPE {
        let cfg = datagen::ZebraConfig {
            num_groups: 2 + i % 3,
            zebras_per_group: 10,
            snapshots: 24,
            leave_prob: 0.001,
            ..datagen::ZebraConfig::default()
        };
        let s = seed.wrapping_mul(256) + 128 + i as u64;
        let data = datagen::observe_directly(&cfg.paths(s), 0.015, s ^ 0x0b5e);
        out.push(Input {
            json: data.to_json(),
            grid_side: 10,
        });
    }
    out
}

/// Parses one dataset through trajdata.
fn parse_one(input: &Input) -> Result<Dataset, String> {
    Dataset::from_json(&input.json).map_err(|e| format!("pool dataset does not parse: {e}"))
}

/// Parses the pool and builds its grids: the workload's set-up.
pub fn parse(inputs: &[Input]) -> Result<Pool, String> {
    let mut pool = Pool {
        data: Vec::with_capacity(inputs.len()),
        grids: Vec::with_capacity(inputs.len()),
    };
    for input in inputs {
        pool.data.push(parse_one(input)?);
        pool.grids.push(
            Grid::new(BBox::unit(), input.grid_side, input.grid_side)
                .map_err(|e| format!("bad grid: {e}"))?,
        );
    }
    Ok(pool)
}

fn mine(data: &Dataset, grid: &Grid) -> Result<MiningOutcome, String> {
    Miner::new(data, grid)
        .params(params())
        .threads(1)
        .mine()
        .map_err(|e| format!("mine failed: {e}"))
}

/// Bit-identity of two mining outcomes: patterns, NM bits, groups and
/// counters.
fn same_outcome(a: &MiningOutcome, b: &MiningOutcome) -> Result<(), String> {
    if !util::same_topk(&a.patterns, &b.patterns) {
        return Err("repeat mine differs from its warm-up mine (patterns)".into());
    }
    if a.groups.len() != b.groups.len() || a.stats.counters() != b.stats.counters() {
        return Err("repeat mine differs from its warm-up mine (groups or counters)".into());
    }
    Ok(())
}

/// Set-up timed once: the parsed pool and its time in seconds.
fn setup(inputs: &[Input]) -> Result<(Pool, f64), String> {
    let start = Instant::now();
    let pool = parse(inputs)?;
    Ok((pool, start.elapsed().as_secs_f64()))
}

/// The untraced run: set-up, warm-up, then round-robin mines for
/// `seconds`. Each timed step parses the dataset's bytes and mines it:
/// `latency` is the mine, `freshness` bytes-to-top-k.
///
/// The set-up is timed again after every round, outside the mining
/// time, and `setup_s` is the median. The host's speed at parsing
/// shifts between two levels (~70 and ~120 ms for the pool) for seconds
/// at a time, so back-to-back set-ups caught whichever level held then:
/// the medians of two ten-run sets differed by a third.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let inputs = inputs(seed);
    let (pool, first) = setup(&inputs)?;
    let mut setup_s = vec![first];
    let reference: Vec<MiningOutcome> = pool
        .data
        .iter()
        .zip(&pool.grids)
        .map(|(d, g)| mine(d, g))
        .collect::<Result<_, _>>()?;

    // Whole rounds only (every pool dataset once per round), so each
    // dataset is weighted equally; a round starts only if it fits the
    // budget at the pace of the previous one.
    let mut latency = Vec::new();
    let mut freshness = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut last_round, mut mining) = (Duration::ZERO, Duration::ZERO);
    while latency.is_empty() || start.elapsed() + last_round <= budget {
        let round = Instant::now();
        for (j, input) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            let data = parse_one(input);
            let t1 = Instant::now();
            let outcome = data.and_then(|d| mine(&d, &pool.grids[j]));
            let t2 = Instant::now();
            match outcome {
                Ok(out) => {
                    tally.check(same_outcome(&out, &reference[j]));
                    latency.push(util::ms(t2 - t1));
                    freshness.push(util::ms(t2 - t0));
                }
                Err(e) => tally.lost(e),
            }
        }
        last_round = round.elapsed();
        mining += last_round;
        let (again, took) = setup(&inputs)?;
        std::hint::black_box(again);
        setup_s.push(took);
    }

    m.put("setup_s", util::median(&setup_s).expect("samples"), "s");
    m.put(
        "throughput_per_s",
        latency.len() as f64 / mining.as_secs_f64(),
        "1/s",
    );
    util::put_percentiles(m, "latency", &[&latency])?;
    util::put_percentiles(m, "freshness", &[&freshness])?;
    Ok(())
}

/// The traced phase: the miner's layers (trajdata parse, scorer build,
/// indexed and unindexed scoring, the growth counters) plus the mine
/// loop with and without spans. Returns the tracing overhead share.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<f64, String> {
    const SCORE_REPEATS: usize = 20;
    let inputs = inputs(seed);
    let mut parse_ms = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_REPEATS {
        let span = tracer.open("trajdata.parse_pool", None, 0);
        let start = Instant::now();
        pool = Some(parse(&inputs)?);
        parse_ms.push(util::ms(start.elapsed()));
        tracer.close(span);
    }
    let pool = pool.expect("at least one parse");
    let params = params();

    let mut build_ms = Vec::new();
    let (mut indexed_ms, mut plain_ms, mut scored) = (0.0, 0.0, 0usize);
    let mut reference = Vec::new();
    for (j, (data, grid)) in pool.data.iter().zip(&pool.grids).enumerate() {
        let outcome = mine(data, grid)?;
        let batch: Vec<_> = outcome.patterns.iter().map(|p| p.pattern.clone()).collect();
        let start = Instant::now();
        let scorer = tracer.time("trajpattern.scorer_build", None, j as u64, || {
            let scorer = Scorer::new(data, grid, params.delta, params.min_prob);
            std::hint::black_box(scorer.nm_all_singulars());
            scorer
        });
        build_ms.push(util::ms(start.elapsed()));
        let index = PatternIndex::build(&batch, grid);
        for _ in 0..SCORE_REPEATS {
            let start = Instant::now();
            let with = tracer.time("trajpattern.score_indexed", None, j as u64, || {
                scorer.query(&batch).with_index(&index).run()
            });
            indexed_ms += util::ms(start.elapsed());
            let start = Instant::now();
            let without = tracer.time("trajpattern.score_noindex", None, j as u64, || {
                scorer.query(&batch).run()
            });
            plain_ms += util::ms(start.elapsed());
            let same = with.len() == without.len()
                && with
                    .iter()
                    .zip(&without)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            tally.check(if same {
                Ok(())
            } else {
                Err("indexed scoring differs from unindexed scoring".into())
            });
            scored += batch.len();
        }
        reference.push(outcome);
    }

    // The mine loop, untraced then traced over the same mine count.
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let mut mines = 0usize;
    while start.elapsed() < budget {
        let j = mines % pool.data.len();
        tally.check(same_outcome(
            &mine(&pool.data[j], &pool.grids[j])?,
            &reference[j],
        ));
        mines += 1;
    }
    let untraced = start.elapsed().as_secs_f64();
    let (mut scored_c, mut evals, mut generated, mut pruned, mut cells) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for i in 0..mines {
        let j = i % pool.data.len();
        let out = tracer.time("trajpattern.mine", None, i as u64, || {
            mine(&pool.data[j], &pool.grids[j])
        })?;
        tally.check(same_outcome(&out, &reference[j]));
        scored_c += out.stats.candidates_scored;
        evals += out.stats.nm_evaluations;
        generated += out.stats.candidates_generated;
        pruned += out.stats.candidates_bound_pruned;
        cells += out.scorer.cached_cells;
    }
    let traced = start.elapsed().as_secs_f64();

    let n = mines.max(1) as f64;
    m.put(
        "trajdata.parse_ms",
        util::median(&parse_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajpattern.scorer_build_ms",
        util::median(&build_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajpattern.score_us_per_pattern",
        indexed_ms * 1e3 / scored.max(1) as f64,
        "us",
    );
    m.put(
        "trajpattern.score_us_per_pattern_noindex",
        plain_ms * 1e3 / scored.max(1) as f64,
        "us",
    );
    m.put(
        "trajpattern.candidates_scored",
        scored_c as f64 / n,
        "count",
    );
    m.put("trajpattern.nm_evaluations", evals as f64 / n, "count");
    m.put(
        "trajpattern.bound_pruned_ratio",
        pruned as f64 / generated.max(1) as f64,
        "ratio",
    );
    m.put("trajgeo.cached_cells", cells as f64 / n, "count");
    Ok(traced / untraced - 1.0)
}
