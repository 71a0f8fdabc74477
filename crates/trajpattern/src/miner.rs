//! Session-style mining facade and the crate-wide error type.
//!
//! [`Miner`] owns the scorer lifecycle for one mining session: it borrows
//! the dataset and grid once, lets the caller layer parameters and a
//! thread count on top, and produces a [`MiningOutcome`]. It is the one
//! entry point for a batch mine.
//!
//! ```
//! use trajdata::{Dataset, Trajectory};
//! use trajgeo::{BBox, Grid, Point2};
//! use trajpattern::{Miner, MiningParams};
//!
//! let data: Dataset = (0..10)
//!     .map(|_| {
//!         Trajectory::from_exact((0..4).map(|i| Point2::new(0.125 + i as f64 * 0.25, 0.625)))
//!     })
//!     .collect();
//! let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
//! let outcome = Miner::new(&data, &grid)
//!     .params(MiningParams::new(3, 0.1)?)
//!     .threads(2)
//!     .mine()?;
//! assert_eq!(outcome.patterns.len(), 3);
//! # Ok::<(), trajpattern::Error>(())
//! ```

use crate::algorithm::MiningOutcome;
use crate::checkpoint::{self, CheckpointError, Fingerprint};
use crate::engine::{empty_outcome, finish, init_state, run_growth};
use crate::params::{MiningParams, ParamsError};
use crate::scorer::Scorer;
use std::fmt;
use std::path::PathBuf;
use trajdata::csv::CsvError;
use trajdata::{Dataset, TrajectoryError};
use trajgeo::{Grid, GridError};

/// Any error reachable from a mining session: invalid parameters, a grid /
/// trajectory construction problem surfaced while preparing input, a CSV
/// ingest failure, or a bad checkpoint file.
///
/// Each variant wraps the originating crate's error and exposes it via
/// [`std::error::Error::source`], so callers (e.g. the CLI) can render the
/// whole chain uniformly — ingest errors carry their 1-based line number
/// through the source chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid [`MiningParams`].
    Params(ParamsError),
    /// Invalid grid construction.
    Grid(GridError),
    /// Invalid trajectory construction or transformation.
    Trajectory(TrajectoryError),
    /// CSV ingest failed (under [`trajdata::IngestPolicy::Strict`] any
    /// defect is fatal; the wrapped error names the offending line).
    Ingest(CsvError),
    /// A checkpoint file could not be written, read, or validated.
    Checkpoint(CheckpointError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Params(_) => write!(f, "invalid mining parameters"),
            Error::Grid(_) => write!(f, "invalid grid"),
            Error::Trajectory(_) => write!(f, "invalid trajectory data"),
            Error::Ingest(_) => write!(f, "trajectory ingest failed"),
            Error::Checkpoint(_) => write!(f, "checkpoint failure"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Params(e) => Some(e),
            Error::Grid(e) => Some(e),
            Error::Trajectory(e) => Some(e),
            Error::Ingest(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
        }
    }
}

impl From<ParamsError> for Error {
    fn from(e: ParamsError) -> Error {
        Error::Params(e)
    }
}

impl From<GridError> for Error {
    fn from(e: GridError) -> Error {
        Error::Grid(e)
    }
}

impl From<TrajectoryError> for Error {
    fn from(e: TrajectoryError) -> Error {
        Error::Trajectory(e)
    }
}

impl From<CsvError> for Error {
    fn from(e: CsvError) -> Error {
        Error::Ingest(e)
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Error {
        Error::Checkpoint(e)
    }
}

/// Builder-style mining session over one dataset and grid.
///
/// Construct with [`Miner::new`], optionally set [`params`](Miner::params)
/// and [`threads`](Miner::threads), then call [`mine`](Miner::mine). When
/// no parameters are supplied, `k = 10` with `δ` equal to half the smaller
/// cell dimension is used — the same default as the CLI.
#[derive(Debug, Clone)]
pub struct Miner<'a> {
    data: &'a Dataset,
    grid: &'a Grid,
    params: Option<MiningParams>,
    threads: Option<usize>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
}

impl<'a> Miner<'a> {
    /// Starts a mining session over `data` and `grid`.
    pub fn new(data: &'a Dataset, grid: &'a Grid) -> Miner<'a> {
        Miner {
            data,
            grid,
            params: None,
            threads: None,
            checkpoint: None,
            resume: None,
        }
    }

    /// Sets the full parameter set for this session.
    pub fn params(mut self, params: MiningParams) -> Miner<'a> {
        self.params = Some(params);
        self
    }

    /// Overrides the scorer worker-thread count (`0` = auto, one per
    /// available core). Takes precedence over [`MiningParams::threads`].
    /// Any value yields bit-identical results (see DESIGN.md §5).
    pub fn threads(mut self, threads: usize) -> Miner<'a> {
        self.threads = Some(threads);
        self
    }

    /// Writes a checkpoint to `path` after every completed growth level
    /// (atomically: a temporary sibling file is renamed into place, so an
    /// interruption mid-save never leaves a torn file). See
    /// [`crate::checkpoint`] for the format.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Miner<'a> {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resumes a previous run from the checkpoint at `path` instead of
    /// starting from the singular patterns. The checkpoint must have been
    /// written under the same parameters, dataset, and grid (`max_iters`
    /// excepted — raise it freely when resuming an interrupted run);
    /// anything else is rejected with [`Error::Checkpoint`]. A resumed run
    /// produces bit-identical patterns to an uninterrupted one.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Miner<'a> {
        self.resume = Some(path.into());
        self
    }

    /// The effective parameters this session would mine with.
    pub fn effective_params(&self) -> Result<MiningParams, Error> {
        let mut params = match &self.params {
            Some(p) => p.clone(),
            None => MiningParams::new(10, default_delta(self.grid))?,
        };
        if let Some(t) = self.threads {
            params.threads = t;
        }
        params.validate()?;
        Ok(params)
    }

    /// Runs the mining session.
    ///
    /// Builds a [`Scorer`] sharded across the configured number of worker
    /// threads and drives the growing process with batch scoring. Results
    /// are bit-identical for every thread count.
    pub fn mine(&self) -> Result<MiningOutcome, Error> {
        let params = self.effective_params()?;
        if self.data.is_empty() || self.grid.num_cells() == 0 {
            return Ok(empty_outcome());
        }
        let scorer = Scorer::with_threads(
            self.data,
            self.grid,
            params.delta,
            params.min_prob,
            params.threads,
        );
        let fingerprint = Fingerprint::new(&params, self.data, self.grid);
        let mut state = match &self.resume {
            Some(path) => checkpoint::load(path, &fingerprint)?,
            None => init_state(&scorer, &params, &[]).expect("an empty seed is always valid"),
        };
        run_growth(&scorer, &params, &mut state, |s| -> Result<(), Error> {
            if let Some(path) = &self.checkpoint {
                checkpoint::save(path, s, &fingerprint)?;
            }
            Ok(())
        })?;
        Ok(finish(&scorer, &params, state))
    }
}

/// Default indifference distance: half the smaller cell dimension, so a
/// location "matches" a cell center only from well inside the cell.
fn default_delta(grid: &Grid) -> f64 {
    0.5 * grid.cell_width().min(grid.cell_height())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdata::Trajectory;
    use trajgeo::{BBox, Point2};

    fn sample_data() -> Dataset {
        (0..12)
            .map(|j| {
                Trajectory::from_exact((0..5).map(|i| {
                    Point2::new(
                        0.1 + i as f64 * 0.2,
                        0.3 + (j % 3) as f64 * 0.2 + i as f64 * 0.01,
                    )
                }))
            })
            .collect()
    }

    #[test]
    fn miner_parallel_matches_sequential() {
        let data = sample_data();
        let grid = Grid::new(BBox::unit(), 5, 5).unwrap();
        let params = MiningParams::new(5, 0.05).unwrap();

        let seq = Miner::new(&data, &grid)
            .params(params.clone())
            .threads(1)
            .mine()
            .unwrap();
        for threads in [2usize, 4] {
            let par = Miner::new(&data, &grid)
                .params(params.clone())
                .threads(threads)
                .mine()
                .unwrap();
            assert_eq!(seq.patterns, par.patterns);
            assert_eq!(seq.stats, par.stats);
            for (a, b) in seq.patterns.iter().zip(&par.patterns) {
                assert_eq!(a.nm.to_bits(), b.nm.to_bits());
            }
        }
    }

    #[test]
    fn default_params_mirror_cli() {
        let data = sample_data();
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let p = Miner::new(&data, &grid).effective_params().unwrap();
        assert_eq!(p.k, 10);
        assert!((p.delta - 0.125).abs() < 1e-12);
    }

    #[test]
    fn threads_override_wins_over_params() {
        let data = sample_data();
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(2, 0.05).unwrap().with_threads(3).unwrap();
        let p = Miner::new(&data, &grid)
            .params(params)
            .threads(1)
            .effective_params()
            .unwrap();
        assert_eq!(p.threads, 1);
    }

    #[test]
    fn error_chain_renders() {
        let err = Error::from(ParamsError::ZeroK);
        assert_eq!(err.to_string(), "invalid mining parameters");
        let source = std::error::Error::source(&err).unwrap();
        assert_eq!(source.to_string(), "k must be at least 1");
        let g: Error = GridError::ZeroCells.into();
        assert!(std::error::Error::source(&g).is_some());
        let t: Error = TrajectoryError::TooShort {
            required: 2,
            actual: 1,
        }
        .into();
        assert!(matches!(t, Error::Trajectory(_)));
    }
}
