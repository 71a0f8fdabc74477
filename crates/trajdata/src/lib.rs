//! Imprecise trajectory data model (§3.2 of the TrajPattern paper).
//!
//! A mobile object's location at a synchronized snapshot is not a point but
//! a distribution: "`T = (l₁,σ₁), (l₂,σ₂), …` where `l_i` and `σ_i` are the
//! mean and standard deviation of the distribution of the true location of
//! o at the i-th snapshot". This crate provides:
//!
//! - [`SnapshotPoint`]: one `(l_i, σ_i)` entry.
//! - [`Trajectory`]: a validated sequence of snapshot points, with the
//!   paper's location→velocity transformation ([`Trajectory::to_velocity`]).
//! - [`Dataset`]: a collection of trajectories (the miner's input `D`) with
//!   summary statistics and (optionally) JSON persistence.
//! - [`resample`]: linear resampling of raw timestamped traces onto a
//!   synchronized snapshot schedule, used to align raw GPS-style readings
//!   before they enter the reporting/prediction pipeline.
//! - [`csv`]: a dependency-free CSV codec for bulk trace interchange, with
//!   fault-tolerant ingest policies ([`csv::ingest`]) for damaged files.
//! - [`sanitize`]: in-place repair of recoverable dataset defects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dataset;
pub mod eventlog;
pub mod resample;
pub mod sanitize;
pub mod snapshot;
pub mod trajectory;

pub use csv::{ingest, IngestPolicy, IngestReport};
pub use dataset::{Dataset, DatasetStats};
pub use eventlog::{EventLogError, LineFollower};
pub use sanitize::{sanitize, SanitizeReport};
pub use snapshot::SnapshotPoint;
pub use trajectory::{Trajectory, TrajectoryError};
