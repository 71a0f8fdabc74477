//! **TrajPattern**: mining top-k sequential patterns from imprecise
//! trajectories of mobile objects (Yang & Hu, EDBT 2006).
//!
//! # The problem
//!
//! The input is a set `D` of imprecise trajectories: at each synchronized
//! snapshot an object's true location is a 2-D normal around a predicted
//! mean (see the `trajdata` and `mobility` crates). A *trajectory pattern*
//! is an ordered list of grid-cell centers; its importance is measured by
//! the **normalized match** (NM):
//!
//! ```text
//! M(P,T')  = Π_i Prob(l_i, σ_i, p_i, δ)         (joint probability, Eq. 2)
//! NM(P,T') = log M(P,T') / |P|                  (length-normalized, Eq. 3)
//! NM(P,T)  = max over windows T' ⊆ T of NM(P,T')      (Eq. 4)
//! NM(P)    = Σ_{T∈D} NM(P,T)
//! ```
//!
//! The goal: find the `k` patterns with the highest NM, presented as
//! **pattern groups** of near-identical patterns.
//!
//! # The algorithm
//!
//! The Apriori property fails for NM, but the **min-max property** holds:
//! `NM(P'·P'') ≤ max(NM(P'), NM(P''))` — in fact the proof yields the
//! tighter weighted-mean bound used by [`minmax`]. [`Miner`] runs the
//! paper's growing process: singular patterns seed a candidate set `Q`;
//! high patterns (NM above the running k-th-best threshold ω) are
//! concatenated with every pattern in `Q`; low patterns survive pruning
//! only if they satisfy the *1-extension property* (Lemma 1). §5's
//! extensions — minimum pattern length and wildcard positions — are
//! available through [`MiningParams`] and [`gapped`].
//!
//! Batch mining and the ledger-seeded re-growth behind the streaming
//! repair path ([`mine_seeded`]) drive the *same* growing loop over the
//! same [`Scorer`], housed in [`engine`] — so pruning-decision parity
//! across the stack holds by construction.
//!
//! # Quick example
//!
//! ```
//! use trajdata::{Dataset, Trajectory};
//! use trajgeo::{BBox, Grid, Point2};
//! use trajpattern::{Miner, MiningParams};
//!
//! // Ten objects sweeping left-to-right across a 4×4 grid.
//! let data: Dataset = (0..10)
//!     .map(|_| {
//!         Trajectory::from_exact((0..4).map(|i| Point2::new(0.125 + i as f64 * 0.25, 0.625)))
//!     })
//!     .collect();
//! let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
//! let outcome = Miner::new(&data, &grid)
//!     .params(MiningParams::new(3, 0.1).unwrap())
//!     .threads(0) // 0 = one scorer worker per core; results are identical
//!     .mine()
//!     .unwrap();
//! assert_eq!(outcome.patterns.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod bruteforce;
pub mod checkpoint;
pub mod engine;
pub mod gapped;
pub mod groups;
pub mod index;
pub mod miner;
pub mod minmax;
pub mod params;
pub mod pattern;
pub mod prune;
pub mod scorer;
pub mod seeded;
pub mod stats;
pub mod topk;

pub use algorithm::{effective_max_len_from, MiningOutcome, MiningStats};
pub use checkpoint::{CheckpointError, FingerprintKind};
pub use groups::PatternGroup;
pub use index::PatternIndex;
pub use miner::{Error, Miner};
pub use params::{MiningParams, ParamsError};
pub use pattern::{MinedPattern, Pattern};
pub use scorer::{CorridorTable, Measure, ScoreRequest, Scorer, ScorerStats, TableError};
pub use seeded::{certified_topk, mine_seeded, SeedCertifier, SeedError, SeededOutcome};
