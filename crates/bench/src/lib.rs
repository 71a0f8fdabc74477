//! Experiment harness regenerating every figure of the TrajPattern paper.
//!
//! Each experiment is a library function returning a serializable result
//! struct, driven by a binary (`exp_*`) that prints a human-readable table
//! and writes JSON under `results/`. The live serving path (fleet, HTTP
//! routes, freshness) is timed by the separate `perfbench` package, not
//! here.
//!
//! Figure → module map (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | Paper artifact | Module |
//! |---|---|
//! | §6.1 pattern-length statistic | [`lengths`] |
//! | Fig. 3 (mis-prediction reduction) | [`fig3`] |
//! | Fig. 4(a)–(d) (scalability) | [`fig4`] |
//! | Fig. 4(e) (groups vs δ) | [`fig4e`] |
//! | Pruning ablation (ours) | [`ablation`] |
//! | Streaming throughput (ours) | [`stream`] |
//! | Query throughput, indexed vs brute force (ours) | [`query`] |
//!
//! [`digest`] hashes every value the scorer and the growth engine decide
//! over a fixed pool, so two builds can be compared bit for bit.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod digest;
pub mod fig3;
pub mod fig4;
pub mod fig4e;
pub mod lengths;
pub mod query;
pub mod report;
pub mod stream;
pub mod workloads;
