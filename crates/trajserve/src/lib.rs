//! trajserve — a concurrent pattern-query server over mined TrajPattern
//! snapshots.
//!
//! The server loads a [`snapshot::Snapshot`] — either `trajmine mine
//! --json` output or a `trajstream` checkpoint — and answers HTTP/1.1
//! queries over it:
//!
//! | Route               | Answer                                            |
//! |---------------------|---------------------------------------------------|
//! | `GET /v1/topk`      | the loaded snapshot (patterns, NMs, groups)       |
//! | `POST /v1/score`    | NMs for posted trajectories, bit-identical to the |
//! |                     | library [`Scorer`](trajpattern::Scorer) path      |
//! | `POST /v1/match`    | best-NM pattern + group for a partial trajectory  |
//! | `POST /v1/predict`  | next-cell distribution via `prediction`           |
//! | `GET /healthz`      | liveness                                          |
//! | `GET /metrics`      | plain-text counters (requests, latency, queue, …) |
//!
//! Every `/v1` POST route shares one request/response schema (see
//! [`query`]): a dataset plus optional `options` (measure, index
//! pruning, pattern filter) in; a `trajserve-query/v1` envelope out.
//! Scoring runs through the [`Scorer::query`](trajpattern::Scorer::query)
//! builder against a pattern spatial index prebuilt at snapshot load, so
//! queries skip patterns whose cells lie outside the posted
//! trajectories' probability-mass corridor — bit-identical to the
//! unindexed path, but without touching far patterns' log-prob rows.
//! Unversioned paths answer the structured 404.
//!
//! Everything is `std`-only: a [`std::net::TcpListener`] accept loop
//! feeds a bounded queue drained by a small worker pool, in the same
//! spirit as the scoped-thread scorer. The queue applies backpressure
//! (503 when full), each worker isolates request panics (a poisoned
//! request gets a 500 and the server keeps serving), and shutdown
//! drains in-flight work before the listener closes. With `--watch`
//! the server hot-reloads the snapshot when the file is rewritten —
//! e.g. a `trajmine stream` run refreshing its checkpoint.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fanout;
pub mod fleet;
pub mod http;
pub mod metrics;
pub mod query;
pub mod server;
pub mod signal;
pub mod snapshot;

pub use fanout::{merge_topk, MergedEntry, ShardTopk};
pub use fleet::FleetState;
pub use query::{QueryOptions, QueryRequest, QueryResponse, QUERY_SCHEMA};
pub use server::{Loaded, ServeError, Server, ServerConfig, ServerHandle};
pub use snapshot::{Snapshot, SnapshotError, SCHEMA};
