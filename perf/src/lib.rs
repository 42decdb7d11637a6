//! `perf`: the repository's one-command benchmark.
//!
//! Four workloads (`paper_shapes`, `serve_mixed`, `fleet_open`,
//! `gf2_closure`) each run in worker processes that stream one line per
//! op to a coordinator process, so a worker that crashes costs its in-flight
//! ops and a respawn, not the run. The coordinator reports end-to-end metrics
//! from an untraced window and per-layer metrics from calibration,
//! window counters and a separate traced run. See `README.md` beside
//! this crate for the workloads, metrics and how to run and compare.

pub mod calibrate;
pub mod cli;
pub mod diff;
pub mod metrics;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod stream;
pub mod workloads;
