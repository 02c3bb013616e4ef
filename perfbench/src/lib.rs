//! The repository benchmark: three named FedMigr workloads run through the
//! public library API, with end-to-end metrics measured untraced and
//! per-layer metrics from a separate traced run. See `BENCHMARK.json` at
//! the repository root for the metric and workload contract, and
//! `perfbench/README.md` for how to run it.

pub mod check;
pub mod e2e;
pub mod host;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;
