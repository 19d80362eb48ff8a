//! End-to-end SQL benchmark of the engine: seeded `point`, `olap` and
//! `serve` workloads, every reply checked against a sequential census, and
//! per-layer timing taken from outside each module. The `perfbench` binary
//! drives it; see `README.md` in this directory.

pub mod drive;
pub mod host;
pub mod layers;
pub mod queries;
pub mod report;
pub mod setup;
pub mod spans;
pub mod stats;
