//! End-to-end and per-layer benchmark of the mpc-spanners workspace.
//!
//! Seeded workloads drive the public API — MPC spanner builds and an
//! APSP distance oracle, with probes into the serving tier in the traced
//! run — check every output, and report metrics by name and unit. See
//! `README.md` in this directory for the metric definitions and
//! `run.py` for the command that builds and runs it.

pub mod check;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
