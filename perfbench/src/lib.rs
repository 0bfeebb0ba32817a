//! Whole-step benchmark of the SPH propagators.
//!
//! Steps the public propagators (`Simulation` and `DistributedSimulation`
//! over shm ranks) with pmt hooks attached, times them from outside with
//! tracing off, and folds the spans of a separate traced run into per-layer
//! numbers. See `run.py` for the command line.

pub mod fold;
pub mod host;
pub mod report;
pub mod workload;
