//! Host-time benchmark of the simulator on paper-scale Montage cells.
//!
//! Everything here measures the simulator from outside: it calls the
//! public functions of each layer and times those calls. `run.py` drives
//! the `perfbench` binary built from this package and prints the result.

pub mod export;
pub mod layers;
pub mod outcome;
pub mod recompose;
pub mod replay;
pub mod workload;
