//! The Jedd-rs benchmark: four closed-loop, single-threaded workloads
//! measured end to end and split by layer from outside the program.
//!
//! See `perfbench/README.md` for the workloads, the layer → metric →
//! workload map and the steadiness design.

#![forbid(unsafe_code)]

pub mod calib;
pub mod probe;
pub mod run;
pub mod trace;
pub mod workloads;
