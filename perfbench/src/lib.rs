//! # nowlab-perfbench — the host-time benchmark of the nowlab simulator
//!
//! The simulator's own cost, measured the way the paper prices an
//! application: a base cost plus a count of units of work times the host
//! cost of one unit (`r + m·Δ`). [`bench`] runs the workloads in a closed
//! loop and reports end-to-end wall time, CPU time, event rate, peak
//! memory and set-up time; a traced run counts each layer's work at its
//! public boundary, times one unit of it with the [`calib`] loops, and
//! settles the two in a host-cost ledger whose residual is the cost no
//! layer metric explains yet.
//!
//! `perfbench/run.py` builds and launches the `perfbench` binary;
//! `perfbench/ab.py` compares two commits.

#![forbid(unsafe_code)]

pub mod bench;
pub mod calib;
pub mod host;
pub mod record;
pub mod stats;
