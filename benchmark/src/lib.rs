//! `bbmark`: the repository's one benchmark.
//!
//! Measures the bandwidth-broker daemon end to end — set-up latency at
//! a fixed request rate, decisions per second at saturation, CPU and
//! memory per decision and per flow — over four churn workloads, each
//! against a real daemon process over loopback TCP, and attributes the
//! time layer by layer with a separate traced in-process replay. See
//! `README.md` beside this crate for the glossary and procedures.

#![warn(missing_docs)]

pub mod affinity;
pub mod driver;
pub mod layers;
pub mod proc;
pub mod report;
pub mod run;
pub mod stats;
pub mod timer;
pub mod trace;
pub mod verify;
pub mod workload;
