//! Discrete-event simulator of a two-tier (application + database)
//! website — the testbed substrate for the webcap reproduction.
//!
//! The paper's experiments ran on a physical Tomcat/MySQL testbed driven
//! by TPC-W clients. This crate substitutes a faithful queueing-network
//! simulation (see `DESIGN.md` for the substitution argument):
//!
//! * [`Simulation`] — the engine: emulated browsers, each drawing its
//!   think times and request types from the seeded run's one RNG, issue
//!   requests that hold an app-tier worker thread across CPU bursts and
//!   database calls; each DB call takes a connection, burns DB CPU, and
//!   may touch disk.
//! * [`resources`] — processor-sharing CPUs with contention degradation
//!   (capacity declines past saturation), FIFO token pools, a FCFS disk.
//! * [`telemetry`] — per-second [`SystemSample`]s, the run's only output,
//!   feeding the HPC and OS metric synthesizers and the capacity meter.
//! * [`gauss`] — the standard normals the HPC and OS synthesizers and the
//!   engine's background process draw, two per Box–Muller pair.
//! * [`SimConfig`] — the paper-like default testbed
//!   ([`SimConfig::testbed`]): single-core app server, dual-core DB
//!   server, 128 worker threads, 10 connections.
//!
//! # Example
//!
//! ```
//! use webcap_sim::{run, SimConfig};
//! use webcap_tpcw::{Mix, TrafficProgram};
//!
//! let program = TrafficProgram::steady(Mix::shopping(), 30, 30.0);
//! let out = run(SimConfig::testbed(7), program);
//! assert_eq!(out.samples.len(), 30);
//! let completed: u64 = out.samples.iter().map(|s| s.front.completed).sum();
//! assert!(completed > 0);
//! ```

// The determinism bans of DESIGN §8 (configured in the root `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod config;
pub mod demand;
pub mod engine;
pub mod gauss;
pub mod histogram;
pub mod resources;
pub mod telemetry;
pub mod time;

pub use config::{SimConfig, TierConfig, TierId};
pub use demand::{Demand, DemandProfile};
pub use engine::{run, SimOutput, Simulation};
pub use histogram::RtHistogram;
pub use telemetry::{AppStats, SystemSample, TierSample};
pub use time::{SimDuration, SimTime};
