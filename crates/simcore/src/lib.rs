//! # edison-simcore
//!
//! Discrete-event simulation kernel used by every substrate in the
//! reproduction of *"An Experimental Evaluation of Datacenter Workloads On
//! Low-Power Embedded Micro Servers"* (VLDB 2016).
//!
//! The kernel is deliberately small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time.
//! * [`Simulation`] / [`Model`] — a single-threaded event loop over a
//!   user-supplied world type. Events are an arbitrary user enum; ties in
//!   time are broken by insertion order so runs are exactly reproducible.
//!   Keyed events ([`Ctx::schedule_keyed`]) hold one replaceable pending
//!   event per key, for tentative completions. [`Simulation::run`] is the
//!   hook-free loop; [`Simulation::run_profiled`] drives the same loop
//!   through the one hook trait, [`Profiler`].
//! * [`profile`] — [`KindProfiler`] accumulates an [`EngineProfile`], the
//!   simulator's one set of event counts per kind, heap pushes and queue
//!   depths.
//! * [`fluid::FluidResource`] — a processor-sharing "fluid" resource used to
//!   model CPUs (cores shared among threads) and network links (bandwidth
//!   shared among flows) without time-stepping.
//! * [`queue::FcfsQueue`] — a k-server first-come-first-served queue used to
//!   model disks and database servers.
//! * [`token_bucket::TokenBucket`] — a lazily refilled rate/burst bucket,
//!   the admission gate of node accept paths and load balancers.
//! * [`stats`] — histograms, percentile sample sets, time series and counters
//!   used by the experiment harness to regenerate the paper's figures.
//! * [`energy::StepIntegrator`] — exact integration of piecewise-constant
//!   power draw into joules, the paper's headline metric.
//! * [`rng`] — seeded deterministic random number helpers.
//!
//! The kernel has no knowledge of servers, networks or workloads; those live
//! in the `edison-hw`, `edison-cluster`, `edison-net`, `edison-web` and
//! `edison-mapreduce` crates.

pub mod energy;
pub mod engine;
pub mod fluid;
mod keyed;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod token_bucket;

pub use engine::{Ctx, Model, Simulation};
pub use profile::{EngineProfile, KindProfiler, KindStats, NoopProfiler, Profiler};

/// The old name of [`NoopProfiler`], kept only because the frozen host-time
/// benchmark (`perfbench/src/trace.rs`) still imports it.
pub use profile::NoopProfiler as NoopObserver;
pub use time::{SimDuration, SimTime};
