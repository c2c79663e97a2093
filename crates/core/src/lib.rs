//! # edison-core
//!
//! The experiment harness: one entry point per table and figure of the
//! paper, producing text reports (and paper-vs-measured comparisons) from
//! the simulation substrates.
//!
//! ```no_run
//! use edison_core::registry;
//! use edison_simrun::Executor;
//! use edison_simtel::Telemetry;
//!
//! let mut tel = Telemetry::off(); // or `Telemetry::on()` to record traces
//! let exec = Executor::from_env(); // worker-pool width for sweeps
//! for exp in registry::all().filter(|e| e.in_all) {
//!     match (exp.run)(&registry::RunBudget::quick(), &exec, &mut tel) {
//!         Ok(report) => println!("{report}"),
//!         Err(err) => eprintln!("{}: {err}", exp.id),
//!     }
//! }
//! ```
//!
//! The `repro` binary drives the same registry from the command line:
//! `repro --list`, `repro table8`, `repro --all --full`, and records
//! telemetry with `repro smoke --trace t.json --metrics m.prom`.

pub mod chart;
pub mod experiments;
pub mod export;
pub mod ledger;
pub mod paper;
pub mod registry;
pub mod report;

pub use registry::{all, find, RunBudget};
pub use report::{Comparison, Report};
