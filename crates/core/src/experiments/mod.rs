//! One module per group of paper artefacts.
//!
//! * [`individual`] — Tables 1–6, 9, Figures 2–3, the §4 text numbers.
//! * [`webservice`] — Figures 4–11, Table 7.
//! * [`mapred`] — Figures 12–19, Table 8.
//! * [`tco_exp`] — Table 10.
//! * [`extensions`] — hybrid tier, failure injection, platform what-ifs.
//! * [`smoke`] — one quick web point + one small MapReduce job, the
//!   telemetry demo / CI smoke target.
//! * [`faults`] — the fault sweep (availability and efficiency under
//!   crash schedules) and the deliberate-failure demo exercising the
//!   simrun layer's panic isolation end-to-end.
//! * [`explore`] — worst-case fault-schedule search with shrunk
//!   reproducers.
//! * [`overload`] — the graceful-degradation ramp: offered load past the
//!   knee, guards off vs on.

pub mod explore;
pub mod extensions;
pub mod faults;
pub mod individual;
pub mod mapred;
pub mod overload;
pub mod smoke;
pub mod tco_exp;
pub mod webservice;
