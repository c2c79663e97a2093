//! # edison-net
//!
//! Flow-level network fabric for the cluster experiments.
//!
//! Transfers are modelled as *fluid flows* over a graph of directed links.
//! Propagation latency rides on top as a per-path constant taken from the
//! paper's ping measurements (§4.4: 0.24 ms Dell–Dell, 0.8 ms Dell–Edison,
//! 1.3 ms Edison–Edison round trips).
//!
//! * [`gauge::LinkGauge`] — what both simulated worlds use: web replies and
//!   MapReduce shuffle fetches each get a snapshot fair-share rate frozen
//!   at their start (`LinkGauge::mirror` of the topology's links).
//! * [`network::Network`] — links + flows + the exact fair-share solver:
//!   concurrent flows share bandwidth by **max-min fairness** (progressive
//!   filling), the standard fluid approximation of long-lived TCP, with the
//!   same epoch-based completion-event protocol as
//!   `edison_simcore::fluid::FluidResource`. It serves the §4.4 iperf run
//!   (`edison-microbench`), the topology tests and the gauge's ablation
//!   reference.
//! * [`topology::Topology`] — the concrete two-room topology of the paper's
//!   testbed: per-host full-duplex NIC links, non-blocking in-room
//!   switching, and a 1 Gbps inter-room uplink.

pub mod gauge;
pub mod network;
pub mod topology;

pub use gauge::LinkGauge;
pub use network::{FlowId, LinkId, Network};
pub use topology::{GroupId, HostId, Path, Topology};
