//! # edison-net
//!
//! Flow-level network fabric for the cluster experiments.
//!
//! Transfers cross a graph of directed links at a rate frozen when they
//! start. Propagation latency rides on top as a per-path constant taken
//! from the paper's ping measurements (§4.4: 0.24 ms Dell–Dell, 0.8 ms
//! Dell–Edison, 1.3 ms Edison–Edison round trips).
//!
//! * [`gauge::LinkGauge`] — the link capacities and the snapshot fair-share
//!   rate each transfer gets at admission: web replies, MapReduce shuffle
//!   fetches and the §4.4 iperf run all go through it.
//! * [`topology::Topology`] — the concrete two-room topology of the paper's
//!   testbed: per-host full-duplex NIC links, non-blocking in-room
//!   switching, and a 1 Gbps inter-room uplink. It owns the gauge holding
//!   its links.

pub mod gauge;
pub mod topology;

pub use gauge::{LinkGauge, LinkId};
pub use topology::{GroupId, HostId, Path, Topology};
