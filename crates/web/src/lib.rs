//! # edison-web
//!
//! The Section-5.1 web-service workload: a full LLMP (Linux + Lighttpd +
//! MySQL + PHP) stack driven by an httperf-style load generator, re-built as
//! a discrete-event model over the `edison-cluster` / `edison-net`
//! substrates.
//!
//! The pieces map one-to-one onto the paper's testbed:
//!
//! | paper | here |
//! |---|---|
//! | 8 httperf machines + 8 HAProxy balancers | [`stack`]'s paced open-loop connection generator with round-robin server choice |
//! | Lighttpd + FastCGI PHP web servers | web-role nodes: accept gate → PHP worker pool (bounded backlog → 5xx) → two-stage CPU per request |
//! | memcached cache servers | cache-role nodes running a **real LRU keyed store** ([`memcached::LruStore`]) warmed to the target hit ratio |
//! | 2 Dell MySQL servers (20 GB wiki + images) | db-role nodes with per-query CPU + buffer-pool-miss disk reads ([`db`]) |
//! | python/urllib2 delay loggers | [`pyclient`] open-loop single-call connections with kernel SYN retry backoff (1 s, 3 s, 7 s) |
//!
//! [`httperf::run_point`] executes one (concurrency, workload) point and
//! returns throughput / delay / error / power — one point of Figures 4–9;
//! [`pyclient::run_distribution`] returns the Figure 10/11 delay histograms;
//! the Table 7 delay decomposition falls out of the same run's traces.

pub mod db;
pub mod httperf;
pub mod memcached;
pub mod model;
pub mod pyclient;
pub mod scenario;
pub mod slab;
pub mod stack;

pub use httperf::HttperfResult;
pub use scenario::{ClusterScale, Platform, WebScenario, WorkloadMix};
