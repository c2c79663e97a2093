//! simguard — deterministic overload protection and graceful degradation.
//!
//! The paper's most interesting wimpy-vs-brawny effects live past the
//! saturation knee, where the unguarded stacks have exactly one answer:
//! queue until a hard 5xx. This crate supplies the defenses a production
//! tier would run there, built so that every decision is a pure function
//! of (configuration, sim-time, derived seed) — no wall clock, no
//! ambient RNG, no map-iteration order — and therefore byte-identical
//! at any `--jobs` level. Every part is inert at its zero value, so a
//! hosting world runs one request path and [`GuardConfig::off`] needs
//! no branch of its own:
//!
//! * [`Deadline`]/[`Budget`] — per-request deadline budgets that
//!   propagate through every lifecycle stage (LB → lighttpd → PHP →
//!   memcached/MySQL). Checked at stage boundaries; a request that
//!   cannot finish in time is shed early or served degraded instead of
//!   timing out at full cost.
//! * [`CircuitBreaker`] — per-backend closed/open/half-open breaker with
//!   sim-time cooldowns and derived-seed probe selection, so a dead or
//!   flapping backend stops eating retries without masking the
//!   health-check recovery path.
//! * [`QueueGate`] — admission control at the load balancer: behind the
//!   rate/burst [`edison_simcore::token_bucket::TokenBucket`], a
//!   CoDel-style queue-delay gate that sheds when the PHP backlog sojourn
//!   stays above target.
//! * [`Brownout`] — a degraded mode: when the smoothed queue delay
//!   crosses the enter threshold, sheddable-priority requests skip the
//!   memcached/MySQL stage and get a cheap degraded response.
//!
//! Load shedding is priority-classed ([`Priority`], drawn per connection
//! from a derived seed so the class never perturbs workload RNG draws).
//! [`metrics`] names the telemetry vocabulary the web tier records
//! under.

pub mod admit;
pub mod breaker;
pub mod brownout;
pub mod config;
pub mod metrics;
pub mod units;

pub use admit::{GateVerdict, QueueGate};
pub use breaker::{BreakerState, BreakerVerdict, CircuitBreaker};
pub use brownout::{Brownout, BrownoutStep};
pub use config::{class_of, probe_eligible, GuardConfig, Priority};
pub use units::{Budget, Deadline};
