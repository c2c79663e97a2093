//! Shared metric names for the guard layer, so the web tier and the
//! experiments agree on spelling — the byte-exact export determinism
//! tests depend on this.

use edison_simtel::Telemetry;

/// Counter: requests admitted past the guard layer (the conservation
/// identity's left-hand side), labelled `{tier}`.
pub const ADMITTED_TOTAL: &str = "guard_admitted_total";

/// Counter: requests/connections shed by the guard layer, labelled
/// `{tier, reason}` (`deadline` / `queue` / `lb_bucket` / `breaker`).
pub const SHED_TOTAL: &str = "guard_shed_total";

/// Counter: requests served a degraded (cache/db-skipping) response,
/// labelled `{tier, reason}` (`brownout` / `deadline`).
pub const DEGRADED_TOTAL: &str = "guard_degraded_total";

/// Counter: full responses delivered after their deadline, labelled
/// `{tier}`.
pub const DEADLINE_MISS_TOTAL: &str = "guard_deadline_miss_total";

/// Counter: guarded requests that ended in an error path, labelled
/// `{tier, reason}` (`overflow` / `dead_node` / `conn_lost` /
/// `inflight_at_stop`). Closes the conservation identity:
/// admitted = completed + degraded + shed + failed.
pub const FAILED_TOTAL: &str = "guard_failed_total";

/// Counter: breaker state transitions, labelled `{tier, to}`
/// (`open` / `half_open` / `closed`).
pub const BREAKER_TRANSITIONS_TOTAL: &str = "guard_breaker_transitions_total";

/// Gauge: current breaker state per backend, labelled `{tier, backend}`
/// (0 = closed, 0.5 = half-open, 1 = open).
pub const BREAKER_STATE: &str = "guard_breaker_state";

/// Histogram: PHP-backlog sojourn as seen by the admission gate,
/// labelled `{tier}`.
pub const QUEUE_DELAY_SECONDS: &str = "guard_queue_delay_seconds";

/// Bucket bounds for [`QUEUE_DELAY_SECONDS`].
pub const QUEUE_DELAY_BOUNDS_S: &[f64] =
    &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0];

/// Gauge: 1 while the tier is in brownout (degraded) mode, labelled
/// `{tier}`.
pub const BROWNOUT_ACTIVE: &str = "guard_brownout_active";

/// Counter: client retries, split by cause, labelled `{cause}`
/// (`dead` = connect/read timeout on a crashed backend,
/// `overflow` = retry after a backlog-overflow 5xx). Splits the
/// previously conflated `web_client_retries_total` accounting.
pub const RETRY_CAUSE: &str = "web_client_retries_total";

/// Register help text for every guard metric. Called by traced runs
/// *only when the guard is active*, so guards-off exports stay
/// byte-identical to pre-guard runs.
pub fn register_help(tel: &mut Telemetry) {
    tel.help(ADMITTED_TOTAL, "requests admitted past the guard layer, by tier");
    tel.help(SHED_TOTAL, "requests shed by the guard layer, by tier and reason");
    tel.help(DEGRADED_TOTAL, "degraded (stage-skipping) responses served, by tier and reason");
    tel.help(DEADLINE_MISS_TOTAL, "full responses delivered after their deadline, by tier");
    tel.help(FAILED_TOTAL, "guarded requests ending in an error path, by tier and reason");
    tel.help(BREAKER_TRANSITIONS_TOTAL, "circuit-breaker state transitions, by tier and target state");
    tel.help(BREAKER_STATE, "current circuit-breaker state per backend (0 closed, 0.5 half-open, 1 open)");
    tel.help(QUEUE_DELAY_SECONDS, "PHP-backlog sojourn observed by the admission gate, seconds");
    tel.help(BROWNOUT_ACTIVE, "1 while the tier serves degraded (brownout) responses");
}
