//! Simulation state and request-path helpers of the web world.
//!
//! This module owns [`WebWorld`] — configuration, cluster, fabric, caches,
//! fault layer and metrics — plus every side-effecting step of the request
//! lifecycle. Each helper schedules its follow-up events straight into the
//! engine's [`Ctx`]; [`WebWorld::dispatch`] maps one engine event onto
//! them, and [`crate::stack`] wires that into the [`edison_simcore::Model`]
//! impl. The exports of nine fixtures are pinned byte for byte by
//! `tests/golden_exports.rs`.

use crate::db::{self, RowQuery};
use crate::memcached::{Key, LruStore};
use crate::scenario::{Platform, WebScenario, WorkloadMix, ROWS_PER_TABLE};
use crate::slab::{Handle, Slab};
use edison_cluster::node::AdmitError;
use edison_cluster::{Cluster, NodeId};
use edison_hw::{calib, presets};
use edison_net::topology::TwoRooms;
use edison_net::{HostId, Topology};
use edison_simcore::rng::SimRng;
use edison_simcore::stats::{Histogram, SampleSet, TimeSeries};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::token_bucket::TokenBucket;
use edison_simcore::Ctx;
use edison_simfault::metrics as fault_metrics;
use edison_simfault::{Fault, FaultKind, FaultPlan, RecoveryWindow};
use edison_simguard::metrics as guard_metrics;
use edison_simguard::{
    class_of, probe_eligible, BreakerState, BreakerVerdict, Brownout, BrownoutStep,
    CircuitBreaker, Deadline, GateVerdict, GuardConfig, Priority, QueueGate,
};
use edison_simrun::derive_seed;
use edison_simtel::Telemetry;
use std::collections::VecDeque;

/// Histogram bounds for request-delay telemetry, seconds (log-ish spacing
/// over the paper's 0–8 s Figure 10/11 range).
pub(crate) const DELAY_BOUNDS_S: &[f64] =
    &[0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// How load is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenMode {
    /// httperf: `rate` new connections/s, each issuing `calls` sequential
    /// requests (fractional mean; the paper tunes ≈6.6 calls/connection).
    Httperf { connections_per_sec: f64, calls_per_conn: f64 },
    /// python/urllib2 loggers: open-loop single-request connections.
    Python { requests_per_sec: f64 },
}

/// Full configuration of one run.
#[derive(Debug, Clone)]
pub struct StackConfig {
    pub scenario: WebScenario,
    pub mix: WorkloadMix,
    pub gen: GenMode,
    /// RNG seed — runs are exactly reproducible per seed.
    pub seed: u64,
    /// Settling time before measurement starts.
    pub warmup: SimDuration,
    /// Measurement window (the paper uses ~3 min; 20–30 s is converged).
    pub measure: SimDuration,
    /// httperf/HAProxy client machines (the paper: 8).
    pub clients: usize,
    /// Fault injection: kill web server `node` this long after t = 0.
    /// Models the paper's Introduction argument (advantage 2) that node
    /// failure hits brawny clusters harder — each Dell web server carries
    /// 12× the load share of an Edison one. Sugar for a one-crash
    /// [`FaultPlan`]; merged into `fault_plan` when the run starts.
    pub kill_web_at: Option<(usize, SimDuration)>,
    /// Declarative fault schedule played against this run (crashes,
    /// restarts, NIC degradation, CPU throttling, cache cold restarts).
    /// Empty plans leave the run byte-identical to the pre-fault code
    /// path.
    pub fault_plan: FaultPlan,
    /// How many times a client re-dispatches a connection through the
    /// load balancer after hitting a dead backend (connect/read timeout).
    /// `0` reproduces the original behaviour: every request caught on a
    /// crashed node is a hard `server_error`.
    pub retry_budget: u32,
    /// Extension (§7's "hybrid future datacenter"): append this many web
    /// servers of the *other* platform to the web tier. They sit in their
    /// own room with their own NIC/OS limits; the load balancer spreads
    /// connections weighted by measured per-platform capacity.
    pub hybrid_web: usize,
    /// Overload protection (deadlines, circuit breakers, LB admission
    /// control, brownout). [`GuardConfig::off`] (the default) keeps the
    /// run byte-identical to the pre-guard code path.
    pub guard: GuardConfig,
}

impl StackConfig {
    /// Sensible defaults for one figure point.
    pub fn new(scenario: WebScenario, mix: WorkloadMix, gen: GenMode, seed: u64) -> Self {
        StackConfig {
            scenario,
            mix,
            gen,
            seed,
            warmup: SimDuration::from_secs(5),
            measure: SimDuration::from_secs(20),
            clients: 8,
            kill_web_at: None,
            fault_plan: FaultPlan::new(),
            retry_budget: 0,
            hybrid_web: 0,
            guard: GuardConfig::off(),
        }
    }
}

/// PHP/FastCGI worker pool of one web node.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    pub(crate) max: u32,
    pub(crate) busy: u32,
    pub(crate) backlog: VecDeque<Handle>,
    pub(crate) backlog_max: usize,
}

/// Listen-queue state of one web node (EWMA SYN-rate for the collapse
/// model).
#[derive(Debug)]
pub(crate) struct SynGate {
    bucket_rate: f64,
    window_start: SimTime,
    window_count: u32,
    ewma_rate: f64,
}

impl SynGate {
    pub(crate) fn new(rate: f64) -> Self {
        SynGate { bucket_rate: rate, window_start: SimTime::ZERO, window_count: 0, ewma_rate: 0.0 }
    }

    /// Record a SYN arrival and return the extra drop probability from
    /// listen-queue collapse (0 when pressure ≤ capacity).
    fn pressure_drop_p(&mut self, now: SimTime) -> f64 {
        // 1 s windows folded into an EWMA.
        while now.saturating_since(self.window_start) >= SimDuration::from_secs(1) {
            self.ewma_rate = 0.5 * self.ewma_rate + 0.5 * self.window_count as f64;
            self.window_count = 0;
            self.window_start += SimDuration::from_secs(1);
        }
        self.window_count += 1;
        if self.ewma_rate <= self.bucket_rate {
            0.0
        } else {
            // goodput collapse: admitted ≈ capacity·(capacity/offered)^1.5
            let keep = (self.bucket_rate / self.ewma_rate).powf(2.5);
            1.0 - keep.clamp(0.0, 1.0)
        }
    }
}

/// Where a request stands on the paper's PHP → memcached → MySQL → PHP
/// path (§5.1). Each stage carries the timestamps the later stages read,
/// so Table 7's cache and db delays come straight off the state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ReqState {
    /// On the wire to its web node, or on stage-1 CPU (parse + routing).
    Stage1,
    /// Waiting in the PHP backlog for a free worker since `since`.
    Queued { since: SimTime },
    /// The memcached get left the web node at `sent`.
    CacheRpc { sent: SimTime },
    /// On a cache miss, the MySQL query left the web node at `sent`.
    DbRpc { sent: SimTime },
    /// The query missed the buffer pool and reads disk; `sent` as above.
    DbDisk { sent: SimTime },
    /// On stage-2 CPU (reply assembly), reached `via`.
    Stage2 { via: Via },
    /// The reply is on the wire to the client.
    Reply { via: Via },
    /// Shed at the worker pool: a header-only rejection is on its way to
    /// the client, and the connection closes when it lands.
    Shed,
}

/// How a request reached stage 2: the service path its span is labelled
/// with and the Table 7 sample it yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Via {
    /// A memcached hit; the cache delay runs from `cache_sent` to the end
    /// of stage 2 (it includes the PHP unserialize slice).
    Hit { cache_sent: SimTime },
    /// A miss served by MySQL; the db delay (query send → reply arrival)
    /// was closed when the reply landed.
    Db { delay_ms: f64 },
    /// Served degraded: the memcached/MySQL stage was skipped and a cheap
    /// brownout response assembled instead. Yields no Table 7 sample.
    Degraded,
}

impl Via {
    /// Span label for a completed request's service path.
    fn span_path(self) -> &'static str {
        match self {
            Via::Hit { .. } => "php/memcached-hit",
            Via::Db { .. } => "php/memcached-miss/mysql",
            Via::Degraded => "php/degraded",
        }
    }
}

#[derive(Debug)]
pub(crate) struct Req {
    pub(crate) conn: Handle,
    pub(crate) client: usize,
    pub(crate) web: usize,
    pub(crate) cache: usize,
    pub(crate) db_node: usize,
    pub(crate) query: RowQuery,
    pub(crate) state: ReqState,
    pub(crate) first_call: bool,
    pub(crate) t_sent: SimTime,
    /// Absolute deadline derived from [`GuardConfig::deadline`] at send
    /// time; `None` when deadlines are off.
    pub(crate) deadline: Option<Deadline>,
}

impl Req {
    /// Move on to stage-2 CPU, reached `via`, and return the reply body
    /// size that CPU slice assembles (the cheap fallback when degraded).
    fn enter_stage2(&mut self, via: Via) -> u64 {
        if via == Via::Degraded {
            self.query.reply_bytes = DEGRADED_REPLY_BYTES;
        }
        self.state = ReqState::Stage2 { via };
        self.query.reply_bytes
    }
}

#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) client: usize,
    pub(crate) web: usize,
    pub(crate) calls_left: u32,
    pub(crate) t_first_syn: SimTime,
    /// Failover re-dispatches consumed (bounded by
    /// [`StackConfig::retry_budget`]).
    pub(crate) retries: u32,
    /// Shedding priority, drawn once from a derived seed
    /// ([`class_of`]) — never from the workload RNG.
    pub(crate) class: Priority,
    /// True while this connection holds a half-open probe slot on the
    /// breaker of `web`.
    pub(crate) probe: bool,
}

/// Everything measured during the window.
#[derive(Debug)]
pub struct Metrics {
    /// Requests completed inside the window.
    pub completed: u64,
    /// 5xx responses (backlog overflow / fd exhaustion).
    pub server_errors: u64,
    /// Connections abandoned after three SYN retries.
    pub client_errors: u64,
    /// SYN drops observed (each may be retried).
    pub syn_drops: u64,
    /// Per-request delay, ms (first call measured from first SYN).
    pub delays_ms: SampleSet,
    /// Cache-retrieval delay, ms (hit requests; includes the web-side
    /// unserialize CPU slice, mirroring where the paper's PHP timestamps
    /// sit).
    pub cache_delays_ms: SampleSet,
    /// Database delay, ms (miss requests; query send → reply arrival).
    pub db_delays_ms: SampleSet,
    /// Full-connection delay from first SYN, seconds (Fig 10/11 histogram).
    pub conn_delay_hist: Histogram,
    /// Cluster power sampled at 1 s, W.
    pub power_w: TimeSeries,
    /// Mean web CPU / cache CPU / web mem / cache mem over samples.
    pub web_cpu: SampleSet,
    pub cache_cpu: SampleSet,
    pub web_mem: SampleSet,
    pub cache_mem: SampleSet,
    /// Joules consumed by the web+cache cluster during the window.
    pub energy_j: f64,
    pub(crate) energy_at_start: f64,
    /// Requests completed regardless of window (drives `throughput_ts`).
    pub completed_total: u64,
    /// Completed requests per second, sampled at 1 s (fault-injection dip).
    pub throughput_ts: TimeSeries,
    pub(crate) last_sampled_completed: u64,
    /// Faults actually applied from the plan.
    pub faults_injected: u64,
    /// Backends taken out of LB rotation after failed health checks.
    pub failovers: u64,
    /// Client connections re-dispatched through the LB after hitting a
    /// dead backend.
    pub retries: u64,
    /// Of [`Metrics::retries`]: re-dispatches after a connect/read
    /// timeout on a crashed backend.
    pub retry_dead_total: u64,
    /// Of [`Metrics::retries`]: re-dispatches after a backlog-overflow
    /// 5xx (guarded runs only; unguarded overflow is a hard error).
    pub retry_overflow_total: u64,
    /// Seconds from crash injection until the victim is back in LB
    /// rotation (one sample per completed recovery).
    pub recovery_s: SampleSet,
    /// Observed recovery windows: restart applied → back in LB rotation
    /// (the RISE interval). The simexplore perturbation space targets
    /// follow-up faults inside these.
    pub recovery_windows: Vec<RecoveryWindow>,
    /// Guard-layer accounting; all-zero unless [`StackConfig::guard`] is
    /// active.
    pub guard: GuardStats,
}

/// simguard accounting for one run. Every request the guard layer
/// admitted ([`GuardStats::admitted`]) ends in exactly one terminal
/// bucket — the conservation identity
/// `admitted = completed + degraded + shed + failed`
/// is checked per seed and `--jobs` level by the property tests.
/// [`GuardStats::lb_rejected`] counts connections refused *before* any
/// request existed (token bucket, queue gate, breaker block) and sits
/// outside the identity.
#[derive(Debug, Default)]
pub struct GuardStats {
    /// Requests created past the guard layer's admission decisions.
    pub admitted: u64,
    /// Full-fidelity completions.
    pub completed: u64,
    /// Degraded completions (memcached/MySQL stage skipped).
    pub degraded: u64,
    /// Requests shed after admission (deadline already blown at the
    /// worker pool): header-only rejection, connection closed.
    pub shed: u64,
    /// Requests retired on an error path (overflow, dead node, lost
    /// connection, in flight when the run stopped).
    pub failed: u64,
    /// Connections refused at the LB before a request existed.
    pub lb_rejected: u64,
    /// Full responses delivered after their deadline.
    pub deadline_miss: u64,
    /// Circuit-breaker trips (closed→open and failed half-open probes).
    pub breaker_trips: u64,
    /// Times brownout (degraded) mode engaged.
    pub brownout_entries: u64,
    /// Breaker half-open → closed windows (probe success closes them):
    /// the breaker analogue of health-check recovery windows, probed by
    /// simexplore with follow-up faults.
    pub breaker_windows: Vec<RecoveryWindow>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            completed: 0,
            server_errors: 0,
            client_errors: 0,
            syn_drops: 0,
            delays_ms: SampleSet::new(),
            cache_delays_ms: SampleSet::new(),
            db_delays_ms: SampleSet::new(),
            conn_delay_hist: Histogram::new(0.0, 8.0, 80),
            power_w: TimeSeries::new(),
            web_cpu: SampleSet::new(),
            cache_cpu: SampleSet::new(),
            web_mem: SampleSet::new(),
            cache_mem: SampleSet::new(),
            energy_j: 0.0,
            energy_at_start: 0.0,
            completed_total: 0,
            throughput_ts: TimeSeries::new(),
            last_sampled_completed: 0,
            faults_injected: 0,
            failovers: 0,
            retries: 0,
            retry_dead_total: 0,
            retry_overflow_total: 0,
            recovery_s: SampleSet::new(),
            recovery_windows: Vec::new(),
            guard: GuardStats::default(),
        }
    }
}

impl Metrics {
    /// Requests completed per joule of window energy — the paper's
    /// work-done-per-joule metric. A window that drew no energy divides
    /// by 1e-9 J instead of zero.
    pub fn requests_per_joule(&self) -> f64 {
        self.completed as f64 / self.energy_j.max(1e-9)
    }

    /// Completed requests over every request the window asked for
    /// (completions + server-side 5xx + client-side abandons); 1.0 when
    /// nothing was asked for.
    pub fn availability(&self) -> f64 {
        let asked = self.completed + self.server_errors + self.client_errors;
        if asked == 0 {
            return 1.0;
        }
        self.completed as f64 / asked as f64
    }
}

/// Events of the web world. Node indices travel as `u32` (checked when
/// the world is built, see `ev_index`) so that every variant fits 16
/// bytes and a queued engine entry 32.
#[derive(Debug)]
pub enum Ev {
    GenConn,
    SynRetry { conn: Handle, attempt: u8 },
    NodeCpu { node: u32, epoch: u64 },
    DbCpu { node: u32, epoch: u64 },
    ReqAtWeb { req: Handle },
    ReqAtCache { req: Handle },
    CacheReplyAtWeb { req: Handle, hit: bool },
    ReqAtDb { req: Handle },
    DbDiskDone { node: u32, job: Handle },
    DbReplyAtWeb { req: Handle },
    ReplyAtClient { req: Handle },
    Sample,
    MeasureStart,
    /// Inject fault `idx` of the normalized plan.
    Fault { idx: usize },
    /// HAProxy-style health-check tick over the web tier (starts with the
    /// first injected fault).
    HealthCheck,
    /// A client re-dispatches a connection through the LB after a
    /// failover timeout.
    RetryConn { conn: Handle },
    Stop,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);
// `Req` is the bulk of the in-flight heap (`peak_heap_mb`): the stage data
// in `ReqState` must keep it within 144 bytes.
const _: () = assert!(std::mem::size_of::<Req>() <= 144);

/// A node index as an [`Ev`] payload.
#[expect(clippy::cast_possible_truncation, reason = "WebWorld::new asserts every node index fits u32")]
fn ev_index(node: usize) -> u32 {
    node as u32
}

impl Ev {
    /// Static event-kind name for the engine's
    /// [`KindProfiler`](edison_simcore::KindProfiler), which keys the
    /// `sim_*` and `profile_*` metrics by it.
    pub fn kind(&self) -> &'static str {
        match self {
            Ev::GenConn => "gen_conn",
            Ev::SynRetry { .. } => "syn_retry",
            Ev::NodeCpu { .. } => "node_cpu",
            Ev::DbCpu { .. } => "db_cpu",
            Ev::ReqAtWeb { .. } => "req_at_web",
            Ev::ReqAtCache { .. } => "req_at_cache",
            Ev::CacheReplyAtWeb { .. } => "cache_reply_at_web",
            Ev::ReqAtDb { .. } => "req_at_db",
            Ev::DbDiskDone { .. } => "db_disk_done",
            Ev::DbReplyAtWeb { .. } => "db_reply_at_web",
            Ev::ReplyAtClient { .. } => "reply_at_client",
            Ev::Sample => "sample",
            Ev::MeasureStart => "measure_start",
            Ev::Fault { .. } => "fault",
            Ev::HealthCheck => "health_check",
            Ev::RetryConn { .. } => "retry_conn",
            Ev::Stop => "stop",
        }
    }
}

/// What the (breaker-aware) load balancer picked for one connection.
enum LbPick {
    /// Route to `web`; `probe` means a half-open probe slot was claimed.
    Backend { web: usize, probe: bool },
    /// Every backend is out of LB rotation (crashed / health-checked
    /// out): a hard client error.
    AllDead,
    /// At least one backend is in rotation but every one of them is
    /// breaker-blocked: shed instead of erroring.
    Blocked,
}

/// Why a client re-dispatched its connection through the LB — satellite
/// split of the previously conflated retry accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryCause {
    /// Connect/read timeout on a crashed backend.
    Dead,
    /// Backlog-overflow 5xx with guards on (the client retries instead
    /// of surfacing a hard error).
    Overflow,
}

impl RetryCause {
    fn name(self) -> &'static str {
        match self {
            RetryCause::Dead => "dead",
            RetryCause::Overflow => "overflow",
        }
    }
}

/// The web-service world. Construct with [`WebWorld::new`], then drive it
/// through [`crate::stack::run`], which dispatches each engine event into
/// the helpers below.
pub struct WebWorld {
    pub(crate) cfg: StackConfig,
    pub(crate) nodes: Cluster,
    pub(crate) dbc: Cluster,
    pub(crate) topo: Topology,
    pub(crate) node_hosts: Vec<HostId>,
    pub(crate) db_hosts: Vec<HostId>,
    pub(crate) client_hosts: Vec<HostId>,
    pub(crate) caches: Vec<LruStore>,
    pub(crate) workers: Vec<WorkerPool>,
    pub(crate) syn_gates: Vec<SynGate>,
    pub(crate) rng: SimRng,
    pub(crate) conns: Slab<Conn>,
    pub(crate) reqs: Slab<Req>,
    pub(crate) next_conn: u64,
    pub(crate) next_req: u64,
    pub(crate) rr_web: usize,
    pub(crate) rr_client: usize,
    pub(crate) dead: Vec<bool>,
    /// Per-web-node request CPU cost (differs across hybrid platforms).
    pub(crate) req_mi_of: Vec<f64>,
    /// Load-balancer weights (one per web node, capacity-proportional).
    pub(crate) lb_weights: Vec<f64>,
    // ---- fault layer --------------------------------------------------
    /// Normalized fault plan (time-sorted, zero-width pairs cancelled);
    /// `Ev::Fault { idx }` indexes into `fplan.faults()`.
    pub(crate) fplan: FaultPlan,
    /// Backends the LB has taken out of rotation (health-check verdict;
    /// lags `dead` by FALL checks and outlives it by RISE checks).
    pub(crate) lb_dead: Vec<bool>,
    /// Consecutive failed / passed health checks per web node.
    pub(crate) hc_fail: Vec<u8>,
    pub(crate) hc_ok: Vec<u8>,
    /// When each web node crashed (cleared once it is back in rotation —
    /// the recovery-time sample).
    pub(crate) crash_time: Vec<Option<SimTime>>,
    /// When each web node's restart was applied (cleared at RISE — the
    /// recovery-window sample: restarted but not yet in rotation).
    pub(crate) restart_time: Vec<Option<SimTime>>,
    /// Accept-gate rate per web node, kept for post-restart re-init.
    pub(crate) accept_rate_of: Vec<f64>,
    /// Cache store capacity per cache node, kept for cold restarts.
    pub(crate) cache_cap_of: Vec<u64>,
    /// Packet-loss probability per tier node (web then cache), from NIC
    /// degradation faults. Applies to connection-establishment SYNs.
    pub(crate) nic_loss: Vec<f64>,
    /// Latency/transfer multiplier per tier node, from NIC degradation.
    pub(crate) nic_lat: Vec<f64>,
    /// CPU service-time multiplier per tier node (straggler faults).
    pub(crate) cpu_factor: Vec<f64>,
    /// Disk service-time multiplier per MySQL node.
    pub(crate) db_disk_factor: Vec<f64>,
    /// RNG for fault-effect draws (NIC loss); separate stream from the
    /// workload RNG so injecting a fault never shifts workload draws.
    /// Re-seeded from the plan's per-fault seed at each NIC fault.
    pub(crate) fault_rng: SimRng,
    /// Health checks are scheduled lazily at the first injected fault so
    /// fault-free runs stay byte-identical to the pre-fault code path.
    pub(crate) hc_running: bool,
    /// Write-allocate on db replies, enabled by a cache cold restart so
    /// the store re-warms (off by default: the pre-warmed steady state
    /// never inserts on the miss path).
    pub(crate) cache_writeback: bool,
    pub(crate) measure_start: SimTime,
    pub(crate) measure_end: SimTime,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Telemetry sink; [`Telemetry::off`] unless the run came through
    /// a traced entry point.
    pub(crate) tel: Telemetry,
    /// Interned span track id per web node (`("web", "web-{i}")`), filled
    /// once by [`WebWorld::init_tracing`] when tracing — per-event span
    /// recording then does no string formatting or comparison.
    pub(crate) web_tracks: Vec<usize>,
    // ---- guard layer (simguard) ---------------------------------------
    /// Cached [`GuardConfig::is_active`]. The guard parts decide
    /// behaviour from their own zero values; this gates only the guard
    /// accounting and telemetry (so guards-off exports carry no guard
    /// series) and the overflow retry-instead-of-5xx policy.
    pub(crate) guard_on: bool,
    /// One circuit breaker per web backend (threshold 0 = always passes,
    /// so breakers-off picks are the plain weighted stride).
    pub(crate) brk: Vec<CircuitBreaker>,
    /// Per-backend verdict of the LB pick in progress, reused across
    /// picks: `Reject` for a backend out of rotation or breaker-blocked,
    /// `Probe` for one this connection may probe half-open.
    lb_verdict: Vec<BreakerVerdict>,
    /// LB admission token bucket (disabled at rate 0).
    pub(crate) admit_bucket: TokenBucket,
    /// CoDel-style queue-delay gate fed by PHP-backlog sojourns.
    pub(crate) admit_gate: QueueGate,
    /// Brownout (degraded-mode) controller over the smoothed sojourn.
    pub(crate) brownout: Brownout,
    /// Span track for guard-layer intervals (brownout windows).
    pub(crate) guard_track: Option<usize>,
    // ---- reused per-event buffers -------------------------------------
    /// Finished CPU task ids of the `NodeCpu`/`DbCpu` arm being handled.
    cpu_done: Vec<u64>,
}

/// Fraction of the per-request web CPU spent before the cache RPC (parse +
/// routing); the rest is reply assembly.
const STAGE1_FRAC: f64 = 0.6;
/// Request/notice message size on the wire, bytes (headers).
const HEADER_BYTES: u64 = 300;
/// PHP workers per Edison web server (the paper's tuned FastCGI children).
const EDISON_WORKERS: u32 = 32;
/// PHP workers per Dell web server.
const DELL_WORKERS: u32 = 256;
/// Pending-request backlog bound before lighttpd answers 5xx.
const BACKLOG_PER_WORKER: usize = 4;
/// Per-PHP-worker resident memory, bytes.
const EDISON_WORKER_MEM: u64 = 512 * 1024;
/// Dell runs the older PHP 5.3 with fatter processes.
const DELL_WORKER_MEM: u64 = 24 * 1024 * 1024;
/// HAProxy-style health-check interval (`inter`).
const HC_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Consecutive failed checks before a backend leaves rotation (`fall`).
const HC_FALL: u8 = 2;
/// Consecutive passed checks before a restarted backend rejoins (`rise`).
const HC_RISE: u8 = 2;
/// Client-side connect/read timeout before a retry re-dispatches through
/// the load balancer.
const FAILOVER_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// Exponent cap on the client re-dispatch backoff: delays double per
/// attempt up to `FAILOVER_TIMEOUT << RETRY_BACKOFF_CAP`.
const RETRY_BACKOFF_CAP: u32 = 2;
/// Jitter spread (± fraction) around the backed-off re-dispatch delay.
const RETRY_JITTER: f64 = 0.25;
/// Body size of a degraded (brownout) response: the cheap static
/// fallback PHP serves when the memcached/MySQL stage is skipped.
const DEGRADED_REPLY_BYTES: u64 = 512;

impl WebWorld {
    /// Assemble the world: cluster, fabric, pre-warmed caches.
    pub fn new(cfg: StackConfig) -> Self {
        let spec = cfg.scenario.platform.spec();
        let dell = presets::dell_r620();
        let other_platform = match cfg.scenario.platform {
            Platform::Edison => Platform::Dell,
            Platform::Dell => Platform::Edison,
        };
        let other_spec = other_platform.spec();
        let n_web = cfg.scenario.web_servers + cfg.hybrid_web;
        let n_cache = cfg.scenario.cache_servers;
        assert!(u32::try_from(n_web + n_cache).is_ok(), "node indices must fit an event's u32");
        // web nodes: base platform first, hybrid extras after, then caches
        let web_platforms: Vec<Platform> = (0..n_web)
            .map(|i| if i < cfg.scenario.web_servers { cfg.scenario.platform } else { other_platform })
            .collect();
        let mut nodes = Cluster::new();
        for p in &web_platforms {
            match p {
                Platform::Edison => nodes.push(&presets::edison()),
                Platform::Dell => nodes.push(&dell),
            };
        }
        for _ in 0..n_cache {
            nodes.push(&spec);
        }
        let mut dbc = Cluster::new();
        for _ in 0..2 {
            dbc.push(&dell);
        }

        // fabric: platform nodes in their room, db + clients in the Dell room
        let rooms = TwoRooms::new();
        let mut topo = rooms.topo;
        let platform_room = match cfg.scenario.platform {
            Platform::Edison => rooms.edison_room,
            Platform::Dell => rooms.dell_room,
        };
        let other_room = match other_platform {
            Platform::Edison => rooms.edison_room,
            Platform::Dell => rooms.dell_room,
        };
        let mut node_hosts: Vec<HostId> = Vec::with_capacity(n_web + n_cache);
        for (i, p) in web_platforms.iter().enumerate() {
            let (room, nic) = match p {
                _ if i < cfg.scenario.web_servers => (platform_room, &spec.nic),
                Platform::Edison => (other_room, &other_spec.nic),
                Platform::Dell => (other_room, &other_spec.nic),
            };
            node_hosts.push(topo.add_host(room, nic.line_rate_bps, nic.tcp_efficiency));
        }
        for _ in 0..n_cache {
            node_hosts.push(topo.add_host(platform_room, spec.nic.line_rate_bps, spec.nic.tcp_efficiency));
        }
        let db_hosts: Vec<HostId> = (0..2)
            .map(|_| topo.add_host(rooms.dell_room, dell.nic.line_rate_bps, dell.nic.tcp_efficiency))
            .collect();
        let client_hosts: Vec<HostId> = (0..cfg.clients)
            .map(|_| topo.add_host(rooms.dell_room, 1.0e9, 0.942))
            .collect();

        // PHP worker pools + memory + LB weights, per node platform
        let mut workers = Vec::new();
        let mut syn_gates = Vec::new();
        let mut req_mi_of = Vec::new();
        let mut lb_weights = Vec::new();
        let mut accept_rate_of = Vec::new();
        for (i, p) in web_platforms.iter().enumerate() {
            let (workers_per_node, worker_mem, accept, mi, weight) = match p {
                Platform::Edison => (
                    EDISON_WORKERS,
                    EDISON_WORKER_MEM,
                    presets::edison().os.max_accept_rate,
                    calib::WEB_REQ_MI_EDISON,
                    1.0,
                ),
                Platform::Dell => (
                    DELL_WORKERS,
                    DELL_WORKER_MEM,
                    dell.os.max_accept_rate,
                    calib::WEB_REQ_MI_DELL,
                    // one Dell web server carries ≈12× an Edison's load
                    12.0,
                ),
            };
            workers.push(WorkerPool {
                max: workers_per_node,
                busy: 0,
                backlog: VecDeque::new(),
                backlog_max: workers_per_node as usize * BACKLOG_PER_WORKER,
            });
            syn_gates.push(SynGate::new(accept));
            accept_rate_of.push(accept);
            req_mi_of.push(mi);
            lb_weights.push(weight);
            #[expect(clippy::expect_used, reason = "set-up invariant: every platform's memory holds its worker pool")]
            nodes
                .node_mut(NodeId(i))
                .alloc_mem(worker_mem * workers_per_node as u64)
                .expect("web node fits its worker pool");
        }

        // caches: real LRU stores pre-warmed to the target hit ratio
        #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "a non-negative hit ratio keeps the row count in u32; `warmed` rejects one past ROWS_PER_TABLE")]
        let warm_rows = (cfg.mix.cache_hit_ratio * ROWS_PER_TABLE as f64) as u32;
        // every row of a table has one reply size
        let bytes_of_table = |table| u32::try_from(db::reply_bytes_for(Key { table, row: 0 })).unwrap_or(u32::MAX);
        let mut caches = Vec::with_capacity(n_cache);
        let mut cache_cap_of = Vec::with_capacity(n_cache);
        for i in 0..n_cache {
            let node = nodes.node_mut(NodeId(n_web + i));
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "85% of a u64 byte count stays in range")]
            let cap = (node.mem_free() as f64 * 0.85) as u64;
            let cache = LruStore::warmed(cap, n_cache, i, warm_rows, bytes_of_table);
            #[expect(clippy::expect_used, reason = "set-up invariant: cache capacity is 85% of the node's free memory")]
            node.alloc_mem(cache.used_bytes()).expect("cache fits after warm-up");
            cache_cap_of.push(cap);
            caches.push(cache);
        }

        let measure_start = SimTime::ZERO + cfg.warmup;
        let measure_end = measure_start + cfg.measure;
        let rng = SimRng::new(cfg.seed);
        // the kill_web_at sugar rides the same fault plan as everything else
        let mut full_plan = cfg.fault_plan.clone();
        if let Some((node, at)) = cfg.kill_web_at {
            full_plan = full_plan.crash(node, SimTime::ZERO + at);
        }
        let fplan = full_plan.normalized();
        let n_tier = n_web + n_cache;
        let fault_rng = SimRng::new(fplan.fault_seed(0));
        // guard layer: every sub-feature is zero-disabled, so building
        // from the (all-zero) off() config costs nothing and does nothing
        let guard_on = cfg.guard.is_active();
        let brk = vec![
            CircuitBreaker::new(
                cfg.guard.breaker_threshold,
                cfg.guard.breaker_cooldown,
                cfg.guard.breaker_probes,
            );
            n_web
        ];
        let admit_bucket = TokenBucket::new(cfg.guard.admit_rate, cfg.guard.admit_burst);
        let admit_gate = QueueGate::new(cfg.guard.queue_target, cfg.guard.queue_interval);
        let brownout = Brownout::new(cfg.guard.brownout_enter, cfg.guard.brownout_exit);
        WebWorld {
            cfg,
            nodes,
            dbc,
            topo,
            node_hosts,
            db_hosts,
            client_hosts,
            caches,
            workers,
            syn_gates,
            rng,
            conns: Slab::default(),
            reqs: Slab::default(),
            next_conn: 0,
            next_req: 0,
            rr_web: 0,
            rr_client: 0,
            dead: vec![false; n_web],
            req_mi_of,
            lb_weights,
            fplan,
            lb_dead: vec![false; n_web],
            hc_fail: vec![0; n_web],
            hc_ok: vec![0; n_web],
            crash_time: vec![None; n_web],
            restart_time: vec![None; n_web],
            accept_rate_of,
            cache_cap_of,
            nic_loss: vec![0.0; n_tier],
            nic_lat: vec![1.0; n_tier],
            cpu_factor: vec![1.0; n_tier],
            db_disk_factor: vec![1.0; 2],
            fault_rng,
            hc_running: false,
            cache_writeback: false,
            measure_start,
            measure_end,
            metrics: Metrics::default(),
            tel: Telemetry::off(),
            web_tracks: Vec::new(),
            guard_on,
            brk,
            lb_verdict: vec![BreakerVerdict::Pass; n_web],
            admit_bucket,
            admit_gate,
            brownout,
            guard_track: None,
            cpu_done: Vec::new(),
        }
    }

    /// The telemetry collected by this world (empty unless the run came
    /// through a traced entry point with an enabled sink).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Move the collected telemetry out of the world.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.tel)
    }

    /// Install the telemetry sink the run records into.
    pub(crate) fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Enable power traces, register metric help text and intern the
    /// per-web-node span tracks. Called once, before the first event, by
    /// every traced entry point.
    pub(crate) fn init_tracing(&mut self) {
        self.nodes.enable_power_trace();
        self.dbc.enable_power_trace();
        self.tel.help("web_requests_total", "Requests leaving the system, by outcome");
        self.tel.help("web_request_delay_seconds", "End-to-end request delay, seconds");
        self.tel.help("web_syn_drops_total", "SYN packets dropped at the accept gate");
        self.tel.help("web_cache_lookups_total", "memcached lookups, by result");
        self.tel.help("web_throughput_rps", "Completed requests per second, 1 s samples");
        // registered whether or not any fault fires, so exports stay
        // byte-identical across fault-free and faulted configurations
        edison_simfault::metrics::register_help(&mut self.tel);
        self.tel.help("web_client_retries_total", "Connections re-dispatched through the LB, by cause (dead backend / backlog overflow)");
        // guard help is registered only when the guard is active, so
        // guards-off exports stay byte-identical to pre-guard runs
        if self.guard_on {
            guard_metrics::register_help(&mut self.tel);
            self.guard_track = Some(self.tel.track_id("guard", "web-tier"));
        }
        // intern one span track per web node up front: per-event span
        // recording is then id-indexed, no string work on the hot path
        let n_web = self.n_web();
        let mut tracks = Vec::with_capacity(n_web);
        for i in 0..n_web {
            tracks.push(self.tel.track_id("web", &format!("web-{i}")));
        }
        self.web_tracks = tracks;
    }

    fn n_web(&self) -> usize {
        self.cfg.scenario.web_servers + self.cfg.hybrid_web
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.measure_start && t <= self.measure_end
    }

    /// Telemetry: count one request leaving the system, by outcome
    /// (`ok`, `server_error`, `client_error`).
    fn tel_outcome(&mut self, outcome: &'static str) {
        self.tel.counter_inc("web_requests_total", &[("outcome", outcome)]);
    }

    /// Span track id for web node `web`, interned by
    /// [`WebWorld::init_tracing`] (0, a no-op track, on a disabled sink).
    fn web_track(&self, web: usize) -> usize {
        self.web_tracks.get(web).copied().unwrap_or_default()
    }

    /// Current circuit-breaker state per web backend (all `Closed` when
    /// breakers are off). Introspection for tests and experiments.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.brk.iter().map(|b| b.state()).collect()
    }

    // ---- node CPU plumbing ------------------------------------------------

    /// Arm web/cache node `node`'s CPU completion, keyed by the node's
    /// index so a newer completion replaces a stale pending one.
    fn schedule_node_cpu(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if let Some((at, epoch)) = self.nodes.node_mut(NodeId(node)).arm_cpu_completion(now) {
            ctx.schedule_keyed(node, at, Ev::NodeCpu { node: ev_index(node), epoch });
        }
    }

    /// Arm MySQL node `node`'s CPU completion, keyed after every web and
    /// cache node.
    fn schedule_db_cpu(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if let Some((at, epoch)) = self.dbc.node_mut(NodeId(node)).arm_cpu_completion(now) {
            ctx.schedule_keyed(self.nodes.len() + node, at, Ev::DbCpu { node: ev_index(node), epoch });
        }
    }

    // ---- generator --------------------------------------------------------

    fn gen_next_delay(&mut self) -> SimDuration {
        let rate = match self.cfg.gen {
            GenMode::Httperf { connections_per_sec, .. } => connections_per_sec,
            GenMode::Python { requests_per_sec } => requests_per_sec,
        };
        SimDuration::from_secs_f64(self.rng.jitter(0.3) / rate)
    }

    fn draw_calls(&mut self) -> u32 {
        match self.cfg.gen {
            GenMode::Httperf { calls_per_conn, .. } => {
                let base = calls_per_conn.floor();
                let frac = calls_per_conn - base;
                #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "calls per connection is a small positive count")]
                (base as u32 + u32::from(self.rng.chance(frac))).max(1)
            }
            GenMode::Python { .. } => 1,
        }
    }

    /// HAProxy smooth WRR over the backends that admit connection
    /// `conn_seq` (its creation counter, [`Handle::seq`]): in
    /// rotation (`dead` covers the pre-health-check kill path, `lb_dead`
    /// the health-check verdict) and passed by their breaker, where a
    /// half-open breaker admits only probe-eligible connections. A
    /// `Probe` pick claims the half-open slot. With every breaker closed
    /// (or off) this is the plain weighted stride.
    fn lb_pick(&mut self, conn_seq: u64, now: SimTime) -> LbPick {
        let n_web = self.n_web();
        let mut any_alive = false;
        for i in 0..n_web {
            let alive = !self.dead[i] && !self.lb_dead[i];
            any_alive |= alive;
            // check() lazily advances open → half-open; surface that
            // transition in telemetry exactly once
            let before = self.brk[i].state();
            let verdict = self.brk[i].check(now);
            if self.brk[i].state() != before {
                self.note_brk_transition(i);
            }
            self.lb_verdict[i] = if alive { verdict } else { BreakerVerdict::Reject };
        }
        // the probe draw builds an RNG: make it only if a breaker offers a probe
        if self.lb_verdict.contains(&BreakerVerdict::Probe)
            && !probe_eligible(self.cfg.seed, conn_seq, self.cfg.guard.probe_ratio)
        {
            for v in &mut self.lb_verdict {
                if *v == BreakerVerdict::Probe {
                    *v = BreakerVerdict::Reject;
                }
            }
        }
        let total_w: f64 = (0..n_web)
            .filter(|&i| self.lb_verdict[i] != BreakerVerdict::Reject)
            .map(|i| self.lb_weights[i])
            .sum();
        if total_w <= 0.0 {
            return if any_alive { LbPick::Blocked } else { LbPick::AllDead };
        }
        // deterministic smooth WRR: golden-ratio stride through the
        // cumulative weights spreads picks evenly at every prefix length
        let target = (self.rr_web as f64 * 0.618_033_988_749_895).fract() * total_w;
        self.rr_web += 1;
        let mut web = 0;
        let mut acc = 0.0;
        for i in 0..n_web {
            if self.lb_verdict[i] == BreakerVerdict::Reject {
                continue;
            }
            acc += self.lb_weights[i];
            web = i;
            if target < acc {
                break;
            }
        }
        let probe = self.lb_verdict[web] == BreakerVerdict::Probe;
        if probe {
            self.brk[web].begin_probe();
        }
        LbPick::Backend { web, probe }
    }

    // ---- guard layer (simguard) ---------------------------------------

    /// Record a breaker state change: transition counter + per-backend
    /// state gauge (0 closed, 0.5 half-open, 1 open).
    fn note_brk_transition(&mut self, web: usize) {
        let (to, level) = match self.brk[web].state() {
            BreakerState::Closed => ("closed", 0.0),
            BreakerState::HalfOpen => ("half_open", 0.5),
            BreakerState::Open => ("open", 1.0),
        };
        self.tel.counter_inc(
            guard_metrics::BREAKER_TRANSITIONS_TOTAL,
            &[("tier", "web"), ("to", to)],
        );
        if self.tel.is_on() {
            let backend = format!("web-{web}");
            self.tel.gauge_set(
                guard_metrics::BREAKER_STATE,
                &[("tier", "web"), ("backend", &backend)],
                level,
            );
        }
    }

    /// Feed one backend failure signal (dead-node drop, overflow 5xx,
    /// fd exhaustion) into `web`'s breaker.
    fn guard_brk_failure(&mut self, web: usize, now: SimTime) {
        let before = self.brk[web].state();
        if self.brk[web].record_failure(now) {
            self.metrics.guard.breaker_trips += 1;
        }
        if self.brk[web].state() != before {
            self.note_brk_transition(web);
        }
    }

    /// Feed one backend success into `web`'s breaker; a success that
    /// closes a half-open phase reports the recovery window.
    fn guard_brk_success(&mut self, web: usize, now: SimTime) {
        let before = self.brk[web].state();
        if let Some(since) = self.brk[web].record_success() {
            self.metrics
                .guard
                .breaker_windows
                .push(RecoveryWindow { node: web, start: since, end: now });
        }
        if self.brk[web].state() != before {
            self.note_brk_transition(web);
        }
    }

    /// A connection leaves the world for good: remove it and release its
    /// probe slot. Every connection leaves through here.
    fn retire_conn(&mut self, conn_id: Handle) -> Option<Conn> {
        let conn = self.conns.remove(conn_id)?;
        if conn.probe {
            self.brk[conn.web].end_probe();
        }
        Some(conn)
    }

    /// One connection refused at the LB before any request existed
    /// (token bucket / queue gate / breaker block).
    fn guard_shed_lb(&mut self, reason: &'static str) {
        self.metrics.guard.lb_rejected += 1;
        self.tel.counter_inc(guard_metrics::SHED_TOTAL, &[("tier", "web"), ("reason", reason)]);
        self.tel_outcome("shed");
    }

    /// One admitted request retired on an error path (closes the
    /// conservation identity's `failed` bucket).
    fn guard_req_failed(&mut self, reason: &'static str) {
        self.metrics.guard.failed += 1;
        self.tel.counter_inc(guard_metrics::FAILED_TOTAL, &[("tier", "web"), ("reason", reason)]);
    }

    /// Feed one observed PHP-backlog sojourn into the queue gate and the
    /// brownout controller (zero for requests admitted straight to a
    /// worker). The smoothed sojourn is the brownout signal; entering or
    /// leaving degraded mode flips the gauge and records the interval as
    /// a span on exit.
    fn guard_observe_queue(&mut self, sojourn: SimDuration, now: SimTime) {
        self.admit_gate.observe(sojourn, now);
        self.tel.observe(
            guard_metrics::QUEUE_DELAY_SECONDS,
            &[("tier", "web")],
            guard_metrics::QUEUE_DELAY_BOUNDS_S,
            sojourn.as_secs_f64(),
        );
        match self.brownout.observe(self.admit_gate.smoothed_sojourn_s(), now) {
            BrownoutStep::Entered => {
                self.metrics.guard.brownout_entries += 1;
                self.tel.gauge_set(guard_metrics::BROWNOUT_ACTIVE, &[("tier", "web")], 1.0);
            }
            BrownoutStep::Exited { since } => {
                self.tel.gauge_set(guard_metrics::BROWNOUT_ACTIVE, &[("tier", "web")], 0.0);
                if let Some(track) = self.guard_track {
                    self.tel.span_on(track, "guard", "brownout", since, now, &[]);
                }
            }
            BrownoutStep::None => {}
        }
    }

    /// Everything [`open_connection`](crate::stack) did *except* the first
    /// SYN attempt: the priority class (derived seed), token bucket, CoDel
    /// queue gate, then the weighted LB pick; a picked backend gets a
    /// client, the call count and the registered connection. Returns the
    /// new connection's handle, or `None` when the connection is shed (bucket,
    /// gate or breaker block) or the whole web tier is out of rotation
    /// (a client error). The first [`WebWorld::syn_attempt`] is the
    /// caller's move.
    fn open_conn_prepare(&mut self, now: SimTime) -> Option<Handle> {
        let id = self.next_conn;
        self.next_conn += 1;
        let class = class_of(self.cfg.seed, id, self.cfg.guard.shed_ratio);
        if !self.admit_bucket.try_take(now) {
            self.guard_shed_lb("lb_bucket");
            return None;
        }
        match self.admit_gate.verdict(now, class) {
            GateVerdict::Admit => {}
            GateVerdict::ShedAll => {
                self.guard_shed_lb("queue");
                return None;
            }
            GateVerdict::ShedBulk => {
                if class == Priority::Bulk {
                    self.guard_shed_lb("queue");
                    return None;
                }
            }
        }
        match self.lb_pick(id, now) {
            LbPick::Backend { web, probe } => {
                let client = self.rr_client % self.client_hosts.len();
                self.rr_client += 1;
                let calls = self.draw_calls();
                Some(self.conns.insert(
                    id,
                    Conn { client, web, calls_left: calls, t_first_syn: now, retries: 0, class, probe },
                ))
            }
            LbPick::Blocked => {
                self.guard_shed_lb("breaker");
                None
            }
            LbPick::AllDead => {
                // whole tier down
                self.metrics.client_errors += 1;
                self.tel_outcome("client_error");
                None
            }
        }
    }

    /// Consume one unit of the client retry budget and schedule a
    /// re-dispatch after a jittered, exponentially backed-off failover
    /// timeout. `false` when the budget is disabled or exhausted (the
    /// caller then accounts the failure). The delay is seeded per
    /// (connection, attempt), so clients caught by the same failover
    /// spread out instead of re-dispatching in lockstep, and a given
    /// retry's delay never depends on event-arrival order.
    fn conn_retry(
        &mut self,
        conn_id: Handle,
        now: SimTime,
        ctx: &mut Ctx<'_, Ev>,
        cause: RetryCause,
    ) -> bool {
        if self.cfg.retry_budget == 0 {
            return false;
        }
        let Some(conn) = self.conns.get_mut(conn_id) else { return true };
        if conn.retries >= self.cfg.retry_budget {
            return false;
        }
        conn.retries += 1;
        let attempt = conn.retries;
        self.metrics.retries += 1;
        match cause {
            RetryCause::Dead => self.metrics.retry_dead_total += 1,
            RetryCause::Overflow => self.metrics.retry_overflow_total += 1,
        }
        self.tel.counter_inc(guard_metrics::RETRY_CAUSE, &[("cause", cause.name())]);
        // connection seqs count up from 0 and stay below 2^40, so packing
        // the attempt into the top byte keeps the stream index unique
        let stream_idx = conn_id.seq() | (u64::from(attempt) << 56);
        let mut rng = SimRng::new(derive_seed(self.cfg.seed, "web:retry-backoff", stream_idx));
        let exp = (attempt - 1).min(RETRY_BACKOFF_CAP);
        let delay = FAILOVER_TIMEOUT.mul_f64(f64::from(1u32 << exp) * rng.jitter(RETRY_JITTER));
        ctx.schedule_at(now + delay, Ev::RetryConn { conn: conn_id });
        true
    }

    /// A request was caught on a crashed node: retry the connection
    /// through the LB if the client has budget, else it is a hard 5xx.
    fn drop_req_on_dead_node(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.remove(req_id) else { return };
        let conn_id = r.conn;
        if self.guard_on {
            // the request is terminal even when its connection retries
            self.guard_req_failed("dead_node");
        }
        self.guard_brk_failure(r.web, now);
        if self.conn_retry(conn_id, now, ctx, RetryCause::Dead) {
            return;
        }
        self.retire_conn(conn_id);
        self.metrics.server_errors += 1;
        self.tel_outcome("server_error");
    }

    /// One SYN handshake attempt for `conn_id` (attempt `attempt` of the
    /// kernel retransmit ladder): accept and send the first request, back
    /// off for a kernel retransmit, wait out a failover timeout, or give
    /// the connection up.
    fn syn_attempt(&mut self, conn_id: Handle, attempt: u8, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(conn) = self.conns.get(conn_id) else { return };
        let (web, client) = (conn.web, conn.client);
        if self.dead[web] && self.cfg.retry_budget > 0 {
            // a crashed host sends no RST: the connect times out and the
            // client re-resolves through the LB (or gives up)
            self.guard_brk_failure(web, now);
            if self.conn_retry(conn_id, now, ctx, RetryCause::Dead) {
                return;
            }
            self.retire_conn(conn_id);
            self.metrics.client_errors += 1;
            self.tel_outcome("client_error");
            return;
        }
        // degraded NIC: the SYN itself may be lost on the wire
        let nic_lost = self.nic_loss[web] > 0.0 && self.fault_rng.chance(self.nic_loss[web]);
        // listen-queue collapse first, then the token bucket
        let extra_drop = self.syn_gates[web].pressure_drop_p(now);
        let collapsed = extra_drop > 0.0 && self.rng.chance(extra_drop);
        let admit = if nic_lost || collapsed {
            Err(AdmitError::AcceptOverrun)
        } else {
            self.nodes.node_mut(NodeId(web)).try_accept(now)
        };
        match admit {
            Ok(()) => {
                // handshake: one RTT before the first request leaves
                let client_host = self.client_hosts[client];
                let rtt =
                    self.topo.rtt(client_host, self.node_hosts[web]).mul_f64(self.nic_lat[web]);
                self.start_request(conn_id, true, now + rtt, ctx);
            }
            Err(AdmitError::AcceptOverrun) => {
                self.metrics.syn_drops += 1;
                self.tel.counter_inc("web_syn_drops_total", &[]);
                if attempt < 3 {
                    // kernel SYN retransmit backoff: +1 s, +2 s, +4 s
                    let backoff = SimDuration::from_secs(1 << attempt);
                    ctx.schedule_at(now + backoff, Ev::SynRetry { conn: conn_id, attempt: attempt + 1 });
                } else {
                    self.metrics.client_errors += 1;
                    self.tel_outcome("client_error");
                    self.retire_conn(conn_id);
                }
            }
            Err(_) => {
                // fd exhaustion → lighttpd answers 5xx on this node
                self.guard_brk_failure(web, now);
                self.metrics.server_errors += 1;
                self.tel_outcome("server_error");
                self.retire_conn(conn_id);
            }
        }
    }

    /// Create the next request of `conn_id` and put it on the wire to the
    /// connection's web node.
    fn start_request(
        &mut self,
        conn_id: Handle,
        first_call: bool,
        send_at: SimTime,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let Some(conn) = self.conns.get(conn_id) else { return };
        let (web, client) = (conn.web, conn.client);
        let client_host = self.client_hosts[client];
        let seq = self.next_req;
        self.next_req += 1;
        let query = db::draw_query(&self.cfg.mix, &mut self.rng);
        let cache = query.key.shard(self.caches.len());
        #[expect(clippy::cast_possible_truncation, reason = "below(2) is 0 or 1")]
        let db_node = self.rng.below(2) as usize;
        // the deadline budget starts when the request leaves the client;
        // Budget::ZERO (deadlines off) derives no deadline at all
        let deadline = self.cfg.guard.deadline.deadline_from(send_at);
        let id = self.reqs.insert(
            seq,
            Req {
                conn: conn_id,
                client,
                web,
                cache,
                db_node,
                query,
                state: ReqState::Stage1,
                first_call,
                t_sent: send_at,
                deadline,
            },
        );
        if self.guard_on {
            self.metrics.guard.admitted += 1;
            self.tel.counter_inc(guard_metrics::ADMITTED_TOTAL, &[("tier", "web")]);
        }
        let lat = self.topo.latency(client_host, self.node_hosts[web]).mul_f64(self.nic_lat[web]);
        ctx.schedule_at(send_at + lat, Ev::ReqAtWeb { req: id });
    }

    /// A PHP worker takes the request: charge its stage-1 CPU, closing the
    /// backlog span if it queued.
    fn begin_stage1(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(req) = self.reqs.get_mut(req_id) else { return };
        let queued_at = match std::mem::replace(&mut req.state, ReqState::Stage1) {
            ReqState::Queued { since } => Some(since),
            _ => None,
        };
        let web = req.web;
        let mut mi = self.req_mi_of[web] * STAGE1_FRAC;
        if req.first_call {
            mi += calib::TCP_ACCEPT_MI;
        }
        mi *= self.cpu_factor[web];
        if let Some(tq) = queued_at {
            // time spent waiting for a free PHP worker
            self.tel.span_on(self.web_track(web), "queue", "php_backlog", tq, now, &[]);
        }
        if self.guard_on {
            // every worker grant feeds the gate: zero sojourn when the
            // request went straight to a worker
            let sojourn =
                queued_at.map_or(SimDuration::ZERO, |tq| now.since(tq));
            self.guard_observe_queue(sojourn, now);
        }
        self.nodes.node_mut(NodeId(web)).add_cpu_task(now, req_id.raw(), mi);
        self.schedule_node_cpu(web, now, ctx);
    }

    /// The request arrived at the web node: take a PHP worker (or queue,
    /// or 5xx on overflow — a retry with guards on; shed a request whose
    /// deadline has already passed).
    fn admit_to_worker(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        // the target server may have died while this request was in flight
        let Some(req) = self.reqs.get_mut(req_id) else { return };
        let (web, conn_id) = (req.web, req.conn);
        if self.dead[web] {
            // connection reset by a dead server (retryable)
            return self.drop_req_on_dead_node(req_id, now, ctx);
        }
        if req.deadline.is_some_and(|d| d.passed(now)) {
            // already late at the front of the worker pool: shedding now
            // is strictly cheaper than timing out at full cost later. The
            // worker is skipped and a header-only rejection goes back; a
            // shed request is off the CPU, so a crash will not tear it
            // down twice, and it is accounted when the rejection lands.
            req.state = ReqState::Shed;
            self.tel.counter_inc(guard_metrics::SHED_TOTAL, &[("tier", "web"), ("reason", "deadline")]);
            let lat = self
                .topo
                .latency(self.node_hosts[web], self.client_hosts[req.client])
                .mul_f64(self.nic_lat[web]);
            return ctx.schedule_at(now + lat, Ev::ReplyAtClient { req: req_id });
        }
        let pool = &mut self.workers[web];
        if pool.busy < pool.max {
            pool.busy += 1;
            self.begin_stage1(req_id, now, ctx);
        } else if pool.backlog.len() < pool.backlog_max {
            pool.backlog.push_back(req_id);
            req.state = ReqState::Queued { since: now };
        } else if self.guard_on {
            // overflow with guards on: a backend-overload signal for the
            // breaker, and the client may re-dispatch through the LB
            // instead of eating the legacy hard 5xx
            self.reqs.remove(req_id);
            self.guard_brk_failure(web, now);
            self.guard_req_failed("overflow");
            self.nodes.node_mut(NodeId(web)).close_connection();
            if self.conn_retry(conn_id, now, ctx, RetryCause::Overflow) {
                return;
            }
            self.metrics.server_errors += 1;
            self.tel_outcome("server_error");
            self.retire_conn(conn_id);
        } else {
            // 5xx: backlog overflow
            self.reqs.remove(req_id);
            self.metrics.server_errors += 1;
            self.tel_outcome("server_error");
            self.abort_conn(conn_id);
        }
    }

    fn release_worker(&mut self, web: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let pool = &mut self.workers[web];
        if let Some(next) = pool.backlog.pop_front() {
            // the freed worker immediately takes the oldest queued request
            self.begin_stage1(next, now, ctx);
        } else {
            pool.busy -= 1;
        }
    }

    fn abort_conn(&mut self, conn_id: Handle) {
        if let Some(conn) = self.retire_conn(conn_id) {
            self.nodes.node_mut(NodeId(conn.web)).close_connection();
        }
    }

    // ---- CPU completion routing -------------------------------------------

    /// A web-node CPU slice finished. After stage 1, issue the memcached
    /// get — or degrade (skip the cache/db stage) when the deadline is
    /// blown or the tier is in brownout and the connection is bulk-class.
    /// After stage 2, put the reply on the wire to the client (or retire
    /// the request if its connection vanished).
    fn web_cpu_done(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let n_web = self.n_web();
        let Some(r) = self.reqs.get_mut(req_id) else { return };
        let web = r.web;
        match r.state {
            ReqState::Stage1 => {
                let reason = if r.deadline.is_some_and(|d| d.passed(now)) {
                    Some("deadline")
                } else if self.brownout.active()
                    && self.conns.get(r.conn).is_some_and(|c| c.class == Priority::Bulk)
                {
                    Some("brownout")
                } else {
                    None
                };
                if let Some(reason) = reason {
                    self.tel.counter_inc(guard_metrics::DEGRADED_TOTAL, &[("tier", "web"), ("reason", reason)]);
                    let bytes = r.enter_stage2(Via::Degraded);
                    return self.begin_stage2(req_id, web, bytes, now, ctx);
                }
                r.state = ReqState::CacheRpc { sent: now };
                let cache_node = n_web + r.cache;
                let lat = self
                    .topo
                    .latency(self.node_hosts[web], self.node_hosts[cache_node])
                    .mul_f64(self.nic_lat[web] * self.nic_lat[cache_node]);
                ctx.schedule_at(now + lat, Ev::ReqAtCache { req: req_id });
            }
            ReqState::Stage2 { via } => {
                r.state = ReqState::Reply { via };
                let (conn_id, bytes) = (r.conn, r.query.reply_bytes);
                // Table 7 bookkeeping: cache delay includes this CPU slice
                // (PHP unserialize); db delay was closed at reply arrival.
                // Degraded requests skipped (or abandoned) the cache stage,
                // so they contribute no cache/db samples or rpc spans.
                if let Via::Hit { cache_sent } = via {
                    self.tel.span_on(self.web_track(web), "rpc", "memcached_get", cache_sent, now, &[]);
                }
                if self.in_window(now) {
                    match via {
                        Via::Hit { cache_sent } => {
                            self.metrics.cache_delays_ms.push(now.since(cache_sent).as_millis_f64());
                        }
                        Via::Db { delay_ms } => self.metrics.db_delays_ms.push(delay_ms),
                        Via::Degraded => {}
                    }
                }
                self.release_worker(web, now, ctx);
                let Some(conn) = self.conns.get(conn_id) else {
                    self.reqs.remove(req_id);
                    if self.guard_on {
                        self.guard_req_failed("conn_lost");
                    }
                    return;
                };
                let client_host = self.client_hosts[conn.client];
                let (path, lat) = self.topo.path(self.node_hosts[web], client_host);
                let dur = self.topo.gauge_mut().begin_transfer(&path, (bytes + HEADER_BYTES) as f64);
                let m = self.nic_lat[web];
                ctx.schedule_at(now + lat.mul_f64(m) + dur.mul_f64(m), Ev::ReplyAtClient { req: req_id });
            }
            other => debug_assert!(false, "web cpu done in state {other:?}"),
        }
    }

    /// The get arrived at the cache node: charge the lookup CPU.
    fn req_at_cache(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.get(req_id) else { return };
        let node = self.n_web() + r.cache;
        let mi = calib::CACHE_LOOKUP_MI * self.cpu_factor[node];
        self.nodes.node_mut(NodeId(node)).add_cpu_task(now, req_id.raw(), mi);
        self.schedule_node_cpu(node, now, ctx);
    }

    /// Cache-node CPU finished: probe the LRU store and send the reply (or
    /// the tiny miss notice) back to the web node; the hit verdict rides
    /// in [`Ev::CacheReplyAtWeb`].
    fn cache_cpu_done(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.get(req_id) else { return };
        let (web, cache, key) = (r.web, r.cache, r.query.key);
        let hit = self.caches[cache].get(key).is_some();
        let result = if hit { "hit" } else { "miss" };
        self.tel.counter_inc("web_cache_lookups_total", &[("result", result)]);
        let web_host = self.node_hosts[web];
        let cache_node = self.n_web() + cache;
        let cache_host = self.node_hosts[cache_node];
        let (path, lat) = self.topo.path(cache_host, web_host);
        let m = self.nic_lat[web] * self.nic_lat[cache_node];
        if hit {
            let bytes = db::reply_bytes_for(key) + HEADER_BYTES;
            let dur = self.topo.gauge_mut().begin_transfer(&path, bytes as f64);
            ctx.schedule_at(
                now + lat.mul_f64(m) + dur.mul_f64(m),
                Ev::CacheReplyAtWeb { req: req_id, hit: true },
            );
        } else {
            // tiny miss notice: latency only, no gauge claim
            ctx.schedule_at(now + lat.mul_f64(m), Ev::CacheReplyAtWeb { req: req_id, hit: false });
        }
    }

    /// The cache verdict landed back on the web node: a hit goes on to
    /// stage-2 CPU, a miss to MySQL (or degrades when the deadline cannot
    /// afford the MySQL leg).
    fn cache_reply_at_web(
        &mut self,
        req_id: Handle,
        hit: bool,
        now: SimTime,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let n_web = self.n_web();
        let Some(r) = self.reqs.get_mut(req_id) else { return };
        let ReqState::CacheRpc { sent } = r.state else {
            debug_assert!(false, "cache reply in state {:?}", r.state);
            return;
        };
        let web = r.web;
        if hit {
            let (path, _) = self.topo.path(self.node_hosts[n_web + r.cache], self.node_hosts[web]);
            self.topo.gauge_mut().end(&path);
            if self.dead[web] {
                return self.drop_req_on_dead_node(req_id, now, ctx);
            }
            let bytes = r.enter_stage2(Via::Hit { cache_sent: sent });
            self.begin_stage2(req_id, web, bytes, now, ctx);
        } else if r.deadline.is_some_and(|d| {
            d.passed(now) || d.cannot_afford(now, self.cfg.guard.db_reserve)
        }) {
            // a miss means a MySQL round trip: degrade when the deadline
            // is blown or cannot afford the reserved db leg
            self.tel.counter_inc(guard_metrics::DEGRADED_TOTAL, &[("tier", "web"), ("reason", "deadline")]);
            let bytes = r.enter_stage2(Via::Degraded);
            self.begin_stage2(req_id, web, bytes, now, ctx);
        } else {
            // go to the database
            r.state = ReqState::DbRpc { sent: now };
            let lat = self.topo.latency(self.node_hosts[web], self.db_hosts[r.db_node]);
            ctx.schedule_at(now + lat, Ev::ReqAtDb { req: req_id });
        }
    }

    /// The query arrived at its MySQL node: charge the query CPU.
    fn req_at_db(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.get(req_id) else { return };
        let (db_node, mi) = (r.db_node, db::query_cpu_mi(&r.query));
        self.dbc.node_mut(NodeId(db_node)).add_cpu_task(now, req_id.raw(), mi);
        self.schedule_db_cpu(db_node, now, ctx);
    }

    /// MySQL CPU finished: 2 % of queries miss the buffer pool and read
    /// disk, the rest reply immediately.
    fn db_cpu_done(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.get_mut(req_id) else { return };
        if !db::query_hits_disk(&mut self.rng) {
            return self.db_send_reply(req_id, now, ctx);
        }
        if let ReqState::DbRpc { sent } = r.state {
            r.state = ReqState::DbDisk { sent };
        }
        let (db_node, bytes) = (r.db_node, r.query.reply_bytes);
        let service = self
            .dbc
            .node(NodeId(db_node))
            .disk_read_time(bytes, false)
            .mul_f64(self.db_disk_factor[db_node]);
        let disk = self.dbc.node_mut(NodeId(db_node)).disk();
        if let Some((job, at)) = disk.submit(now, req_id.raw(), service) {
            let job = Handle::from_raw(job);
            ctx.schedule_at(at, Ev::DbDiskDone { node: ev_index(db_node), job });
        }
    }

    /// Retire the completed disk job and start the next queued one (the
    /// per-node disk is FIFO). The reply send for the completed job is the
    /// caller's move, after this.
    fn db_disk_pop(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if let Some((next_job, at)) = self.dbc.node_mut(NodeId(node)).disk().complete(now) {
            let job = Handle::from_raw(next_job);
            ctx.schedule_at(at, Ev::DbDiskDone { node: ev_index(node), job });
        }
    }

    /// Put the MySQL reply on the wire to the web node.
    fn db_send_reply(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.get(req_id) else { return };
        let (web, db_node, bytes) = (r.web, r.db_node, r.query.reply_bytes);
        let (path, lat) = self.topo.path(self.db_hosts[db_node], self.node_hosts[web]);
        let dur = self.topo.gauge_mut().begin_transfer(&path, (bytes + HEADER_BYTES) as f64);
        let m = self.nic_lat[web];
        ctx.schedule_at(now + lat.mul_f64(m) + dur.mul_f64(m), Ev::DbReplyAtWeb { req: req_id });
    }

    /// The MySQL reply landed back on the web node: close the db leg and
    /// go on to stage-2 CPU.
    fn db_reply_at_web(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let n_web = self.n_web();
        let Some(r) = self.reqs.get_mut(req_id) else { return };
        let (ReqState::DbRpc { sent } | ReqState::DbDisk { sent }) = r.state else {
            debug_assert!(false, "db reply in state {:?}", r.state);
            return;
        };
        let (web, db_node) = (r.web, r.db_node);
        let (path, _) = self.topo.path(self.db_hosts[db_node], self.node_hosts[web]);
        self.topo.gauge_mut().end(&path);
        if self.dead[web] {
            return self.drop_req_on_dead_node(req_id, now, ctx);
        }
        if self.cache_writeback {
            // re-warm a cold-restarted store: PHP writes the row
            // back to memcached after the db read
            let (key, cache) = (r.query.key, r.cache);
            let node = n_web + cache;
            let before = self.caches[cache].used_bytes();
            let bytes = u32::try_from(db::reply_bytes_for(key)).unwrap_or(u32::MAX);
            self.caches[cache].set(key, bytes);
            let after = self.caches[cache].used_bytes();
            if after > before {
                // capacity is sized below free memory, so this holds
                self.nodes.node_mut(NodeId(node)).alloc_mem(after - before).ok();
            } else {
                self.nodes.node_mut(NodeId(node)).free_mem(before - after);
            }
        }
        let bytes = r.enter_stage2(Via::Db { delay_ms: now.since(sent).as_millis_f64() });
        let track = self.web_track(web);
        self.tel.span_on(track, "rpc", "mysql_query", sent, now, &[("db_node", &db_node)]);
        self.begin_stage2(req_id, web, bytes, now, ctx);
    }

    /// Charge stage-2 CPU (reply assembly of `bytes`) on web node `web`;
    /// the caller has moved the request to [`ReqState::Stage2`].
    fn begin_stage2(&mut self, req_id: Handle, web: usize, bytes: u64, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let mi = (self.req_mi_of[web] * (1.0 - STAGE1_FRAC)
            + bytes as f64 / 1024.0 * calib::WEB_REQ_MI_PER_KIB)
            * self.cpu_factor[web];
        self.nodes.node_mut(NodeId(web)).add_cpu_task(now, req_id.raw(), mi);
        self.schedule_node_cpu(web, now, ctx);
    }

    /// The reply reached the client: account the completion and either
    /// start the connection's next call or close it.
    fn finish_reply(&mut self, req_id: Handle, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Some(r) = self.reqs.remove(req_id) else { return };
        let ReqState::Reply { via } = r.state else {
            // header-only rejection: no transfer was begun, no worker
            // taken — just retire the connection
            debug_assert_eq!(r.state, ReqState::Shed);
            return self.finish_shed_reply(&r, now);
        };
        let degraded = via == Via::Degraded;
        let client_host = self.client_hosts[r.client];
        let (path, _) = self.topo.path(self.node_hosts[r.web], client_host);
        self.topo.gauge_mut().end(&path);
        let (t_first_syn, calls_left, web, probe) = match self.conns.get_mut(r.conn) {
            Some(conn) => {
                conn.calls_left -= 1;
                // the probe request reached its verdict: release the slot
                (conn.t_first_syn, conn.calls_left, conn.web, std::mem::take(&mut conn.probe))
            }
            None => {
                if self.guard_on {
                    self.guard_req_failed("conn_lost");
                }
                return;
            }
        };
        // delay: first call measured from the first SYN (includes
        // handshake + any retries), later calls from request send
        let start = if r.first_call { t_first_syn } else { r.t_sent };
        self.metrics.completed_total += 1;
        if probe {
            self.brk[web].end_probe();
        }
        self.guard_brk_success(web, now);
        if r.deadline.is_some_and(|d| d.passed(now)) {
            self.metrics.guard.deadline_miss += 1;
            self.tel.counter_inc(guard_metrics::DEADLINE_MISS_TOTAL, &[("tier", "web")]);
        }
        if self.guard_on {
            if degraded {
                self.metrics.guard.degraded += 1;
            } else {
                self.metrics.guard.completed += 1;
            }
        }
        let track = self.web_track(web);
        self.tel.span_on(track, "request", "http_request", start, now, &[("path", &via.span_path())]);
        self.tel_outcome(if degraded { "degraded" } else { "ok" });
        let delay_s = now.since(start).as_secs_f64();
        self.tel.observe("web_request_delay_seconds", &[], DELAY_BOUNDS_S, delay_s);
        // degraded responses never count as full successes: the window
        // goodput/latency samples stay full-fidelity-only (availability
        // math in the sweep depends on this)
        if self.in_window(now) && r.t_sent >= self.measure_start && !degraded {
            self.metrics.completed += 1;
            self.metrics.delays_ms.push(now.since(start).as_millis_f64());
        }
        if self.in_window(now) {
            self.metrics.conn_delay_hist.record(now.since(t_first_syn).as_secs_f64());
        }
        if calls_left > 0 {
            self.start_request(r.conn, false, now, ctx);
        } else {
            self.retire_conn(r.conn);
            self.nodes.node_mut(NodeId(web)).close_connection();
        }
    }

    /// A shed request's header-only rejection reached the client: retire
    /// the request (terminal `shed` bucket) and close its connection.
    fn finish_shed_reply(&mut self, r: &Req, now: SimTime) {
        self.metrics.guard.shed += 1;
        if let Some(c) = self.retire_conn(r.conn) {
            let start = if r.first_call { c.t_first_syn } else { r.t_sent };
            let track = self.web_track(r.web);
            self.tel.span_on(track, "request", "http_request", start, now, &[("path", &"shed")]);
            self.nodes.node_mut(NodeId(c.web)).close_connection();
        }
        self.tel_outcome("shed");
    }

    /// A failover timeout elapsed: pick a fresh backend for `conn` (the
    /// follow-up SYN attempt is the caller's move) or retire it when the
    /// whole tier is out. True when a backend was picked.
    fn redispatch(&mut self, conn_id: Handle, now: SimTime) -> bool {
        let Some(c) = self.conns.get_mut(conn_id) else { return false };
        // a retried probe is no longer probing the backend it left
        if std::mem::take(&mut c.probe) {
            self.brk[c.web].end_probe();
        }
        match self.lb_pick(conn_id.seq(), now) {
            LbPick::Backend { web, probe } => {
                if let Some(c) = self.conns.get_mut(conn_id) {
                    c.web = web;
                    c.probe = probe;
                }
                true
            }
            LbPick::Blocked => {
                // backends alive but every breaker is open: shed rather
                // than hammer a recovering tier
                self.retire_conn(conn_id);
                self.guard_shed_lb("breaker");
                false
            }
            LbPick::AllDead => {
                // nothing left to fail over to
                self.retire_conn(conn_id);
                self.metrics.client_errors += 1;
                self.tel_outcome("client_error");
                false
            }
        }
    }

    // ---- fault layer --------------------------------------------------

    /// Total tier nodes (web + cache) addressable by NIC/CPU faults.
    fn n_tier(&self) -> usize {
        self.nodes.len()
    }

    /// Lazily start the health-check loop. Deferred to the first injected
    /// fault so fault-free runs (including plans whose every fault lands
    /// after the run ends) stay byte-identical to the pre-fault code path.
    fn ensure_health_checks(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if !self.hc_running {
            self.hc_running = true;
            ctx.schedule_at(now + HC_PERIOD, Ev::HealthCheck);
        }
    }

    /// Inject fault `idx` of the normalized plan.
    fn apply_fault(&mut self, idx: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Fault { node, kind, .. } = self.fplan.faults()[idx];
        let applied = match kind {
            FaultKind::NodeCrash => self.apply_crash(node, now, ctx),
            FaultKind::NodeRestart => self.apply_restart(node, now),
            FaultKind::NicDegrade { loss, latency_mult } => {
                if node < self.n_tier() {
                    self.nic_loss[node] = loss;
                    self.nic_lat[node] = latency_mult;
                    // per-fault seed: the loss stream is reproducible even
                    // if earlier faults are edited out of the plan
                    self.fault_rng = SimRng::new(self.fplan.fault_seed(idx));
                    true
                } else {
                    false
                }
            }
            FaultKind::NicRestore => {
                if node < self.n_tier() && (self.nic_loss[node] > 0.0 || self.nic_lat[node] != 1.0) {
                    self.nic_loss[node] = 0.0;
                    self.nic_lat[node] = 1.0;
                    true
                } else {
                    false
                }
            }
            FaultKind::DiskSlow { factor } => {
                // the only disks in the web world are the two MySQL nodes
                if node < self.db_disk_factor.len() {
                    self.db_disk_factor[node] = factor;
                    true
                } else {
                    false
                }
            }
            FaultKind::DiskRestore => {
                if node < self.db_disk_factor.len() && self.db_disk_factor[node] != 1.0 {
                    self.db_disk_factor[node] = 1.0;
                    true
                } else {
                    false
                }
            }
            FaultKind::CpuThrottle { factor } => {
                if node < self.n_tier() {
                    self.cpu_factor[node] = factor;
                    true
                } else {
                    false
                }
            }
            FaultKind::CpuRestore => {
                if node < self.n_tier() && self.cpu_factor[node] != 1.0 {
                    self.cpu_factor[node] = 1.0;
                    true
                } else {
                    false
                }
            }
            FaultKind::CacheColdRestart => self.apply_cache_cold(node),
        };
        let name = if applied {
            self.metrics.faults_injected += 1;
            fault_metrics::FAULT_INJECTED_TOTAL
        } else {
            fault_metrics::FAULT_SKIPPED_TOTAL
        };
        self.tel.counter_inc(name, &[("kind", kind.name()), ("tier", "web")]);
        self.ensure_health_checks(now, ctx);
    }

    /// Kill web server `node`: in-flight work dies, the LB notices via
    /// health checks, clients burn retry budget (or eat hard errors).
    fn apply_crash(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) -> bool {
        if node >= self.n_web() || self.dead[node] {
            return false;
        }
        self.dead[node] = true;
        self.crash_time[node] = Some(now);
        // in-flight CPU work on the node dies with it, in id order
        for id in self.reqs.sorted_ids_where(|r| r.web == node) {
            self.nodes.node_mut(NodeId(node)).cancel_cpu_task(now, id.raw());
            // requests with RPCs in flight are dropped when their
            // reply lands on the dead node (see the dead guards)
            let on_cpu = |r: &Req| {
                matches!(r.state, ReqState::Stage1 | ReqState::Queued { .. } | ReqState::Stage2 { .. })
            };
            if self.reqs.get(id).is_some_and(on_cpu) {
                self.drop_req_on_dead_node(id, now, ctx);
            }
        }
        self.workers[node].busy = 0;
        self.workers[node].backlog.clear();
        true
    }

    /// Bring a crashed web server back: empty pools, fresh accept gate,
    /// zero connections. It only rejoins the LB after RISE health checks.
    fn apply_restart(&mut self, node: usize, now: SimTime) -> bool {
        if node >= self.n_web() || !self.dead[node] {
            return false;
        }
        self.dead[node] = false;
        self.restart_time[node] = Some(now);
        self.syn_gates[node] = SynGate::new(self.accept_rate_of[node]);
        self.workers[node].busy = 0;
        self.workers[node].backlog.clear();
        self.nodes.node_mut(NodeId(node)).reset_connections();
        self.hc_ok[node] = 0;
        true
    }

    /// memcached cold restart: the store loses its contents (memory is
    /// released) and re-warms through the miss path (write-allocate on db
    /// replies from here on).
    fn apply_cache_cold(&mut self, cache: usize) -> bool {
        if cache >= self.caches.len() {
            return false;
        }
        let node = self.n_web() + cache;
        let used = self.caches[cache].used_bytes();
        self.nodes.node_mut(NodeId(node)).free_mem(used);
        self.caches[cache] = LruStore::new(self.cache_cap_of[cache], self.caches.len(), cache);
        self.cache_writeback = true;
        true
    }

    /// One HAProxy health-check round: FALL consecutive failures take a
    /// backend out of rotation (a failover), RISE consecutive passes put
    /// a restarted one back (closing the recovery-time measurement).
    fn health_check_tick(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        for i in 0..self.n_web() {
            if self.dead[i] {
                self.hc_ok[i] = 0;
                self.hc_fail[i] = self.hc_fail[i].saturating_add(1);
                if !self.lb_dead[i] && self.hc_fail[i] >= HC_FALL {
                    self.lb_dead[i] = true;
                    self.metrics.failovers += 1;
                    self.tel.counter_inc(fault_metrics::FAILOVER_TOTAL, &[("tier", "web")]);
                }
            } else {
                self.hc_fail[i] = 0;
                if self.lb_dead[i] {
                    self.hc_ok[i] += 1;
                    if self.hc_ok[i] >= HC_RISE {
                        self.lb_dead[i] = false;
                        self.hc_ok[i] = 0;
                        if let Some(t0) = self.crash_time[i].take() {
                            let rec = now.since(t0).as_secs_f64();
                            self.metrics.recovery_s.push(rec);
                            self.tel.observe(
                                fault_metrics::RECOVERY_SECONDS,
                                &[("tier", "web")],
                                fault_metrics::RECOVERY_BOUNDS_S,
                                rec,
                            );
                        }
                        if let Some(up) = self.restart_time[i].take() {
                            // restarted-but-not-in-rotation: the window
                            // simexplore probes with follow-up faults
                            self.metrics
                                .recovery_windows
                                .push(RecoveryWindow { node: i, start: up, end: now });
                        }
                    }
                }
            }
        }
        if now < self.measure_end {
            ctx.schedule_at(now + HC_PERIOD, Ev::HealthCheck);
        }
    }

    // ---- sampling -----------------------------------------------------

    fn sample(&mut self, now: SimTime) {
        self.metrics.power_w.push(now, self.nodes.power_now());
        let n_web = self.n_web();
        let mut web_cpu = 0.0;
        let mut cache_cpu = 0.0;
        let mut web_mem = 0.0;
        let mut cache_mem = 0.0;
        for (i, n) in self.nodes.iter().enumerate() {
            if i < n_web {
                web_cpu += n.cpu_utilization();
                web_mem += n.mem_utilization();
            } else {
                cache_cpu += n.cpu_utilization();
                cache_mem += n.mem_utilization();
            }
        }
        let n_cache = (self.nodes.len() - n_web).max(1);
        self.metrics.web_cpu.push(web_cpu / n_web as f64);
        self.metrics.cache_cpu.push(cache_cpu / n_cache as f64);
        self.metrics.web_mem.push(web_mem / n_web as f64);
        self.metrics.cache_mem.push(cache_mem / n_cache as f64);
        let delta = self.metrics.completed_total - self.metrics.last_sampled_completed;
        self.tel.series_push("web_throughput_rps", &[], now, delta as f64);
    }

    /// One 1 s measurement tick: sample gauges, close the throughput
    /// window, re-arm while the run is live.
    fn sample_tick(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        self.sample(now);
        let delta = self.metrics.completed_total - self.metrics.last_sampled_completed;
        self.metrics.last_sampled_completed = self.metrics.completed_total;
        self.metrics.throughput_ts.push(now, delta as f64);
        if now < self.measure_end {
            ctx.schedule_in(SimDuration::from_secs(1), Ev::Sample);
        }
    }

    /// The warmup ended: snapshot the energy meter.
    fn measure_start_tick(&mut self, now: SimTime) {
        self.metrics.energy_at_start = self.nodes.energy_joules(now);
    }

    /// The measurement window ended: close the energy meter and stop.
    fn stop_tick(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if self.guard_on {
            // drain the conservation identity: whatever is still in
            // flight when the run ends lands in the `failed` bucket so
            // admitted = completed + degraded + shed + failed holds
            let inflight = u64::try_from(self.reqs.len()).unwrap_or(u64::MAX);
            if inflight > 0 {
                self.metrics.guard.failed += inflight;
                self.tel.counter_add(
                    guard_metrics::FAILED_TOTAL,
                    &[("tier", "web"), ("reason", "inflight_at_stop")],
                    inflight,
                );
            }
            if let Some(since) = self.brownout.active_since() {
                self.tel.gauge_set(guard_metrics::BROWNOUT_ACTIVE, &[("tier", "web")], 0.0);
                if let Some(track) = self.guard_track {
                    self.tel.span_on(track, "guard", "brownout", since, now, &[]);
                }
            }
        }
        self.metrics.energy_j = self.nodes.energy_joules(now) - self.metrics.energy_at_start;
        ctx.stop();
    }

    /// Telemetry: fold the per-node power step logs (recorded by the
    /// cluster when tracing is on) into `node_power_watts{node=...}`
    /// timeseries. Called once after the run.
    pub(crate) fn harvest_power_series(&mut self) {
        if !self.tel.is_on() {
            return;
        }
        self.tel.help("node_power_watts", "Per-node power draw timeline, watts");
        let n_web = self.n_web();
        for i in 0..self.nodes.len() {
            let steps = self.nodes.node(NodeId(i)).power_trace().to_vec();
            let name = if i < n_web {
                format!("web-{i}")
            } else {
                format!("cache-{}", i - n_web)
            };
            for (t, w) in steps {
                self.tel.series_push("node_power_watts", &[("node", &name)], t, w);
            }
        }
        for i in 0..self.dbc.len() {
            let steps = self.dbc.node(NodeId(i)).power_trace().to_vec();
            let name = format!("db-{i}");
            for (t, w) in steps {
                self.tel.series_push("node_power_watts", &[("node", &name)], t, w);
            }
        }
    }
}

impl WebWorld {
    /// The event dispatcher: one thin arm per [`Ev`], each delegating to
    /// the lifecycle helpers above, which schedule straight into `ctx`.
    /// The [`edison_simcore::Model`] impl in [`crate::stack`] calls it.
    pub(crate) fn dispatch(&mut self, now: SimTime, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::GenConn => {
                if now < self.measure_end {
                    if let Some(conn) = self.open_conn_prepare(now) {
                        self.syn_attempt(conn, 0, now, ctx);
                    }
                    let d = self.gen_next_delay();
                    ctx.schedule_at(now + d, Ev::GenConn);
                }
            }
            Ev::SynRetry { conn, attempt } => self.syn_attempt(conn, attempt, now, ctx),
            Ev::NodeCpu { node, epoch } => {
                let node = node as usize;
                if !self.nodes.node_mut(NodeId(node)).deliver_cpu_completion(epoch) {
                    return;
                }
                let mut done = std::mem::take(&mut self.cpu_done);
                self.nodes.node_mut(NodeId(node)).take_finished_cpu_into(now, &mut done);
                for &tid in &done {
                    if node < self.n_web() {
                        self.web_cpu_done(Handle::from_raw(tid), now, ctx);
                    } else {
                        self.cache_cpu_done(Handle::from_raw(tid), now, ctx);
                    }
                }
                done.clear();
                self.cpu_done = done;
                self.schedule_node_cpu(node, now, ctx);
            }
            Ev::DbCpu { node, epoch } => {
                let node = node as usize;
                if !self.dbc.node_mut(NodeId(node)).deliver_cpu_completion(epoch) {
                    return;
                }
                let mut done = std::mem::take(&mut self.cpu_done);
                self.dbc.node_mut(NodeId(node)).take_finished_cpu_into(now, &mut done);
                for &tid in &done {
                    self.db_cpu_done(Handle::from_raw(tid), now, ctx);
                }
                done.clear();
                self.cpu_done = done;
                self.schedule_db_cpu(node, now, ctx);
            }
            Ev::ReqAtWeb { req } => self.admit_to_worker(req, now, ctx),
            Ev::ReqAtCache { req } => self.req_at_cache(req, now, ctx),
            Ev::CacheReplyAtWeb { req, hit } => self.cache_reply_at_web(req, hit, now, ctx),
            Ev::ReqAtDb { req } => self.req_at_db(req, now, ctx),
            Ev::DbDiskDone { node, job } => {
                self.db_disk_pop(node as usize, now, ctx);
                self.db_send_reply(job, now, ctx);
            }
            Ev::DbReplyAtWeb { req } => self.db_reply_at_web(req, now, ctx),
            Ev::ReplyAtClient { req } => self.finish_reply(req, now, ctx),
            Ev::Sample => self.sample_tick(now, ctx),
            Ev::Fault { idx } => self.apply_fault(idx, now, ctx),
            Ev::HealthCheck => self.health_check_tick(now, ctx),
            Ev::RetryConn { conn } => {
                if self.redispatch(conn, now) {
                    self.syn_attempt(conn, 0, now, ctx);
                }
            }
            Ev::MeasureStart => self.measure_start_tick(now),
            Ev::Stop => self.stop_tick(now, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ClusterScale;

    fn cfg(scenario: WebScenario, hit: f64, img: f64) -> StackConfig {
        let mix = WorkloadMix { image_fraction: img, cache_hit_ratio: hit };
        StackConfig::new(scenario, mix, GenMode::Httperf { connections_per_sec: 16.0, calls_per_conn: 6.6 }, 7)
    }

    /// The stores the warm-up leaves when replayed key by key: one `set`
    /// per cached row, tables in order, rows ascending, on stores sized
    /// from a fresh cache node.
    fn replayed_caches(cfg: &StackConfig) -> Vec<LruStore> {
        let n_cache = cfg.scenario.cache_servers;
        let spec = cfg.scenario.platform.spec();
        let cap = ((spec.mem.total_bytes - spec.os.base_memory) as f64 * 0.85) as u64;
        let mut caches: Vec<LruStore> = (0..n_cache).map(|i| LruStore::new(cap, n_cache, i)).collect();
        let warm_rows = (cfg.mix.cache_hit_ratio * ROWS_PER_TABLE as f64) as u32;
        for table in 0..db::TOTAL_TABLES as u8 {
            for row in 0..warm_rows {
                let key = Key { table, row };
                caches[key.shard(n_cache)].set(key, u32::try_from(db::reply_bytes_for(key)).unwrap());
            }
        }
        caches
    }

    #[test]
    fn warmed_caches_equal_the_per_key_warm_up() {
        let rows = [Platform::Edison, Platform::Dell].into_iter().flat_map(|p| {
            [ClusterScale::Full, ClusterScale::Half, ClusterScale::Quarter, ClusterScale::Eighth]
                .into_iter()
                .filter_map(move |s| WebScenario::table6(p, s))
        });
        let mut worlds = 0;
        for scenario in rows {
            for hit in [0.0, 0.60, 0.77, 0.93, 1.0] {
                for img in [0.0, 0.20] {
                    let cfg = cfg(scenario.clone(), hit, img);
                    let want = replayed_caches(&cfg);
                    let world = WebWorld::new(cfg);
                    assert!(world.caches == want, "{scenario:?} at hit {hit}, images {img}");
                    let base = scenario.platform.spec().os.base_memory;
                    let n_web = scenario.web_servers;
                    for (i, c) in want.iter().enumerate() {
                        assert_eq!(world.nodes.node(NodeId(n_web + i)).mem_used(), base + c.used_bytes());
                    }
                    worlds += 1;
                }
            }
        }
        assert_eq!(worlds, 6 * 5 * 2, "every Table 6 row");
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn a_hit_ratio_above_one_is_rejected() {
        let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let _ = WebWorld::new(cfg(scenario, 1.2, 0.0));
    }

    #[test]
    fn a_window_that_asked_for_nothing_is_fully_available() {
        let mut m = Metrics::default();
        assert_eq!(m.availability(), 1.0);
        m.completed = 3;
        m.server_errors = 1;
        assert_eq!(m.availability(), 0.75);
        m.completed = 0;
        m.server_errors = 0;
        m.client_errors = 2;
        assert_eq!(m.availability(), 0.0);
    }

    #[test]
    fn requests_per_joule_divides_a_zero_energy_window_by_a_nanojoule() {
        let mut m = Metrics { completed: 5, ..Metrics::default() };
        assert_eq!(m.energy_j, 0.0);
        assert_eq!(m.requests_per_joule(), 5.0 / 1e-9);
        m.energy_j = 2.0;
        assert_eq!(m.requests_per_joule(), 2.5);
    }
}
