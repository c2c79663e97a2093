//! The cluster job executor: YARN scheduling + the map/shuffle/reduce
//! pipeline as one discrete-event world per job run.
//!
//! A run reproduces the §5.2 setup: one external Dell master (namenode +
//! resource manager, excluded from energy accounting, as the paper does)
//! plus N slave nodes of one platform. Each task walks explicit phases:
//!
//! ```text
//! map:    grant → container launch (JVM CPU) → input read (disk or
//!         remote flow) → map CPU → sort/spill CPU → spill write (disk)
//! reduce: grant → launch → fetch each map's partition (network flows,
//!         as maps finish) → external merge (disk) → reduce CPU →
//!         output write (disk) → replication pipeline (flow)
//! ```
//!
//! Container-allocation waves, data-locality, the Edison memory ceiling
//! and the reduce-phase start times of Figures 12–17 all emerge from these
//! mechanics rather than being scripted.

use crate::hdfs::Namenode;
use crate::jobs::{JobProfile, Tune};
use crate::yarn::{heartbeat, Grant, LivenessTracker, NodeCapacity, PendingTask};
use edison_cluster::{Cluster, NodeId};
use edison_hw::{calib, presets};
use edison_net::{HostId, LinkGauge, Topology};
use edison_simcore::rng::SimRng;
use edison_simcore::stats::TimeSeries;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, EngineProfile, KindProfiler, Model, NoopProfiler, Simulation};
use edison_simfault::metrics as fault_metrics;
use edison_simfault::{Fault, FaultKind, FaultPlan, RecoveryWindow};
use edison_simguard::metrics as guard_metrics;
use edison_simguard::{BreakerState, BreakerVerdict, CircuitBreaker, GuardConfig};
use edison_simrun::{derive_seed, SimError};
use edison_simtel::{labels, record_engine_profile, record_sim_metrics, Telemetry};
use std::collections::VecDeque;

const MIB: u64 = 1024 * 1024;
/// CPU-task id reserved for the application master.
const AM_ID: u64 = u64::MAX;
/// Disk-job id base for per-node job localisation (base + node index).
const LOCALIZE_BASE: u64 = u64::MAX / 2;
/// CPU/disk job ids encode the task's re-execution attempt —
/// `id = attempt × STRIDE + task` — so a completion scheduled by a dead
/// incarnation of the task is recognisably stale and dropped.
const ATTEMPT_STRIDE: u64 = 1 << 40;
/// Hadoop's default reduce slow-start threshold.
const REDUCE_SLOWSTART: f64 = 0.05;
/// A run with no task-phase transition for this long is declared stuck
/// (an unrecovered fault), not left looping on idle ticks forever.
const STALL_TIMEOUT: SimDuration = SimDuration::from_secs(3600);
/// Exponent cap on the re-registration backoff of a repeatedly restarting
/// nodemanager: delays double per restart up to `base << REREG_BACKOFF_CAP`.
const REREG_BACKOFF_CAP: u32 = 2;
/// Jitter spread (± fraction) around the re-registration backoff, seeded
/// per (node, restart), so simultaneously restarted nodes never hammer
/// the RM in lockstep.
const REREG_JITTER: f64 = 0.25;

/// Apply a fault multiplier without perturbing fault-free arithmetic: the
/// common `m == 1.0` case returns `d` bit-exactly.
fn scaled(d: SimDuration, m: f64) -> SimDuration {
    if m == 1.0 {
        d
    } else {
        d.mul_f64(m)
    }
}

/// Inverse of [`MrWorld::job_id`]: `(attempt, task)`.
fn decode_job(job: u64) -> (u32, usize) {
    (
        u32::try_from(job / ATTEMPT_STRIDE).unwrap_or(u32::MAX),
        usize::try_from(job % ATTEMPT_STRIDE).unwrap_or(usize::MAX),
    )
}

/// Cluster-side configuration of a run.
#[derive(Debug, Clone)]
pub struct ClusterSetup {
    /// Platform tuning (selects hardware spec + job containers).
    pub tune: Tune,
    /// Slave node count (Table 8 columns: 35/17/8/4 Edison, 2/1 Dell).
    pub workers: usize,
    /// HDFS block size, bytes (16 MB Edison / 64 MB Dell; 64 MB both for
    /// terasort).
    pub block_bytes: u64,
    /// HDFS replication (2 Edison / 1 Dell — tuned for ≈95 % locality).
    pub replication: u32,
    /// Per-node memory schedulable for containers (≈600 MB Edison, 12 GB
    /// Dell after OS + datanode + nodemanager).
    pub schedulable_mem: u64,
    /// Application-master container size (100 MB / 500 MB).
    pub am_mem: u64,
    /// RNG seed.
    pub seed: u64,
    /// Fault injection: slow node `index` down by the given CPU factor
    /// (> 1), modelling a degraded SD card / thermally-throttled module.
    pub straggler: Option<(usize, f64)>,
    /// Hadoop speculative execution: duplicate suspiciously slow maps once
    /// most of the map phase has completed. On by default (Hadoop's
    /// default); with homogeneous nodes it never triggers, so calibrated
    /// results are unaffected.
    pub speculation: bool,
    /// Declarative fault schedule executed during the run (node indices are
    /// worker indices). Empty — the default — leaves the run bit-exactly
    /// fault-free.
    pub fault_plan: FaultPlan,
    /// RM liveness timeout, seconds: a worker silent this long is declared
    /// lost and its containers re-queued.
    pub liveness_timeout_s: f64,
    /// Overload protection on heartbeat dispatch: per-worker circuit
    /// breakers (an RM node-lost verdict stops new grants until the
    /// worker proves itself again) and per-attempt task deadlines.
    /// [`GuardConfig::off`] — the default — is a byte-identical no-op.
    pub guard: GuardConfig,
}

impl ClusterSetup {
    /// The paper's Edison slave configuration at a given size.
    pub fn edison(workers: usize) -> Self {
        ClusterSetup {
            tune: Tune::Edison,
            workers,
            block_bytes: 16 * MIB,
            replication: 2.min(u32::try_from(workers).unwrap_or(u32::MAX)),
            schedulable_mem: 600 * MIB,
            am_mem: 100 * MIB,
            seed: 20160509,
            straggler: None,
            speculation: true,
            fault_plan: FaultPlan::new(),
            liveness_timeout_s: 5.0,
            guard: GuardConfig::off(),
        }
    }

    /// The paper's Dell slave configuration at a given size.
    pub fn dell(workers: usize) -> Self {
        ClusterSetup {
            tune: Tune::Dell,
            workers,
            block_bytes: 64 * MIB,
            replication: 1,
            schedulable_mem: 12 * 1024 * MIB,
            am_mem: 500 * MIB,
            seed: 20160509,
            straggler: None,
            speculation: true,
            fault_plan: FaultPlan::new(),
            liveness_timeout_s: 5.0,
            guard: GuardConfig::off(),
        }
    }

    /// Scale the block size so each vcore still gets one map container when
    /// the cluster shrinks (the paper: "when running wordcount2 … on
    /// half-scale … we increase the HDFS block size").
    pub fn with_block(mut self, bytes: u64) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Inject a straggler: node `index` runs its CPU `factor`× slower.
    pub fn with_straggler(mut self, index: usize, factor: f64) -> Self {
        assert!(factor > 1.0);
        self.straggler = Some((index, factor));
        self
    }

    /// Run the job under the given fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Run the job with overload protection on heartbeat dispatch.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Launching,
    Reading,
    MapCpu,
    SpillCpu,
    SpillDisk,
    ShuffleWait,
    Fetching,
    MergeDisk,
    ReduceCpu,
    OutputDisk,
    OutputRepl,
    Done,
}

/// Static phase name for telemetry spans.
fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Pending => "pending",
        Phase::Launching => "container_launch",
        Phase::Reading => "input_read",
        Phase::MapCpu => "map_cpu",
        Phase::SpillCpu => "sort_spill_cpu",
        Phase::SpillDisk => "spill_write",
        Phase::ShuffleWait => "shuffle_wait",
        Phase::Fetching => "shuffle_fetch",
        Phase::MergeDisk => "external_merge",
        Phase::ReduceCpu => "reduce_cpu",
        Phase::OutputDisk => "output_write",
        Phase::OutputRepl => "output_replication",
        Phase::Done => "done",
    }
}

#[derive(Debug)]
struct Task {
    is_map: bool,
    phase: Phase,
    node: usize,
    /// HDFS block feeding this map (maps only).
    block: usize,
    local: bool,
    /// Reduce shuffle bookkeeping.
    fetch_pending: VecDeque<usize>,
    fetched: u32,
    current_fetch_src: Option<usize>,
    /// Speculative copy of another map task.
    dup_of: Option<usize>,
    /// The logical map this task implements has been counted as complete.
    logical_done: bool,
    /// A speculative copy of this task exists (or it already finished).
    speculated: bool,
    /// Container grant time (straggler detection).
    started: SimTime,
    /// When the current phase began (telemetry spans).
    phase_since: SimTime,
    /// Re-execution attempt. Bumped whenever the incarnation dies (node
    /// crash, lost transfer) so events it scheduled are recognisably stale.
    attempt: u32,
    /// Origin map whose partition is currently being fetched (reduces).
    fetching_origin: Option<usize>,
    /// Per-origin shuffle progress (reduces; `len == n_maps`): partitions
    /// already pulled stay pulled when the map's output node later dies.
    fetched_from: Vec<bool>,
    /// Granted as a half-open breaker probe: its completion (or death)
    /// releases the probe slot.
    probe: bool,
}

/// Events of the MapReduce world.
#[derive(Debug)]
pub enum Ev {
    Heartbeat,
    AmReady,
    NodeCpu { node: usize, epoch: u64 },
    DiskDone { node: usize, job: u64 },
    FlowEnd { task: usize, attempt: u32 },
    Fault { idx: usize },
    /// A restarted nodemanager's backed-off re-registration firing: the
    /// node begins re-localising job artifacts.
    ReRegister { node: usize },
    Sample,
}

impl Ev {
    /// Static event-kind name for the engine's [`KindProfiler`], which
    /// keys the `sim_*` and `profile_*` metrics by it.
    pub fn kind(&self) -> &'static str {
        match self {
            Ev::Heartbeat => "heartbeat",
            Ev::AmReady => "am_ready",
            Ev::NodeCpu { .. } => "node_cpu",
            Ev::DiskDone { .. } => "disk_done",
            Ev::FlowEnd { .. } => "flow_end",
            Ev::Fault { .. } => "fault",
            Ev::ReRegister { .. } => "re_register",
            Ev::Sample => "sample",
        }
    }
}

/// Per-second utilisation/power/progress samples (Figures 12–17).
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    /// Mean CPU utilisation across slaves, 0–100 %.
    pub cpu_pct: TimeSeries,
    /// Mean memory utilisation across slaves, 0–100 %.
    pub mem_pct: TimeSeries,
    /// Cluster power, W.
    pub power_w: TimeSeries,
    /// Completed maps / total maps, 0–100 %.
    pub map_pct: TimeSeries,
    /// Completed reduces / total, 0–100 %.
    pub reduce_pct: TimeSeries,
}

/// Result of one job run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Wall-clock job time, s.
    pub finish_time_s: f64,
    /// Slave-cluster energy over the job, J (master excluded, as in §5.2).
    pub energy_j: f64,
    /// Fraction of map tasks that ran data-local.
    pub data_local_fraction: f64,
    /// The Figure 12–17 timeline.
    pub timeline: Timeline,
    /// Time at which the first reduce container launched, s.
    pub first_reduce_s: f64,
    /// Time at which CPU utilisation first exceeded 20 % (the paper's
    /// "resource allocation time" marker).
    pub cpu_rise_s: f64,
    /// Speculative map copies launched (0 on healthy clusters).
    pub speculative_copies: u32,
    /// Tasks re-executed after node loss (0 on fault-free runs).
    pub task_reexecs: u32,
    /// Worker nodes declared lost by the RM's heartbeat timeout.
    pub nodes_lost: u32,
    /// Mean seconds from node crash to the node schedulable again
    /// (restarted + re-localised); 0.0 when no node recovered in-run.
    pub mean_recovery_s: f64,
    /// Observed recovery windows (restart applied → re-localised), in
    /// completion order. The simexplore perturbation space targets
    /// follow-up faults inside these.
    pub recovery_windows: Vec<RecoveryWindow>,
    /// Circuit-breaker trips across workers (0 with the guard off or on
    /// healthy clusters): RM node-lost verdicts and failed probes.
    pub guard_breaker_trips: u32,
    /// Task attempts that completed past the configured per-attempt
    /// deadline budget (0 with the guard off).
    pub guard_deadline_miss: u32,
}

struct MrWorld {
    profile: JobProfile,
    setup: ClusterSetup,
    nodes: Cluster,
    topo: Topology,
    gauge: LinkGauge,
    hosts: Vec<HostId>,
    nn: Namenode,
    tasks: Vec<Task>,
    n_maps: usize,
    completed_maps: usize,
    completed_reduces: usize,
    local_maps: usize,
    am_placed: bool,
    am_ready: bool,
    reduces_requested: bool,
    running_containers: Vec<u32>,
    /// Per-node: job artifacts localised, containers may launch.
    node_ready: Vec<bool>,
    /// Memory currently held by running reduce containers (ramp-up cap).
    running_reduce_mem: u64,
    /// Durations of completed (non-speculative) map tasks, seconds, kept
    /// in ascending [`f64::total_cmp`] order.
    map_durations: Vec<f64>,
    /// Speculative copies launched.
    speculative_copies: u32,
    timeline: Timeline,
    first_reduce: Option<SimTime>,
    cpu_rise: Option<SimTime>,
    finish: Option<SimTime>,
    /// The normalised fault schedule (time-sorted, zero-width pairs gone).
    fplan: FaultPlan,
    /// Physical truth: node has crashed and not yet restarted.
    node_down: Vec<bool>,
    /// Crashed since the last reap — containers there await re-queueing
    /// (by the liveness sweep, or instantly by a restarting nodemanager).
    needs_reap: Vec<bool>,
    /// Crash instants, taken when the node becomes schedulable again.
    crash_time: Vec<Option<SimTime>>,
    /// Restart instants, taken when re-localisation completes (the
    /// recovery-window sample: re-registered but not yet schedulable).
    restart_time: Vec<Option<SimTime>>,
    /// Restarts seen per node (drives the re-registration backoff).
    restart_count: Vec<u32>,
    /// CPU-work multiplier per node (CpuThrottle faults; 1.0 = healthy).
    cpu_factor: Vec<f64>,
    /// Flow-duration multiplier per node (NicDegrade: latency × loss
    /// inflation; 1.0 = healthy).
    net_factor: Vec<f64>,
    /// Disk-service multiplier per node (DiskSlow; 1.0 = healthy).
    disk_factor: Vec<f64>,
    /// The RM's heartbeat-timeout view of worker liveness.
    liveness: LivenessTracker,
    /// Per logical map: the physical task whose output reducers fetch.
    map_winner: Vec<Option<usize>>,
    /// Set when an injected fault is unrecoverable (lost blocks with no
    /// surviving replica, every worker down, or a stalled job).
    failed: Option<String>,
    task_reexecs: u32,
    nodes_lost: u32,
    /// Crash → schedulable-again durations, seconds.
    recovery_s: Vec<f64>,
    /// Observed recovery windows: restart applied → re-localised (the
    /// interval simexplore probes with follow-up faults).
    recovery_windows: Vec<RecoveryWindow>,
    /// Guard layer (cached [`GuardConfig::is_active`]): per-worker
    /// breakers on RM dispatch plus per-attempt deadline accounting.
    /// Everything below is inert when false.
    guard_on: bool,
    /// Per-worker circuit breaker (empty when breakers are off).
    brk: Vec<CircuitBreaker>,
    guard_breaker_trips: u32,
    guard_deadline_miss: u32,
    /// Last task-phase transition (stall detection).
    last_progress: SimTime,
    /// Telemetry sink; [`Telemetry::off`] unless the run came through
    /// [`run_job_traced`].
    tel: Telemetry,
    /// Interned span track id per slave (`("mapreduce", "slave-{i}")`),
    /// filled once at trace setup — per-event span recording is then
    /// id-indexed, no string formatting on the hot path.
    slave_tracks: Vec<usize>,
    /// Finished CPU job ids of the `NodeCpu` arm being handled, reused
    /// across events.
    cpu_finished: Vec<u64>,
}

impl MrWorld {
    fn new(profile: JobProfile, setup: ClusterSetup) -> Self {
        let spec = match setup.tune {
            Tune::Edison => presets::edison(),
            Tune::Dell => presets::dell_r620(),
        };
        let mut nodes = Cluster::new();
        for i in 0..setup.workers {
            match setup.straggler {
                Some((idx, factor)) if idx == i => {
                    let mut slow = spec.clone();
                    slow.cpu.single_thread_mips /= factor;
                    nodes.push(&slow);
                }
                _ => {
                    nodes.push(&spec);
                }
            }
        }
        // single-room fabric (the master sits outside the energy boundary
        // and its control traffic is negligible)
        let mut topo = Topology::new();
        let room = topo.add_group(match setup.tune {
            Tune::Edison => SimDuration::from_micros(650),
            Tune::Dell => SimDuration::from_micros(120),
        });
        let hosts: Vec<HostId> = (0..setup.workers)
            .map(|_| topo.add_host(room, spec.nic.line_rate_bps, spec.nic.tcp_efficiency))
            .collect();
        let gauge = LinkGauge::mirror(topo.network());

        let mut rng = SimRng::new(setup.seed);
        // HDFS: one file per map split (CombineFileInputFormat is modelled
        // by the profile's split count — splits are locality-grouped).
        let mut nn = Namenode::new(setup.workers, setup.replication, setup.block_bytes);
        let split = profile.split_bytes().max(1);
        for i in 0..profile.map_tasks {
            nn.put(&format!("part-{i:05}"), split.min(setup.block_bytes), &mut rng);
        }
        let n_maps = profile.map_tasks as usize;
        let n_tasks = n_maps + profile.reduce_tasks as usize;
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|i| Task {
                is_map: i < n_maps,
                phase: Phase::Pending,
                node: usize::MAX,
                block: if i < n_maps { i } else { usize::MAX },
                local: false,
                fetch_pending: VecDeque::new(),
                fetched: 0,
                current_fetch_src: None,
                dup_of: None,
                logical_done: false,
                speculated: false,
                started: SimTime::ZERO,
                phase_since: SimTime::ZERO,
                attempt: 0,
                fetching_origin: None,
                fetched_from: if i < n_maps { Vec::new() } else { vec![false; n_maps] },
                probe: false,
            })
            .collect();
        let running_containers = vec![0; setup.workers];
        let node_ready = vec![false; setup.workers];
        let fplan = setup.fault_plan.normalized();
        let liveness =
            LivenessTracker::new(setup.workers, SimDuration::from_secs_f64(setup.liveness_timeout_s));
        let workers = setup.workers;
        let guard_on = setup.guard.is_active();
        let brk = if setup.guard.breaker_threshold > 0 {
            vec![
                CircuitBreaker::new(
                    setup.guard.breaker_threshold,
                    setup.guard.breaker_cooldown,
                    setup.guard.breaker_probes,
                );
                workers
            ]
        } else {
            Vec::new()
        };
        MrWorld {
            profile,
            setup,
            nodes,
            topo,
            gauge,
            hosts,
            nn,
            tasks,
            n_maps,
            completed_maps: 0,
            completed_reduces: 0,
            local_maps: 0,
            am_placed: false,
            am_ready: false,
            reduces_requested: false,
            running_containers,
            node_ready,
            running_reduce_mem: 0,
            map_durations: Vec::new(),
            speculative_copies: 0,
            timeline: Timeline::default(),
            first_reduce: None,
            cpu_rise: None,
            finish: None,
            fplan,
            node_down: vec![false; workers],
            needs_reap: vec![false; workers],
            crash_time: vec![None; workers],
            restart_time: vec![None; workers],
            restart_count: vec![0; workers],
            cpu_factor: vec![1.0; workers],
            net_factor: vec![1.0; workers],
            disk_factor: vec![1.0; workers],
            liveness,
            map_winner: vec![None; n_maps],
            failed: None,
            task_reexecs: 0,
            nodes_lost: 0,
            recovery_s: Vec::new(),
            recovery_windows: Vec::new(),
            guard_on,
            brk,
            guard_breaker_trips: 0,
            guard_deadline_miss: 0,
            last_progress: SimTime::ZERO,
            tel: Telemetry::off(),
            slave_tracks: Vec::new(),
            cpu_finished: Vec::new(),
        }
    }

    /// Span track id for slave `node` — cached at trace setup; the fallback
    /// interns on demand for worlds driven without the prefill.
    fn slave_track(&mut self, node: usize) -> usize {
        match self.slave_tracks.get(node) {
            Some(&t) => t,
            None => self.tel.track_id("mapreduce", &format!("slave-{node}")),
        }
    }

    /// Transition `task` to `phase`, closing the telemetry span of the
    /// phase it leaves (one span per phase on the task's node track).
    fn set_phase(&mut self, task: usize, phase: Phase, now: SimTime) {
        if self.tasks[task].phase == phase {
            return;
        }
        if self.tel.is_on() {
            let t = &self.tasks[task];
            if t.node != usize::MAX && !matches!(t.phase, Phase::Pending | Phase::Done) {
                let (node, since, from) = (t.node, t.phase_since, t.phase);
                let cat = if t.is_map { "map" } else { "reduce" };
                let args = vec![("task", format!("{task}"))];
                let track = self.slave_track(node);
                self.tel.span_on(track, cat, phase_name(from), since, now, args);
            }
        }
        let t = &mut self.tasks[task];
        t.phase = phase;
        t.phase_since = now;
        self.last_progress = now;
    }

    // ---- derived sizes --------------------------------------------------

    fn map_input_bytes(&self) -> u64 {
        self.profile.split_bytes().max(1)
    }

    fn map_output_bytes(&self) -> u64 {
        (self.profile.shuffle_bytes() / self.profile.map_tasks as u64).max(1)
    }

    fn fetch_bytes(&self) -> u64 {
        (self.profile.shuffle_bytes()
            / (self.profile.map_tasks as u64 * self.profile.reduce_tasks as u64))
            .max(1)
    }

    fn shuffle_per_reduce(&self) -> u64 {
        (self.profile.shuffle_bytes() / self.profile.reduce_tasks as u64).max(1)
    }

    fn output_per_reduce(&self) -> u64 {
        (self.profile.output_bytes() / self.profile.reduce_tasks as u64).max(1)
    }

    fn gc_factor(&self) -> f64 {
        if self.profile.mem_hungry {
            1.0 + calib::GC_PRESSURE_FACTOR
        } else {
            1.0
        }
    }

    // ---- plumbing -------------------------------------------------------

    /// The CPU/disk job id of `task`'s *current* incarnation (see
    /// [`ATTEMPT_STRIDE`]): equal to the bare task index until the first
    /// re-execution, so fault-free runs are bit-identical to the old ids.
    fn job_id(&self, task: usize) -> u64 {
        u64::from(self.tasks[task].attempt) * ATTEMPT_STRIDE + task as u64
    }

    /// Combined flow-duration multiplier of a transfer between two nodes:
    /// the sicker endpoint's NIC bounds the stream.
    fn net_scale(&self, a: usize, b: usize) -> f64 {
        self.net_factor[a].max(self.net_factor[b])
    }

    /// Arm worker `node`'s CPU completion, keyed by node so a newer
    /// completion replaces a stale pending one.
    fn schedule_node_cpu(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        if let Some((at, epoch)) = self.nodes.node_mut(NodeId(node)).arm_cpu_completion(now) {
            ctx.schedule_keyed(node, at, Ev::NodeCpu { node, epoch });
        }
    }

    fn add_cpu(&mut self, node: usize, id: u64, mi: f64, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.node_down[node] {
            return; // dies with the node; the RM re-queues it after the sweep
        }
        let mi = mi * self.cpu_factor[node];
        self.nodes.node_mut(NodeId(node)).add_cpu_task(now, id, mi.max(1e-3));
        self.schedule_node_cpu(node, now, ctx);
    }

    fn submit_disk(&mut self, node: usize, job: u64, service: SimDuration, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.node_down[node] {
            return; // a dead node completes nothing
        }
        let service = scaled(service, self.disk_factor[node]);
        if let Some((j, at)) = self.nodes.node_mut(NodeId(node)).disk().submit(now, job, service) {
            ctx.schedule_at(at, Ev::DiskDone { node, job: j });
        }
    }

    // ---- scheduling -----------------------------------------------------

    fn run_heartbeat(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        // RM liveness: every alive worker reports; nodes silent past the
        // timeout are declared lost and their containers re-queued
        for i in 0..self.setup.workers {
            if !self.node_down[i] {
                self.liveness.beat(i, now);
            }
        }
        for lost in self.liveness.sweep(now) {
            self.nodes_lost += 1;
            if self.tel.is_on() {
                self.tel.counter_inc(fault_metrics::NODE_LOST_TOTAL, labels(&[("tier", "mapreduce")]));
            }
            if !self.brk.is_empty() && self.brk[lost].record_failure(now) {
                self.guard_breaker_trips += 1;
                self.note_brk_transition(lost);
            }
            self.reap_node(lost, now, ctx);
        }
        if self.node_down.iter().all(|&d| d) {
            self.fail("every worker node is down".to_string(), ctx);
            return;
        }
        if !self.am_placed {
            // The application master runs on the Dell master node of the
            // paper's hybrid setup (outside the slave energy boundary);
            // submission + AM start cost wall time but no slave resources.
            self.am_placed = true;
            let master_mips = presets::dell_r620().cpu.single_thread_mips;
            let setup = SimDuration::from_secs_f64(
                calib::JOB_SUBMIT_DELAY_S + calib::APP_MASTER_SETUP_MI / master_mips,
            );
            ctx.schedule_at(now + setup, Ev::AmReady);
            return;
        }
        if !self.am_ready {
            return;
        }
        if !self.reduces_requested
            && self.completed_maps as f64 >= REDUCE_SLOWSTART * self.n_maps as f64
        {
            self.reduces_requested = true;
        }
        if self.setup.speculation {
            // before building the pending list so fresh copies join this
            // heartbeat's grants
            self.maybe_speculate(now);
        }
        // nothing to place: the breakers are not consulted (a check
        // advances their state and records telemetry)
        if !self.tasks.iter().any(|t| self.schedulable(t)) {
            return;
        }
        // breaker verdicts per worker (lazily advances open → half-open):
        // an open breaker offers the scheduler no capacity, a half-open
        // one at most a single probe container
        let verdicts: Vec<BreakerVerdict> = if self.brk.is_empty() {
            Vec::new()
        } else {
            (0..self.setup.workers)
                .map(|i| {
                    let before = self.brk[i].state();
                    let v = self.brk[i].check(now);
                    if self.brk[i].state() != before {
                        self.note_brk_transition(i);
                    }
                    v
                })
                .collect()
        };
        // capacity gate: every grant needs `fits(mem)`, which is monotone
        // in `mem`, so when no node fits the smallest container a pending
        // task could ask for, nothing is granted and the pending × nodes
        // placement scan is skipped (most heartbeats: the cluster is full)
        let smallest = if self.reduces_requested {
            self.profile.map_container.min(self.profile.reduce_container)
        } else {
            self.profile.map_container
        };
        if !(0..self.setup.workers)
            .any(|i| self.node_capacity(i, verdicts.get(i).copied()).fits(smallest))
        {
            return;
        }
        // the pending list, in deterministic order: maps then reduces, by
        // index
        let pending: Vec<PendingTask> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| self.schedulable(t))
            .map(|(i, t)| {
                let mem =
                    if t.is_map { self.profile.map_container } else { self.profile.reduce_container };
                PendingTask { task: i, mem, is_map: t.is_map }
            })
            .collect();
        let mut capacity: Vec<NodeCapacity> = (0..self.setup.workers)
            .map(|i| self.node_capacity(i, verdicts.get(i).copied()))
            .collect();
        // Hadoop's reduce ramp-up: while maps are pending, running reduce
        // containers may hold at most half the cluster's memory.
        let maps_pending = self.tasks[..self.n_maps].iter().any(|t| t.phase == Phase::Pending);
        let allowance = if maps_pending {
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "a fraction of the cluster's u64 schedulable memory")]
            let cap = (calib::REDUCE_RAMPUP_LIMIT
                * self.setup.workers as f64
                * self.setup.schedulable_mem as f64) as u64;
            cap.saturating_sub(self.running_reduce_mem)
        } else {
            u64::MAX
        };
        let nn = &self.nn;
        let tasks = &self.tasks;
        let grants = heartbeat(&pending, &mut capacity, allowance, |task, node| {
            tasks[task].is_map && nn.is_local(tasks[task].block, node)
        });
        let _ = tasks;
        for Grant { task, node, local } in grants {
            let mem = if self.tasks[task].is_map {
                self.profile.map_container
            } else {
                self.profile.reduce_container
            };
            #[expect(clippy::expect_used, reason = "the heartbeat granted only containers that fit")]
            self.nodes.node_mut(NodeId(node)).alloc_mem(mem).expect("scheduler checked fit");
            self.running_containers[node] += 1;
            if !self.tasks[task].is_map {
                self.running_reduce_mem += self.profile.reduce_container;
                if self.first_reduce.is_none() {
                    self.first_reduce = Some(now);
                }
            }
            let probe = !self.brk.is_empty() && self.brk[node].state() == BreakerState::HalfOpen;
            if probe {
                self.brk[node].begin_probe();
            }
            let t = &mut self.tasks[task];
            t.node = node;
            t.local = local;
            t.started = now;
            t.probe = probe;
            self.set_phase(task, Phase::Launching, now);
            if self.tel.is_on() {
                let kind = if self.tasks[task].is_map { "map" } else { "reduce" };
                self.tel.counter_inc("mr_containers_granted_total", labels(&[("kind", kind)]));
            }
            let id = self.job_id(task);
            self.add_cpu(node, id, self.profile.container_startup_mi, now, ctx);
        }
    }

    /// Whether the RM may place `t` this heartbeat: pending, not a
    /// speculative copy whose original already finished, and a map or a
    /// reduce whose requests have gone out.
    fn schedulable(&self, t: &Task) -> bool {
        t.phase == Phase::Pending
            && !t.dup_of.is_some_and(|orig| self.tasks[orig].logical_done)
            && (t.is_map || self.reduces_requested)
    }

    /// Free capacity of worker `i` as the scheduler sees it: nothing
    /// before job localisation or once the RM declared the node lost,
    /// nothing behind an open breaker and at most one probe container
    /// behind a half-open one.
    fn node_capacity(&self, i: usize, verdict: Option<BreakerVerdict>) -> NodeCapacity {
        let node = self.nodes.node(NodeId(i));
        let used_beyond_base = node.mem_used() - node.spec().os.base_memory;
        let mut free = if self.node_ready[i] && !self.liveness.is_lost(i) {
            self.setup.schedulable_mem.saturating_sub(used_beyond_base)
        } else {
            0 // not localised yet, or declared lost by the RM
        };
        match verdict {
            Some(BreakerVerdict::Reject) => free = 0,
            Some(BreakerVerdict::Probe) => {
                free = free.min(self.profile.map_container.max(self.profile.reduce_container));
            }
            _ => {}
        }
        NodeCapacity {
            free_mem: free,
            running: self.running_containers[i],
            max_containers: 2 * node.spec().cpu.threads,
        }
    }

    /// Hadoop-style speculation: once ≥75 % of maps finished, a running map
    /// older than 1.5× the median completed-map duration gets a duplicate,
    /// which competes through the normal pending/grant path. The first
    /// finisher wins; the loser runs out without being counted.
    fn maybe_speculate(&mut self, now: SimTime) {
        if self.completed_maps * 4 < self.n_maps * 3 || self.map_durations.is_empty() {
            return;
        }
        let median = self.map_durations[self.map_durations.len() / 2];
        let threshold = 1.5 * median;
        for i in 0..self.n_maps {
            let t = &self.tasks[i];
            if t.speculated
                || t.logical_done
                || t.dup_of.is_some()
                || matches!(t.phase, Phase::Pending | Phase::Done)
            {
                continue;
            }
            let age = now.saturating_since(t.started).as_secs_f64();
            if age > threshold {
                let block = t.block;
                self.tasks[i].speculated = true;
                self.tasks.push(Task {
                    is_map: true,
                    phase: Phase::Pending,
                    node: usize::MAX,
                    block,
                    local: false,
                    fetch_pending: VecDeque::new(),
                    fetched: 0,
                    current_fetch_src: None,
                    dup_of: Some(i),
                    logical_done: false,
                    speculated: true,
                    started: now,
                    phase_since: now,
                    attempt: 0,
                    fetching_origin: None,
                    fetched_from: Vec::new(),
                    probe: false,
                });
                self.speculative_copies += 1;
                if self.tel.is_on() {
                    self.tel.counter_inc("mr_speculative_copies_total", labels(&[]));
                }
            }
        }
    }

    // ---- guard layer ----------------------------------------------------

    /// Telemetry: the breaker of `node` just changed state.
    fn note_brk_transition(&mut self, node: usize) {
        if !self.tel.is_on() {
            return;
        }
        let to = match self.brk[node].state() {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        };
        self.tel.counter_inc(
            guard_metrics::BREAKER_TRANSITIONS_TOTAL,
            labels(&[("tier", "mapreduce"), ("to", to)]),
        );
    }

    /// A container completed on `node`: release its probe slot (if it
    /// was one) and record the success — one successful probe closes a
    /// half-open breaker.
    fn guard_task_done(&mut self, task: usize, node: usize) {
        if self.brk.is_empty() {
            return;
        }
        if self.tasks[task].probe {
            self.tasks[task].probe = false;
            self.brk[node].end_probe();
        }
        let before = self.brk[node].state();
        let _ = self.brk[node].record_success();
        if self.brk[node].state() != before {
            self.note_brk_transition(node);
        }
    }

    /// Per-attempt deadline accounting: the logical task just completed;
    /// was its winning attempt inside the configured budget?
    fn guard_deadline_check(&mut self, task: usize, now: SimTime) {
        if !self.guard_on {
            return;
        }
        let started = self.tasks[task].started;
        if self.setup.guard.deadline.deadline_from(started).is_some_and(|d| d.passed(now)) {
            self.guard_deadline_miss += 1;
            if self.tel.is_on() {
                self.tel.counter_inc(
                    guard_metrics::DEADLINE_MISS_TOTAL,
                    labels(&[("tier", "mapreduce")]),
                );
            }
        }
    }

    // ---- task phase transitions ------------------------------------------

    fn cpu_done(&mut self, node: usize, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let phase = self.tasks[task].phase;
        match phase {
            Phase::Launching => {
                if self.tasks[task].is_map {
                    self.start_map_read(task, now, ctx);
                } else {
                    self.start_shuffle(task, now, ctx);
                }
            }
            Phase::MapCpu => {
                // sort/spill CPU on the pre-combine output
                self.set_phase(task, Phase::SpillCpu, now);
                let emit_mib = self.map_input_bytes() as f64 / MIB as f64 * 1.1;
                let mi = self.profile.spill_mi_per_mib * emit_mib;
                let id = self.job_id(task);
                self.add_cpu(node, id, mi, now, ctx);
            }
            Phase::SpillCpu => {
                self.set_phase(task, Phase::SpillDisk, now);
                let bytes = self.map_output_bytes();
                let service = self.nodes.node(NodeId(node)).disk_write_time(bytes, false);
                let id = self.job_id(task);
                self.submit_disk(node, id, service, now, ctx);
            }
            Phase::ReduceCpu => {
                self.set_phase(task, Phase::OutputDisk, now);
                let bytes = self.output_per_reduce();
                let service = self.nodes.node(NodeId(node)).disk_write_time(bytes, false);
                let id = self.job_id(task);
                self.submit_disk(node, id, service, now, ctx);
            }
            // a completion that raced a fault-layer transition: the
            // attempt/liveness guards catch dead incarnations, so anything
            // landing here in a fault-free run is an engine bug
            other => debug_assert!(false, "cpu done for task {task} in phase {other:?}"),
        }
    }

    fn start_map_read(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        let block = self.tasks[task].block;
        let bytes = self.map_input_bytes();
        self.set_phase(task, Phase::Reading, now);
        match self.nn.live_replica(block, node, &self.node_down) {
            Some(src) if src == node => {
                let service = self.nodes.node(NodeId(node)).disk_read_time(bytes, false);
                let id = self.job_id(task);
                self.submit_disk(node, id, service, now, ctx);
            }
            Some(src) => {
                // remote read: stream from a surviving replica over the fabric
                let (path, lat) = self.topo.path(self.hosts[src], self.hosts[node]);
                let dur = self.gauge.begin_transfer(&path, bytes as f64);
                self.tasks[task].current_fetch_src = Some(src);
                let attempt = self.tasks[task].attempt;
                ctx.schedule_at(
                    now + scaled(lat + dur, self.net_scale(src, node)),
                    Ev::FlowEnd { task, attempt },
                );
            }
            None => self.fail(format!("block {block} unreadable: every replica node is down"), ctx),
        }
    }

    fn start_map_cpu(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::MapCpu, now);
        let mib = self.map_input_bytes() as f64 / MIB as f64;
        let mi = self.profile.map_mi_per_mib * mib
            + self.profile.map_compute_mi
            + self.profile.task_setup_mi;
        let id = self.job_id(task);
        self.add_cpu(node, id, mi, now, ctx);
    }

    fn finish_map(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        // this physical container ends regardless of who wins
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::Done, now);
        if self.tel.is_on() {
            let t = &self.tasks[task];
            let args = vec![("task", format!("{task}")), ("local", format!("{}", t.local))];
            let started = t.started;
            let track = self.slave_track(node);
            self.tel.span_on(track, "container", "map_task", started, now, args);
        }
        self.nodes.node_mut(NodeId(node)).free_mem(self.profile.map_container);
        self.running_containers[node] -= 1;
        self.guard_task_done(task, node);
        // speculative resolution: the logical map is `origin`; only the
        // first finisher counts. The loser (if still running) drains
        // without effect — Hadoop kills it; letting it finish keeps the
        // engine simpler and costs only its residual slot time.
        let origin = self.tasks[task].dup_of.unwrap_or(task);
        if self.tasks[origin].logical_done {
            return; // the counterpart already won; this copy just drained
        }
        self.tasks[origin].logical_done = true;
        self.map_winner[origin] = Some(task);
        // sorted insert (total_cmp: no NaN panic even if a duration ever
        // degenerates), so speculation reads the median in place
        let d = now.saturating_since(self.tasks[task].started).as_secs_f64();
        let at = self.map_durations.partition_point(|x| x.total_cmp(&d).is_le());
        self.map_durations.insert(at, d);
        self.guard_deadline_check(task, now);
        self.completed_maps += 1;
        let local = self.tasks[task].local;
        if local {
            self.local_maps += 1;
        }
        if self.tel.is_on() {
            self.tel.counter_inc(
                "mr_maps_completed_total",
                labels(&[("local", if local { "true" } else { "false" })]),
            );
        }
        // notify shuffling reducers still missing this partition (they
        // fetch from the winner's node)
        for i in self.n_maps..self.tasks.len() {
            if self.tasks[i].is_map {
                continue; // speculative map copies live past the reducers
            }
            if self.tasks[i].fetched_from[origin] {
                continue; // already pulled from an earlier incarnation
            }
            match self.tasks[i].phase {
                Phase::ShuffleWait => {
                    self.tasks[i].fetch_pending.push_back(task);
                    self.next_fetch(i, now, ctx);
                }
                Phase::Fetching => self.tasks[i].fetch_pending.push_back(task),
                _ => {}
            }
        }
    }

    fn start_shuffle(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        // seed the fetch queue with the winner of every logical map
        // already finished (the winner's node holds the spill output)
        let done: Vec<usize> = (0..self.n_maps)
            .filter(|&m| self.tasks[m].logical_done)
            .filter_map(|m| self.map_winner[m])
            .collect();
        self.set_phase(task, Phase::ShuffleWait, now);
        self.tasks[task].fetch_pending = done.into();
        self.next_fetch(task, now, ctx);
    }

    fn next_fetch(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.tasks[task].phase == Phase::Fetching {
            return; // already busy with a fetch
        }
        loop {
            let Some(src_task) = self.tasks[task].fetch_pending.pop_front() else {
                if self.tasks[task].fetched as usize == self.n_maps {
                    self.start_merge(task, now, ctx);
                } else {
                    self.set_phase(task, Phase::ShuffleWait, now);
                }
                return;
            };
            let origin = self.tasks[src_task].dup_of.unwrap_or(src_task);
            let src = self.tasks[src_task].node;
            // stale entries: partition already pulled, or the winner's node
            // died (the map re-executes and re-notifies with fresh output)
            if self.tasks[task].fetched_from[origin] || src == usize::MAX || self.node_down[src] {
                continue;
            }
            let node = self.tasks[task].node;
            self.set_phase(task, Phase::Fetching, now);
            self.tasks[task].current_fetch_src = Some(src);
            self.tasks[task].fetching_origin = Some(origin);
            let bytes = self.fetch_bytes();
            let (path, lat) = self.topo.path(self.hosts[src], self.hosts[node]);
            let dur = self.gauge.begin_transfer(&path, bytes as f64);
            let attempt = self.tasks[task].attempt;
            // a fetch also pays a fixed RPC latency
            ctx.schedule_at(
                now + scaled(lat + dur + SimDuration::from_millis(1), self.net_scale(src, node)),
                Ev::FlowEnd { task, attempt },
            );
            return;
        }
    }

    fn start_merge(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::MergeDisk, now);
        let bytes = self.shuffle_per_reduce();
        // external merge: (passes - 1) read+write rounds over the shuffled
        // runs, plus the initial materialisation
        let passes = self.profile.merge_passes.max(1) as u64;
        let node_ref = self.nodes.node(NodeId(node));
        let mut service = node_ref.disk_write_time(bytes, false);
        for _ in 1..passes {
            service = service
                + node_ref.disk_read_time(bytes, false)
                + node_ref.disk_write_time(bytes, false);
        }
        let id = self.job_id(task);
        self.submit_disk(node, id, service, now, ctx);
    }

    fn disk_done(&mut self, node: usize, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let phase = self.tasks[task].phase;
        match phase {
            Phase::Reading => self.start_map_cpu(task, now, ctx),
            Phase::SpillDisk => self.finish_map(task, now, ctx),
            Phase::MergeDisk => {
                self.set_phase(task, Phase::ReduceCpu, now);
                let mib = self.shuffle_per_reduce() as f64 / MIB as f64;
                let mi = self.profile.reduce_mi_per_mib * mib * self.gc_factor()
                    + self.profile.task_setup_mi
                    + calib::TASK_CLEANUP_MI;
                let id = self.job_id(task);
                self.add_cpu(node, id, mi, now, ctx);
            }
            Phase::OutputDisk => {
                if self.setup.replication > 1 {
                    // replication pipeline to the next *alive* node
                    let mut peer = (node + 1) % self.setup.workers;
                    while peer != node && self.node_down[peer] {
                        peer = (peer + 1) % self.setup.workers;
                    }
                    if peer == node {
                        // nobody alive to replicate to; the primary stands
                        self.finish_reduce(task, now, ctx);
                        return;
                    }
                    self.set_phase(task, Phase::OutputRepl, now);
                    let (path, lat) = self.topo.path(self.hosts[node], self.hosts[peer]);
                    let bytes = self.output_per_reduce();
                    let dur = self.gauge.begin_transfer(&path, bytes as f64);
                    self.tasks[task].current_fetch_src = Some(peer);
                    let attempt = self.tasks[task].attempt;
                    ctx.schedule_at(
                        now + scaled(lat + dur, self.net_scale(node, peer)),
                        Ev::FlowEnd { task, attempt },
                    );
                } else {
                    self.finish_reduce(task, now, ctx);
                }
            }
            other => debug_assert!(false, "disk done for task {task} in phase {other:?}"),
        }
    }

    fn flow_end(&mut self, task: usize, attempt: u32, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.tasks[task].attempt != attempt {
            return; // a dead incarnation's flow: its gauge was released when it was invalidated
        }
        let phase = self.tasks[task].phase;
        match phase {
            Phase::Reading => {
                #[expect(clippy::expect_used, reason = "every read flow is started with its source recorded")]
                let src = self.tasks[task].current_fetch_src.take().expect("flow had a source");
                let node = self.tasks[task].node;
                let (path, _) = self.topo.path(self.hosts[src], self.hosts[node]);
                self.gauge.end(&path);
                self.start_map_cpu(task, now, ctx);
            }
            Phase::Fetching => {
                #[expect(clippy::expect_used, reason = "every fetch flow is started with its source recorded")]
                let src = self.tasks[task].current_fetch_src.take().expect("fetch had a source");
                let node = self.tasks[task].node;
                let (path, _) = self.topo.path(self.hosts[src], self.hosts[node]);
                self.gauge.end(&path);
                if let Some(origin) = self.tasks[task].fetching_origin.take() {
                    if !self.tasks[task].fetched_from[origin] {
                        self.tasks[task].fetched_from[origin] = true;
                        self.tasks[task].fetched += 1;
                    }
                }
                self.set_phase(task, Phase::ShuffleWait, now);
                self.next_fetch(task, now, ctx);
            }
            Phase::OutputRepl => {
                #[expect(clippy::expect_used, reason = "every replication flow is started with its peer recorded")]
                let peer = self.tasks[task].current_fetch_src.take().expect("repl had a peer");
                let node = self.tasks[task].node;
                let (path, _) = self.topo.path(self.hosts[node], self.hosts[peer]);
                self.gauge.end(&path);
                self.finish_reduce(task, now, ctx);
            }
            other => debug_assert!(false, "flow end for task {task} in phase {other:?}"),
        }
    }

    fn finish_reduce(&mut self, task: usize, now: SimTime, _ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::Done, now);
        if self.tel.is_on() {
            let args = vec![("task", format!("{task}"))];
            let started = self.tasks[task].started;
            let track = self.slave_track(node);
            self.tel.span_on(track, "container", "reduce_task", started, now, args);
        }
        self.nodes.node_mut(NodeId(node)).free_mem(self.profile.reduce_container);
        self.running_containers[node] -= 1;
        self.guard_task_done(task, node);
        self.guard_deadline_check(task, now);
        self.running_reduce_mem = self.running_reduce_mem.saturating_sub(self.profile.reduce_container);
        self.completed_reduces += 1;
        if self.tel.is_on() {
            self.tel.counter_inc("mr_reduces_completed_total", labels(&[]));
        }
        if self.completed_reduces == self.profile.reduce_tasks as usize {
            self.finish = Some(now);
        }
    }

    // ---- fault layer ----------------------------------------------------

    /// Record an unrecoverable fault and stop the run; [`run_job_checked`]
    /// surfaces it as [`SimError::FaultUnrecovered`].
    fn fail(&mut self, msg: String, ctx: &mut Ctx<Ev>) {
        if self.failed.is_none() && self.finish.is_none() {
            self.failed = Some(msg);
            ctx.stop();
        }
    }

    fn apply_fault(&mut self, idx: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let Fault { node, kind, .. } = self.fplan.faults()[idx];
        let workers = self.setup.workers;
        let applied = match kind {
            FaultKind::NodeCrash => self.apply_crash(node, now, ctx),
            FaultKind::NodeRestart => self.apply_restart(node, now, ctx),
            FaultKind::NicDegrade { loss, latency_mult } => {
                if node < workers {
                    // MR traffic is long bulk TCP streams: packet loss shows
                    // up as a goodput cut of ≈ 1/(1-loss) on top of the
                    // latency multiplier, folded into one duration factor
                    self.net_factor[node] = latency_mult / (1.0 - loss.clamp(0.0, 0.99));
                    true
                } else {
                    false
                }
            }
            FaultKind::NicRestore => {
                if node < workers && self.net_factor[node] != 1.0 {
                    self.net_factor[node] = 1.0;
                    true
                } else {
                    false
                }
            }
            FaultKind::DiskSlow { factor } => {
                if node < workers {
                    self.disk_factor[node] = factor;
                    true
                } else {
                    false
                }
            }
            FaultKind::DiskRestore => {
                if node < workers && self.disk_factor[node] != 1.0 {
                    self.disk_factor[node] = 1.0;
                    true
                } else {
                    false
                }
            }
            FaultKind::CpuThrottle { factor } => {
                if node < workers {
                    self.cpu_factor[node] = factor;
                    true
                } else {
                    false
                }
            }
            FaultKind::CpuRestore => {
                if node < workers && self.cpu_factor[node] != 1.0 {
                    self.cpu_factor[node] = 1.0;
                    true
                } else {
                    false
                }
            }
            // no memcached tier in the MapReduce world
            FaultKind::CacheColdRestart => false,
        };
        if self.tel.is_on() {
            let name = if applied {
                fault_metrics::FAULT_INJECTED_TOTAL
            } else {
                fault_metrics::FAULT_SKIPPED_TOTAL
            };
            self.tel.counter_inc(name, labels(&[("kind", kind.name()), ("tier", "mapreduce")]));
        }
    }

    /// Kill worker `node`: its containers and disk/CPU work die instantly;
    /// the RM only learns via the liveness timeout (or a quick restart).
    fn apply_crash(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<Ev>) -> bool {
        if node >= self.setup.workers || self.node_down[node] {
            return false;
        }
        self.node_down[node] = true;
        self.needs_reap[node] = true;
        self.restart_time[node] = None;
        self.node_ready[node] = false; // job artifacts die with the node
        self.crash_time[node] = Some(now);
        for t in 0..self.tasks.len() {
            let phase = self.tasks[t].phase;
            if matches!(phase, Phase::Pending | Phase::Done) {
                continue;
            }
            let tnode = self.tasks[t].node;
            if tnode == node {
                // the task dies with its node: cancel queued/running CPU,
                // release any in-flight transfer, and invalidate every
                // event this incarnation scheduled — the reap re-queues it
                let id = self.job_id(t);
                self.nodes.node_mut(NodeId(node)).cancel_cpu_task(now, id);
                if let Some(other) = self.tasks[t].current_fetch_src.take() {
                    let (a, b) = if phase == Phase::OutputRepl { (node, other) } else { (other, node) };
                    let (path, _) = self.topo.path(self.hosts[a], self.hosts[b]);
                    self.gauge.end(&path);
                }
                self.tasks[t].fetching_origin = None;
                self.tasks[t].attempt += 1;
                continue;
            }
            // alive tasks with a transfer touching the crashed node: the
            // stream dies now and the survivor recovers immediately
            match phase {
                Phase::Reading | Phase::Fetching
                    if self.tasks[t].current_fetch_src == Some(node) =>
                {
                    let (path, _) = self.topo.path(self.hosts[node], self.hosts[tnode]);
                    self.gauge.end(&path);
                    self.tasks[t].current_fetch_src = None;
                    self.tasks[t].fetching_origin = None;
                    self.tasks[t].attempt += 1;
                    if phase == Phase::Reading {
                        // HDFS re-read from a surviving replica
                        self.start_map_read(t, now, ctx);
                    } else {
                        // the lost partition re-appears when the map
                        // re-executes; keep pulling the others meanwhile
                        self.set_phase(t, Phase::ShuffleWait, now);
                        self.next_fetch(t, now, ctx);
                    }
                }
                Phase::OutputRepl if self.tasks[t].current_fetch_src == Some(node) => {
                    let (path, _) = self.topo.path(self.hosts[tnode], self.hosts[node]);
                    self.gauge.end(&path);
                    self.tasks[t].current_fetch_src = None;
                    self.tasks[t].attempt += 1;
                    // the primary replica is safe; abandon the pipeline
                    self.finish_reduce(t, now, ctx);
                }
                _ => {}
            }
        }
        true
    }

    /// Bring a crashed worker back: it re-registers with the RM, reports
    /// its lost containers, and re-localises job artifacts before any new
    /// container may launch.
    fn apply_restart(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<Ev>) -> bool {
        if node >= self.setup.workers || !self.node_down[node] {
            return false;
        }
        self.node_down[node] = false;
        self.restart_time[node] = Some(now);
        self.restart_count[node] += 1;
        // a restarting nodemanager reports lost containers itself, even
        // when the blip was shorter than the liveness timeout
        self.reap_node(node, now, ctx);
        self.liveness.revive(node, now);
        if self.am_ready {
            // deterministic capped jittered exponential backoff before the
            // RM accepts the re-registration, seeded per (node, restart):
            // a flapping node backs off harder, and nodes restarted by the
            // same fault spread out instead of re-registering in lockstep
            let attempt = self.restart_count[node];
            let exp = (attempt - 1).min(REREG_BACKOFF_CAP);
            let stream_idx = u64::try_from(node).unwrap_or(u64::MAX) | (u64::from(attempt) << 56);
            let mut rng =
                SimRng::new(derive_seed(self.setup.seed, "mr:rereg-backoff", stream_idx));
            let delay = SimDuration::from_secs_f64(calib::CONTAINER_GRANT_DELAY_S)
                .mul_f64(f64::from(1u32 << exp) * rng.jitter(REREG_JITTER));
            ctx.schedule_at(now + delay, Ev::ReRegister { node });
        }
        true
    }

    /// The RM's response to a lost node (liveness timeout, or a restarted
    /// nodemanager reporting in): release every container that was placed
    /// there, re-queue the tasks, and re-execute completed maps whose
    /// spill output — which reducers still need — died with the node.
    fn reap_node(&mut self, node: usize, now: SimTime, _ctx: &mut Ctx<Ev>) {
        if !self.needs_reap[node] {
            return;
        }
        self.needs_reap[node] = false;
        // 1. containers on the node: release and re-queue
        for t in 0..self.tasks.len() {
            if self.tasks[t].node != node
                || matches!(self.tasks[t].phase, Phase::Pending | Phase::Done)
            {
                continue;
            }
            let is_map = self.tasks[t].is_map;
            let mem =
                if is_map { self.profile.map_container } else { self.profile.reduce_container };
            self.nodes.node_mut(NodeId(node)).free_mem(mem);
            self.running_containers[node] = self.running_containers[node].saturating_sub(1);
            if self.tasks[t].probe {
                // the probe died with the node; free its slot (the
                // breaker reopens via the node-lost failure)
                self.tasks[t].probe = false;
                if !self.brk.is_empty() {
                    self.brk[node].end_probe();
                }
            }
            if !is_map {
                self.running_reduce_mem =
                    self.running_reduce_mem.saturating_sub(self.profile.reduce_container);
            }
            // containers granted after the crash never scheduled events,
            // but bumping uniformly costs nothing
            self.tasks[t].attempt += 1;
            let origin = self.tasks[t].dup_of.unwrap_or(t);
            if is_map && self.tasks[origin].logical_done {
                // a draining speculative loser died with the node
                self.set_phase(t, Phase::Done, now);
                continue;
            }
            let tt = &mut self.tasks[t];
            tt.current_fetch_src = None;
            tt.fetching_origin = None;
            tt.fetch_pending.clear();
            tt.fetched = 0;
            tt.fetched_from.iter_mut().for_each(|b| *b = false);
            tt.local = false;
            self.set_phase(t, Phase::Pending, now);
            self.tasks[t].node = usize::MAX;
            self.task_reexecs += 1;
            if self.tel.is_on() {
                let kind = if is_map { "map" } else { "reduce" };
                self.tel.counter_inc(fault_metrics::TASK_REEXEC_TOTAL, labels(&[("kind", kind)]));
            }
        }
        // 2. completed maps whose output lived on the node: re-execute the
        //    origin if any reducer still needs its partition
        for origin in 0..self.n_maps {
            let Some(w) = self.map_winner[origin] else { continue };
            if self.tasks[w].node != node {
                continue;
            }
            self.map_winner[origin] = None;
            let needed = (self.n_maps..self.tasks.len()).any(|r| {
                let t = &self.tasks[r];
                !t.is_map && t.phase != Phase::Done && !t.fetched_from[origin]
            });
            if !needed {
                continue;
            }
            self.tasks[origin].logical_done = false;
            self.completed_maps = self.completed_maps.saturating_sub(1);
            if self.tasks[origin].phase == Phase::Done {
                self.tasks[origin].attempt += 1;
                self.tasks[origin].speculated = false;
                self.tasks[origin].local = false;
                self.set_phase(origin, Phase::Pending, now);
                self.tasks[origin].node = usize::MAX;
                self.task_reexecs += 1;
                if self.tel.is_on() {
                    self.tel.counter_inc(
                        fault_metrics::TASK_REEXEC_TOTAL,
                        labels(&[("kind", "map_output")]),
                    );
                }
            }
            // else: a speculative loser of this map is still running
            // elsewhere — with logical_done cleared it now wins
        }
        // 3. queued fetch entries pointing at the dead node are stale
        for r in self.n_maps..self.tasks.len() {
            if self.tasks[r].is_map || self.tasks[r].fetch_pending.is_empty() {
                continue;
            }
            let pending = std::mem::take(&mut self.tasks[r].fetch_pending);
            let filtered: VecDeque<usize> =
                pending.into_iter().filter(|&s| self.tasks[s].node != node).collect();
            self.tasks[r].fetch_pending = filtered;
        }
    }

    fn sample(&mut self, now: SimTime) {
        let cpu = self.nodes.mean_cpu_utilization() * 100.0;
        self.timeline.cpu_pct.push(now, cpu);
        self.timeline.mem_pct.push(now, self.nodes.mean_mem_utilization() * 100.0);
        self.timeline.power_w.push(now, self.nodes.power_now());
        self.timeline
            .map_pct
            .push(now, self.completed_maps as f64 / self.n_maps as f64 * 100.0);
        self.timeline.reduce_pct.push(
            now,
            self.completed_reduces as f64 / self.profile.reduce_tasks as f64 * 100.0,
        );
        if cpu > 20.0 && self.cpu_rise.is_none() {
            self.cpu_rise = Some(now);
        }
        if self.tel.is_on() {
            self.tel.series_push("mr_map_progress_pct", labels(&[]), now, self.completed_maps as f64 / self.n_maps as f64 * 100.0);
            self.tel.series_push(
                "mr_reduce_progress_pct",
                labels(&[]),
                now,
                self.completed_reduces as f64 / self.profile.reduce_tasks as f64 * 100.0,
            );
        }
    }

    /// Telemetry: fold the per-node power step logs into
    /// `node_power_watts{node=slave-i}` timeseries. Called once after the
    /// run.
    fn harvest_power_series(&mut self) {
        if !self.tel.is_on() {
            return;
        }
        self.tel.help("node_power_watts", "Per-node power draw timeline, watts");
        for i in 0..self.nodes.len() {
            let steps = self.nodes.node(NodeId(i)).power_trace().to_vec();
            let name = format!("slave-{i}");
            for (t, w) in steps {
                self.tel.series_push("node_power_watts", labels(&[("node", &name)]), t, w);
            }
        }
    }
}

impl Model for MrWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Ctx<Ev>) {
        match event {
            Ev::AmReady => {
                self.am_ready = true;
                // distribute the job artifacts: each slave writes the
                // framework jars + job files to its disk before its first
                // container can launch (the quiet period of Figures 12-17)
                for node in 0..self.setup.workers {
                    let service = self
                        .nodes
                        .node(NodeId(node))
                        .disk_write_time(calib::JOB_LOCALIZATION_BYTES, false);
                    let job = LOCALIZE_BASE + node as u64;
                    self.submit_disk(node, job, service, now, ctx);
                }
            }
            Ev::Heartbeat => {
                self.run_heartbeat(now, ctx);
                if self.finish.is_none() && self.failed.is_none() {
                    // idle: a heartbeat during a quiescent outage must not
                    // burn the event budget (the engine watchdog)
                    ctx.schedule_idle_in(
                        SimDuration::from_secs_f64(calib::CONTAINER_GRANT_DELAY_S),
                        Ev::Heartbeat,
                    );
                }
            }
            Ev::NodeCpu { node, epoch } => {
                if !self.nodes.node_mut(NodeId(node)).deliver_cpu_completion(epoch) {
                    return;
                }
                let mut done = std::mem::take(&mut self.cpu_finished);
                self.nodes.node_mut(NodeId(node)).take_finished_cpu_into(now, &mut done);
                for &id in &done {
                    debug_assert_ne!(id, AM_ID, "AM work has no completion event");
                    let (attempt, task) = decode_job(id);
                    if self.node_down[node] || self.tasks[task].attempt != attempt {
                        continue; // stale: the node crashed or the task moved on
                    }
                    self.cpu_done(node, task, now, ctx);
                }
                done.clear();
                self.cpu_finished = done;
                self.schedule_node_cpu(node, now, ctx);
            }
            Ev::DiskDone { node, job } => {
                if let Some((next, at)) = self.nodes.node_mut(NodeId(node)).disk().complete(now) {
                    ctx.schedule_at(at, Ev::DiskDone { node, job: next });
                }
                if job >= LOCALIZE_BASE {
                    #[expect(clippy::cast_possible_truncation, reason = "localisation job ids are LOCALIZE_BASE + a node index")]
                    let n = (job - LOCALIZE_BASE) as usize;
                    if !self.node_down[n] {
                        self.node_ready[n] = true;
                        if let Some(crashed) = self.crash_time[n].take() {
                            // re-localisation done: the node serves again
                            let rec = now.saturating_since(crashed).as_secs_f64();
                            self.recovery_s.push(rec);
                            if self.tel.is_on() {
                                self.tel.observe(
                                    fault_metrics::RECOVERY_SECONDS,
                                    labels(&[("tier", "mapreduce")]),
                                    fault_metrics::RECOVERY_BOUNDS_S,
                                    rec,
                                );
                            }
                        }
                        if let Some(up) = self.restart_time[n].take() {
                            // restarted-but-not-schedulable: the window
                            // simexplore probes with follow-up faults
                            self.recovery_windows
                                .push(RecoveryWindow { node: n, start: up, end: now });
                        }
                    }
                } else {
                    let (attempt, task) = decode_job(job);
                    if self.node_down[node] || self.tasks[task].attempt != attempt {
                        return; // stale disk completion from before a crash
                    }
                    self.disk_done(node, task, now, ctx);
                }
            }
            Ev::FlowEnd { task, attempt } => self.flow_end(task, attempt, now, ctx),
            Ev::ReRegister { node } => {
                if self.node_down[node] || !self.am_ready {
                    return; // crashed again while backing off
                }
                let service = self
                    .nodes
                    .node(NodeId(node))
                    .disk_write_time(calib::JOB_LOCALIZATION_BYTES, false);
                let job = LOCALIZE_BASE + u64::try_from(node).unwrap_or(u64::MAX / 2);
                self.submit_disk(node, job, service, now, ctx);
            }
            Ev::Fault { idx } => self.apply_fault(idx, now, ctx),
            Ev::Sample => {
                self.sample(now);
                if self.finish.is_none() && self.failed.is_none() {
                    if now.saturating_since(self.last_progress) > STALL_TIMEOUT {
                        self.fail(
                            format!(
                                "no task progress for {}s: {}/{} maps, {}/{} reduces",
                                STALL_TIMEOUT.as_secs_f64(),
                                self.completed_maps,
                                self.n_maps,
                                self.completed_reduces,
                                self.profile.reduce_tasks
                            ),
                            ctx,
                        );
                        return;
                    }
                    ctx.schedule_idle_in(SimDuration::from_secs(1), Ev::Sample);
                } else {
                    ctx.stop();
                }
            }
        }
    }
}

/// Run one job on one cluster setup to completion.
///
/// Panics when the job cannot finish — with a fault plan attached, prefer
/// [`run_job_checked`], which surfaces unrecoverable faults as a typed
/// error instead.
pub fn run_job(profile: &JobProfile, setup: &ClusterSetup) -> JobOutcome {
    run_job_traced(profile, setup, Telemetry::off()).0
}

/// [`run_job`] with a typed error channel: an unrecoverable fault (every
/// replica of a block lost, all workers down, or a stalled job) returns
/// [`SimError::FaultUnrecovered`] instead of panicking.
pub fn run_job_checked(profile: &JobProfile, setup: &ClusterSetup) -> Result<JobOutcome, SimError> {
    run_job_traced_checked(profile, setup, Telemetry::off()).map(|(o, _)| o)
}

/// Like [`run_job`], but records into `tel` when it is enabled: engine
/// event counts, per-phase task spans (container launch → input read →
/// map/sort/spill, shuffle → merge → reduce → output), container/task
/// counters, progress timeseries and per-node power timelines. With
/// `Telemetry::off()` this is exactly [`run_job`].
pub fn run_job_traced(
    profile: &JobProfile,
    setup: &ClusterSetup,
    tel: Telemetry,
) -> (JobOutcome, Telemetry) {
    #[expect(clippy::panic, reason = "the unchecked form; run_job_traced_checked returns the error")]
    run_job_traced_checked(profile, setup, tel).unwrap_or_else(|e| panic!("{e}"))
}

/// Coarse phase bucket for each [`Ev::kind`] name — the per-phase rollup
/// simprof exports as `profile_phase_*` metrics.
pub fn phase_of(kind: &'static str) -> &'static str {
    match kind {
        "heartbeat" | "am_ready" | "sample" => "control",
        "fault" => "fault",
        _ => "task-exec",
    }
}

/// The full-fidelity entry point: tracing like [`run_job_traced`], typed
/// fault errors like [`run_job_checked`]. A sink carrying the profiling
/// flag ([`Telemetry::profiled`]) additionally self-profiles the engine.
pub fn run_job_traced_checked(
    profile: &JobProfile,
    setup: &ClusterSetup,
    tel: Telemetry,
) -> Result<(JobOutcome, Telemetry), SimError> {
    let profiling = tel.profiling();
    run_job_inner(profile, setup, tel, profiling).map(|(o, t, _)| (o, t))
}

/// Like [`run_job_traced_checked`] with an enabled sink, but always
/// self-profiles the engine, returning the deterministic
/// [`EngineProfile`] alongside the outcome. [`JobOutcome`] is identical to
/// an unprofiled run.
pub fn run_job_profiled_checked(
    profile: &JobProfile,
    setup: &ClusterSetup,
    tel: Telemetry,
) -> Result<(JobOutcome, Telemetry, EngineProfile), SimError> {
    run_job_inner(profile, setup, tel, true)
}

/// Build, seed and run one job. With telemetry off this is the hook-free
/// [`Simulation::run`] and the profile is empty; a traced run always
/// counts events through [`KindProfiler`] and exports `sim_*`, plus
/// `profile_*` when `profiling` is set.
fn run_job_inner(
    profile: &JobProfile,
    setup: &ClusterSetup,
    tel: Telemetry,
    profiling: bool,
) -> Result<(JobOutcome, Telemetry, EngineProfile), SimError> {
    let tracing = tel.is_on();
    let mut world = MrWorld::new(profile.clone(), setup.clone());
    world.tel = tel;
    if tracing {
        world.nodes.enable_power_trace();
        world.tel.help("mr_containers_granted_total", "YARN container grants, by kind");
        world.tel.help("mr_maps_completed_total", "Logical map completions, by data-locality");
        world.tel.help("mr_reduces_completed_total", "Reduce completions");
        world.tel.help("mr_speculative_copies_total", "Speculative map copies launched");
        world.tel.help("mr_map_progress_pct", "Completed maps / total, 1 s samples");
        world.tel.help("mr_reduce_progress_pct", "Completed reduces / total, 1 s samples");
        fault_metrics::register_help(&mut world.tel);
        if world.guard_on {
            // only on guarded runs, so guards-off exports stay identical
            guard_metrics::register_help(&mut world.tel);
        }
        // intern one span track per slave up front: per-event span
        // recording is then id-indexed, no string work on the hot path
        world.slave_tracks = (0..world.setup.workers)
            .map(|i| world.tel.track_id("mapreduce", &format!("slave-{i}")))
            .collect();
    }
    let fault_times: Vec<SimTime> = world.fplan.faults().iter().map(|f| f.at).collect();
    let mut sim = Simulation::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::Heartbeat);
    sim.schedule_idle_at(SimTime::ZERO, Ev::Sample);
    for (idx, at) in fault_times.into_iter().enumerate() {
        sim.schedule_at(at, Ev::Fault { idx });
    }
    let mut engine_profile = EngineProfile::default();
    if tracing {
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut prof, &mut NoopProfiler);
        let watchdog_tripped = sim.watchdog_tripped();
        engine_profile = prof.finish(&sim);
        let w = sim.world_mut();
        record_sim_metrics(&mut w.tel, "mapreduce", &engine_profile, watchdog_tripped);
        if profiling {
            record_engine_profile(&mut w.tel, "mapreduce", &engine_profile, phase_of);
        }
        w.harvest_power_series();
    } else {
        sim.run();
    }
    let w = sim.world_mut();
    if let Some(msg) = w.failed.take() {
        return Err(SimError::FaultUnrecovered(format!("job {}: {msg}", w.profile.name)));
    }
    let Some(finish) = w.finish else {
        let detail = format!(
            "job {} did not finish: {}/{} maps, {}/{} reduces",
            w.profile.name, w.completed_maps, w.n_maps, w.completed_reduces, w.profile.reduce_tasks
        );
        #[expect(clippy::panic, reason = "an unfinished job without faults is an engine bug, not a run outcome")]
        if w.fplan.is_empty() {
            panic!("{detail}");
        }
        return Err(SimError::FaultUnrecovered(detail));
    };
    let mean_recovery_s = if w.recovery_s.is_empty() {
        0.0
    } else {
        w.recovery_s.iter().sum::<f64>() / w.recovery_s.len() as f64
    };
    let outcome = JobOutcome {
        finish_time_s: finish.as_secs_f64(),
        energy_j: w.nodes.energy_joules(finish),
        data_local_fraction: w.local_maps as f64 / w.n_maps as f64,
        timeline: w.timeline.clone(),
        first_reduce_s: w.first_reduce.map(|t| t.as_secs_f64()).unwrap_or(0.0),
        cpu_rise_s: w.cpu_rise.map(|t| t.as_secs_f64()).unwrap_or(0.0),
        speculative_copies: w.speculative_copies,
        task_reexecs: w.task_reexecs,
        nodes_lost: w.nodes_lost,
        mean_recovery_s,
        recovery_windows: w.recovery_windows.clone(),
        guard_breaker_trips: w.guard_breaker_trips,
        guard_deadline_miss: w.guard_deadline_miss,
    };
    let tel = std::mem::take(&mut sim.world_mut().tel);
    Ok((outcome, tel, engine_profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs;

    #[test]
    fn wordcount_completes_on_both_platforms() {
        let e = run_job(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35));
        let d = run_job(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2));
        assert!(e.finish_time_s > 0.0 && d.finish_time_s > 0.0);
        // §5.2.1: Edison slower in time but more work-done-per-joule
        assert!(e.finish_time_s > d.finish_time_s, "edison {} dell {}", e.finish_time_s, d.finish_time_s);
        assert!(e.energy_j < d.energy_j, "edison {}J dell {}J", e.energy_j, d.energy_j);
    }

    #[test]
    fn pi_favors_dell_energy() {
        // §5.2.3: the compute-bound job is the one Edison loses on energy.
        let e = run_job(&jobs::pi(Tune::Edison), &ClusterSetup::edison(35));
        let d = run_job(&jobs::pi(Tune::Dell), &ClusterSetup::dell(2));
        assert!(e.finish_time_s > d.finish_time_s);
        assert!(e.energy_j > d.energy_j, "edison {}J dell {}J", e.energy_j, d.energy_j);
    }

    #[test]
    fn data_locality_is_high() {
        let e = run_job(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35));
        assert!(e.data_local_fraction > 0.85, "locality {}", e.data_local_fraction);
    }

    #[test]
    fn optimized_wordcount_is_faster() {
        let wc = run_job(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35));
        let wc2 = run_job(&jobs::wordcount2(Tune::Edison), &ClusterSetup::edison(35));
        assert!(
            wc2.finish_time_s < wc.finish_time_s * 0.8,
            "wc {} wc2 {}",
            wc.finish_time_s,
            wc2.finish_time_s
        );
    }

    #[test]
    fn timeline_is_recorded() {
        let e = run_job(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(8));
        assert!(!e.timeline.cpu_pct.is_empty());
        assert!(e.timeline.map_pct.points().last().unwrap().1 >= 99.9);
        assert!(e.timeline.power_w.max_value() > 8.0 * 1.40);
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let plain = run_job(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4));
        let (traced, tel) =
            run_job_traced(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4), Telemetry::on());
        // tracing must not perturb the simulation
        assert_eq!(plain.finish_time_s, traced.finish_time_s);
        assert_eq!(plain.energy_j, traced.energy_j);
        // per-phase spans, container spans, counters, power timelines
        let spans = tel.tracer.spans();
        for name in ["container_launch", "map_cpu", "shuffle_fetch", "reduce_cpu", "map_task", "reduce_task"] {
            assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
        }
        let counters: Vec<_> = tel.registry.counters().collect();
        assert!(counters.iter().any(|(n, _, v)| *n == "mr_reduces_completed_total" && *v > 0));
        assert!(counters.iter().any(|(n, _, v)| *n == "sim_events_total" && *v > 0));
        assert!(tel
            .registry
            .series()
            .any(|(n, l, pts)| n == "node_power_watts"
                && l.get("node") == Some(&"slave-0".to_string())
                && !pts.is_empty()));
    }

    #[test]
    fn determinism_per_seed() {
        let a = run_job(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4));
        let b = run_job(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4));
        assert_eq!(a.finish_time_s, b.finish_time_s);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn node_crash_recovers_with_reexecution() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job(&profile, &ClusterSetup::edison(4));
        // crash a worker a third of the way through; bring it back 20 s
        // later (past the 5 s liveness timeout, so the RM declares it lost)
        let at = SimTime::from_secs_f64(base.finish_time_s / 3.0);
        let plan = FaultPlan::new().crash_restart(1, at, SimDuration::from_secs(20));
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        let hit = run_job_checked(&profile, &setup).expect("crash of 1 of 4 nodes must recover");
        assert!(hit.finish_time_s >= base.finish_time_s, "losing a node cannot speed the job up");
        assert!(hit.task_reexecs > 0, "containers on the dead node must re-execute");
        assert_eq!(hit.nodes_lost, 1, "the RM should declare exactly one node lost");
        assert!(hit.mean_recovery_s > 0.0, "re-localisation must be observed as recovery");
    }

    #[test]
    fn crash_during_job_populates_fault_telemetry() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job(&profile, &ClusterSetup::edison(4));
        let at = SimTime::from_secs_f64(base.finish_time_s / 3.0);
        let plan = FaultPlan::new().crash_restart(2, at, SimDuration::from_secs(20));
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        let (_, tel) =
            run_job_traced_checked(&profile, &setup, Telemetry::on()).expect("recoverable");
        let counters: Vec<_> = tel.registry.counters().collect();
        let injected: u64 = counters
            .iter()
            .filter(|(n, _, _)| *n == fault_metrics::FAULT_INJECTED_TOTAL)
            .map(|(_, _, v)| *v)
            .sum();
        assert_eq!(injected, 2, "crash + restart both inject");
        assert!(counters.iter().any(|(n, _, v)| *n == fault_metrics::NODE_LOST_TOTAL && *v == 1));
        assert!(counters.iter().any(|(n, _, v)| *n == fault_metrics::TASK_REEXEC_TOTAL && *v > 0));
        let recovered = tel
            .registry
            .histograms()
            .any(|(n, _, h)| n == fault_metrics::RECOVERY_SECONDS && h.count() > 0);
        assert!(recovered, "recovery histogram must be populated");
    }

    #[test]
    fn zero_width_crash_is_noop() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job(&profile, &ClusterSetup::edison(4));
        let at = SimTime::from_secs(5);
        let plan = FaultPlan::new().crash_restart(1, at, SimDuration::ZERO);
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        let z = run_job_checked(&profile, &setup).expect("zero-width fault is a no-op");
        assert_eq!(z.finish_time_s.to_bits(), base.finish_time_s.to_bits());
        assert_eq!(z.energy_j.to_bits(), base.energy_j.to_bits());
        assert_eq!(z.task_reexecs, 0);
    }

    #[test]
    fn post_finish_fault_changes_nothing() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job(&profile, &ClusterSetup::edison(4));
        let at = SimTime::from_secs_f64(base.finish_time_s + 100.0);
        let plan = FaultPlan::new().crash(0, at);
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        let late = run_job_checked(&profile, &setup).expect("post-finish fault is harmless");
        assert_eq!(late.finish_time_s.to_bits(), base.finish_time_s.to_bits());
        assert_eq!(late.energy_j.to_bits(), base.energy_j.to_bits());
    }

    #[test]
    fn losing_every_worker_is_unrecoverable() {
        let profile = jobs::logcount2(Tune::Edison);
        let at = SimTime::from_secs(30);
        let mut plan = FaultPlan::new();
        for n in 0..4 {
            plan = plan.crash(n, at);
        }
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        match run_job_checked(&profile, &setup) {
            Err(SimError::FaultUnrecovered(msg)) => {
                assert!(msg.contains("down") || msg.contains("unreadable"), "{msg}")
            }
            other => panic!("expected FaultUnrecovered, got {other:?}"),
        }
    }

    #[test]
    fn guard_off_is_byte_identical_and_guarded_crash_trips_the_breaker() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job(&profile, &ClusterSetup::edison(4));
        // guard config attached but inert features off ⇒ same bytes
        let off = run_job(&profile, &ClusterSetup::edison(4).with_guard(GuardConfig::off()));
        assert_eq!(base.finish_time_s.to_bits(), off.finish_time_s.to_bits());
        assert_eq!(base.energy_j.to_bits(), off.energy_j.to_bits());
        assert_eq!(off.guard_breaker_trips, 0);
        assert_eq!(off.guard_deadline_miss, 0);
        // guarded healthy run: breaker never trips, job completes
        let healthy =
            run_job(&profile, &ClusterSetup::edison(4).with_guard(GuardConfig::mr_defaults()));
        assert_eq!(healthy.guard_breaker_trips, 0);
        // guarded crash: the RM's node-lost verdict trips the worker's
        // breaker; the job still completes and the breaker recovers
        // through the probe path (trips stay bounded)
        let at = SimTime::from_secs_f64(base.finish_time_s / 3.0);
        let plan = FaultPlan::new().crash_restart(1, at, SimDuration::from_secs(20));
        let setup = ClusterSetup::edison(4)
            .with_fault_plan(plan)
            .with_guard(GuardConfig::mr_defaults());
        let hit = run_job_checked(&profile, &setup).expect("guarded crash must recover");
        assert!(hit.guard_breaker_trips >= 1, "node-lost must trip the breaker");
        assert!(hit.task_reexecs > 0, "containers on the dead node must re-execute");
    }

    #[test]
    fn nic_degrade_slows_but_recovers() {
        let profile = jobs::terasort(Tune::Edison);
        let base = run_job(&profile, &ClusterSetup::edison(4));
        let at = SimTime::from_secs(10);
        let plan = FaultPlan::new().nic_degrade(0, at, 0.05, 4.0);
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        let slow = run_job_checked(&profile, &setup).expect("a slow NIC is not fatal");
        assert!(
            slow.finish_time_s > base.finish_time_s,
            "shuffle-heavy job must slow down: {} vs {}",
            slow.finish_time_s,
            base.finish_time_s
        );
    }
}
