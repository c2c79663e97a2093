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
use edison_net::{HostId, Topology};
use edison_simcore::rng::SimRng;
use edison_simcore::stats::TimeSeries;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, EngineProfile, KindProfiler, Model, NoopProfiler, Simulation};
use edison_simfault::metrics as fault_metrics;
use edison_simfault::{Fault, FaultKind, FaultPlan, RecoveryWindow};
use edison_simrun::{derive_seed, SimError};
use edison_simtel::{record_engine_profile, record_sim_metrics, Telemetry};
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
/// RM liveness timeout: a worker silent this long is declared lost and
/// its containers re-queued.
const LIVENESS_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Exponent cap on the re-registration backoff of a repeatedly restarting
/// nodemanager: delays double per restart up to `base << REREG_BACKOFF_CAP`.
const REREG_BACKOFF_CAP: u32 = 2;
/// Jitter spread (± fraction) around the re-registration backoff, seeded
/// per (node, restart), so simultaneously restarted nodes never hammer
/// the RM in lockstep.
const REREG_JITTER: f64 = 0.25;

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
    /// RNG seed.
    pub seed: u64,
    /// Fault injection: slow node `index` down by the given CPU factor
    /// (finite and > 1), modelling a degraded SD card /
    /// thermally-throttled module.
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
}

impl ClusterSetup {
    /// The paper's Edison slave configuration at a given size.
    pub fn edison(workers: usize) -> Self {
        ClusterSetup {
            tune: Tune::Edison,
            workers,
            block_bytes: 16 * MIB,
            seed: 20160509,
            straggler: None,
            speculation: true,
            fault_plan: FaultPlan::new(),
        }
    }

    /// The paper's Dell slave configuration at a given size.
    pub fn dell(workers: usize) -> Self {
        ClusterSetup {
            tune: Tune::Dell,
            workers,
            block_bytes: 64 * MIB,
            seed: 20160509,
            straggler: None,
            speculation: true,
            fault_plan: FaultPlan::new(),
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
    /// A run rejects an index past the last worker, or a factor that is
    /// not finite and above 1, as a [`SimError::Config`].
    pub fn with_straggler(mut self, index: usize, factor: f64) -> Self {
        self.straggler = Some((index, factor));
        self
    }

    /// Run the job under the given fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Reject a setup no cluster can run: no workers, a zero block size,
    /// or a straggler that names no worker or does not slow it down.
    fn validate(&self) -> Result<(), SimError> {
        if self.workers == 0 {
            return Err(SimError::Config("a MapReduce cluster needs at least one worker".into()));
        }
        if self.block_bytes == 0 {
            return Err(SimError::Config("the HDFS block size must be positive".into()));
        }
        if let Some((index, factor)) = self.straggler {
            if index >= self.workers {
                return Err(SimError::Config(format!(
                    "straggler index {index} names no worker of {}",
                    self.workers
                )));
            }
            if !(factor.is_finite() && factor > 1.0) {
                return Err(SimError::Config(format!(
                    "straggler factor {factor} must be finite and greater than 1"
                )));
            }
        }
        Ok(())
    }
}

/// Where a task stands. The three network phases carry the far end of
/// their flow, so the flow's end (or a crash of either end) releases
/// exactly the path it claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Launching,
    /// Reading the input split from replica node `src`; `src` is the
    /// task's own node for a local disk read, which starts no flow.
    Reading { src: usize },
    MapCpu,
    SpillCpu,
    SpillDisk,
    ShuffleWait,
    /// Pulling map `origin`'s partition from node `src`.
    Fetching { src: usize, origin: usize },
    MergeDisk,
    ReduceCpu,
    OutputDisk,
    /// Replicating the output to node `peer`.
    OutputRepl { peer: usize },
    Done,
}

/// Static phase name for telemetry spans.
fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Pending => "pending",
        Phase::Launching => "container_launch",
        Phase::Reading { .. } => "input_read",
        Phase::MapCpu => "map_cpu",
        Phase::SpillCpu => "sort_spill_cpu",
        Phase::SpillDisk => "spill_write",
        Phase::ShuffleWait => "shuffle_wait",
        Phase::Fetching { .. } => "shuffle_fetch",
        Phase::MergeDisk => "external_merge",
        Phase::ReduceCpu => "reduce_cpu",
        Phase::OutputDisk => "output_write",
        Phase::OutputRepl { .. } => "output_replication",
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
    /// Per-origin shuffle progress (reduces; `len == n_maps`): partitions
    /// already pulled stay pulled when the map's output node later dies.
    fetched_from: Vec<bool>,
}

/// The indices of the tasks in [`Phase::Pending`], one bit per task, so
/// a heartbeat reads its pending tasks in ascending index order without
/// walking the task table.
#[derive(Debug)]
struct PendingSet {
    words: Vec<u64>,
}

impl PendingSet {
    /// Every index in `0..n`.
    fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        PendingSet { words }
    }

    fn insert(&mut self, i: usize) {
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// How many indices are in the set.
    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The indices in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    wi * 64 + bit
                })
            })
        })
    }

    /// Whether some index is below `end`.
    fn any_below(&self, end: usize) -> bool {
        let (full, rest) = (end / 64, end % 64);
        self.words.iter().take(full).any(|&w| w != 0)
            || (rest > 0 && self.words.get(full).is_some_and(|&w| w & ((1 << rest) - 1) != 0))
    }
}

/// Events of the MapReduce world. Node and task indices travel as `u32`
/// (checked when the world is built, see `ev_index`) so that every
/// variant fits 16 bytes and a queued engine entry 32.
#[derive(Debug)]
pub enum Ev {
    Heartbeat,
    AmReady,
    NodeCpu { node: u32, epoch: u64 },
    DiskDone { node: u32, job: u64 },
    FlowEnd { task: u32, attempt: u32 },
    Fault { idx: usize },
    /// A restarted nodemanager's backed-off re-registration firing: the
    /// node begins re-localising job artifacts.
    ReRegister { node: u32 },
    Sample,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// A node or task index as an [`Ev`] payload.
#[expect(clippy::cast_possible_truncation, reason = "MrWorld::new asserts every node and task index fits u32")]
fn ev_index(i: usize) -> u32 {
    i as u32
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
    /// Always 0: the engine has no circuit breakers (RM liveness alone
    /// keeps grants off a lost worker). Kept for readers that print or
    /// digest the outcome field by field.
    pub guard_breaker_trips: u32,
    /// Always 0: the engine sets no task deadlines. Kept for readers that
    /// print or digest the outcome field by field.
    pub guard_deadline_miss: u32,
}

struct MrWorld {
    profile: JobProfile,
    setup: ClusterSetup,
    /// HDFS replication (2 Edison, capped by the worker count / 1 Dell —
    /// tuned for ≈95 % locality).
    replication: u32,
    /// Per-node memory schedulable for containers (600 MiB Edison,
    /// 12 GiB Dell after OS + datanode + nodemanager).
    schedulable_mem: u64,
    /// The job's fixed transfer sizes, bytes, from the profile at build
    /// (each at least 1): one map's input split and its spilled output,
    /// one reducer's fetch of one map's partition, one reducer's whole
    /// shuffle, and one reducer's output.
    map_in_bytes: u64,
    map_out_bytes: u64,
    fetch_bytes: u64,
    reduce_in_bytes: u64,
    reduce_out_bytes: u64,
    nodes: Cluster,
    topo: Topology,
    hosts: Vec<HostId>,
    nn: Namenode,
    tasks: Vec<Task>,
    /// The tasks in [`Phase::Pending`], kept by [`MrWorld::set_phase`].
    pending: PendingSet,
    /// `(started, map)` of every grant of an original map while
    /// speculation is on. Grants come in time order, so the queue is in
    /// start order; [`MrWorld::maybe_speculate`] reads only its prefix
    /// older than the threshold and drops entries from the front once
    /// they can never be speculated again.
    spec_queue: VecDeque<(SimTime, usize)>,
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
    /// The instant the last reduce finished, and the cluster's energy
    /// then. The run goes on to the next `Sample`, so the energy is read
    /// here rather than after the run.
    finish: Option<(SimTime, f64)>,
    /// The normalised fault schedule (time-sorted, zero-width pairs gone).
    fplan: FaultPlan,
    /// Physical truth: node has crashed and not yet restarted.
    node_down: Vec<bool>,
    /// How many entries of `node_down` are set.
    nodes_down: usize,
    /// Instant of the last heartbeat. The RM's liveness rounds run only
    /// while some node is down; a crash dates the node's silence from here.
    last_heartbeat: SimTime,
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
    /// The last capacity gate found no node fitting the smallest
    /// container, and nothing the gate reads has been written since
    /// (cleared by [`MrWorld::capacity_changed`]).
    gate_closed: bool,
    /// Last task-phase transition (stall detection).
    last_progress: SimTime,
    /// Telemetry sink; [`Telemetry::off`] unless the run came through
    /// [`run_job_traced_checked`].
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
        let (spec, replication, schedulable_mem) = match setup.tune {
            Tune::Edison => {
                (presets::edison(), 2.min(u32::try_from(setup.workers).unwrap_or(u32::MAX)), 600 * MIB)
            }
            Tune::Dell => (presets::dell_r620(), 1, 12 * 1024 * MIB),
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

        let mut rng = SimRng::new(setup.seed);
        // HDFS: one file per map split (CombineFileInputFormat is modelled
        // by the profile's split count — splits are locality-grouped).
        let mut nn = Namenode::new(setup.workers, replication, setup.block_bytes);
        let map_in_bytes = profile.split_bytes().max(1);
        for _ in 0..profile.map_tasks {
            nn.put(map_in_bytes.min(setup.block_bytes), &mut rng);
        }
        // a map-only job never reads the per-reduce sizes
        let (maps, reduces) = (u64::from(profile.map_tasks), u64::from(profile.reduce_tasks).max(1));
        let shuffle = profile.shuffle_bytes();
        let map_out_bytes = (shuffle / maps).max(1);
        let fetch_bytes = (shuffle / (maps * reduces)).max(1);
        let reduce_in_bytes = (shuffle / reduces).max(1);
        let reduce_out_bytes = (profile.output_bytes() / reduces).max(1);
        let n_maps = profile.map_tasks as usize;
        let n_tasks = n_maps + profile.reduce_tasks as usize;
        // speculation adds at most one duplicate per map
        assert!(
            u32::try_from(setup.workers).is_ok() && u32::try_from(n_tasks + n_maps).is_ok(),
            "node and task indices must fit an event's u32"
        );
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|i| Task {
                is_map: i < n_maps,
                phase: Phase::Pending,
                node: usize::MAX,
                block: if i < n_maps { i } else { usize::MAX },
                local: false,
                fetch_pending: VecDeque::new(),
                fetched: 0,
                dup_of: None,
                logical_done: false,
                speculated: false,
                started: SimTime::ZERO,
                phase_since: SimTime::ZERO,
                attempt: 0,
                fetched_from: if i < n_maps { Vec::new() } else { vec![false; n_maps] },
            })
            .collect();
        let running_containers = vec![0; setup.workers];
        let node_ready = vec![false; setup.workers];
        let fplan = setup.fault_plan.normalized();
        let liveness = LivenessTracker::new(setup.workers, LIVENESS_TIMEOUT);
        let workers = setup.workers;
        MrWorld {
            profile,
            setup,
            replication,
            schedulable_mem,
            map_in_bytes,
            map_out_bytes,
            fetch_bytes,
            reduce_in_bytes,
            reduce_out_bytes,
            nodes,
            topo,
            hosts,
            nn,
            pending: PendingSet::full(n_tasks),
            spec_queue: VecDeque::new(),
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
            nodes_down: 0,
            last_heartbeat: SimTime::ZERO,
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
            gate_closed: false,
            last_progress: SimTime::ZERO,
            tel: Telemetry::off(),
            slave_tracks: Vec::new(),
            cpu_finished: Vec::new(),
        }
    }

    /// Span track id for slave `node`, interned at trace setup (0, a no-op
    /// track, on a disabled sink).
    fn slave_track(&self, node: usize) -> usize {
        self.slave_tracks.get(node).copied().unwrap_or_default()
    }

    /// Transition `task` to `phase`, closing the telemetry span of the
    /// phase it leaves (one span per phase on the task's node track). A
    /// phase is its variant: new data in the same variant (a re-read from
    /// another replica) replaces the old without a span.
    fn set_phase(&mut self, task: usize, phase: Phase, now: SimTime) {
        if std::mem::discriminant(&self.tasks[task].phase) == std::mem::discriminant(&phase) {
            self.tasks[task].phase = phase;
            return;
        }
        let t = &self.tasks[task];
        if t.node != usize::MAX && !matches!(t.phase, Phase::Pending | Phase::Done) {
            let (node, since, from) = (t.node, t.phase_since, t.phase);
            let cat = if t.is_map { "map" } else { "reduce" };
            let track = self.slave_track(node);
            self.tel.span_on(track, cat, phase_name(from), since, now, &[("task", &task)]);
        }
        if self.tasks[task].phase == Phase::Pending {
            self.pending.remove(task);
        } else if phase == Phase::Pending {
            self.pending.insert(task);
        }
        let t = &mut self.tasks[task];
        t.phase = phase;
        t.phase_since = now;
        self.last_progress = now;
    }

    /// Something the capacity gate reads was written (container memory or
    /// count, localisation, liveness, the reduce request, a fault): the
    /// gate must look again.
    fn capacity_changed(&mut self) {
        self.gate_closed = false;
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
            ctx.schedule_keyed(node, at, Ev::NodeCpu { node: ev_index(node), epoch });
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
        let service = service.mul_f64(self.disk_factor[node]);
        if let Some((j, at)) = self.nodes.node_mut(NodeId(node)).disk().submit(now, job, service) {
            ctx.schedule_at(at, Ev::DiskDone { node: ev_index(node), job: j });
        }
    }

    // ---- scheduling -----------------------------------------------------

    fn run_heartbeat(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        // RM liveness: every alive worker reports; nodes silent past the
        // timeout are declared lost and their containers re-queued. With
        // every node up nobody can be silent, so the round is skipped
        // (`apply_crash` dates a crashed node's silence from
        // `last_heartbeat`).
        if self.nodes_down > 0 {
            for i in 0..self.setup.workers {
                if !self.node_down[i] {
                    self.liveness.beat(i, now);
                }
            }
            for lost in self.liveness.sweep(now) {
                self.nodes_lost += 1;
                self.capacity_changed();
                self.tel.counter_inc(fault_metrics::NODE_LOST_TOTAL, &[("tier", "mapreduce")]);
                self.reap_node(lost, now, ctx);
            }
        }
        self.last_heartbeat = now;
        if self.nodes_down == self.setup.workers {
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
            self.capacity_changed();
        }
        if self.setup.speculation {
            // before building the pending list so fresh copies join this
            // heartbeat's grants
            self.maybe_speculate(now);
        }
        #[cfg(debug_assertions)]
        self.check_pending_index();
        // the gate below found the cluster full and nothing it reads has
        // changed since: this heartbeat grants nothing either
        if self.gate_closed {
            return;
        }
        if !self.pending.iter().any(|i| self.schedulable(&self.tasks[i])) {
            return;
        }
        // capacity gate: every grant needs `fits(mem)`, which is monotone
        // in `mem`, so when no node fits the smallest container a pending
        // task could ask for, nothing is granted and the pending × nodes
        // placement scan is skipped (most heartbeats: the cluster is full)
        if !self.gate_open() {
            self.gate_closed = true;
            return;
        }
        // the pending list, in deterministic order: maps then reduces, by
        // index (sized up front: growing it by doubling cost more than
        // the rest of the list's build)
        let mut pending: Vec<PendingTask> = Vec::with_capacity(self.pending.len());
        pending.extend(self.pending.iter().filter(|&i| self.schedulable(&self.tasks[i])).map(|i| {
            let is_map = self.tasks[i].is_map;
            PendingTask { task: i, mem: self.container_mem(is_map), is_map }
        }));
        let mut capacity: Vec<NodeCapacity> = (0..self.setup.workers)
            .map(|i| self.node_capacity(i))
            .collect();
        // Hadoop's reduce ramp-up: while maps are pending, running reduce
        // containers may hold at most half the cluster's memory.
        let maps_pending = self.pending.any_below(self.n_maps);
        let allowance = if maps_pending {
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "a fraction of the cluster's u64 schedulable memory")]
            let cap = (calib::REDUCE_RAMPUP_LIMIT
                * self.setup.workers as f64
                * self.schedulable_mem as f64) as u64;
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
            let mem = self.container_mem(self.tasks[task].is_map);
            let fits = self.nodes.node_mut(NodeId(node)).alloc_mem(mem).is_ok();
            debug_assert!(fits, "the heartbeat granted task {task} a container node {node} cannot hold");
            self.running_containers[node] += 1;
            if !self.tasks[task].is_map {
                self.running_reduce_mem += self.profile.reduce_container;
                if self.first_reduce.is_none() {
                    self.first_reduce = Some(now);
                }
            }
            let t = &mut self.tasks[task];
            t.node = node;
            t.local = local;
            t.started = now;
            self.set_phase(task, Phase::Launching, now);
            if self.setup.speculation && task < self.n_maps {
                self.spec_queue.push_back((now, task));
            }
            let kind = if self.tasks[task].is_map { "map" } else { "reduce" };
            self.tel.counter_inc("mr_containers_granted_total", &[("kind", kind)]);
            let id = self.job_id(task);
            self.add_cpu(node, id, self.profile.container_startup_mi, now, ctx);
        }
    }

    /// Container size of a map or a reduce.
    fn container_mem(&self, is_map: bool) -> u64 {
        if is_map {
            self.profile.map_container
        } else {
            self.profile.reduce_container
        }
    }

    /// Whether some node fits the smallest container a pending task could
    /// ask for: `map_container`, or the smaller of the two once reduces
    /// are requested.
    fn gate_open(&self) -> bool {
        let smallest = if self.reduces_requested {
            self.profile.map_container.min(self.profile.reduce_container)
        } else {
            self.profile.map_container
        };
        (0..self.setup.workers).any(|i| self.node_capacity(i).fits(smallest))
    }

    /// Debug builds: the pending index, the pending list, `maps_pending`
    /// and the gate memo agree with full scans on every heartbeat.
    #[cfg(debug_assertions)]
    fn check_pending_index(&self) {
        let in_phase = (0..self.tasks.len()).filter(|&i| self.tasks[i].phase == Phase::Pending);
        debug_assert!(self.pending.iter().eq(in_phase), "pending index");
        let indexed = self.pending.iter().filter(|&i| self.schedulable(&self.tasks[i]));
        let scanned = (0..self.tasks.len()).filter(|&i| self.schedulable(&self.tasks[i]));
        debug_assert!(indexed.eq(scanned), "pending list");
        debug_assert_eq!(
            self.pending.any_below(self.n_maps),
            self.tasks[..self.n_maps].iter().any(|t| t.phase == Phase::Pending),
            "maps_pending"
        );
        debug_assert!(!(self.gate_closed && self.gate_open()), "a closed-gate memo on an open gate");
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
    /// before job localisation or once the RM declared the node lost.
    fn node_capacity(&self, i: usize) -> NodeCapacity {
        let node = self.nodes.node(NodeId(i));
        let used_beyond_base = node.mem_used() - node.spec().os.base_memory;
        let free = if self.node_ready[i] && !self.liveness.is_lost(i) {
            self.schedulable_mem.saturating_sub(used_beyond_base)
        } else {
            0 // not localised yet, or declared lost by the RM
        };
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
    ///
    /// The candidates come from `spec_queue`: it is in start order, so the
    /// maps older than the threshold are a prefix of it. Copies are still
    /// made in ascending map index.
    fn maybe_speculate(&mut self, now: SimTime) {
        // an entry whose map was re-granted, sent back to Pending, finished
        // or speculated can never be a candidate again: only a re-grant
        // (with a later start, pushed as a new entry) makes the map one.
        // `logical_done` is no reason to drop an entry: a reap clears it
        // on a running map whose copy, made before the map was re-queued,
        // won on the node that died.
        while let Some(&(started, m)) = self.spec_queue.front() {
            let t = &self.tasks[m];
            if t.started == started && !t.speculated && !matches!(t.phase, Phase::Pending | Phase::Done) {
                break;
            }
            self.spec_queue.pop_front();
        }
        if self.completed_maps * 4 < self.n_maps * 3 || self.map_durations.is_empty() {
            return;
        }
        let median = self.map_durations[self.map_durations.len() / 2];
        let threshold = 1.5 * median;
        let mut picks: Vec<usize> = self
            .spec_queue
            .iter()
            .take_while(|&&(started, _)| now.saturating_since(started).as_secs_f64() > threshold)
            .filter(|&&(started, m)| self.tasks[m].started == started && self.speculable(m))
            .map(|&(_, m)| m)
            .collect();
        picks.sort_unstable();
        debug_assert!(
            picks.iter().copied().eq((0..self.n_maps).filter(|&i| {
                self.speculable(i) && now.saturating_since(self.tasks[i].started).as_secs_f64() > threshold
            })),
            "speculation picks"
        );
        for i in picks {
            let block = self.tasks[i].block;
            self.tasks[i].speculated = true;
            self.pending.insert(self.tasks.len());
            self.tasks.push(Task {
                is_map: true,
                phase: Phase::Pending,
                node: usize::MAX,
                block,
                local: false,
                fetch_pending: VecDeque::new(),
                fetched: 0,
                dup_of: Some(i),
                logical_done: false,
                speculated: true,
                started: now,
                phase_since: now,
                attempt: 0,
                fetched_from: Vec::new(),
            });
            self.speculative_copies += 1;
            self.tel.counter_inc("mr_speculative_copies_total", &[]);
        }
    }

    /// Whether map `i` may get a speculative copy, age aside: a running
    /// original map with no copy whose logical map is not complete.
    fn speculable(&self, i: usize) -> bool {
        let t = &self.tasks[i];
        !(t.speculated
            || t.logical_done
            || t.dup_of.is_some()
            || matches!(t.phase, Phase::Pending | Phase::Done))
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
                let emit_mib = self.map_in_bytes as f64 / MIB as f64 * 1.1;
                let mi = self.profile.spill_mi_per_mib * emit_mib;
                let id = self.job_id(task);
                self.add_cpu(node, id, mi, now, ctx);
            }
            Phase::SpillCpu => {
                self.set_phase(task, Phase::SpillDisk, now);
                let bytes = self.map_out_bytes;
                let service = self.nodes.node(NodeId(node)).disk_write_time(bytes, false);
                let id = self.job_id(task);
                self.submit_disk(node, id, service, now, ctx);
            }
            Phase::ReduceCpu => {
                self.set_phase(task, Phase::OutputDisk, now);
                let bytes = self.reduce_out_bytes;
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
        let bytes = self.map_in_bytes;
        let replica = self.nn.live_replica(block, node, &self.node_down);
        self.set_phase(task, Phase::Reading { src: replica.unwrap_or(node) }, now);
        match replica {
            Some(src) if src == node => {
                let service = self.nodes.node(NodeId(node)).disk_read_time(bytes, false);
                let id = self.job_id(task);
                self.submit_disk(node, id, service, now, ctx);
            }
            Some(src) => {
                // remote read: stream from a surviving replica over the fabric
                let (path, lat) = self.topo.path(self.hosts[src], self.hosts[node]);
                let dur = self.topo.gauge_mut().begin_transfer(&path, bytes as f64);
                let attempt = self.tasks[task].attempt;
                ctx.schedule_at(
                    now + (lat + dur).mul_f64(self.net_scale(src, node)),
                    Ev::FlowEnd { task: ev_index(task), attempt },
                );
            }
            None => self.fail(format!("block {block} unreadable: every replica node is down"), ctx),
        }
    }

    fn start_map_cpu(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::MapCpu, now);
        let mib = self.map_in_bytes as f64 / MIB as f64;
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
        let t = &self.tasks[task];
        self.tel.span_on(
            self.slave_track(node),
            "container",
            "map_task",
            t.started,
            now,
            &[("task", &task), ("local", &t.local)],
        );
        self.nodes.node_mut(NodeId(node)).free_mem(self.profile.map_container);
        self.running_containers[node] -= 1;
        self.capacity_changed();
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
        self.completed_maps += 1;
        let local = self.tasks[task].local;
        if local {
            self.local_maps += 1;
        }
        self.tel.counter_inc(
            "mr_maps_completed_total",
            &[("local", if local { "true" } else { "false" })],
        );
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
                Phase::Fetching { .. } => self.tasks[i].fetch_pending.push_back(task),
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
        if matches!(self.tasks[task].phase, Phase::Fetching { .. }) {
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
            self.set_phase(task, Phase::Fetching { src, origin }, now);
            let bytes = self.fetch_bytes;
            let (path, lat) = self.topo.path(self.hosts[src], self.hosts[node]);
            let dur = self.topo.gauge_mut().begin_transfer(&path, bytes as f64);
            let attempt = self.tasks[task].attempt;
            // a fetch also pays a fixed RPC latency
            ctx.schedule_at(
                now + (lat + dur + SimDuration::from_millis(1)).mul_f64(self.net_scale(src, node)),
                Ev::FlowEnd { task: ev_index(task), attempt },
            );
            return;
        }
    }

    fn start_merge(&mut self, task: usize, now: SimTime, ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::MergeDisk, now);
        let bytes = self.reduce_in_bytes;
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
            Phase::Reading { .. } => self.start_map_cpu(task, now, ctx),
            Phase::SpillDisk => self.finish_map(task, now, ctx),
            Phase::MergeDisk => {
                self.set_phase(task, Phase::ReduceCpu, now);
                let mib = self.reduce_in_bytes as f64 / MIB as f64;
                let mi = self.profile.reduce_mi_per_mib * mib * self.gc_factor()
                    + self.profile.task_setup_mi
                    + calib::TASK_CLEANUP_MI;
                let id = self.job_id(task);
                self.add_cpu(node, id, mi, now, ctx);
            }
            Phase::OutputDisk => {
                if self.replication > 1 {
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
                    self.set_phase(task, Phase::OutputRepl { peer }, now);
                    let (path, lat) = self.topo.path(self.hosts[node], self.hosts[peer]);
                    let bytes = self.reduce_out_bytes;
                    let dur = self.topo.gauge_mut().begin_transfer(&path, bytes as f64);
                    let attempt = self.tasks[task].attempt;
                    ctx.schedule_at(
                        now + (lat + dur).mul_f64(self.net_scale(node, peer)),
                        Ev::FlowEnd { task: ev_index(task), attempt },
                    );
                } else {
                    self.finish_reduce(task, now, ctx);
                }
            }
            other => debug_assert!(false, "disk done for task {task} in phase {other:?}"),
        }
    }

    fn flow_end(&mut self, task: usize, attempt: u32, now: SimTime, ctx: &mut Ctx<Ev>) {
        let t = &self.tasks[task];
        if t.attempt != attempt {
            return; // a dead incarnation's flow: its gauge was released when it was invalidated
        }
        let node = t.node;
        match t.phase {
            Phase::Reading { src } => {
                let (path, _) = self.topo.path(self.hosts[src], self.hosts[node]);
                self.topo.gauge_mut().end(&path);
                self.start_map_cpu(task, now, ctx);
            }
            Phase::Fetching { src, origin } => {
                let (path, _) = self.topo.path(self.hosts[src], self.hosts[node]);
                self.topo.gauge_mut().end(&path);
                let t = &mut self.tasks[task];
                if !t.fetched_from[origin] {
                    t.fetched_from[origin] = true;
                    t.fetched += 1;
                }
                self.set_phase(task, Phase::ShuffleWait, now);
                self.next_fetch(task, now, ctx);
            }
            Phase::OutputRepl { peer } => {
                let (path, _) = self.topo.path(self.hosts[node], self.hosts[peer]);
                self.topo.gauge_mut().end(&path);
                self.finish_reduce(task, now, ctx);
            }
            other => debug_assert!(false, "flow end for task {task} in phase {other:?}"),
        }
    }

    fn finish_reduce(&mut self, task: usize, now: SimTime, _ctx: &mut Ctx<Ev>) {
        let node = self.tasks[task].node;
        self.set_phase(task, Phase::Done, now);
        let (track, started) = (self.slave_track(node), self.tasks[task].started);
        self.tel.span_on(track, "container", "reduce_task", started, now, &[("task", &task)]);
        self.nodes.node_mut(NodeId(node)).free_mem(self.profile.reduce_container);
        self.running_containers[node] -= 1;
        self.capacity_changed();
        self.running_reduce_mem = self.running_reduce_mem.saturating_sub(self.profile.reduce_container);
        self.completed_reduces += 1;
        self.tel.counter_inc("mr_reduces_completed_total", &[]);
        if self.completed_reduces == self.profile.reduce_tasks as usize {
            self.finish = Some((now, self.nodes.energy_joules(now)));
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
        self.capacity_changed();
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
        let name = if applied {
            fault_metrics::FAULT_INJECTED_TOTAL
        } else {
            fault_metrics::FAULT_SKIPPED_TOTAL
        };
        self.tel.counter_inc(name, &[("kind", kind.name()), ("tier", "mapreduce")]);
    }

    /// Kill worker `node`: its containers and disk/CPU work die instantly;
    /// the RM only learns via the liveness timeout (or a quick restart).
    fn apply_crash(&mut self, node: usize, now: SimTime, ctx: &mut Ctx<Ev>) -> bool {
        if node >= self.setup.workers || self.node_down[node] {
            return false;
        }
        self.node_down[node] = true;
        self.nodes_down += 1;
        self.liveness.went_silent(node, self.last_heartbeat);
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
                // the phase keeps its variant until the reap; its far end
                // becomes the dead node itself (a loopback, whose release
                // is a no-op), so a later crash elsewhere finds no flow of
                // this incarnation to cut
                let flow = match &mut self.tasks[t].phase {
                    Phase::Reading { src } | Phase::Fetching { src, .. } => {
                        Some((std::mem::replace(src, node), node))
                    }
                    Phase::OutputRepl { peer } => Some((node, std::mem::replace(peer, node))),
                    _ => None,
                };
                if let Some((a, b)) = flow {
                    let (path, _) = self.topo.path(self.hosts[a], self.hosts[b]);
                    self.topo.gauge_mut().end(&path);
                }
                self.tasks[t].attempt += 1;
                continue;
            }
            // alive tasks with a transfer touching the crashed node: the
            // stream dies now and the survivor recovers immediately
            match phase {
                Phase::Reading { src } | Phase::Fetching { src, .. } if src == node => {
                    let (path, _) = self.topo.path(self.hosts[node], self.hosts[tnode]);
                    self.topo.gauge_mut().end(&path);
                    self.tasks[t].attempt += 1;
                    if matches!(phase, Phase::Reading { .. }) {
                        // HDFS re-read from a surviving replica
                        self.start_map_read(t, now, ctx);
                    } else {
                        // the lost partition re-appears when the map
                        // re-executes; keep pulling the others meanwhile
                        self.set_phase(t, Phase::ShuffleWait, now);
                        self.next_fetch(t, now, ctx);
                    }
                }
                Phase::OutputRepl { peer } if peer == node => {
                    let (path, _) = self.topo.path(self.hosts[tnode], self.hosts[node]);
                    self.topo.gauge_mut().end(&path);
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
        self.nodes_down -= 1;
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
            ctx.schedule_at(now + delay, Ev::ReRegister { node: ev_index(node) });
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
            let mem = self.container_mem(is_map);
            self.nodes.node_mut(NodeId(node)).free_mem(mem);
            self.running_containers[node] = self.running_containers[node].saturating_sub(1);
            self.capacity_changed();
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
            tt.fetch_pending.clear();
            tt.fetched = 0;
            tt.fetched_from.iter_mut().for_each(|b| *b = false);
            tt.local = false;
            self.set_phase(t, Phase::Pending, now);
            self.tasks[t].node = usize::MAX;
            self.task_reexecs += 1;
            let kind = if is_map { "map" } else { "reduce" };
            self.tel.counter_inc(fault_metrics::TASK_REEXEC_TOTAL, &[("kind", kind)]);
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
                self.tel.counter_inc(fault_metrics::TASK_REEXEC_TOTAL, &[("kind", "map_output")]);
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
        self.tel.series_push(
            "mr_map_progress_pct",
            &[],
            now,
            self.completed_maps as f64 / self.n_maps as f64 * 100.0,
        );
        self.tel.series_push(
            "mr_reduce_progress_pct",
            &[],
            now,
            self.completed_reduces as f64 / self.profile.reduce_tasks as f64 * 100.0,
        );
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
                self.tel.series_push("node_power_watts", &[("node", &name)], t, w);
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
                    ctx.schedule_in(
                        SimDuration::from_secs_f64(calib::CONTAINER_GRANT_DELAY_S),
                        Ev::Heartbeat,
                    );
                }
            }
            Ev::NodeCpu { node, epoch } => {
                let node = node as usize;
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
            Ev::DiskDone { node: idx, job } => {
                let node = idx as usize;
                if let Some((next, at)) = self.nodes.node_mut(NodeId(node)).disk().complete(now) {
                    ctx.schedule_at(at, Ev::DiskDone { node: idx, job: next });
                }
                if job >= LOCALIZE_BASE {
                    #[expect(clippy::cast_possible_truncation, reason = "localisation job ids are LOCALIZE_BASE + a node index")]
                    let n = (job - LOCALIZE_BASE) as usize;
                    if !self.node_down[n] {
                        self.node_ready[n] = true;
                        self.capacity_changed();
                        if let Some(crashed) = self.crash_time[n].take() {
                            // re-localisation done: the node serves again
                            let rec = now.saturating_since(crashed).as_secs_f64();
                            self.recovery_s.push(rec);
                            self.tel.observe(
                                fault_metrics::RECOVERY_SECONDS,
                                &[("tier", "mapreduce")],
                                fault_metrics::RECOVERY_BOUNDS_S,
                                rec,
                            );
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
            Ev::FlowEnd { task, attempt } => self.flow_end(task as usize, attempt, now, ctx),
            Ev::ReRegister { node } => {
                let node = node as usize;
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
                    ctx.schedule_in(SimDuration::from_secs(1), Ev::Sample);
                } else {
                    ctx.stop();
                }
            }
        }
    }
}

/// Run one job on one cluster setup to completion. An unrecoverable fault
/// (every replica of a block lost, all workers down, or a stalled job)
/// returns [`SimError::FaultUnrecovered`]; a setup no cluster can run (no
/// workers, a zero block size, a bad straggler) returns
/// [`SimError::Config`].
pub fn run_job_checked(profile: &JobProfile, setup: &ClusterSetup) -> Result<JobOutcome, SimError> {
    run_job_traced_checked(profile, setup, Telemetry::off()).map(|(o, _)| o)
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

/// [`run_job_checked`] that also records into `tel` when it is enabled:
/// engine event counts, per-phase task spans (container launch → input
/// read → map/sort/spill, shuffle → merge → reduce → output),
/// container/task counters, progress timeseries and per-node power
/// timelines. With `Telemetry::off()` this is exactly [`run_job_checked`].
/// A sink carrying the profiling flag ([`Telemetry::profiled`])
/// additionally self-profiles the engine.
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
/// `profile_*` when `profiling` is set. A setup no cluster can run is a
/// [`SimError::Config`].
fn run_job_inner(
    profile: &JobProfile,
    setup: &ClusterSetup,
    tel: Telemetry,
    profiling: bool,
) -> Result<(JobOutcome, Telemetry, EngineProfile), SimError> {
    setup.validate()?;
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
        // intern one span track per slave up front: per-event span
        // recording is then id-indexed, no string work on the hot path
        world.slave_tracks = (0..world.setup.workers)
            .map(|i| world.tel.track_id("mapreduce", &format!("slave-{i}")))
            .collect();
    }
    let fault_times: Vec<SimTime> = world.fplan.faults().iter().map(|f| f.at).collect();
    let mut sim = Simulation::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::Heartbeat);
    sim.schedule_at(SimTime::ZERO, Ev::Sample);
    for (idx, at) in fault_times.into_iter().enumerate() {
        sim.schedule_at(at, Ev::Fault { idx });
    }
    let mut engine_profile = EngineProfile::default();
    if tracing {
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut prof, &mut NoopProfiler);
        engine_profile = prof.finish(&sim);
        let w = sim.world_mut();
        record_sim_metrics(&mut w.tel, "mapreduce", &engine_profile);
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
    let Some((finish, energy_j)) = w.finish else {
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
        energy_j,
        data_local_fraction: w.local_maps as f64 / w.n_maps as f64,
        timeline: std::mem::take(&mut w.timeline),
        first_reduce_s: w.first_reduce.map(|t| t.as_secs_f64()).unwrap_or(0.0),
        cpu_rise_s: w.cpu_rise.map(|t| t.as_secs_f64()).unwrap_or(0.0),
        speculative_copies: w.speculative_copies,
        task_reexecs: w.task_reexecs,
        nodes_lost: w.nodes_lost,
        mean_recovery_s,
        recovery_windows: std::mem::take(&mut w.recovery_windows),
        guard_breaker_trips: 0,
        guard_deadline_miss: 0,
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
        let e = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
        let d = run_job_checked(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
        assert!(e.finish_time_s > 0.0 && d.finish_time_s > 0.0);
        // §5.2.1: Edison slower in time but more work-done-per-joule
        assert!(e.finish_time_s > d.finish_time_s, "edison {} dell {}", e.finish_time_s, d.finish_time_s);
        assert!(e.energy_j < d.energy_j, "edison {}J dell {}J", e.energy_j, d.energy_j);
    }

    #[test]
    fn pi_favors_dell_energy() {
        // §5.2.3: the compute-bound job is the one Edison loses on energy.
        let e = run_job_checked(&jobs::pi(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
        let d = run_job_checked(&jobs::pi(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
        assert!(e.finish_time_s > d.finish_time_s);
        assert!(e.energy_j > d.energy_j, "edison {}J dell {}J", e.energy_j, d.energy_j);
    }

    #[test]
    fn data_locality_is_high() {
        let e = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
        assert!(e.data_local_fraction > 0.85, "locality {}", e.data_local_fraction);
    }

    #[test]
    fn optimized_wordcount_is_faster() {
        let wc = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
        let wc2 = run_job_checked(&jobs::wordcount2(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
        assert!(
            wc2.finish_time_s < wc.finish_time_s * 0.8,
            "wc {} wc2 {}",
            wc.finish_time_s,
            wc2.finish_time_s
        );
    }

    #[test]
    fn timeline_is_recorded() {
        let e = run_job_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(8)).expect("job finishes");
        assert!(!e.timeline.cpu_pct.is_empty());
        assert!(e.timeline.map_pct.points().last().unwrap().1 >= 99.9);
        assert!(e.timeline.power_w.max_value() > 8.0 * 1.40);
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let plain = run_job_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4)).expect("job finishes");
        let (traced, tel) =
            run_job_traced_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4), Telemetry::on()).expect("job finishes");
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
        let a = run_job_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4)).expect("job finishes");
        let b = run_job_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4)).expect("job finishes");
        assert_eq!(a.finish_time_s, b.finish_time_s);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn node_crash_recovers_with_reexecution() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job_checked(&profile, &ClusterSetup::edison(4)).expect("job finishes");
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
        let base = run_job_checked(&profile, &ClusterSetup::edison(4)).expect("job finishes");
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

    /// A crash of the far end of a surviving task's flow: the survivor
    /// releases the flow's path and recovers at once (re-reads from
    /// another replica, fetches the other partitions meanwhile, or keeps
    /// its primary output). Each instant falls inside one such flow of the
    /// fault-free run, and the link gauge's underflow assertion checks
    /// every release.
    #[test]
    fn crash_of_a_flows_far_end_is_survived() {
        for (phase, profile, workers, node, at_s) in [
            // map 67 on node 5 reads its split from node 3 over [696.76910, 696.76983] s
            ("input_read", jobs::pi(Tune::Edison), 8, 3, 696.7695),
            // reduce 71 on node 1 fetches from node 0 over [129.76910, 129.77077] s
            ("shuffle_fetch", jobs::logcount2(Tune::Edison), 4, 0, 129.7699),
            // reduce 70 on node 0 replicates to node 1 over [1218.06142, 1218.06208] s
            ("output_replication", jobs::logcount2(Tune::Edison), 4, 1, 1218.0617),
        ] {
            let at = SimTime::from_secs_f64(at_s);
            let plan = FaultPlan::new().crash_restart(node, at, SimDuration::from_secs(20));
            let setup = ClusterSetup::edison(workers).with_fault_plan(plan);
            let out = run_job_checked(&profile, &setup)
                .unwrap_or_else(|e| panic!("{phase}: a crash of node {node} must be survived: {e}"));
            assert!(out.finish_time_s > at_s, "{phase}: the job finished before the crash");
        }
    }

    /// Speculation meets a crash once 75 % of the maps are done (at
    /// 1,007 s). Node 1 runs at half speed, so some of its maps get a
    /// copy, and two of them (maps 53 and 57) still finish first. The
    /// crash at 1,300 s kills their output, so `reap_node` clears their
    /// `logical_done` and `speculated` and re-queues them, and their
    /// re-grants put them back among the speculation candidates.
    /// The `JobOutcome` values were captured at the commit before the
    /// pending-task bitset and the start-ordered speculation queue, so
    /// both must re-run this path exactly.
    #[test]
    fn speculated_map_outputs_lost_to_a_crash_are_requeued() {
        let plan = FaultPlan::new().crash(1, SimTime::from_secs(1300));
        let setup = ClusterSetup::edison(4).with_straggler(1, 2.0).with_fault_plan(plan);
        let out = run_job_checked(&jobs::logcount2(Tune::Edison), &setup).expect("3 of 4 nodes finish the job");
        assert_eq!(out.finish_time_s.to_bits(), 0x409f_c63a_6871_fbbd, "{}", out.finish_time_s);
        assert_eq!(out.energy_j.to_bits(), 0x40c8_5f81_3d23_0142, "{}", out.energy_j);
        assert_eq!((out.speculative_copies, out.task_reexecs, out.nodes_lost), (2, 12, 1));
    }

    /// The last reduce finishes at 2,441.08 s, and a node's power
    /// changes after that instant but before the next `Sample` ends the
    /// run. The energy is the one read at the finish instant; read after
    /// the run, it tripped the integrator's backwards-time assertion in
    /// debug builds and counted 1.1 J drawn after the finish in release
    /// builds.
    #[test]
    fn energy_is_read_at_the_finish_instant() {
        let plan = FaultPlan::new()
            .crash_restart(3, SimTime::from_secs(1450), SimDuration::from_secs(3))
            .crash_restart(2, SimTime::from_secs(1990), SimDuration::from_secs(3));
        let setup = ClusterSetup::edison(4).with_straggler(1, 2.0).with_fault_plan(plan);
        let out = run_job_checked(&jobs::logcount2(Tune::Edison), &setup).expect("the job recovers");
        assert!((out.finish_time_s - 2441.08).abs() < 0.005, "{}", out.finish_time_s);
        assert!((out.energy_j - 15_185.9).abs() < 0.05, "{}", out.energy_j);
    }

    #[test]
    fn zero_width_crash_is_noop() {
        let profile = jobs::logcount2(Tune::Edison);
        let base = run_job_checked(&profile, &ClusterSetup::edison(4)).expect("job finishes");
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
        let base = run_job_checked(&profile, &ClusterSetup::edison(4)).expect("job finishes");
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

    /// A ×1e9 throttle puts every CPU completion centuries ahead, past
    /// the 2^64 ns range of `SimTime`. The completion instant saturates
    /// instead of wrapping to `now`, so the job ends on the stall timeout.
    #[test]
    fn completion_beyond_the_time_range_stalls_out() {
        let profile = jobs::logcount2(Tune::Edison);
        let at = SimTime::from_secs(30);
        let mut plan = FaultPlan::new();
        for n in 0..4 {
            plan = plan.cpu_throttle(n, at, 1e9);
        }
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        match run_job_checked(&profile, &setup) {
            Err(SimError::FaultUnrecovered(msg)) => assert_eq!(
                msg,
                "job logcount2: no task progress for 3600s: 0/70 maps, 0/70 reduces"
            ),
            other => panic!("expected FaultUnrecovered, got {other:?}"),
        }
    }

    /// A ×1e308 throttle overflows every task's work to `+∞`; the node
    /// runs it as `f64::MAX` MI instead of panicking, and the job ends on
    /// the stall timeout like the ×1e9 case above.
    #[test]
    fn infinite_throttled_work_stalls_out() {
        let profile = jobs::logcount2(Tune::Edison);
        let at = SimTime::from_secs(30);
        let mut plan = FaultPlan::new();
        for n in 0..4 {
            plan = plan.cpu_throttle(n, at, 1e308);
        }
        let setup = ClusterSetup::edison(4).with_fault_plan(plan);
        match run_job_checked(&profile, &setup) {
            Err(SimError::FaultUnrecovered(msg)) => assert_eq!(
                msg,
                "job logcount2: no task progress for 3600s: 0/70 maps, 0/70 reduces"
            ),
            other => panic!("expected FaultUnrecovered, got {other:?}"),
        }
    }

    #[test]
    fn an_impossible_setup_is_a_config_error() {
        let profile = jobs::logcount2(Tune::Edison);
        for (case, setup) in [
            ("no workers", ClusterSetup::edison(0)),
            ("zero block size", ClusterSetup::edison(4).with_block(0)),
            ("straggler past the last worker", ClusterSetup::edison(4).with_straggler(4, 2.0)),
            ("straggler that speeds a node up", ClusterSetup::dell(2).with_straggler(0, 0.5)),
            ("straggler factor of 1", ClusterSetup::edison(4).with_straggler(0, 1.0)),
            ("NaN straggler factor", ClusterSetup::edison(4).with_straggler(1, f64::NAN)),
            ("infinite straggler factor", ClusterSetup::edison(4).with_straggler(0, f64::INFINITY)),
        ] {
            let got = run_job_checked(&profile, &setup).map(|o| o.finish_time_s);
            assert!(matches!(got, Err(SimError::Config(_))), "{case}: {got:?}");
        }
    }

    #[test]
    fn nic_degrade_slows_but_recovers() {
        let profile = jobs::terasort(Tune::Edison);
        let base = run_job_checked(&profile, &ClusterSetup::edison(4)).expect("job finishes");
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
