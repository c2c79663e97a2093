//! A live server node: spec + CPU + disk + memory + connections + power.
//!
//! The node keeps its power integrator consistent automatically: every CPU
//! mutation re-evaluates utilisation and feeds the node's linear power model
//! (`edison_hw::PowerModel`) into a step integrator, so
//! [`Node::energy_joules`] is exact for any interleaving of work.

use edison_hw::ServerSpec;
use edison_simcore::energy::StepIntegrator;
use edison_simcore::fluid::{FluidResource, TaskId};
use edison_simcore::queue::FcfsQueue;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::token_bucket::TokenBucket;

/// Index of a node within its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Why a resource admission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Node memory exhausted.
    OutOfMemory,
    /// Connection table full (fd / port exhaustion).
    TooManyConnections,
    /// SYN arrived faster than the accept path can drain (dropped SYN —
    /// the client will retry with backoff, Figures 10/11).
    AcceptOverrun,
}

/// A live node. See module docs.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    spec: ServerSpec,
    cpu: FluidResource,
    disk: FcfsQueue,
    accept_bucket: TokenBucket,
    mem_used: u64,
    connections: u32,
    power: StepIntegrator,
}

impl Node {
    /// Build an idle node from a spec. Base OS memory is pre-charged.
    pub fn new(id: NodeId, spec: ServerSpec) -> Self {
        let cpu = FluidResource::new(spec.cpu.total_mips(), spec.cpu.per_thread_cap());
        let idle_power = spec.power.power_at(0.0);
        let (rate, burst) = (spec.os.max_accept_rate, spec.os.max_accept_rate.max(8.0));
        assert!(rate > 0.0 && burst > 0.0);
        let accept_bucket = TokenBucket::new(rate, burst);
        Node {
            id,
            mem_used: spec.os.base_memory,
            disk: FcfsQueue::new(1),
            accept_bucket,
            connections: 0,
            power: StepIntegrator::new(SimTime::ZERO, idle_power),
            cpu,
            spec,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The hardware spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    // ---- CPU ----------------------------------------------------------

    /// Submit `mi` millions of instructions as CPU task `tid`.
    ///
    /// Work that overflowed to `+∞` (a huge finite throttle factor times
    /// the task's MI) runs as `f64::MAX` MI, which finishes past the end
    /// of simulated time. NaN and non-positive work still panic.
    #[inline]
    pub fn add_cpu_task(&mut self, now: SimTime, tid: TaskId, mi: f64) {
        let mi = if mi == f64::INFINITY { f64::MAX } else { mi };
        self.cpu.add(now, tid, mi);
        self.sync_power(now);
    }

    /// Cancel a CPU task; returns remaining MI if it was in flight.
    pub fn cancel_cpu_task(&mut self, now: SimTime, tid: TaskId) -> Option<f64> {
        let r = self.cpu.cancel(now, tid);
        self.sync_power(now);
        r
    }

    /// Earliest CPU completion, if any.
    pub fn next_cpu_completion(&self, now: SimTime) -> Option<(TaskId, SimTime)> {
        self.cpu.next_completion(now)
    }

    /// Arm this node's CPU completion event: `Some((at, epoch))` to
    /// schedule — keyed by node, so it replaces a pending stale one — or
    /// `None` when no task is in flight or the pending event already
    /// carries the current epoch. Every world arms through this one rule;
    /// see [`FluidResource::arm_completion`].
    #[inline]
    pub fn arm_cpu_completion(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        self.cpu.arm_completion(now)
    }

    /// The CPU completion event stamped `epoch` arrived: nothing is
    /// pending any more. Returns whether it is current, i.e. whether to
    /// collect finished tasks (a crash that cancelled tasks without
    /// re-arming leaves a stale one behind).
    #[inline]
    pub fn deliver_cpu_completion(&mut self, epoch: u64) -> bool {
        self.cpu.deliver_completion(epoch)
    }

    /// Collect finished CPU tasks at `now` into a caller-owned buffer
    /// (ids appended in ascending order), keeping power consistent.
    #[inline]
    pub fn take_finished_cpu_into(&mut self, now: SimTime, out: &mut Vec<TaskId>) {
        self.cpu.take_finished_into(now, out);
        self.sync_power(now);
    }

    /// Instantaneous CPU utilisation [0, 1].
    #[inline]
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu.utilization()
    }

    /// Number of runnable CPU tasks.
    pub fn cpu_tasks(&self) -> usize {
        self.cpu.len()
    }

    // ---- Disk ---------------------------------------------------------

    /// The disk's FCFS queue (sequential device semantics).
    pub fn disk(&mut self) -> &mut FcfsQueue {
        &mut self.disk
    }

    /// Service time for reading `bytes` (cached = page-cache hit).
    pub fn disk_read_time(&self, bytes: u64, cached: bool) -> SimDuration {
        SimDuration::from_secs_f64(self.spec.storage.read_time(bytes, cached))
    }

    /// Service time for writing `bytes` (direct = O_DSYNC).
    pub fn disk_write_time(&self, bytes: u64, direct: bool) -> SimDuration {
        SimDuration::from_secs_f64(self.spec.storage.write_time(bytes, direct))
    }

    // ---- Memory -------------------------------------------------------

    /// Reserve `bytes` of RAM.
    pub fn alloc_mem(&mut self, bytes: u64) -> Result<(), AdmitError> {
        if self.mem_used + bytes > self.spec.mem.total_bytes {
            Err(AdmitError::OutOfMemory)
        } else {
            self.mem_used += bytes;
            Ok(())
        }
    }

    /// Release `bytes` of RAM. Panics in debug builds on underflow.
    pub fn free_mem(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.mem_used, "freeing more memory than allocated");
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// Bytes currently allocated (including the OS base share).
    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// Bytes still allocatable.
    pub fn mem_free(&self) -> u64 {
        self.spec.mem.total_bytes - self.mem_used
    }

    /// Memory utilisation [0, 1].
    pub fn mem_utilization(&self) -> f64 {
        self.mem_used as f64 / self.spec.mem.total_bytes as f64
    }

    // ---- Connections --------------------------------------------------

    /// Try to accept a new TCP connection at `now`.
    ///
    /// Fails with [`AdmitError::AcceptOverrun`] when SYNs outpace the accept
    /// path, or [`AdmitError::TooManyConnections`] when the fd table is
    /// full — the two exhaustion modes behind the paper's 5xx onset.
    #[inline]
    pub fn try_accept(&mut self, now: SimTime) -> Result<(), AdmitError> {
        if self.connections >= self.spec.os.max_connections {
            return Err(AdmitError::TooManyConnections);
        }
        if !self.accept_bucket.try_take(now) {
            return Err(AdmitError::AcceptOverrun);
        }
        self.connections += 1;
        Ok(())
    }

    /// Close a connection. Panics in debug builds on underflow.
    pub fn close_connection(&mut self) {
        debug_assert!(self.connections > 0, "closing with no open connections");
        self.connections = self.connections.saturating_sub(1);
    }

    /// Drop every open connection — a reboot after a crash fault: the fd
    /// table starts empty.
    pub fn reset_connections(&mut self) {
        self.connections = 0;
    }

    /// Open connections right now.
    pub fn connections(&self) -> u32 {
        self.connections
    }

    // ---- Power --------------------------------------------------------

    /// Instantaneous power draw, watts.
    pub fn power_now(&self) -> f64 {
        self.power.value()
    }

    /// Total energy consumed through `now`, joules.
    pub fn energy_joules(&self, now: SimTime) -> f64 {
        self.power.integral_at(now)
    }

    /// Start recording this node's power steps (for telemetry timelines).
    /// Idempotent; costs one branch per power change when enabled.
    pub fn enable_power_trace(&mut self) {
        self.power.enable_trace();
    }

    /// The recorded `(t, watts)` power steps; empty unless
    /// [`enable_power_trace`](Self::enable_power_trace) was called.
    pub fn power_trace(&self) -> &[(SimTime, f64)] {
        self.power.trace()
    }

    #[inline]
    fn sync_power(&mut self, now: SimTime) {
        let p = self.spec.power.power_at(self.cpu.utilization());
        self.power.set(now, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn cpu_task_raises_power_to_busy() {
        let mut n = Node::new(NodeId(0), presets::edison());
        assert!((n.power_now() - 1.40).abs() < 1e-9);
        // saturate both threads
        n.add_cpu_task(t(0.0), 1, 1000.0);
        n.add_cpu_task(t(0.0), 2, 1000.0);
        assert!((n.power_now() - 1.68).abs() < 1e-9);
    }

    #[test]
    fn one_thread_is_half_utilisation_on_edison() {
        let mut n = Node::new(NodeId(0), presets::edison());
        n.add_cpu_task(t(0.0), 1, 1000.0);
        assert!((n.cpu_utilization() - 0.5).abs() < 1e-9);
        // power halfway between idle and busy
        assert!((n.power_now() - 1.54).abs() < 1e-9);
    }

    #[test]
    fn energy_tracks_busy_period() {
        let mut n = Node::new(NodeId(0), presets::dell_r620());
        // one full-machine second of work: submit 12 threads, 1s each at
        // shared rate. total_mips work split across 12 tasks.
        let per_task = n.spec().cpu.total_mips() / 12.0;
        for i in 0..12 {
            n.add_cpu_task(t(0.0), i, per_task);
        }
        let (_, done_at) = n.next_cpu_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 1.0).abs() < 1e-6);
        let mut finished = Vec::new();
        n.take_finished_cpu_into(done_at, &mut finished);
        assert_eq!(finished.len(), 12);
        // 1 s at 109 W busy + 1 s at 52 W idle = 161 J after 2 s
        let e = n.energy_joules(t(2.0));
        assert!((e - 161.0).abs() < 0.01, "energy {e}");
    }

    #[test]
    fn memory_accounting_enforces_capacity() {
        let mut n = Node::new(NodeId(0), presets::edison());
        let free = n.mem_free();
        assert!(n.alloc_mem(free).is_ok());
        assert_eq!(n.alloc_mem(1), Err(AdmitError::OutOfMemory));
        n.free_mem(free);
        assert!(n.alloc_mem(1).is_ok());
    }

    #[test]
    fn connection_cap_and_accept_rate() {
        let mut n = Node::new(NodeId(0), presets::edison());
        let burst = n.spec().os.max_accept_rate as usize;
        let mut accepted = 0;
        let mut overrun = 0;
        // a SYN burst of 3× the bucket allowance at t=0
        for _ in 0..3 * burst {
            match n.try_accept(t(0.0)) {
                Ok(()) => accepted += 1,
                Err(AdmitError::AcceptOverrun) => overrun += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(accepted, burst, "burst allowance {accepted}");
        assert_eq!(overrun, 2 * burst);
        // a second later the bucket refills
        assert!(n.try_accept(t(1.0)).is_ok());
    }

    #[test]
    fn fd_exhaustion_reports_too_many_connections() {
        let mut spec = presets::edison();
        spec.os.max_connections = 2;
        spec.os.max_accept_rate = 1e9;
        let mut n = Node::new(NodeId(0), spec);
        assert!(n.try_accept(t(0.0)).is_ok());
        assert!(n.try_accept(t(0.0)).is_ok());
        assert_eq!(n.try_accept(t(0.0)), Err(AdmitError::TooManyConnections));
        n.close_connection();
        assert!(n.try_accept(t(0.0)).is_ok());
        assert_eq!(n.connections(), 2);
    }

    #[test]
    fn disk_times_use_spec() {
        let n = Node::new(NodeId(0), presets::edison());
        let t_read = n.disk_read_time(19_500_000, false);
        assert!((t_read.as_secs_f64() - 1.007).abs() < 1e-6);
    }
}
