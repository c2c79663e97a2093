//! The async request-lifecycle driver: the same web world as
//! [`crate::stack`], authored as straight-line `async fn`s.
//!
//! Where the state machine spreads one connection's life over a dozen
//! event arms and a `ReqState` tag, here it is a single task:
//!
//! ```text
//! spawn on GenConn
//!   └─ SYN ladder:  syn_attempt → (backoff.await | redispatch.await)*
//!   └─ per call:    admit.await → stage-1 cpu.await → cache rpc.await
//!                   → (hit | mysql [+ disk].await) → stage-2 cpu.await
//!                   → reply.await → next call | close
//! ```
//!
//! **Byte identity.** Every side effect — rng draws, schedule calls,
//! metric/telemetry recording — happens inside the shared
//! [`crate::model`] helpers, and the drivers differ only in how they pick
//! the next helper to call: the state machine dispatches on a stored
//! `ReqState`, a task simply *is* the continuation. Engine events fire
//! [`EventSlots`] keys and [`Executor::drain`] runs the resumed task to
//! its next `.await` inside the same event arm, so helper call order (and
//! therefore every byte of [`crate::model::Metrics`] and telemetry) is identical.
//! `tests/async_equivalence.rs` enforces this export-for-export,
//! including under fault plans that crash a node mid-request.
//!
//! **Faults.** A node crash tears down the in-flight requests the fault
//! layer reports as [`CrashOutcome`]s: tasks whose connection survived
//! (budgeted retry) get their pending wait cancelled and unwind to the
//! LB-redispatch await; tasks whose connection died are cancelled through
//! [`Executor::cancel`], dropping the open `http_request` span exactly
//! like the state machine, which records nothing for requests that never
//! complete.

use crate::model::{
    AdmitStep, CrashOutcome, DbStep, Ev, PathStep, RedispatchStep, ReplyStep, Stage1Step,
    Stage2Step, StackConfig, SynStep, WebWorld,
};
use crate::stack::phase_of;
use edison_cluster::NodeId;
use edison_simasync::{Delivery, EventSlots, Executor, TaskId};
use edison_simcore::time::SimTime;
use edison_simcore::{Ctx, EngineProfile, KindProfiler, Model, SchedBuf, Simulation};
use edison_simtel::{record_engine_profile, EventCounter, Telemetry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One await point of a connection task. Keys embed the unique request /
/// connection id, so each live wait is unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    /// Kernel SYN retransmit timer fired ([`Ev::SynRetry`]).
    Syn(u64),
    /// Failover timeout elapsed; redispatch through the LB
    /// ([`Ev::RetryConn`]).
    Retry(u64),
    /// Request arrived at the web node ([`Ev::ReqAtWeb`]).
    AtWeb(u64),
    /// Web-node CPU slice finished (stage 1 or 2, [`Ev::NodeCpu`]).
    WebCpu(u64),
    /// Get arrived at the cache node ([`Ev::ReqAtCache`]).
    AtCache(u64),
    /// Cache-node CPU slice finished ([`Ev::NodeCpu`]).
    CacheCpu(u64),
    /// Cache verdict landed back on the web node
    /// ([`Ev::CacheReplyAtWeb`]).
    CacheReply(u64),
    /// Query arrived at its MySQL node ([`Ev::ReqAtDb`]).
    AtDb(u64),
    /// MySQL CPU slice finished ([`Ev::DbCpu`]).
    DbCpu(u64),
    /// Buffer-pool-miss disk read finished ([`Ev::DbDiskDone`]).
    Disk(u64),
    /// MySQL reply landed back on the web node ([`Ev::DbReplyAtWeb`]).
    DbReply(u64),
    /// Reply reached the client ([`Ev::ReplyAtClient`]).
    Reply(u64),
}

/// The capability handle a connection task closes over: shared world,
/// shared schedule buffer, and the waiter table.
struct W {
    st: Rc<RefCell<WebWorld>>,
    sched: Rc<RefCell<SchedBuf<Ev>>>,
    slots: EventSlots<Key>,
}

impl Clone for W {
    fn clone(&self) -> Self {
        W { st: Rc::clone(&self.st), sched: Rc::clone(&self.sched), slots: self.slots.clone() }
    }
}

impl W {
    /// Run one synchronous lifecycle step against the world and the
    /// *current event's* schedule buffer. Never held across an `.await`
    /// (the borrows end when the closure returns).
    fn with<R>(&self, f: impl FnOnce(&mut WebWorld, &mut SchedBuf<Ev>) -> R) -> R {
        let mut st = self.st.borrow_mut();
        let mut sched = self.sched.borrow_mut();
        f(&mut st, &mut sched)
    }

    /// Await the engine event behind `key`.
    async fn ev(&self, key: Key) -> Delivery {
        self.slots.wait(key).await
    }
}

/// Removes the connection's task-registry entry when the task ends —
/// on normal completion *and* when the fault layer cancels it.
struct ConnGuard {
    tasks: Rc<RefCell<BTreeMap<u64, TaskId>>>,
    conn: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.tasks.borrow_mut().remove(&self.conn);
    }
}

/// How one request ended, from its connection task's point of view.
enum ReqOutcome {
    /// Completed; the connection's next call is request `req`.
    Next { req: u64 },
    /// The connection is finished (closed, errored out, or vanished).
    Closed,
    /// Dropped on a dead node with retry budget: a failover timeout is
    /// pending, await the LB redispatch.
    Retry,
}

/// After a drop or cancelled wait: does the connection still exist (a
/// retry re-dispatch was scheduled) or was it retired?
fn dropped(w: &W, conn: u64) -> ReqOutcome {
    if w.with(|st, _| st.conns.contains_key(&conn)) {
        ReqOutcome::Retry
    } else {
        ReqOutcome::Closed
    }
}

/// Drive one request end to end: admission, the two CPU stages, the
/// memcached leg and (on a miss) the MySQL leg, through to the reply
/// landing at the client. This is the straight-line form of what the
/// state machine encodes across seven event arms and `ReqState`.
async fn drive_request(w: &W, conn: u64, req: u64) -> ReqOutcome {
    // open the end-to-end span now, carry it across every await, finish
    // it at the reply; a cancelled task just drops it (no span, exactly
    // like the state machine's never-completed requests)
    let mut open = w.with(|st, _| st.open_http_span(req));
    let mut went_to_db = false;
    let mut degraded = false;
    let mut shed = false;

    // on the wire → web node admission
    if w.ev(Key::AtWeb(req)).await == Delivery::Cancelled {
        return dropped(w, conn);
    }
    match w.with(|st, s| st.admit_to_worker(req, s.now(), s)) {
        AdmitStep::Admitted => {}
        AdmitStep::Dropped => return dropped(w, conn),
        AdmitStep::Gone => return ReqOutcome::Closed,
        // deadline already blown at admission: a header-only rejection
        // is on its way to the client; skip straight to the reply await
        AdmitStep::Shed => shed = true,
    }

    if !shed {
        // stage-1 CPU (parse + PHP)
        if w.ev(Key::WebCpu(req)).await == Delivery::Cancelled {
            return dropped(w, conn);
        }
        match w.with(|st, s| st.stage1_to_cache(req, s.now(), s)) {
            Stage1Step::Gone => return ReqOutcome::Closed,
            // guard verdict: the cache/db stage is skipped, stage-2 CPU
            // is already enqueued
            Stage1Step::Degraded => degraded = true,
            Stage1Step::ToCache => {
                // memcached leg: lookup CPU on the cache node, verdict
                // back at web
                if w.ev(Key::AtCache(req)).await == Delivery::Cancelled {
                    return dropped(w, conn);
                }
                w.with(|st, s| st.req_at_cache(req, s.now(), s));
                if w.ev(Key::CacheCpu(req)).await == Delivery::Cancelled {
                    return dropped(w, conn);
                }
                let Some(hit) = w.with(|st, s| st.cache_cpu_done(req, s.now(), s)) else {
                    return ReqOutcome::Closed;
                };
                if w.ev(Key::CacheReply(req)).await == Delivery::Cancelled {
                    return dropped(w, conn);
                }
                match w.with(|st, s| st.cache_reply_at_web(req, hit, s.now(), s)) {
                    PathStep::Continue => {}
                    PathStep::Dropped => return dropped(w, conn),
                    PathStep::Gone => return ReqOutcome::Closed,
                    // miss, but the budget can't afford MySQL: degraded
                    PathStep::Degraded => degraded = true,
                    PathStep::ToDb => {
                        // miss: MySQL query CPU, 2 % buffer-pool disk
                        // miss, reply
                        went_to_db = true;
                        if w.ev(Key::AtDb(req)).await == Delivery::Cancelled {
                            return dropped(w, conn);
                        }
                        w.with(|st, s| st.req_at_db(req, s.now(), s));
                        if w.ev(Key::DbCpu(req)).await == Delivery::Cancelled {
                            return dropped(w, conn);
                        }
                        match w.with(|st, s| st.db_cpu_done(req, s.now(), s)) {
                            DbStep::Sent => {}
                            DbStep::Gone => return ReqOutcome::Closed,
                            DbStep::Disk => {
                                if w.ev(Key::Disk(req)).await == Delivery::Cancelled {
                                    return dropped(w, conn);
                                }
                                w.with(|st, s| st.db_send_reply(req, s.now(), s));
                            }
                        }
                        if w.ev(Key::DbReply(req)).await == Delivery::Cancelled {
                            return dropped(w, conn);
                        }
                        match w.with(|st, s| st.db_reply_at_web(req, s.now(), s)) {
                            PathStep::Continue => {}
                            PathStep::Dropped => return dropped(w, conn),
                            PathStep::ToDb | PathStep::Gone | PathStep::Degraded => {
                                return ReqOutcome::Closed
                            }
                        }
                    }
                }
            }
        }

        // stage-2 CPU (assemble the page)
        if w.ev(Key::WebCpu(req)).await == Delivery::Cancelled {
            return dropped(w, conn);
        }
        match w.with(|st, s| st.stage2_to_reply(req, s.now(), s)) {
            Stage2Step::Sent => {}
            Stage2Step::Gone => return ReqOutcome::Closed,
        }
    }

    // reply (full page, degraded fallback or shed rejection) → client
    if w.ev(Key::Reply(req)).await == Delivery::Cancelled {
        return dropped(w, conn);
    }
    let step = w.with(|st, s| {
        let step = st.finish_reply(req, s.now(), false, s);
        // the span the state machine records inside finish_reply; the
        // task knows the path it took, so the args match the request
        if !matches!(step, ReplyStep::Vanished) {
            if let Some(span) = open.take() {
                let path = if shed {
                    "shed"
                } else if degraded {
                    "php/degraded"
                } else if went_to_db {
                    "php/memcached-miss/mysql"
                } else {
                    "php/memcached-hit"
                };
                let args = vec![("path", path.to_string())];
                let end = s.now();
                span.finish(&mut st.tel, end, args);
            }
        }
        step
    });
    match step {
        ReplyStep::NextCall { req } => ReqOutcome::Next { req },
        ReplyStep::Closed | ReplyStep::Vanished => ReqOutcome::Closed,
    }
}

/// One connection's whole life: the SYN retransmit ladder (with LB
/// failover redispatch), then the connection's calls in sequence.
async fn connection(w: W, guard: ConnGuard, conn: u64) {
    let _guard = guard;
    'redispatched: loop {
        // SYN handshake ladder: +1 s/+2 s/+4 s kernel retransmits,
        // failover redispatch around dead backends
        let mut attempt: u8 = 0;
        let mut req = loop {
            match w.with(|st, s| st.syn_attempt(conn, attempt, s.now(), s)) {
                SynStep::Accepted { req } => break req,
                SynStep::Backoff => {
                    if w.ev(Key::Syn(conn)).await == Delivery::Cancelled {
                        return;
                    }
                    attempt += 1;
                }
                SynStep::AwaitRedispatch => {
                    if w.ev(Key::Retry(conn)).await == Delivery::Cancelled {
                        return;
                    }
                    match w.with(|st, s| st.redispatch(conn, s.now())) {
                        RedispatchStep::Go => attempt = 0,
                        RedispatchStep::Gone => return,
                    }
                }
                SynStep::Gone => return,
            }
        };
        // the calls, one at a time (HTTP/1.1 keep-alive, no pipelining)
        loop {
            match drive_request(&w, conn, req).await {
                ReqOutcome::Next { req: next } => req = next,
                ReqOutcome::Closed => return,
                ReqOutcome::Retry => {
                    if w.ev(Key::Retry(conn)).await == Delivery::Cancelled {
                        return;
                    }
                    match w.with(|st, s| st.redispatch(conn, s.now())) {
                        RedispatchStep::Go => continue 'redispatched,
                        RedispatchStep::Gone => return,
                    }
                }
            }
        }
    }
}

/// The async web world: the same [`WebWorld`] state, driven by one task
/// per connection instead of the [`crate::stack`] state machine.
pub struct AsyncWebWorld {
    st: Rc<RefCell<WebWorld>>,
    sched: Rc<RefCell<SchedBuf<Ev>>>,
    exec: Executor,
    slots: EventSlots<Key>,
    conn_tasks: Rc<RefCell<BTreeMap<u64, TaskId>>>,
}

impl AsyncWebWorld {
    /// Build the world (identically to the state-machine path).
    pub fn new(cfg: StackConfig) -> Self {
        AsyncWebWorld {
            st: Rc::new(RefCell::new(WebWorld::new(cfg))),
            sched: Rc::new(RefCell::new(SchedBuf::new(SimTime::ZERO))),
            exec: Executor::new(),
            slots: EventSlots::new(),
            conn_tasks: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    fn w(&self) -> W {
        W { st: Rc::clone(&self.st), sched: Rc::clone(&self.sched), slots: self.slots.clone() }
    }

    fn with<R>(&self, f: impl FnOnce(&mut WebWorld, &mut SchedBuf<Ev>) -> R) -> R {
        let mut st = self.st.borrow_mut();
        let mut sched = self.sched.borrow_mut();
        f(&mut st, &mut sched)
    }

    /// Fire one event key and run every resumed task to its next await.
    fn fire(&mut self, key: Key) {
        self.slots.fire(key);
        self.exec.drain();
    }

    /// Tear the driver down and return the world (with its populated
    /// [`crate::model::Metrics`] and telemetry). Drops the executor first so every
    /// still-parked task releases its handle on the shared state.
    fn into_world(self) -> WebWorld {
        drop(self.exec);
        drop(self.slots);
        drop(self.conn_tasks);
        Rc::try_unwrap(self.st)
            .ok()
            // simlint: allow(R6) executor dropped above released every task's handle; a survivor is a driver bug worth a panic
            .expect("all tasks dropped with the executor")
            .into_inner()
    }
}

impl Model for AsyncWebWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Ctx<Ev>) {
        self.sched.borrow_mut().reset(now);
        match event {
            Ev::GenConn => {
                let measure_end = self.st.borrow().measure_end;
                if now < measure_end {
                    // prepare the connection, then spawn its task: the
                    // task makes the first SYN attempt inside the drain,
                    // exactly where the state machine makes it inline
                    if let Some(conn) = self.with(|st, _| st.open_conn_prepare(now)) {
                        let guard = ConnGuard { tasks: Rc::clone(&self.conn_tasks), conn };
                        let id = self.exec.spawn(connection(self.w(), guard, conn));
                        self.conn_tasks.borrow_mut().insert(conn, id);
                        self.exec.drain();
                    }
                    let d = self.with(|st, _| st.gen_next_delay());
                    self.sched.borrow_mut().schedule_at(now + d, Ev::GenConn);
                }
            }
            // the task tracks the attempt count itself
            Ev::SynRetry { conn, attempt: _ } => self.fire(Key::Syn(conn)),
            Ev::NodeCpu { node, epoch } => {
                if !self.with(|st, _| st.nodes.node_mut(NodeId(node)).deliver_cpu_completion(epoch)) {
                    return;
                }
                let (done, is_web) = self.with(|st, _| {
                    (st.nodes.node_mut(NodeId(node)).take_finished_cpu(now), node < st.n_web())
                });
                // fire-and-drain per task id: each request's continuation
                // runs before the next completion is looked at, matching
                // the state machine's per-tid loop body order
                for tid in done {
                    self.fire(if is_web { Key::WebCpu(tid) } else { Key::CacheCpu(tid) });
                }
                self.with(|st, s| st.schedule_node_cpu(node, now, s));
            }
            Ev::DbCpu { node, epoch } => {
                if !self.with(|st, _| st.dbc.node_mut(NodeId(node)).deliver_cpu_completion(epoch)) {
                    return;
                }
                let done = self.with(|st, _| st.dbc.node_mut(NodeId(node)).take_finished_cpu(now));
                for tid in done {
                    self.fire(Key::DbCpu(tid));
                }
                self.with(|st, s| st.schedule_db_cpu(node, now, s));
            }
            Ev::ReqAtWeb { req } => self.fire(Key::AtWeb(req)),
            Ev::ReqAtCache { req } => self.fire(Key::AtCache(req)),
            // the task carried the hit verdict from cache_cpu_done
            Ev::CacheReplyAtWeb { req, hit: _ } => self.fire(Key::CacheReply(req)),
            Ev::ReqAtDb { req } => self.fire(Key::AtDb(req)),
            Ev::DbDiskDone { node, job } => {
                // node-level disk FIFO first (start the next queued
                // read), then the completed job's task sends the reply
                self.with(|st, s| st.db_disk_pop(node, now, s));
                self.fire(Key::Disk(job));
            }
            Ev::DbReplyAtWeb { req } => self.fire(Key::DbReply(req)),
            Ev::ReplyAtClient { req } => self.fire(Key::Reply(req)),
            Ev::Sample => self.with(|st, s| st.sample_tick(now, s)),
            Ev::MeasureStart => self.with(|st, _| st.measure_start_tick(now)),
            Ev::Fault { idx } => {
                let mut crashes: Vec<CrashOutcome> = Vec::new();
                self.with(|st, s| st.apply_fault_collect(idx, now, s, &mut crashes));
                // tear down the tasks of the requests the crash doomed:
                // survivors unwind to the redispatch await; retired
                // connections die with their open span unrecorded
                for c in &crashes {
                    if c.conn_survived {
                        let _ = self.slots.cancel(Key::AtWeb(c.req))
                            || self.slots.cancel(Key::WebCpu(c.req));
                    } else {
                        // end the registry borrow before cancelling: the
                        // dropped task's guard re-borrows it to deregister
                        let tid = self.conn_tasks.borrow_mut().remove(&c.conn);
                        if let Some(tid) = tid {
                            self.exec.cancel(tid);
                        }
                    }
                }
                self.exec.drain();
            }
            Ev::HealthCheck => self.with(|st, s| st.health_check_tick(now, s)),
            Ev::RetryConn { conn } => self.fire(Key::Retry(conn)),
            Ev::Stop => self.with(|st, s| st.stop_tick(now, s)),
        }
        self.sched.borrow_mut().flush(ctx);
    }
}

/// [`crate::stack::run`], on the async driver: build, seed and run one
/// configuration to completion; returns the world with populated
/// [`crate::model::Metrics`]. Same seed ⇒ byte-identical results.
pub fn run_async(cfg: StackConfig) -> WebWorld {
    run_async_traced(cfg, Telemetry::off())
}

/// [`crate::stack::run_traced`], on the async driver.
pub fn run_async_traced(cfg: StackConfig, tel: Telemetry) -> WebWorld {
    if tel.profiling() {
        return run_async_profiled(cfg, tel).0;
    }
    run_async_inner(cfg, tel, false).0
}

/// [`crate::stack::run_profiled`], on the async driver.
pub fn run_async_profiled(cfg: StackConfig, tel: Telemetry) -> (WebWorld, EngineProfile) {
    let (world, profile) = run_async_inner(cfg, tel, true);
    (world, profile.unwrap_or_default())
}

fn run_async_inner(
    cfg: StackConfig,
    tel: Telemetry,
    profile: bool,
) -> (WebWorld, Option<EngineProfile>) {
    let warmup = cfg.warmup;
    let measure = cfg.measure;
    let tracing = tel.is_on();
    let world = AsyncWebWorld::new(cfg);
    {
        let mut st = world.st.borrow_mut();
        st.set_telemetry(tel);
        if tracing {
            st.init_tracing();
        }
    }
    let fault_times: Vec<SimTime> = world.st.borrow().fplan.faults().iter().map(|f| f.at).collect();
    let mut sim = Simulation::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::GenConn);
    sim.schedule_idle_at(SimTime::ZERO, Ev::Sample);
    let stop_at = SimTime::ZERO + warmup + measure;
    for (idx, at) in fault_times.into_iter().enumerate() {
        // same skip rule as the state-machine runner: a fault at/after
        // the stop can never fire
        if at < stop_at {
            sim.schedule_at(at, Ev::Fault { idx });
        }
    }
    sim.schedule_at(SimTime::ZERO + warmup, Ev::MeasureStart);
    sim.schedule_at(SimTime::ZERO + warmup + measure, Ev::Stop);
    if tracing && profile {
        let mut obs = EventCounter::new(Ev::kind);
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut obs, &mut prof);
        let engine_profile = prof.finish(&sim);
        let mut world = sim.into_world().into_world();
        obs.record_into(&mut world.tel, "web");
        record_engine_profile(&mut world.tel, "web", &engine_profile, phase_of);
        world.harvest_power_series();
        (world, Some(engine_profile))
    } else if tracing {
        let mut obs = EventCounter::new(Ev::kind);
        sim.run_observed(&mut obs);
        let mut world = sim.into_world().into_world();
        obs.record_into(&mut world.tel, "web");
        world.harvest_power_series();
        (world, None)
    } else {
        sim.run();
        (sim.into_world().into_world(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GenMode;
    use crate::scenario::{ClusterScale, Platform, WebScenario, WorkloadMix};
    use edison_simcore::time::SimDuration;

    fn small_cfg(conc: f64) -> StackConfig {
        let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let mut cfg = StackConfig::new(
            scenario,
            WorkloadMix::lightest(),
            GenMode::Httperf { connections_per_sec: conc, calls_per_conn: 6.6 },
            42,
        );
        cfg.warmup = SimDuration::from_secs(2);
        cfg.measure = SimDuration::from_secs(8);
        cfg
    }

    #[test]
    fn async_run_completes_without_errors_at_light_load() {
        let w = run_async(small_cfg(16.0));
        assert_eq!(w.metrics.server_errors, 0);
        assert_eq!(w.metrics.client_errors, 0);
        let rps = w.metrics.completed as f64 / 8.0;
        assert!((rps - 105.6).abs() < 12.0, "rps {rps}");
    }

    #[test]
    fn async_matches_legacy_on_the_quick_path() {
        let legacy = crate::stack::run(small_cfg(32.0));
        let ported = run_async(small_cfg(32.0));
        assert_eq!(format!("{:?}", legacy.metrics), format!("{:?}", ported.metrics));
    }
}
