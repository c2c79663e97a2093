//! First-come-first-served queues with `k` parallel servers.
//!
//! Used to model devices whose service discipline is serial rather than
//! processor-sharing: the microSD card and SAS disk (k = 1, or the disk's
//! effective command depth) and the MySQL database servers (k = worker
//! threads).
//!
//! The queue does not own the event heap. [`FcfsQueue::submit`] and
//! [`FcfsQueue::complete`] return `(job, completion_time)` pairs that the
//! caller schedules; this keeps the component pure and trivially testable.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Caller-assigned job identifier.
pub type JobId = u64;

/// A k-server FCFS queue. See module docs.
#[derive(Debug, Clone)]
pub struct FcfsQueue {
    servers: usize,
    busy: usize,
    waiting: VecDeque<(JobId, SimDuration)>,
    /// Completed-job count, for throughput metrics.
    completed: u64,
}

impl FcfsQueue {
    /// Create a queue with `servers` parallel servers (must be ≥ 1).
    pub fn new(servers: usize) -> Self {
        assert!(servers >= 1, "queue needs at least one server");
        FcfsQueue {
            servers,
            busy: 0,
            waiting: VecDeque::new(),
            completed: 0,
        }
    }

    /// Number of jobs currently being served.
    pub fn in_service(&self) -> usize {
        self.busy
    }

    /// Jobs fully served so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Submit a job needing `service` time. If a server is free the job
    /// starts immediately and its completion time is returned for
    /// scheduling; otherwise it waits and `None` is returned.
    pub fn submit(&mut self, now: SimTime, job: JobId, service: SimDuration) -> Option<(JobId, SimTime)> {
        if self.busy < self.servers {
            self.busy += 1;
            Some((job, now + service))
        } else {
            self.waiting.push_back((job, service));
            None
        }
    }

    /// Record the completion of an in-service job. If another job was
    /// waiting it is dispatched and its `(job, completion_time)` returned for
    /// scheduling.
    ///
    /// Panics in debug builds if no job was in service.
    pub fn complete(&mut self, now: SimTime) -> Option<(JobId, SimTime)> {
        debug_assert!(self.busy > 0, "completion with no job in service");
        self.completed += 1;
        if let Some((job, service)) = self.waiting.pop_front() {
            // The finishing server immediately takes the next job.
            Some((job, now + service))
        } else {
            self.busy -= 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn single_server_serialises() {
        let mut q = FcfsQueue::new(1);
        let first = q.submit(t(0), 1, d(10));
        assert_eq!(first, Some((1, t(10))));
        assert_eq!(q.submit(t(1), 2, d(5)), None);
        assert_eq!(q.submit(t(2), 3, d(1)), None);
        // job 1 done at t=10; job 2 starts then.
        let nxt = q.complete(t(10));
        assert_eq!(nxt, Some((2, t(15))));
        let nxt = q.complete(t(15));
        assert_eq!(nxt, Some((3, t(16))));
        assert_eq!(q.complete(t(16)), None);
        assert_eq!(q.completed(), 3);
        assert_eq!(q.in_service(), 0);
    }

    #[test]
    fn multi_server_parallelism() {
        let mut q = FcfsQueue::new(2);
        assert!(q.submit(t(0), 1, d(10)).is_some());
        assert!(q.submit(t(0), 2, d(10)).is_some());
        assert!(q.submit(t(0), 3, d(10)).is_none());
        assert_eq!(q.in_service(), 2);
        let nxt = q.complete(t(10));
        assert_eq!(nxt, Some((3, t(20))));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = FcfsQueue::new(1);
        q.submit(t(0), 10, d(1));
        for j in 11..20 {
            q.submit(t(0), j, d(1));
        }
        let mut order = vec![];
        let mut now = t(1);
        loop {
            match q.complete(now) {
                Some((j, at)) => {
                    order.push(j);
                    now = at;
                }
                None => break,
            }
        }
        assert_eq!(order, (11..20).collect::<Vec<_>>());
    }
}
