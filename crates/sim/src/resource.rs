//! FCFS multi-server queueing resources.
//!
//! A [`Resource`] models a pool of identical servers (processors, disk arms,
//! ring links…). Work is offered as `(arrival_time, service_duration)` and the
//! resource answers "when does this job start and finish?", applying
//! first-come-first-served discipline and tracking utilization statistics.
//!
//! The implementation keeps one "next free at" timestamp per server and
//! always dispatches to the server that frees earliest (ties broken by server
//! index, for determinism). Because the simulated machines offer work in
//! non-decreasing arrival order, this is an exact FCFS M-server queue.

use crate::time::{Duration, SimTime};

/// Aggregate statistics for a [`Resource`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceStats {
    /// Total jobs served.
    pub jobs: u64,
    /// Sum of service durations (busy time across all servers).
    pub busy: Duration,
    /// Sum of queueing delays (start − arrival).
    pub waited: Duration,
    /// Latest completion time observed.
    pub last_completion: SimTime,
}

impl ResourceStats {
    /// Mean utilization across all servers over `[0, horizon]`.
    ///
    /// Returns 0 when the horizon is zero.
    pub fn utilization(&self, servers: usize, horizon: SimTime) -> f64 {
        let h = horizon.as_nanos() as f64 * servers as f64;
        if h == 0.0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / h
        }
    }
}

/// An *M*-server first-come-first-served resource.
#[derive(Debug, Clone)]
pub struct Resource {
    /// `free_at[i]` = earliest instant server `i` can start a new job.
    free_at: Vec<SimTime>,
    stats: ResourceStats,
    name: &'static str,
}

impl Resource {
    /// A resource with `servers` identical servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(
            servers > 0,
            "Resource {name:?} must have at least one server"
        );
        Resource {
            free_at: vec![SimTime::ZERO; servers],
            stats: ResourceStats::default(),
            name,
        }
    }

    /// Number of servers.
    #[inline]
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// The resource's diagnostic name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Offer a job arriving at `arrival` needing `service` time.
    ///
    /// Returns `(start, completion)`. The job is immediately committed: the
    /// chosen server is busy until `completion`.
    pub fn submit(&mut self, arrival: SimTime, service: Duration) -> (SimTime, SimTime) {
        // Pick the earliest-free server; ties go to the lowest index.
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("resource has at least one server");
        let start = arrival.max(free);
        let completion = start + service;
        self.free_at[idx] = completion;

        self.stats.jobs += 1;
        self.stats.busy += service;
        self.stats.waited += start.since(arrival);
        self.stats.last_completion = self.stats.last_completion.max(completion);
        (start, completion)
    }

    /// Instant at which *all* servers are free (the backlog drains).
    pub fn all_free(&self) -> SimTime {
        *self
            .free_at
            .iter()
            .max()
            .expect("resource has at least one server")
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &ResourceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }
    fn dur(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn single_server_fcfs() {
        let mut r = Resource::new("cpu", 1);
        let (s1, c1) = r.submit(ns(0), dur(10));
        assert_eq!((s1, c1), (ns(0), ns(10)));
        // Arrives while busy: queues.
        let (s2, c2) = r.submit(ns(5), dur(10));
        assert_eq!((s2, c2), (ns(10), ns(20)));
        // Arrives after idle period: starts immediately.
        let (s3, c3) = r.submit(ns(50), dur(10));
        assert_eq!((s3, c3), (ns(50), ns(60)));
        assert_eq!(r.stats().jobs, 3);
        assert_eq!(r.stats().busy, dur(30));
        assert_eq!(r.stats().waited, dur(5));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = Resource::new("cpu", 2);
        let (_, c1) = r.submit(ns(0), dur(10));
        let (_, c2) = r.submit(ns(0), dur(10));
        assert_eq!(c1, ns(10));
        assert_eq!(c2, ns(10));
        // Third job waits for whichever frees first.
        let (s3, _) = r.submit(ns(0), dur(10));
        assert_eq!(s3, ns(10));
        assert_eq!(r.all_free(), ns(20));
    }

    #[test]
    fn utilization_and_mean_wait() {
        let mut r = Resource::new("disk", 1);
        r.submit(ns(0), dur(50));
        r.submit(ns(0), dur(50));
        let st = r.stats().clone();
        assert_eq!(st.last_completion, ns(100));
        assert!((st.utilization(1, ns(100)) - 1.0).abs() < 1e-12);
        assert_eq!(st.waited, dur(50), "the second job waits the first out");
        assert_eq!(st.jobs, 2);
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        let mut a = Resource::new("a", 4);
        let mut b = Resource::new("b", 4);
        for i in 0..100u64 {
            let arr = ns(i * 3);
            let svc = dur(7 + i % 5);
            assert_eq!(a.submit(arr, svc), b.submit(arr, svc));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = Resource::new("bad", 0);
    }
}
