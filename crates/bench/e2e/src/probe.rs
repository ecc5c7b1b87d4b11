//! A counting, timing `ProbeService` wrapper: every trace and ping the
//! engine (or a campaign) issues passes through it.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use cfs_topology::Topology;
use cfs_traceroute::{ProbeService, Trace, VantagePoint};

use crate::clock;

/// Counts and times the probes sent through an inner service.
pub struct CountingProbe<P> {
    inner: P,
    traces: AtomicU64,
    silent: AtomicU64,
    pings: AtomicU64,
    busy_ns: AtomicU64,
}

/// What a [`CountingProbe`] saw.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeTally {
    /// Traces plus pings.
    pub calls: u64,
    /// Summed time inside the inner service, seconds (across threads).
    pub busy_s: f64,
    /// Traces with no responsive hop, over all traces.
    pub silent_ratio: f64,
}

impl<P: ProbeService> CountingProbe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            traces: AtomicU64::new(0),
            silent: AtomicU64::new(0),
            pings: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The tally so far.
    pub fn tally(&self) -> ProbeTally {
        let traces = self.traces.load(Ordering::Relaxed);
        let silent = self.silent.load(Ordering::Relaxed);
        ProbeTally {
            calls: traces + self.pings.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            silent_ratio: if traces == 0 {
                0.0
            } else {
                silent as f64 / traces as f64
            },
        }
    }
}

impl<P: ProbeService> ProbeService for CountingProbe<P> {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn trace(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Trace {
        let t = clock::now();
        let trace = self.inner.trace(vp, target, at_ms);
        self.busy_ns
            .fetch_add(clock::since_ns(t), Ordering::Relaxed);
        self.traces.fetch_add(1, Ordering::Relaxed);
        if trace.hops.iter().all(|h| h.ip.is_none()) {
            self.silent.fetch_add(1, Ordering::Relaxed);
        }
        trace
    }

    fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64> {
        let t = clock::now();
        let rtt = self.inner.ping(vp, target, at_ms);
        self.busy_ns
            .fetch_add(clock::since_ns(t), Ordering::Relaxed);
        self.pings.fetch_add(1, Ordering::Relaxed);
        rtt
    }
}
