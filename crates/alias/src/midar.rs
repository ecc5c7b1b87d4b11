//! The MIDAR-style resolution pipeline: estimation → candidate pairing by
//! velocity and counter offset ("sliding window") → corroboration with
//! the monotonic bounds test → transitive closure into alias sets.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_types::par::map_chunks;

use crate::prober::IpIdProber;

/// Tuning knobs of the resolution pipeline.
#[derive(Clone, Debug)]
pub struct MidarConfig {
    /// Samples per interface during estimation.
    pub estimation_samples: usize,
    /// Milliseconds between estimation samples.
    pub estimation_spacing_ms: u64,
    /// Interleaved samples per side during corroboration.
    pub corroboration_samples: usize,
    /// Milliseconds between corroboration probes.
    pub corroboration_spacing_ms: u64,
    /// Velocity tolerance for candidate pairing (counter units per ms).
    pub velocity_tolerance: f64,
    /// Width of the counter-offset window for candidate pairing.
    pub offset_window: u32,
}

impl Default for MidarConfig {
    fn default() -> Self {
        Self {
            estimation_samples: 5,
            estimation_spacing_ms: 200,
            corroboration_samples: 10,
            corroboration_spacing_ms: 2,
            velocity_tolerance: 0.5,
            offset_window: 4096,
        }
    }
}

/// The outcome of alias resolution.
#[derive(Clone, Debug, Default)]
pub struct AliasResolution {
    /// Alias sets with at least two members, each sorted.
    pub sets: Vec<Vec<Ipv4Addr>>,
    /// Membership index: interface → position in [`AliasResolution::sets`].
    pub set_of: BTreeMap<Ipv4Addr, usize>,
}

impl AliasResolution {
    /// The alias set containing `ip`, if it was resolved into one.
    pub fn aliases_of(&self, ip: Ipv4Addr) -> Option<&[Ipv4Addr]> {
        self.set_of.get(&ip).map(|i| self.sets[*i].as_slice())
    }

    /// Whether two addresses were inferred to sit on one router.
    pub fn same_router(&self, a: Ipv4Addr, b: Ipv4Addr) -> bool {
        match (self.set_of.get(&a), self.set_of.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Total resolved interfaces.
    pub fn resolved_interfaces(&self) -> usize {
        self.set_of.len()
    }
}

/// Estimation result for one responsive, monotonic interface.
#[derive(Clone, Copy, Debug)]
struct Estimate {
    ip: Ipv4Addr,
    /// Counter units per millisecond.
    velocity: f64,
    /// Counter value extrapolated back to t = 0 (mod 2^16).
    base: u32,
}

/// Resolves aliases among `candidates` using IP-ID probing, with the
/// estimation stage spread over `workers` threads (`1` = serial). Probe
/// outcomes are pure functions of `(ip, time)`, so the result is
/// identical at any worker count.
pub fn resolve_aliases(
    prober: &IpIdProber<'_>,
    candidates: &[Ipv4Addr],
    cfg: &MidarConfig,
    workers: usize,
) -> AliasResolution {
    // ---- Stage 1: estimation ----
    // Pure per candidate, so it fans out over worker threads; estimates
    // are merged back in candidate order. The probe-time offset keys off
    // the candidate's *global* index, so chunk workers reproduce the
    // serial schedule exactly.
    let estimate_one = |idx: usize, ip: Ipv4Addr| -> Option<Estimate> {
        // Offset probe times per target to avoid synchronized artifacts.
        let t0 = (idx as u64 % 7) * 13;
        let samples: Vec<(u64, u16)> = (0..cfg.estimation_samples)
            .filter_map(|k| {
                let t = t0 + k as u64 * cfg.estimation_spacing_ms;
                prober.probe(ip, t).map(|id| (t, id))
            })
            .collect();
        if samples.len() < cfg.estimation_samples {
            return None; // unresponsive or lossy — cannot resolve
        }
        estimate(ip, &samples)
    };
    let estimates: Vec<Estimate> = map_chunks(candidates, workers, 64, |offset, chunk| {
        chunk
            .iter()
            .enumerate()
            .filter_map(|(i, ip)| estimate_one(offset + i, *ip))
            .collect()
    });

    // ---- Stage 2: candidate pairing (velocity + offset windows) ----
    // Bucket by rounded velocity and by base >> window bits; only pairs in
    // the same or adjacent offset bucket are corroborated.
    let window_shift = cfg.offset_window.trailing_zeros();
    let mut buckets: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, est) in estimates.iter().enumerate() {
        let v = est.velocity.round().max(0.0) as u32;
        let b = est.base >> window_shift;
        buckets.entry((v, b)).or_default().push(i);
    }

    let mut dsu = Dsu::new(estimates.len());
    let bucket_keys: Vec<(u32, u32)> = buckets.keys().copied().collect();
    for key in bucket_keys {
        // Same bucket plus the neighbouring offset bucket (window overlap).
        let mut members = buckets[&key].clone();
        if let Some(adj) = buckets.get(&(key.0, key.1 + 1)) {
            members.extend_from_slice(adj);
        }
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (a, b) = (members[i], members[j]);
                if dsu.find(a) == dsu.find(b) {
                    continue;
                }
                if velocity_compatible(&estimates[a], &estimates[b], cfg)
                    && corroborate(prober, &estimates[a], &estimates[b], cfg)
                {
                    dsu.union(a, b);
                }
            }
        }
    }

    // ---- Stage 3: gather sets ----
    let mut groups: BTreeMap<usize, Vec<Ipv4Addr>> = BTreeMap::new();
    for (i, estimate) in estimates.iter().enumerate() {
        groups.entry(dsu.find(i)).or_default().push(estimate.ip);
    }
    let mut sets: Vec<Vec<Ipv4Addr>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    for set in &mut sets {
        set.sort();
    }
    sets.sort();
    let mut set_of = BTreeMap::new();
    for (i, set) in sets.iter().enumerate() {
        for ip in set {
            set_of.insert(*ip, i);
        }
    }
    AliasResolution { sets, set_of }
}

/// Fits a line to the unwrapped samples; rejects non-monotonic or
/// wildly jittery (random) counters.
fn estimate(ip: Ipv4Addr, samples: &[(u64, u16)]) -> Option<Estimate> {
    let unwrapped = unwrap_ids(samples);
    // Monotonic (non-strict) requirement.
    for w in unwrapped.windows(2) {
        if w[1].1 < w[0].1 {
            return None;
        }
    }
    let (t0, v0) = unwrapped[0];
    let (tn, vn) = *unwrapped.last()?;
    if tn == t0 {
        return None;
    }
    let velocity = (vn - v0) as f64 / (tn - t0) as f64;
    // Sanity: real shared counters advance a bounded number of ids/ms; a
    // "monotonic by luck" random counter shows an absurd velocity.
    if velocity > 1000.0 {
        return None;
    }
    // Reject constant counters (velocity 0 carries no alias signal —
    // everything would match everything).
    if velocity <= 0.0 {
        return None;
    }
    // Check linearity: every sample near the fitted line.
    for (t, v) in &unwrapped {
        let predicted = v0 as f64 + velocity * (*t - t0) as f64;
        if (*v as f64 - predicted).abs() > 128.0 + velocity * 16.0 {
            return None;
        }
    }
    let base = (v0 as f64 - velocity * t0 as f64).rem_euclid(65536.0) as u32;
    Some(Estimate { ip, velocity, base })
}

/// Unwraps mod-2^16 counter samples into a monotonic-friendly space
/// (assumes < 2^15 advance between consecutive samples, like MIDAR).
fn unwrap_ids(samples: &[(u64, u16)]) -> Vec<(u64, i64)> {
    let mut out = Vec::with_capacity(samples.len());
    let mut offset: i64 = 0;
    let mut prev: i64 = i64::from(samples[0].1);
    for (t, id) in samples {
        let raw = i64::from(*id);
        if raw + offset < prev - 32768 {
            offset += 65536;
        }
        let v = raw + offset;
        out.push((*t, v));
        prev = v;
    }
    out
}

fn velocity_compatible(a: &Estimate, b: &Estimate, cfg: &MidarConfig) -> bool {
    (a.velocity - b.velocity).abs() <= cfg.velocity_tolerance
}

/// The monotonic bounds test: interleave probes to both addresses (two
/// rounds at different spacings); the merged (time, id) sequence must be
/// monotonic after unwrapping.
fn corroborate(prober: &IpIdProber<'_>, a: &Estimate, b: &Estimate, cfg: &MidarConfig) -> bool {
    // Two rounds, the second at *tighter* spacing: the bounds test's
    // discrimination scales inversely with (rate × spacing), so the tight
    // round is the one that rejects distinct-router coincidences.
    for (round, spacing) in [
        (0u64, cfg.corroboration_spacing_ms),
        (1, (cfg.corroboration_spacing_ms / 2).max(1)),
    ] {
        let start = 10_000 + round * 5_000;
        let mut merged: Vec<(u64, u16)> = Vec::with_capacity(cfg.corroboration_samples * 2);
        for k in 0..cfg.corroboration_samples as u64 {
            let ta = start + 2 * k * spacing;
            let tb = start + (2 * k + 1) * spacing;
            match (prober.probe(a.ip, ta), prober.probe(b.ip, tb)) {
                (Some(ia), Some(ib)) => {
                    merged.push((ta, ia));
                    merged.push((tb, ib));
                }
                _ => return false,
            }
        }
        let unwrapped = unwrap_ids(&merged);
        for w in unwrapped.windows(2) {
            if w[1].1 < w[0].1 {
                return false;
            }
        }
    }
    true
}

/// Small union-find.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::{IpIdBehavior, Topology, TopologyConfig};

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny()).unwrap()
    }

    /// All interfaces of the topology as probe candidates.
    fn all_iface_ips(t: &Topology) -> Vec<Ipv4Addr> {
        t.ifaces.values().map(|i| i.ip).collect()
    }

    #[test]
    fn resolution_has_high_precision() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        assert!(!res.sets.is_empty(), "no alias sets found");
        let mut wrong_pairs = 0usize;
        let mut pairs = 0usize;
        for set in &res.sets {
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    pairs += 1;
                    let ra = t.ifaces[t.iface_by_ip(set[i]).unwrap()].router;
                    let rb = t.ifaces[t.iface_by_ip(set[j]).unwrap()].router;
                    if ra != rb {
                        wrong_pairs += 1;
                    }
                }
            }
        }
        // MIDAR "produces very few false positives".
        assert!(
            (wrong_pairs as f64) <= (pairs as f64) * 0.02,
            "{wrong_pairs}/{pairs} false alias pairs"
        );
    }

    #[test]
    fn counter_routers_are_mostly_recovered() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        let mut recovered = 0usize;
        let mut eligible = 0usize;
        for router in t.routers.values() {
            if matches!(router.ipid, IpIdBehavior::SharedCounter { .. }) && router.ifaces.len() >= 2
            {
                eligible += 1;
                let a = t.ifaces[router.ifaces[0]].ip;
                let b = t.ifaces[router.ifaces[1]].ip;
                if res.same_router(a, b) {
                    recovered += 1;
                }
            }
        }
        assert!(eligible > 0);
        assert!(
            recovered * 10 >= eligible * 8,
            "recovered only {recovered}/{eligible} counter routers"
        );
    }

    #[test]
    fn unresponsive_routers_stay_unresolved() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        for router in t.routers.values() {
            if router.ipid == IpIdBehavior::Unresponsive {
                for ifid in &router.ifaces {
                    assert!(res.aliases_of(t.ifaces[*ifid].ip).is_none());
                }
            }
        }
    }

    #[test]
    fn same_router_is_reflexive_on_sets_only() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        let in_set = res.sets.first().and_then(|s| s.first()).copied();
        if let Some(ip) = in_set {
            assert!(res.same_router(ip, ip));
        }
        let unknown: Ipv4Addr = "198.18.0.1".parse().unwrap();
        assert!(!res.same_router(unknown, unknown));
    }

    #[test]
    fn unwrap_handles_counter_wrap() {
        let samples = vec![(0u64, 65_500u16), (10, 65_530), (20, 10), (30, 40)];
        let u = unwrap_ids(&samples);
        assert!(u.windows(2).all(|w| w[1].1 >= w[0].1), "{u:?}");
        assert_eq!(u[2].1, 65_546);
    }

    #[test]
    fn estimation_rejects_random_and_constant() {
        // Constant counter: no velocity signal.
        let constant = vec![(0u64, 7u16), (200, 7), (400, 7), (600, 7), (800, 7)];
        assert!(estimate("10.0.0.1".parse().unwrap(), &constant).is_none());
        // Decreasing sequence: not a counter.
        let decreasing = vec![
            (0u64, 500u16),
            (200, 400),
            (400, 300),
            (600, 200),
            (800, 100),
        ];
        assert!(estimate("10.0.0.1".parse().unwrap(), &decreasing).is_none());
    }

    #[test]
    fn resolution_is_deterministic() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let ips = all_iface_ips(&t);
        let a = resolve_aliases(&prober, &ips, &MidarConfig::default(), 1);
        let b = resolve_aliases(&prober, &ips, &MidarConfig::default(), 1);
        assert_eq!(a.sets, b.sets);
    }
}
