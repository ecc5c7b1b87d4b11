//! Provisioning and the CFS pipeline, called step by step through the
//! same public entry points `Lab::provision` and `Lab::run_cfs` use, so
//! the benchmark can time each layer from the outside.

use std::sync::Arc;

use cfs_core::{Cfs, CfsConfig, CfsReport, CfsSession};
use cfs_experiments::{Lab, Scale};
use cfs_kb::{KbConfig, KnowledgeBase, PublicSources};
use cfs_obs::{NoopRecorder, Recorder};
use cfs_topology::{Topology, TopologyConfig};
use cfs_traceroute::{deploy_vantage_points, ProbeService, VpConfig};
use cfs_validate::{score_report, ValidationOracles};

use crate::clock;
use crate::stats::SplitMix;

/// The world every workload runs on: the one `cfs run --seed 7` maps.
/// Run time moves by a fifth from one generated world to the next, so a
/// fixed world keeps the figures of different seeds comparable. The
/// run's `--seed` picks what reaches the program in that world: the
/// order of the bootstrap traces (batch) or the load (serve).
pub const WORLD_SEED: u64 = 7;

/// The benchmark's own top-level spans: `(metric name, seconds)` in call
/// order.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Timed calls, in order.
    pub entries: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = clock::now();
        let out = f();
        self.entries.push((name, clock::since_s(t)));
        out
    }

    /// Total seconds recorded under `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    /// Total seconds over every entry.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }
}

/// The per-scale inputs `Lab::provision` uses.
fn configs(scale: Scale, seed: u64) -> (TopologyConfig, VpConfig, KbConfig) {
    match scale {
        Scale::Tiny => (
            TopologyConfig::tiny().with_seed(seed),
            VpConfig::tiny(),
            KbConfig {
                noc_pages: 20,
                ..KbConfig::default()
            },
        ),
        Scale::Default => (
            TopologyConfig::default().with_seed(seed),
            VpConfig::default(),
            KbConfig {
                noc_pages: 60,
                ..KbConfig::default()
            },
        ),
        Scale::Paper => (
            TopologyConfig::paper().with_seed(seed),
            VpConfig::paper(),
            KbConfig::default(),
        ),
    }
}

/// `Lab::provision(scale, Some(seed))`, one layer call at a time.
pub fn provision_timed(scale: Scale, seed: u64, layers: &mut Layers) -> cfs_types::Result<Lab> {
    let (topo_cfg, vp_cfg, kb_cfg) = configs(scale, seed);
    let topo = layers.time("topology.generate_s", || Topology::generate(topo_cfg))?;
    let vps = layers.time("traceroute.deploy_vps_s", || {
        deploy_vantage_points(&topo, &vp_cfg)
    })?;
    let sources = layers.time("kb.derive_s", || PublicSources::derive(&topo, &kb_cfg));
    let kb = layers.time("kb.assemble_s", || {
        KnowledgeBase::assemble(&sources, &topo.world)
    });
    let ipasn = layers.time("net.ipasn_build_s", || topo.build_ipasn_db());
    Ok(Lab {
        scale,
        topo,
        vps,
        sources,
        kb,
        ipasn,
        recorder: Arc::new(NoopRecorder),
    })
}

/// A session seasoned with the bootstrap inputs (`Lab::run_cfs` up to,
/// not including, convergence), timed per layer. With `order`, the
/// bootstrap traces reach the session in that seed's order, as a
/// campaign's results arrive in no fixed order.
pub fn seasoned_session<'a>(
    lab: &'a Lab,
    probe: &'a dyn ProbeService,
    kb: &'a KnowledgeBase,
    cfg: CfsConfig,
    recorder: Arc<dyn Recorder>,
    order: Option<u64>,
    layers: &mut Layers,
) -> (CfsSession<'a>, usize) {
    let mut traces = layers.time("traceroute.bootstrap_s", || {
        lab.bootstrap_traces(probe, None)
    });
    if let Some(seed) = order {
        shuffle(&mut traces, seed);
    }
    let bootstrap = traces.len();
    let mut session = Cfs::builder(probe, kb)
        .vps(&lab.vps)
        .ipasn(&lab.ipasn)
        .config(cfg)
        .recorder(recorder)
        .build_session()
        .expect("every CFS dependency is set above");
    layers.time("core.ingest_s", || session.ingest(traces));
    layers.time("bgp.lg_feed_s", || {
        lab.feed_bgp_sessions(&mut session, None)
    });
    (session, bootstrap)
}

/// Fisher–Yates with the benchmark's seeded stream.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix::new(seed, 0x000b_de12);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `Lab::run_cfs(None, None, cfg)` with the probe service, recorder and
/// bootstrap trace order supplied by the caller, timed per layer.
pub fn run_timed(
    lab: &Lab,
    probe: &dyn ProbeService,
    cfg: CfsConfig,
    recorder: Arc<dyn Recorder>,
    order: u64,
    layers: &mut Layers,
) -> (CfsReport, usize) {
    let (session, bootstrap) =
        seasoned_session(lab, probe, &lab.kb, cfg, recorder, Some(order), layers);
    let report = layers.time("core.converge_s", || session.into_report());
    (report, bootstrap)
}

/// Validated facility accuracy of a report, percent.
pub fn accuracy_pct(lab: &Lab, report: &CfsReport) -> Option<f64> {
    let oracles = ValidationOracles::standard(&lab.topo, &lab.sources);
    let overall = score_report(report, &oracles, &lab.topo).overall();
    overall.accuracy().map(|a| a * 100.0)
}

/// Interfaces resolved after the first iteration, per follow-up trace
/// (0 when no follow-up was sent).
pub fn followup_yield(report: &CfsReport) -> f64 {
    let traces: usize = report.iterations.iter().map(|i| i.traces_issued).sum();
    match (report.iterations.first(), report.iterations.last()) {
        (Some(first), Some(last)) if traces > 0 => {
            last.resolved.saturating_sub(first.resolved) as f64 / traces as f64
        }
        _ => 0.0,
    }
}
