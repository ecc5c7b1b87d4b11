//! Cross-crate integration: the full measurement → inference →
//! validation pipeline, exercised through the umbrella crate's public
//! API exactly as a downstream user would.

use cfs::prelude::*;

fn pipeline(seed: u64) -> (Topology, PublicSources, cfs::core::CfsReport) {
    let topo = Topology::generate(TopologyConfig::default().with_seed(seed)).unwrap();
    let vps = deploy_vantage_points(&topo, &VpConfig::default()).unwrap();
    let engine = Engine::new(&topo);
    let sources = PublicSources::derive(&topo, &KbConfig::default());
    let kb = KnowledgeBase::assemble(&sources, &topo.world);
    let ipasn = topo.build_ipasn_db();

    let targets: Vec<std::net::Ipv4Addr> = cfs::topology::names::PAPER_TARGETS
        .iter()
        .filter_map(|(asn, _, _)| topo.target_ip(Asn(*asn)).ok())
        .collect();
    let vp_ids: Vec<_> = vps.ids().collect();
    let traces = run_campaign(
        &engine,
        &vps,
        &vp_ids,
        &targets,
        0,
        &CampaignLimits::default(),
    );

    let mut session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .build_session()
        .unwrap();
    session.ingest(traces);
    let report = session.into_report();
    (topo, sources, report)
}

#[test]
fn full_pipeline_reaches_paper_grade_accuracy() {
    let (topo, sources, report) = pipeline(0xCF5_2015);

    assert!(report.total() > 300, "tracked {}", report.total());
    assert!(
        report.resolved_fraction() > 0.4,
        "resolved {}",
        report.resolved_fraction()
    );

    let oracles = ValidationOracles::standard(&topo, &sources);
    let scored = score_report(&report, &oracles, &topo);
    let overall = scored.overall();
    assert!(
        overall.checked > 50,
        "validation coverage {}",
        overall.checked
    );
    let acc = overall.accuracy().unwrap();
    assert!(acc > 0.8, "validated accuracy {acc:.3}");
    let metro = overall.metro_accuracy().unwrap();
    assert!(
        metro > acc - 1e-9,
        "city-level should dominate: {metro:.3} vs {acc:.3}"
    );
}

#[test]
fn inference_only_claims_facilities_the_public_data_allows() {
    let (topo, _sources, report) = pipeline(0xCF5_2015);
    // CFS must never name a facility its own constraints exclude: every
    // resolved facility is a member of the interface's final candidate
    // set, and candidate sets are non-empty on resolution.
    for iface in report.interfaces.values() {
        if let Some(f) = iface.facility {
            assert!(iface.candidates.contains(&f));
            assert_eq!(iface.candidates.len(), 1);
        }
        // Sanity: the facility id exists in the world at all.
        if let Some(f) = iface.facility {
            assert!(topo.facilities.get(f).is_some());
        }
    }
}

#[test]
fn pipeline_is_reproducible_end_to_end() {
    let (_, _, a) = pipeline(7);
    let (_, _, b) = pipeline(7);
    assert_eq!(a.total(), b.total());
    assert_eq!(a.resolved(), b.resolved());
    assert_eq!(a.traces_issued, b.traces_issued);
    for (x, y) in a.interfaces.values().zip(b.interfaces.values()) {
        assert_eq!(x.ip, y.ip);
        assert_eq!(x.facility, y.facility);
        assert_eq!(x.outcome, y.outcome);
    }
}

#[test]
fn different_seeds_produce_different_worlds_same_invariants() {
    for seed in [1u64, 2, 3] {
        let (topo, _sources, report) = pipeline(seed);
        // Per-interface invariants hold across worlds.
        for iface in report.interfaces.values() {
            if let Some(ifid) = topo.iface_by_ip(iface.ip) {
                // Owner attribution, where made, matches ground truth for
                // the overwhelming majority (alias correction can only
                // fix what it observed).
                let _truth = topo.ifaces[ifid].asn;
                assert!(iface.owner.is_some() || iface.outcome == SearchOutcome::MissingData);
            }
        }
        let curve = report.resolution_curve();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "curve must not regress (seed {seed})");
        }
    }
}

#[test]
fn owner_attribution_is_mostly_correct_after_alias_majority_vote() {
    let (topo, _sources, report) = pipeline(0xCF5_2015);
    let mut checked = 0usize;
    let mut right = 0usize;
    for iface in report.interfaces.values() {
        let (Some(owner), Some(ifid)) = (iface.owner, topo.iface_by_ip(iface.ip)) else {
            continue;
        };
        checked += 1;
        right += usize::from(topo.ifaces[ifid].asn == owner);
    }
    assert!(checked > 200);
    // Residual misattribution concentrates on point-to-point addresses
    // whose routers defeat alias probing (random/constant/no IP-IDs —
    // §4.1's false negatives), so the vote cannot reach them. Raw LPM
    // alone sits well below this.
    assert!(
        right * 100 >= checked * 75,
        "owner attribution {right}/{checked} — majority vote not working"
    );

    // And the vote must genuinely improve on raw longest-prefix matching.
    let db = topo.build_ipasn_db();
    let mut raw_right = 0usize;
    for iface in report.interfaces.values() {
        let Some(ifid) = topo.iface_by_ip(iface.ip) else {
            continue;
        };
        if iface.owner.is_some() && db.origin(iface.ip) == Some(topo.ifaces[ifid].asn) {
            raw_right += 1;
        }
    }
    assert!(
        right >= raw_right,
        "correction made ownership worse: {right} < {raw_right}"
    );
}

#[test]
fn tiny_seed7_report_bytes_are_pinned() {
    // The whole `CfsReport` JSON of the reference tiny world, not just
    // the trace the golden fixture pins: verdicts, links, iteration
    // stats, convergence telemetry and the data-quality ledger. A
    // refactor of the convergence loop must leave this value alone.
    let lab = cfs::experiments::Lab::provision(cfs::experiments::Scale::Tiny, Some(7)).unwrap();
    let report = lab.run_cfs_observed(
        CfsConfig {
            threads: 1,
            ..CfsConfig::default()
        },
        std::sync::Arc::new(cfs::obs::TraceRecorder::deterministic()),
    );
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        format!("{:016x}", cfs::obs::export::fnv1a64(&json)),
        "deeac08acbe91947",
        "tiny seed-7 report bytes moved"
    );
}
