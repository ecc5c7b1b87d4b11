//! Metric names, units and the two output lines: a detail record
//! (environment, per-timing sample counts and tails, checks) and, last,
//! the result object.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// Every end-to-end metric and its unit, in report order. An untraced
/// run reports all of them on every workload; `README.md` says what each
/// measures on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("validated_accuracy_pct", "%"),
    ("resolved_ifaces", "count"),
];

/// Every per-layer metric and its unit, in report order. A traced run
/// reports all of them on every workload; a layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("traceroute.deploy_vps_s", "s"),
    ("kb.derive_s", "s"),
    ("kb.assemble_s", "s"),
    ("net.ipasn_build_s", "s"),
    ("traceroute.bootstrap_s", "s"),
    ("traceroute.bootstrap_traces", "count"),
    ("core.ingest_s", "s"),
    ("bgp.lg_feed_s", "s"),
    ("core.converge_s", "s"),
    ("traceroute.probe_calls", "count"),
    ("traceroute.probe_busy_s", "s"),
    ("traceroute.silent_ratio", "ratio"),
    ("core.extract.self_s", "s"),
    ("core.constrain.self_s", "s"),
    ("core.remote.self_s", "s"),
    ("core.followup.self_s", "s"),
    ("core.alias_resolution.self_s", "s"),
    ("core.alias_constrain.self_s", "s"),
    ("core.report.self_s", "s"),
    ("core.iterations", "count"),
    ("core.followup.requests", "count"),
    ("core.followup.retries", "count"),
    ("core.remote.tests", "count"),
    ("core.extract.observations_new", "count"),
    ("core.followup.yield", "iface/trace"),
    ("core.stage_coverage", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("svc.query.busy_us", "us"),
    ("svc.query.wait_us", "us"),
    ("svc.delta.busy_ms", "ms"),
    ("core.serve_delta.busy_ms", "ms"),
    ("core.delta.reconverged_ratio", "ratio"),
    ("svc.poll.busy_us", "us"),
    ("detect.alerts", "count"),
    ("proc.daemon_cpu_util", "ratio"),
    ("load.late_p99_ms", "ms"),
    ("load.backlog", "count"),
    ("bench.span_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Engine stage span → per-layer self-time metric.
pub const STAGES: &[(&str, &str)] = &[
    ("stage.extract", "core.extract.self_s"),
    ("stage.constrain", "core.constrain.self_s"),
    ("stage.remote", "core.remote.self_s"),
    ("stage.followup", "core.followup.self_s"),
    ("stage.alias_resolution", "core.alias_resolution.self_s"),
    ("stage.alias_constrain", "core.alias_constrain.self_s"),
    ("stage.report", "core.report.self_s"),
];

/// Engine counter → per-layer count metric.
pub const COUNTERS: &[(&str, &str)] = &[
    ("followup.requests", "core.followup.requests"),
    ("followup.retries", "core.followup.retries"),
    ("remote.tests", "core.remote.tests"),
    ("extract.observations_new", "core.extract.observations_new"),
];

/// The unit of a metric this benchmark reports.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(m, _)| *m == name)
        .map_or("count", |(_, u)| u)
}

/// What a run found, before printing.
#[derive(Default)]
pub struct RunResult {
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (pipeline runs, requests, boots).
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Failed checks, each a human-readable line.
    pub problems: Vec<String>,
    /// Timings with their sample counts and tails.
    pub timings: BTreeMap<&'static str, Summary>,
    /// Extra detail members (already-rendered JSON values).
    pub detail: BTreeMap<&'static str, String>,
}

impl RunResult {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check (and counts it as a failed operation).
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
        self.failed += 1;
    }

    /// Checks `ok`, recording `problem` when it does not hold.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    /// Records a timing's summary (when it has samples).
    pub fn timing(&mut self, name: &'static str, values: &[f64]) {
        if let Some(s) = crate::stats::summarize(values) {
            self.timings.insert(name, s);
        }
    }
}

/// Renders a number as JSON with every digit Rust keeps; non-finite
/// values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's environment, recorded with every result.
pub struct Env {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// World scale.
    pub scale: &'static str,
}

/// Prints the detail line, then the result line (last).
pub fn print(env: &Env, r: &RunResult, wanted: &[&'static str]) {
    let rev = std::env::var("CFS_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let rustc = std::env::var("CFS_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let mut detail = format!(
        "{{\"schema\":\"cfs-e2e-bench/1\",\"workload\":{},\"seed\":{},\"trace\":{},\
         \"seconds\":{},\"env\":{{\"cores\":{},\"scale\":{},\"world_seed\":{},\"git_rev\":{},\
         \"rustc\":{}}},\
         \"error_rate\":{},\"timings\":{{",
        esc(&env.workload),
        env.seed,
        env.trace,
        env.seconds,
        crate::procfs::cores(),
        esc(env.scale),
        crate::world::WORLD_SEED,
        esc(&rev),
        esc(&rustc),
        num(r.failed as f64 / r.attempted.max(1) as f64),
    );
    for (i, (name, s)) in r.timings.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        let tail = match s.tail {
            Some((bp, v)) => format!(
                "\"tail_pct\":{},\"tail\":{}",
                num(bp as f64 / 100.0),
                num(v)
            ),
            None => "\"tail_pct\":null,\"tail\":null".to_owned(),
        };
        detail.push_str(&format!(
            "{}:{{\"n\":{},\"p50\":{},{tail}}}",
            esc(name),
            s.n,
            num(s.p50)
        ));
    }
    detail.push_str("},\"problems\":[");
    for (i, p) in r.problems.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        detail.push_str(&esc(p));
    }
    detail.push(']');
    for (k, v) in &r.detail {
        detail.push_str(&format!(",{}:{v}", esc(k)));
    }
    detail.push('}');
    println!("{detail}");

    let mut metrics = String::new();
    for (i, name) in wanted.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let v = r.metrics.get(name).copied().unwrap_or(f64::NAN);
        metrics.push_str(&format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            esc(name),
            num(v),
            esc(unit_of(name))
        ));
    }
    let correct = r.problems.is_empty() && r.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        r.attempted.max(1),
        r.failed
    );
}
