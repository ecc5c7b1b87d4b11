//! `batch_paper`: the `cfs run` pipeline at paper scale, on the reference
//! world ([`WORLD_SEED`]), with the bootstrap traces in the order the
//! run's seed gives them.
//!
//! Each repetition runs in a fresh child process (this binary with
//! `--child-batch`), so its peak RSS belongs to that run alone. The child
//! prints one JSON line; the parent checks and aggregates.

use std::process::{Command, Stdio};
use std::sync::Arc;

use cfs_core::{canonical_trace, CfsConfig};
use cfs_experiments::{Lab, Scale};
use cfs_traceroute::Engine;
use serde_json::Value;

use crate::out::{num, RunResult, COUNTERS, STAGES};
use crate::probe::CountingProbe;
use crate::spans::{nest, nesting_is_consistent, self_ns_by_name, SpanLog};
use crate::stats::{fnv1a64, median};
use crate::world::{accuracy_pct, followup_yield, provision_timed, run_timed, Layers, WORLD_SEED};
use crate::{clock, procfs};

/// Validated accuracy, percent, of this workload's report for seeds
/// 0–20 (the reference world, bootstrap traces in the seed's order) at
/// the commit that defined this benchmark. A run below its seed's value
/// fails.
const ACCURACY_AT_DEFINITION: &[(u64, f64)] = &[
    (0, 89.26553672316385),
    (1, 89.83050847457628),
    (2, 89.56356736242884),
    (3, 89.75332068311197),
    (4, 89.77272727272727),
    (5, 89.39393939393939),
    (6, 89.58333333333334),
    (7, 90.3954802259887),
    (8, 90.32258064516128),
    (9, 88.93058161350844),
    (10, 89.96212121212122),
    (11, 90.0375939849624),
    (12, 89.56356736242884),
    (13, 89.92537313432835),
    (14, 90.15151515151516),
    (15, 90.15151515151516),
    (16, 90.43151969981238),
    (17, 90.20715630885122),
    (18, 89.8876404494382),
    (19, 90.53030303030303),
    (20, 89.77272727272727),
];

/// The accuracy a run of `seed` must reach, percent: the recorded value,
/// or for other seeds the lowest recorded value less one point.
fn accuracy_floor(seed: u64) -> f64 {
    match ACCURACY_AT_DEFINITION.iter().find(|(s, _)| *s == seed) {
        Some(&(_, pct)) => pct,
        None => {
            ACCURACY_AT_DEFINITION
                .iter()
                .map(|&(_, pct)| pct)
                .fold(f64::INFINITY, f64::min)
                - 1.0
        }
    }
}

/// `Lab::provision` calls per untraced child; `setup_s` is the median
/// over every one the run made.
const SETUPS_PER_CHILD: usize = 5;

/// The child: provisioning ([`SETUPS_PER_CHILD`] times when untraced)
/// and one pipeline run, printed as a JSON line. Traced children time
/// each layer call, count probes, and keep the engine's spans.
pub fn child(seed: u64, traced: bool) -> Result<(), String> {
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| fields.push((k.to_owned(), v));

    let t = clock::now();
    let (lab, report, layers) = if traced {
        let mut layers = Layers::default();
        let lab =
            provision_timed(Scale::Paper, WORLD_SEED, &mut layers).map_err(|e| e.to_string())?;
        let setup_s = clock::since_s(t);
        let probe = CountingProbe::new(Engine::new(&lab.topo));
        let log = Arc::new(SpanLog::new());
        let cpu0 = procfs::cpu_s(None).unwrap_or(0.0);
        let t = clock::now();
        let (report, bootstrap) = run_timed(
            &lab,
            &probe,
            CfsConfig::default(),
            log.clone(),
            seed,
            &mut layers,
        );
        let run_s = clock::since_s(t);
        let cpu = procfs::cpu_s(None).unwrap_or(0.0) - cpu0;
        put("setup_s", num(setup_s));
        put("run_s", num(run_s));
        put("cpu_util", num(cpu / run_s));
        put("traceroute.bootstrap_traces", num(bootstrap as f64));
        let tally = probe.tally();
        put("traceroute.probe_calls", num(tally.calls as f64));
        put("traceroute.probe_busy_s", num(tally.busy_s));
        put("traceroute.silent_ratio", num(tally.silent_ratio));
        let nodes = nest(&log.spans());
        put("nesting_ok", nesting_is_consistent(&nodes).to_string());
        let by_name = self_ns_by_name(&nodes);
        let mut stage_total = 0.0;
        for (span, metric) in STAGES {
            let s = by_name.get(span).copied().unwrap_or(0) as f64 / 1e9;
            stage_total += s;
            put(metric, num(s));
        }
        for (counter, metric) in COUNTERS {
            put(metric, num(log.counter_total(counter) as f64));
        }
        let converge = layers.get("core.converge_s");
        put("core.stage_coverage", num(stage_total / converge));
        put(
            "bench.span_coverage",
            num(layers.total() / (setup_s + run_s)),
        );
        (lab, report, Some(layers))
    } else {
        // Several set-ups per process (the first one cold); the last
        // world is the one the pipeline runs on.
        let mut setups = Vec::new();
        let mut lab = Lab::provision(Scale::Paper, Some(WORLD_SEED)).map_err(|e| e.to_string())?;
        setups.push(clock::since_s(t));
        for _ in 1..SETUPS_PER_CHILD {
            drop(lab);
            let t = clock::now();
            lab = Lab::provision(Scale::Paper, Some(WORLD_SEED)).map_err(|e| e.to_string())?;
            setups.push(clock::since_s(t));
        }
        let cold_setup_s = setups[0];
        let listed: Vec<String> = setups.iter().map(|s| num(*s)).collect();
        put("setups", format!("[{}]", listed.join(",")));
        let cpu0 = procfs::cpu_s(None).unwrap_or(0.0);
        let t = clock::now();
        let engine = Engine::new(&lab.topo);
        let recorder = lab.recorder.clone();
        let (report, _) = run_timed(
            &lab,
            &engine,
            CfsConfig::default(),
            recorder,
            seed,
            &mut Layers::default(),
        );
        let run_s = clock::since_s(t);
        let cpu = procfs::cpu_s(None).unwrap_or(0.0) - cpu0;
        put("run_s", num(run_s));
        // What one `cfs run` in a fresh process waits for: a cold
        // set-up, then the pipeline.
        put("cfs_run_s", num(cold_setup_s + run_s));
        put("cpu_util", num(cpu / run_s));
        (lab, report, None)
    };
    put(
        "peak_rss_mb",
        num(procfs::peak_rss_mib(None).unwrap_or(f64::NAN)),
    );
    for (name, s) in layers.iter().flat_map(|l| &l.entries) {
        put(name, num(*s));
    }
    put("core.iterations", num(report.iterations.len() as f64));
    put("core.followup.yield", num(followup_yield(&report)));
    put("resolved", num(report.resolved() as f64));
    put(
        "accuracy_pct",
        num(accuracy_pct(&lab, &report).unwrap_or(f64::NAN)),
    );
    put(
        "digest",
        format!("\"{:016x}\"", fnv1a64(canonical_trace(&report).as_bytes())),
    );
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", crate::out::esc(k)))
        .collect();
    println!("{{{}}}", body.join(","));
    Ok(())
}

/// Runs one child and parses its line.
fn spawn_child(seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child-batch",
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn batch child: {e}"))?;
    if !out.status.success() {
        return Err(format!("batch child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    serde_json::from_str::<Value>(line).map_err(|e| format!("batch child output: {e}"))
}

fn f(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The parent: repetitions for at least `seconds` (at least two); in a
/// traced run, one untraced and one traced repetition.
pub fn run(seed: u64, seconds: u64, traced: bool, r: &mut RunResult) -> Result<(), String> {
    let t = clock::now();
    let mut reps: Vec<Value> = Vec::new();
    loop {
        let traced_rep = traced && !reps.is_empty();
        reps.push(spawn_child(seed, traced_rep)?);
        r.attempted += 1;
        let done = if traced {
            reps.len() == 2
        } else {
            reps.len() >= 2 && clock::since_s(t) >= seconds as f64
        };
        if done {
            break;
        }
    }

    // Correctness: one digest for every repetition (traced or not), and
    // accuracy at or above the value recorded for this seed.
    let digests: Vec<&str> = reps
        .iter()
        .map(|v| v.get("digest").and_then(Value::as_str).unwrap_or("?"))
        .collect();
    r.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("report digest differs across repetitions: {digests:?}")
    });
    let accuracy = f(&reps[0], "accuracy_pct");
    let floor = accuracy_floor(seed);
    r.check(accuracy + 1e-9 >= floor, || {
        format!("validated accuracy {accuracy:.4}% below {floor:.4}% for seed {seed}")
    });
    let resolved = f(&reps[0], "resolved");
    r.check(
        reps.iter().all(|v| f(v, "resolved") == resolved) && resolved > 0.0,
        || "resolved interface count differs across repetitions or is zero".into(),
    );

    let untraced: Vec<&Value> = if traced {
        vec![&reps[0]]
    } else {
        reps.iter().collect()
    };
    let col = |key: &str| -> Vec<f64> { untraced.iter().map(|v| f(v, key)).collect() };
    let setups: Vec<f64> = untraced
        .iter()
        .filter_map(|v| v.get("setups").and_then(Value::as_array))
        .flatten()
        .filter_map(Value::as_f64)
        .collect();
    r.timing("setup_s", &setups);
    r.timing("run_s", &col("run_s"));
    r.set("setup_s", median(&setups).unwrap_or(f64::NAN));
    let cfs_run_ms: Vec<f64> = col("cfs_run_s").iter().map(|s| s * 1e3).collect();
    r.timing("cfs_run_ms", &cfs_run_ms);
    r.set("latency_ms", median(&cfs_run_ms).unwrap_or(f64::NAN));
    r.set(
        "peak_rss_mb",
        median(&col("peak_rss_mb")).unwrap_or(f64::NAN),
    );
    r.set("validated_accuracy_pct", accuracy);
    r.set("resolved_ifaces", resolved);
    r.detail.insert("repetitions", reps.len().to_string());
    r.detail.insert("digest", crate::out::esc(digests[0]));

    if traced {
        let tr = &reps[1];
        for &(name, _) in crate::out::PER_LAYER {
            if let Some(v) = tr.get(name).and_then(Value::as_f64) {
                r.set(name, v);
            }
        }
        r.set("proc.cpu_util", f(&reps[0], "cpu_util"));
        let base = median(&setups).unwrap_or(f64::NAN) + f(&reps[0], "run_s");
        let with = f(tr, "setup_s") + f(tr, "run_s");
        r.set("trace.overhead_pct", 100.0 * (with / base - 1.0));
        let coverage = f(tr, "bench.span_coverage");
        r.check(coverage >= 0.95, || {
            format!("top-level layer spans cover {coverage:.4} of setup_s + run_s (< 0.95)")
        });
        r.check(
            tr.get("nesting_ok").and_then(Value::as_bool) == Some(true),
            || "a core span exceeds its parent".into(),
        );
    }
    Ok(())
}
