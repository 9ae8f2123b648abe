//! The repo benchmark: four SNB workloads, end-to-end and per-layer
//! metrics, traced replay. See README.md beside this package.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --aa [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the full
//! machine-readable report of the run.

mod aa;
mod json;
mod ops;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use idf_engine::error::Result;

use json::Json;
use workloads::{
    EmbeddedLookup, EmbeddedScan, Measured, RunConfig, ServedMixed, ServedRead, Workload, SCALE,
    WORKLOADS,
};

/// Seed used when `--seed` is not given; `HELD_OUT_SEED` is never used
/// while a change is being written, so a claim can be re-checked on it.
pub const DEFAULT_SEED: u64 = 20190630;
pub const HELD_OUT_SEED: u64 = 77001;
/// Seconds of timed phase when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 where it is not a sampled statistic).
    pub samples: u64,
}

/// The gated end-to-end metrics: name, unit, whether lower is better,
/// and the share of the median they may worsen by (BENCHMARK.json holds
/// the same table for the driver).
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("setup_s", "s", true, 0.25),
    ("throughput_ops_s", "ops/s", false, 0.25),
    ("read_p50_us", "us", true, 0.25),
    ("read_p99_us", "us", true, 0.25),
    ("mem_amp", "ratio", true, 0.05),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
         benchmark --aa [--workload <name>] [--seed <n>] [--seconds <s>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--aa" => args.aa = true,
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok()?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    let known = |w: &String| WORKLOADS.contains(&w.as_str());
    let valid = args.seconds > 0.0
        && args.seconds <= 600.0
        && args.workload.as_ref().map_or(args.aa, known);
    valid.then_some(args)
}

/// Where the benchmark writes: the build directory the driver names, or
/// `target/`, always inside the checkout it was started from.
fn work_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("benchmark")
}

pub fn run_config(seed: u64, seconds: f64) -> RunConfig {
    RunConfig {
        seed,
        seconds,
        nproc: idf_engine::config::default_parallelism(),
        work_dir: work_dir(),
    }
}

/// The commit of the checkout, when it is a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Fields every report is stamped with.
pub fn stamp(workload: &str, cfg: &RunConfig, trace: bool) -> Vec<(String, Json)> {
    vec![
        ("workload".to_string(), Json::str(workload)),
        ("trace".to_string(), Json::Bool(trace)),
        ("seed".to_string(), Json::Int(cfg.seed as i64)),
        ("held_out_seed".to_string(), Json::Int(HELD_OUT_SEED as i64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("warmup_seconds".to_string(), Json::Num(run::WARMUP_S)),
        ("snb_scale".to_string(), Json::Num(SCALE)),
        ("nproc".to_string(), Json::Int(cfg.nproc as i64)),
        ("clients".to_string(), Json::Int(cfg.clients() as i64)),
        ("commit".to_string(), Json::str(commit())),
        (
            "features".to_string(),
            Json::str("default (failpoints, obs, compact)"),
        ),
    ]
}

/// One untraced run of `W`: `SETUP_REPEATS` set-ups (the last one is
/// measured on), the timed phase, the output checks.
pub fn measure<W: Workload>(cfg: &RunConfig, setups: usize) -> Result<(Vec<f64>, Measured)> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut env = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = env.take() {
            W::teardown(previous);
        }
        let t0 = Instant::now();
        env = Some(W::setup(cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up ran");
    Ok((setup_s, env.run(cfg)?))
}

pub fn measure_named(
    workload: &str,
    cfg: &RunConfig,
    setups: usize,
) -> Result<(Vec<f64>, Measured)> {
    match workload {
        "served-read" => measure::<ServedRead>(cfg, setups),
        "embedded-lookup" => measure::<EmbeddedLookup>(cfg, setups),
        "embedded-scan" => measure::<EmbeddedScan>(cfg, setups),
        _ => measure::<ServedMixed>(cfg, setups),
    }
}

/// The end-to-end metrics of one run, in `END_TO_END` order.
pub fn end_to_end(setup_s: &[f64], m: &Measured) -> Vec<Metric> {
    let reads = m.summary.reads.as_ref();
    // Only operations that passed their output check count as throughput.
    let passed = 1.0 - m.checks.failed as f64 / m.summary.completed.max(1) as f64;
    let values = [
        (
            stats::median(setup_s).unwrap_or(f64::NAN),
            setup_s.len() as u64,
        ),
        (
            m.summary.median_window_ops_per_s().unwrap_or(f64::NAN) * passed,
            m.summary.completed,
        ),
        (
            m.summary.median_window_read_p50_us().unwrap_or(f64::NAN),
            reads.map_or(0, |r| r.samples as u64),
        ),
        (
            reads.and_then(|r| r.p99_us()).unwrap_or(f64::NAN),
            reads
                .and_then(|r| r.tail.as_ref())
                .map_or(0, |t| t.windows as u64),
        ),
        (m.resident_bytes as f64 / m.user_bytes.max(1) as f64, 0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut pairs = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                if with_samples {
                    pairs.push(("samples".to_string(), Json::Int(m.samples as i64)));
                }
                (m.name.to_string(), Json::Obj(pairs))
            })
            .collect(),
    )
}

/// The diagnostics block: printed, never gated.
fn diagnostics(setup_s: &[f64], m: &Measured) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![(
        "setup_s_each".to_string(),
        Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
    )];
    if let Some(w) = &m.summary.writes {
        pairs.push(("write_p50_us".to_string(), Json::Num(w.p50_us)));
        pairs.push((
            "write_p99_us".to_string(),
            Json::Num(w.p99_us().unwrap_or(f64::NAN)),
        ));
        pairs.push(("write_samples".to_string(), Json::Int(w.samples as i64)));
    }
    pairs.push((
        "throughput_mean_ops_s".to_string(),
        Json::Num(m.summary.completed as f64 / m.timed_seconds),
    ));
    if let Some(r) = &m.summary.reads {
        pairs.push(("read_p50_whole_run_us".to_string(), Json::Num(r.p50_us)));
        if let Some(tail) = &r.tail {
            pairs.push((
                "read_p99_percentile_used".to_string(),
                Json::Num(tail.effective_q),
            ));
        }
    }
    if let Some(late) = &m.summary.lateness {
        pairs.push((
            "appender_lateness".to_string(),
            Json::obj([
                ("ops", Json::Int(late.ops as i64)),
                ("late_share", Json::Num(late.late_share())),
                ("mean_us", Json::Num(late.mean_us())),
                ("max_us", Json::Num(late.max_ns as f64 / 1e3)),
            ]),
        ));
    }
    pairs.push((
        "window_ops".to_string(),
        Json::Arr(
            m.summary
                .window_ops
                .iter()
                .map(|&n| Json::Int(n as i64))
                .collect(),
        ),
    ));
    pairs.push((
        "window_read_p50_us".to_string(),
        Json::Arr(
            m.summary
                .window_read_p50_us
                .iter()
                .map(|&v| Json::Num(v))
                .collect(),
        ),
    ));
    pairs.push((
        "classes".to_string(),
        Json::Obj(
            m.summary
                .classes
                .iter()
                .map(|(class, stats)| (class.name().to_string(), stats.to_json()))
                .collect(),
        ),
    ));
    pairs.push((
        "resident_bytes".to_string(),
        Json::Int(m.resident_bytes as i64),
    ));
    pairs.push(("user_bytes".to_string(), Json::Int(m.user_bytes as i64)));
    pairs.extend(m.diagnostics.iter().cloned());
    let errors: Vec<Json> = m
        .summary
        .errors
        .iter()
        .chain(&m.checks.errors)
        .map(Json::str)
        .collect();
    pairs.push(("errors".to_string(), Json::Arr(errors)));
    Json::Obj(pairs)
}

/// Print the report line and the driver's result line; `true` when the
/// run was correct.
fn print_result(
    mut report: Vec<(String, Json)>,
    metrics: &[Metric],
    attempted: u64,
    failed: u64,
    extra: Vec<(String, Json)>,
) -> bool {
    // A metric that could not be measured is a failed run, not a zero.
    let measurable = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && attempted > 0 && measurable;
    report.push(("metrics".to_string(), metrics_json(metrics, true)));
    report.push(("attempted".to_string(), Json::Int(attempted as i64)));
    report.push(("failed".to_string(), Json::Int(failed as i64)));
    report.extend(extra);
    println!("{}", Json::Obj(report).render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json(metrics, false)),
    ]);
    println!("{}", result.render());
    correct
}

fn run_untraced(workload: &str, cfg: &RunConfig) -> Result<bool> {
    let (setup_s, m) = measure_named(workload, cfg, SETUP_REPEATS)?;
    let metrics = end_to_end(&setup_s, &m);
    let extra = vec![
        ("refused".to_string(), Json::Int(m.summary.refused as i64)),
        ("checked".to_string(), Json::Int(m.checks.made as i64)),
        (
            "check_failed".to_string(),
            Json::Int(m.checks.failed as i64),
        ),
        ("diagnostics".to_string(), diagnostics(&setup_s, &m)),
    ];
    Ok(print_result(
        stamp(workload, cfg, false),
        &metrics,
        m.summary.attempted,
        m.summary.failed + m.checks.failed,
        extra,
    ))
}

fn run_traced(workload: &str, cfg: &RunConfig) -> Result<bool> {
    let traced = traced::run(workload, cfg)?;
    let extra = vec![
        (
            "trace_file".to_string(),
            Json::str(traced.file.display().to_string()),
        ),
        ("layer_table".to_string(), traced.layer_table),
    ];
    Ok(print_result(
        stamp(workload, cfg, true),
        &traced.metrics,
        traced.attempted,
        traced.failed,
        extra,
    ))
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let cfg = run_config(args.seed, args.seconds);
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("benchmark: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.aa {
        aa::run(args.workload.as_deref(), &cfg)
    } else {
        let workload = args.workload.as_deref().unwrap_or_default();
        if args.trace {
            run_traced(workload, &cfg)
        } else {
            run_untraced(workload, &cfg)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (the driver's copy) and the tables in code (what
    /// the binary prints and `--aa` gates on) must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables_in_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json sits at the repo root")
            .split_whitespace()
            .collect();
        for (name, unit, lower_is_better, bound) in END_TO_END {
            let better = if lower_is_better { "lower" } else { "higher" };
            let entry = format!(
                r#"{{"name":"{name}","unit":"{unit}","better":"{better}","bound":{bound}}}"#
            );
            assert!(text.contains(&entry), "end_to_end entry missing: {entry}");
        }
        for (name, unit) in traced::PER_LAYER {
            let entry = format!(r#"{{"name":"{name}","unit":"{unit}","better":"#);
            assert!(text.contains(&entry), "per_layer entry missing: {entry}");
        }
        assert_eq!(
            text.matches(r#""better":"#).count(),
            END_TO_END.len() + traced::PER_LAYER.len(),
            "BENCHMARK.json lists a metric the binary does not print"
        );
        for workload in WORKLOADS {
            assert!(text.contains(&format!(r#"{{"name":"{workload}","why":"#)));
        }
        assert!(text.contains(&format!(r#""run_seconds":{DEFAULT_SECONDS}"#)));
    }
}
