//! **BENCH-views** — materialized views maintained live from the SNB
//! update stream: per-person feed views (filter, aggregate, and join
//! classes) are created over the indexed SNB tables, the `idf-snb`
//! update stream mutates the graph underneath them, and the report
//! compares reading each view against cold re-execution of its defining
//! query, alongside the maintenance-lag distribution and full-refresh
//! cost. The numbers land in `BENCH_views.json` via `harness views`.

use std::time::Instant;

use idf_engine::error::{EngineError, Result};
use idf_engine::prelude::Session;
use idf_snb::gen::{generate, SnbConfig};
use idf_snb::load::register_indexed;
use idf_snb::stream::UpdateStream;
use idf_views::ViewsConfig;

/// Workload shape for one views benchmark run.
#[derive(Debug, Clone)]
pub struct ViewsBenchConfig {
    /// SNB scale factor of the seed dataset.
    pub snb_scale: f64,
    /// Update-stream events applied while the views are live.
    pub events: usize,
    /// Timed executions per measurement (median reported).
    pub reads: usize,
}

impl ViewsBenchConfig {
    /// The harness shape: `--scale` maps to a laptop-sized SNB seed.
    pub fn for_scale(scale: f64) -> ViewsBenchConfig {
        ViewsBenchConfig {
            snb_scale: (scale * 0.25).clamp(0.05, 4.0),
            events: ((scale * 1_500.0) as usize).max(300),
            reads: 30,
        }
    }
}

/// One view class measured against cold re-execution.
#[derive(Debug, Clone)]
pub struct ViewComparison {
    /// View name.
    pub name: String,
    /// View class (`filter`, `aggregate`, `join`).
    pub kind: &'static str,
    /// Rows in the materialized state at measurement time.
    pub rows: usize,
    /// Median latency of `SELECT * FROM <view>` (µs).
    pub view_read_us: f64,
    /// Median latency of re-running the defining query cold (µs).
    pub cold_exec_us: f64,
    /// `cold_exec_us / view_read_us`.
    pub speedup: f64,
    /// Median `REFRESH MATERIALIZED VIEW` wall time (µs) — the cost the
    /// incremental path avoids paying per read.
    pub refresh_us: f64,
}

/// The `BENCH_views.json` payload.
#[derive(Debug, Clone)]
pub struct ViewsBenchReport {
    /// SNB scale factor of the seed dataset.
    pub snb_scale: f64,
    /// Update-stream events applied while the views were live.
    pub events: usize,
    /// Sustained ingest rate with synchronous maintenance (events/s).
    pub ingest_events_per_sec: f64,
    /// Delta applications across all views during the stream phase.
    pub deltas_applied: u64,
    /// Commit-to-applied maintenance lag, median (µs; 0 without `obs`).
    pub lag_p50_us: f64,
    /// Maintenance lag, 95th percentile (µs; 0 without `obs`).
    pub lag_p95_us: f64,
    /// Maintenance lag, 99th percentile (µs; 0 without `obs`).
    pub lag_p99_us: f64,
    /// Per-view-class comparisons.
    pub comparisons: Vec<ViewComparison>,
    /// Largest per-class speedup (the headline number).
    pub best_speedup: f64,
    /// Smallest per-class speedup (the honest number).
    pub min_speedup: f64,
    /// Git commit the numbers were produced from.
    pub git_commit: String,
    /// ISO-8601 UTC timestamp of the run.
    pub timestamp: String,
}

impl crate::json::ToJson for ViewComparison {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::Str(self.kind.to_string())),
            ("rows", Json::Int(self.rows as i64)),
            ("view_read_us", Json::Num(self.view_read_us)),
            ("cold_exec_us", Json::Num(self.cold_exec_us)),
            ("speedup", Json::Num(self.speedup)),
            ("refresh_us", Json::Num(self.refresh_us)),
        ])
    }
}

impl crate::json::ToJson for ViewsBenchReport {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("snb_scale", Json::Num(self.snb_scale)),
            ("events", Json::Int(self.events as i64)),
            (
                "ingest_events_per_sec",
                Json::Num(self.ingest_events_per_sec),
            ),
            ("deltas_applied", Json::Int(self.deltas_applied as i64)),
            ("lag_p50_us", Json::Num(self.lag_p50_us)),
            ("lag_p95_us", Json::Num(self.lag_p95_us)),
            ("lag_p99_us", Json::Num(self.lag_p99_us)),
            (
                "comparisons",
                Json::Arr(self.comparisons.iter().map(|c| c.to_json()).collect()),
            ),
            ("best_speedup", Json::Num(self.best_speedup)),
            ("min_speedup", Json::Num(self.min_speedup)),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("timestamp", Json::Str(self.timestamp.clone())),
        ])
    }
}

/// The three feed views, one per maintainable class. The join view is
/// restricted to a 5% person sample (the demo's "tracked users") so its
/// output stays feed-sized rather than cross-product-sized.
const VIEWS: &[(&str, &str, &str)] = &[
    (
        "recent_messages",
        "filter",
        "SELECT id, creator_id, creation_date FROM message WHERE creator_id % 50 = 0",
    ),
    (
        "feed_counts",
        "aggregate",
        "SELECT creator_id, count(*), max(creation_date) FROM message_by_creator \
         GROUP BY creator_id",
    ),
    (
        "tracked_feeds",
        "join",
        "SELECT k.person1_id, m.id, m.creation_date FROM knows AS k \
         JOIN message_by_creator AS m ON k.person2_id = m.creator_id \
         WHERE k.person1_id % 20 = 0",
    ),
];

/// Median wall time of `runs` executions of `query`, in µs.
fn timed(session: &Session, query: &str, runs: usize) -> Result<f64> {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let chunk = session.sql(query)?.collect()?;
        samples.push(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(chunk.len());
    }
    samples.sort_unstable();
    Ok(crate::percentile_us(&samples, 0.5))
}

/// Run the views benchmark.
pub fn run(cfg: &ViewsBenchConfig) -> Result<ViewsBenchReport> {
    let data = generate(SnbConfig::with_scale(cfg.snb_scale))?;
    let session = Session::new();
    let tables = register_indexed(&session, &data)?;
    let _views = idf_views::install(&session, ViewsConfig::default());
    for (name, _, defining) in VIEWS {
        session
            .sql(&format!("CREATE MATERIALIZED VIEW {name} AS {defining}"))?
            .collect()?;
    }
    // Stream phase: live maintenance under the SNB update stream, with a
    // clean metrics window for the lag distribution.
    idf_obs::global().reset();
    let mut stream = UpdateStream::new(&data, 7);
    let t0 = Instant::now();
    for _ in 0..cfg.events {
        UpdateStream::apply(&stream.next_event(), &tables)?;
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    let metrics = idf_obs::global();
    let deltas_applied = metrics.view_deltas_applied.get();
    let lag_p50_us = metrics.view_maintenance_lag_ns.percentile(50.0) as f64 / 1e3;
    let lag_p95_us = metrics.view_maintenance_lag_ns.percentile(95.0) as f64 / 1e3;
    let lag_p99_us = metrics.view_maintenance_lag_ns.percentile(99.0) as f64 / 1e3;
    // Read phase: view scans vs cold re-execution of the defining query.
    let mut comparisons = Vec::new();
    for (name, kind, defining) in VIEWS {
        let rows = session
            .sql(&format!("SELECT * FROM {name}"))?
            .collect()?
            .len();
        let view_read_us = timed(&session, &format!("SELECT * FROM {name}"), cfg.reads)?;
        let cold_exec_us = timed(&session, defining, cfg.reads)?;
        let mut refresh_ns = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            session
                .sql(&format!("REFRESH MATERIALIZED VIEW {name}"))?
                .collect()?;
            refresh_ns.push(t0.elapsed().as_nanos() as u64);
        }
        refresh_ns.sort_unstable();
        comparisons.push(ViewComparison {
            name: name.to_string(),
            kind,
            rows,
            view_read_us,
            cold_exec_us,
            speedup: if view_read_us > 0.0 {
                cold_exec_us / view_read_us
            } else {
                0.0
            },
            refresh_us: crate::percentile_us(&refresh_ns, 0.5),
        });
    }
    let best_speedup = comparisons.iter().map(|c| c.speedup).fold(0.0, f64::max);
    let min_speedup = comparisons
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    if comparisons.is_empty() {
        return Err(EngineError::exec("views bench produced no comparisons"));
    }
    Ok(ViewsBenchReport {
        snb_scale: cfg.snb_scale,
        events: cfg.events,
        ingest_events_per_sec: if ingest_secs > 0.0 {
            cfg.events as f64 / ingest_secs
        } else {
            0.0
        },
        deltas_applied,
        lag_p50_us,
        lag_p95_us,
        lag_p99_us,
        comparisons,
        best_speedup,
        min_speedup,
        git_commit: crate::meta::git_commit(),
        timestamp: crate::meta::iso_timestamp(),
    })
}

/// Human-readable rendering of a report.
pub fn render(report: &ViewsBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "BENCH-views: SNB scale {}, {} stream events, {} deltas applied\n",
        report.snb_scale, report.events, report.deltas_applied
    ));
    out.push_str(&format!(
        "ingest {:.0} events/s | maintenance lag µs p50 {:.1} p95 {:.1} p99 {:.1}\n",
        report.ingest_events_per_sec, report.lag_p50_us, report.lag_p95_us, report.lag_p99_us
    ));
    out.push_str(&format!(
        "{:<16} {:>9} {:>7} {:>13} {:>13} {:>8} {:>12}\n",
        "view", "kind", "rows", "view read µs", "cold exec µs", "speedup", "refresh µs"
    ));
    for c in &report.comparisons {
        out.push_str(&format!(
            "{:<16} {:>9} {:>7} {:>13.1} {:>13.1} {:>7.1}x {:>12.1}\n",
            c.name, c.kind, c.rows, c.view_read_us, c.cold_exec_us, c.speedup, c.refresh_us
        ));
    }
    out.push_str(&format!(
        "best speedup {:.1}x, min speedup {:.1}x\n",
        report.best_speedup, report.min_speedup
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-scale end-to-end run: all three view classes materialize,
    /// maintain through the stream, and read faster than cold execution.
    #[test]
    fn views_bench_smoke() {
        let cfg = ViewsBenchConfig {
            snb_scale: 0.05,
            events: 60,
            reads: 3,
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.comparisons.len(), 3);
        for c in &report.comparisons {
            assert!(c.view_read_us > 0.0, "{}: no view read timing", c.name);
            assert!(c.cold_exec_us > 0.0, "{}: no cold timing", c.name);
            assert!(c.speedup > 0.0, "{}: no speedup computed", c.name);
        }
        assert!(report.best_speedup >= report.min_speedup);
        let json = crate::json::to_string_pretty(&report);
        assert!(json.contains("\"comparisons\""));
        assert!(!render(&report).is_empty());
    }
}
