//! **BENCH-recovery** — what a checkpoint buys at cold open: the time to
//! reopen a store by replaying its whole WAL versus restoring the same
//! rows from a checkpoint. The numbers land in `BENCH_recovery.json` via
//! `harness recovery`. Commit latency and fsync coalescing under load are
//! the repo benchmark's `served-mixed` workload (`durable.commit_us`,
//! `durable.commits_per_fsync`).

use std::time::Instant;

use idf_core::config::IndexConfig;
use idf_durable::{DurableSession, TempDir};
use idf_engine::chunk::Chunk;
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::error::Result;
use idf_engine::schema::{Field, Schema, SchemaRef};
use idf_engine::types::{DataType, Value};

/// Workload shape for one recovery benchmark run.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Rows in the recovery corpus (appended in chunks, one WAL record
    /// per chunk).
    pub rows: usize,
    /// Rows per appended chunk in the recovery corpus.
    pub chunk_rows: usize,
}

impl RecoveryConfig {
    /// The harness shape: `scale 2.0` ⇒ a 1 M-row recovery corpus.
    pub fn for_scale(scale: f64) -> RecoveryConfig {
        RecoveryConfig {
            rows: ((scale * 500_000.0) as usize).max(20_000),
            chunk_rows: 10_000,
        }
    }
}

/// Results of one recovery benchmark run (the `BENCH_recovery.json`
/// payload).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Rows in the recovery corpus.
    pub rows: usize,
    /// Cold-open time replaying the whole corpus from the WAL (ms).
    pub replay_open_ms: f64,
    /// Cold-open time restoring the same corpus from a checkpoint (ms).
    pub checkpoint_open_ms: f64,
    /// replay / checkpoint open time (>1 ⇒ checkpoints pay off).
    pub checkpoint_speedup: f64,
    /// Git commit the numbers were produced from.
    pub git_commit: String,
    /// ISO-8601 UTC timestamp of the run.
    pub timestamp: String,
}

impl crate::json::ToJson for RecoveryReport {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("rows", Json::Int(self.rows as i64)),
            ("replay_open_ms", Json::Num(self.replay_open_ms)),
            ("checkpoint_open_ms", Json::Num(self.checkpoint_open_ms)),
            ("checkpoint_speedup", Json::Num(self.checkpoint_speedup)),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("timestamp", Json::Str(self.timestamp.clone())),
        ])
    }
}

fn schema() -> SchemaRef {
    std::sync::Arc::new(Schema::new(vec![
        Field::required("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]))
}

fn open(dir: &std::path::Path) -> Result<DurableSession> {
    DurableSession::open(EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        durability: DurabilityLevel::Async,
        ..EngineConfig::default()
    })
}

/// Build the recovery corpus at `Async` (clean drop flushes the queue),
/// then time a cold open against the pure-WAL store and the checkpointed
/// store.
pub fn run(cfg: &RecoveryConfig) -> Result<RecoveryReport> {
    let dir = TempDir::new("bench-recovery");
    {
        let sess = open(dir.path())?;
        let df = sess.create_table("t", schema(), 0, IndexConfig::default())?;
        let schema = schema();
        let mut v = 0i64;
        while (v as usize) < cfg.rows {
            let n = cfg.chunk_rows.min(cfg.rows - v as usize);
            let batch: Vec<Vec<Value>> = (v..v + n as i64)
                .map(|i| vec![Value::Int64(i % 100_000), Value::Int64(i)])
                .collect();
            df.table()
                .append_chunk(&Chunk::from_rows(&schema, &batch)?)?;
            v += n as i64;
        }
    }
    let start = Instant::now();
    let sess = open(dir.path())?;
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sess.dataframe("t")?.row_count(), cfg.rows);
    sess.checkpoint(Some("t"))?;
    drop(sess);
    let start = Instant::now();
    let sess = open(dir.path())?;
    let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sess.dataframe("t")?.row_count(), cfg.rows);
    Ok(RecoveryReport {
        rows: cfg.rows,
        replay_open_ms: replay_ms,
        checkpoint_open_ms: checkpoint_ms,
        checkpoint_speedup: replay_ms / checkpoint_ms.max(f64::MIN_POSITIVE),
        git_commit: crate::meta::git_commit(),
        timestamp: crate::meta::iso_timestamp(),
    })
}

/// Human-readable rendering of a [`RecoveryReport`].
pub fn render(r: &RecoveryReport) -> String {
    format!(
        "BENCH-recovery (corpus {} rows)\n\
         cold open             replay {:.1} ms | checkpoint {:.1} ms | speedup {:.1}x",
        r.rows, r.replay_open_ms, r.checkpoint_open_ms, r.checkpoint_speedup
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_report() {
        let cfg = RecoveryConfig {
            rows: 2_000,
            chunk_rows: 500,
        };
        let r = run(&cfg).unwrap();
        assert!(r.replay_open_ms > 0.0 && r.checkpoint_open_ms > 0.0);
        let json = crate::json::to_string_pretty(&r);
        for key in ["checkpoint_speedup", "replay_open_ms", "rows"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }
}
