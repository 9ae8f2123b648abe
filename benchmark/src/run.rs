//! The measuring loop shared by the four workloads: a run clock with a
//! warm-up and a timed phase, per-thread tallies, the closed loop that
//! drives one client, and the summary every workload reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use idf_engine::types::Value;

use crate::json::Json;
use crate::ops::{Class, Op};
use crate::stats::{self, Lateness, WindowedTail};

/// Warm-up before every timed phase, in seconds (caches fill, lazy
/// set-up finishes, connections settle).
pub const WARMUP_S: f64 = 1.0;
/// Width of the windows `read_p99_us`/`write_p99_us` are taken over.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// One executed statement in this many is kept for the output check.
pub const CHECK_EVERY: u64 = 64;
/// At most this many kept statements are replayed by the output check.
pub const CHECK_CAP: usize = 192;

/// The clock of one run. Operations that start in the warm-up or end
/// after the timed phase are executed but not recorded.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    warm_ns: u64,
    end_ns: u64,
}

impl Clock {
    pub fn start(seconds: f64) -> Clock {
        let warm_ns = (WARMUP_S * 1e9) as u64;
        Clock {
            origin: Instant::now(),
            warm_ns,
            end_ns: warm_ns + (seconds * 1e9) as u64,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn finished(&self, now_ns: u64) -> bool {
        now_ns >= self.end_ns
    }

    /// Whether an operation spanning `start..end` counts.
    pub fn counts(&self, start_ns: u64, end_ns: u64) -> bool {
        start_ns >= self.warm_ns && end_ns <= self.end_ns
    }

    /// Nanoseconds into the timed phase.
    pub fn timed_ns(&self, at_ns: u64) -> u64 {
        at_ns.saturating_sub(self.warm_ns)
    }

    pub fn timed_seconds(&self) -> f64 {
        self.timed_phase_ns() as f64 / 1e9
    }

    pub fn timed_phase_ns(&self) -> u64 {
        self.end_ns - self.warm_ns
    }

    /// Sleep until `at_ns` on this clock.
    pub fn sleep_until(&self, at_ns: u64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }

    /// A quarter into the timed phase: where `served-mixed` checkpoints.
    /// Write-back of the checkpoint slows the next few seconds; this
    /// early, the median window is one of the undisturbed majority.
    pub fn first_quarter_ns(&self) -> u64 {
        self.warm_ns + (self.end_ns - self.warm_ns) / 4
    }
}

/// One recorded latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns into the timed phase.
    pub at_ns: u64,
    pub latency_ns: u64,
    pub class: Class,
}

/// A statement kept for the output check, with the rows it returned.
pub type Kept = (String, Vec<Vec<Value>>);

/// What one client thread saw during the timed phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    /// Operations started in the timed phase.
    pub attempted: u64,
    /// Operations that completed in the timed phase.
    pub completed: u64,
    /// Operations that failed, were refused, or failed their check.
    pub failed: u64,
    /// Of the failed: typed `ServerBusy`/`QuotaExceeded` refusals.
    pub refused: u64,
    pub kept: Vec<Kept>,
    pub lateness: Option<Lateness>,
    /// First few failure messages, for the operator.
    pub errors: Vec<String>,
}

impl Tally {
    /// The tally of a client thread that was lost before it could report.
    pub fn lost(message: &str) -> Tally {
        let mut tally = Tally {
            attempted: 1,
            ..Tally::default()
        };
        tally.fail(message);
        tally
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message.into());
        }
    }
}

/// How one operation ended.
pub enum Outcome {
    /// Completed; rows are returned when the caller asked to keep them.
    Done(Option<Vec<Vec<Value>>>),
    /// Refused by admission control (`ServerBusy`/`QuotaExceeded`).
    Refused,
    /// Failed; `fatal` means the client cannot continue.
    Failed { message: String, fatal: bool },
}

/// Drive one closed-loop client until the clock runs out: the next
/// operation is issued only after the previous one returned, as a caller
/// waiting for a reply would.
pub fn closed_loop(
    clock: &Clock,
    mut next: impl FnMut() -> Op,
    mut exec: impl FnMut(&Op, bool) -> Outcome,
) -> Tally {
    let mut tally = Tally::default();
    let mut issued = 0u64;
    loop {
        let op = next();
        let keep_rows = issued.is_multiple_of(CHECK_EVERY);
        issued += 1;
        let start = clock.now_ns();
        if clock.finished(start) {
            break;
        }
        let outcome = exec(&op, keep_rows);
        let end = clock.now_ns();
        if !clock.counts(start, end) {
            if matches!(outcome, Outcome::Failed { fatal: true, .. }) {
                tally.attempted += 1;
                tally.fail("client lost its connection outside the timed phase");
                break;
            }
            continue;
        }
        tally.attempted += 1;
        match outcome {
            Outcome::Done(rows) => {
                tally.completed += 1;
                tally.samples.push(Sample {
                    at_ns: clock.timed_ns(end),
                    latency_ns: end - start,
                    class: op.class(),
                });
                if let (Some(rows), Op::Query { sql, .. }) = (rows, &op) {
                    tally.kept.push((sql.clone(), rows));
                }
            }
            Outcome::Refused => {
                tally.refused += 1;
                tally.fail("refused by admission control");
            }
            Outcome::Failed { message, fatal } => {
                tally.fail(message);
                if fatal {
                    break;
                }
            }
        }
    }
    tally
}

/// p50 and windowed tail of one group of samples.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    pub samples: usize,
    pub p50_us: f64,
    pub tail: Option<WindowedTail>,
}

impl LatencyStats {
    pub fn of(samples: &[&Sample]) -> Option<LatencyStats> {
        let mut latencies: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        latencies.sort_unstable();
        let p50 = stats::percentile(&latencies, 0.5)?;
        let timed: Vec<(u64, u64)> = samples.iter().map(|s| (s.at_ns, s.latency_ns)).collect();
        Some(LatencyStats {
            samples: latencies.len(),
            p50_us: p50 as f64 / 1e3,
            tail: stats::windowed_tail(&timed, WINDOW_NS, 0.99),
        })
    }

    pub fn p99_us(&self) -> Option<f64> {
        self.tail.as_ref().map(|t| t.value / 1e3)
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("samples".to_string(), Json::Int(self.samples as i64)),
            ("p50_us".to_string(), Json::Num(self.p50_us)),
        ];
        if let Some(tail) = &self.tail {
            pairs.push(("p99_us".to_string(), Json::Num(tail.value / 1e3)));
            pairs.push(("p99_windows".to_string(), Json::Int(tail.windows as i64)));
            pairs.push((
                "p99_percentile_used".to_string(),
                Json::Num(tail.effective_q),
            ));
        }
        Json::Obj(pairs)
    }
}

/// The timed phase of one workload, merged over its client threads.
#[derive(Debug)]
pub struct Summary {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub refused: u64,
    pub reads: Option<LatencyStats>,
    pub writes: Option<LatencyStats>,
    pub classes: BTreeMap<Class, LatencyStats>,
    /// Operations completed in each window of the timed phase.
    pub window_ops: Vec<u64>,
    /// Median read latency (µs) of each window.
    pub window_read_p50_us: Vec<f64>,
    pub kept: Vec<Kept>,
    pub lateness: Option<Lateness>,
    pub errors: Vec<String>,
}

impl Summary {
    pub fn merge(tallies: Vec<Tally>, timed_ns: u64) -> Summary {
        let mut all: Vec<Sample> = Vec::new();
        let mut summary = Summary {
            attempted: 0,
            completed: 0,
            failed: 0,
            refused: 0,
            reads: None,
            writes: None,
            classes: BTreeMap::new(),
            window_ops: Vec::new(),
            window_read_p50_us: Vec::new(),
            kept: Vec::new(),
            lateness: None,
            errors: Vec::new(),
        };
        for mut tally in tallies {
            summary.attempted += tally.attempted;
            summary.completed += tally.completed;
            summary.failed += tally.failed;
            summary.refused += tally.refused;
            all.append(&mut tally.samples);
            summary.kept.append(&mut tally.kept);
            summary.lateness = summary.lateness.or(tally.lateness);
            summary.errors.append(&mut tally.errors);
        }
        let reads: Vec<&Sample> = all.iter().filter(|s| !s.class.is_write()).collect();
        let writes: Vec<&Sample> = all.iter().filter(|s| s.class.is_write()).collect();
        // Whole windows only: a trailing part-window would read as a slow one.
        let mut windows: BTreeMap<u64, (u64, Vec<u64>)> = BTreeMap::new();
        let whole = (timed_ns / WINDOW_NS).max(1);
        for sample in all.iter().filter(|s| s.at_ns / WINDOW_NS < whole) {
            let window = windows.entry(sample.at_ns / WINDOW_NS).or_default();
            window.0 += 1;
            if !sample.class.is_write() {
                window.1.push(sample.latency_ns);
            }
        }
        for (ops, mut read_latencies) in windows.into_values() {
            read_latencies.sort_unstable();
            summary.window_ops.push(ops);
            if let Some(p50) = stats::percentile(&read_latencies, 0.5) {
                summary.window_read_p50_us.push(p50 as f64 / 1e3);
            }
        }
        summary.reads = LatencyStats::of(&reads);
        summary.writes = LatencyStats::of(&writes);
        for class in Class::ALL {
            let of_class: Vec<&Sample> = all.iter().filter(|s| s.class == class).collect();
            if let Some(stats) = LatencyStats::of(&of_class) {
                summary.classes.insert(class, stats);
            }
        }
        summary
    }

    /// Operations per second in the median window. Interference from
    /// outside the program comes in bursts of seconds; the median window
    /// is a steadier yardstick than the mean over the run, which the
    /// diagnostics also report.
    pub fn median_window_ops_per_s(&self) -> Option<f64> {
        let per_window: Vec<f64> = self.window_ops.iter().map(|&n| n as f64).collect();
        Some(stats::median(&per_window)? * 1e9 / WINDOW_NS as f64)
    }

    /// Median over windows of each window's median read latency (µs).
    pub fn median_window_read_p50_us(&self) -> Option<f64> {
        stats::median(&self.window_read_p50_us)
    }

    /// The kept statements the output check replays: an even stride over
    /// everything kept, capped so the check's cost does not depend on
    /// how fast the run was.
    pub fn check_sample(&self) -> Vec<&Kept> {
        let stride = self.kept.len().div_ceil(CHECK_CAP).max(1);
        self.kept.iter().step_by(stride).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(class: Class) -> Op {
        Op::Query {
            class,
            sql: "SELECT 1".to_string(),
            key: 0,
        }
    }

    #[test]
    fn clock_counts_only_the_timed_phase() {
        let clock = Clock::start(2.0);
        let warm = (WARMUP_S * 1e9) as u64;
        assert!(!clock.counts(warm - 1, warm + 10));
        assert!(clock.counts(warm, warm + 10));
        assert!(!clock.counts(warm + 10, warm + 2_000_000_001));
        assert!(clock.finished(warm + 2_000_000_000));
        assert_eq!(clock.timed_ns(warm + 5), 5);
        assert_eq!(clock.timed_seconds(), 2.0);
    }

    #[test]
    fn closed_loop_counts_refusals_and_failures_as_failed() {
        // A clock whose warm-up is already over and that ends soon.
        let clock = Clock {
            origin: Instant::now(),
            warm_ns: 0,
            end_ns: 50_000_000,
        };
        let mut n = 0u64;
        let tally = closed_loop(
            &clock,
            || query(Class::Lookup),
            |_, keep| {
                n += 1;
                match n {
                    1 => Outcome::Done(keep.then(Vec::new)),
                    2 => Outcome::Refused,
                    3 => Outcome::Failed {
                        message: "boom".into(),
                        fatal: false,
                    },
                    _ => Outcome::Failed {
                        message: "gone".into(),
                        fatal: true,
                    },
                }
            },
        );
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.completed, 1);
        assert_eq!(tally.failed, 3);
        assert_eq!(tally.refused, 1);
        assert_eq!(tally.kept.len(), 1, "the first statement is kept");
        assert_eq!(tally.samples.len(), 1);
    }

    #[test]
    fn summary_splits_reads_from_writes_and_strides_the_check_sample() {
        let mut tally = Tally::default();
        for i in 0..40u64 {
            tally.samples.push(Sample {
                at_ns: i,
                latency_ns: 1_000 + i,
                class: if i % 4 == 0 {
                    Class::Insert
                } else {
                    Class::Lookup
                },
            });
        }
        tally.kept = (0..1000).map(|i| (format!("q{i}"), Vec::new())).collect();
        let summary = Summary::merge(vec![tally], WINDOW_NS);
        assert_eq!(summary.reads.as_ref().unwrap().samples, 30);
        assert_eq!(summary.writes.as_ref().unwrap().samples, 10);
        assert_eq!(summary.classes.len(), 2);
        let sample = summary.check_sample();
        assert!(sample.len() <= CHECK_CAP && sample.len() > CHECK_CAP / 2);
        assert_eq!(sample[0].0, "q0");
    }

    #[test]
    fn window_medians_ignore_one_slow_window_and_a_trailing_part_window() {
        let mut tally = Tally::default();
        // Windows 0 and 2: 100 reads of 10 µs; window 1 stalls: 10 reads
        // of 900 µs; window 3 is only part of a window (timed 3.5 windows).
        for (window, ops, latency) in [
            (0, 100, 10_000),
            (1, 10, 900_000),
            (2, 100, 10_000),
            (3, 7, 10_000),
        ] {
            for i in 0..ops {
                tally.samples.push(Sample {
                    at_ns: window * WINDOW_NS + i,
                    latency_ns: latency,
                    class: Class::Lookup,
                });
            }
        }
        let summary = Summary::merge(vec![tally], WINDOW_NS * 7 / 2);
        assert_eq!(summary.window_ops, vec![100, 10, 100]);
        assert_eq!(summary.median_window_ops_per_s(), Some(100.0));
        assert_eq!(summary.median_window_read_p50_us(), Some(10.0));
    }
}
