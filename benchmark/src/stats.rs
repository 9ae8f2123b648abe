//! The statistics the benchmark owns: percentiles under the "ten samples
//! beyond" rule, windowed tails, Python-compatible quartiles, the paced
//! generator's lateness accounting, and the multiset comparator used by
//! the output checks.

use idf_engine::types::Value;

/// A percentile is only reported when at least this many samples lie
/// beyond it, so one outlier cannot set the reported tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `q`-percentile, lowered to the highest percentile that still has
/// [`MIN_BEYOND`] samples beyond it. Returns the percentile actually used
/// and its value; `None` when no percentile qualifies.
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = wanted.min(n - 1 - MIN_BEYOND);
    Some(((index + 1) as f64 / n as f64, sorted[index]))
}

/// Median of ascending-or-not floats (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A tail latency summarised over fixed windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedTail {
    /// Median over windows of each window's tail percentile.
    pub value: f64,
    /// Windows that had enough samples to report a tail.
    pub windows: usize,
    /// The lowest percentile any window had to fall back to.
    pub effective_q: f64,
}

/// Split `(completion time, latency)` samples into `window`-wide windows,
/// take each window's `q` tail under the ten-beyond rule, and report the
/// median of those tails: one stall moves one window, not the metric.
pub fn windowed_tail(samples: &[(u64, u64)], window: u64, q: f64) -> Option<WindowedTail> {
    let mut buckets: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for &(at, latency) in samples {
        buckets.entry(at / window.max(1)).or_default().push(latency);
    }
    let mut tails = Vec::new();
    let mut effective_q = q;
    for bucket in buckets.values_mut() {
        bucket.sort_unstable();
        if let Some((used, value)) = tail_percentile(bucket, q) {
            tails.push(value as f64);
            effective_q = effective_q.min(used);
        }
    }
    Some(WindowedTail {
        value: median(&tails)?,
        windows: tails.len(),
        effective_q,
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) —
/// the driver computes spreads with that function, so `--aa` must too.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A fixed-rate schedule for the open-loop appender: operation `i` is due
/// at `i / rate` regardless of how long earlier operations took.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    interval_ns: u64,
}

impl Pacer {
    pub fn per_second(rate: u64) -> Pacer {
        Pacer {
            interval_ns: 1_000_000_000 / rate.max(1),
        }
    }

    /// When operation `i` is due, in ns since the schedule started.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }
}

/// How late a paced generator ran: an honest open-loop report says so
/// instead of silently sending less load.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lateness {
    pub ops: u64,
    /// Operations started more than one interval after they were due.
    pub late_ops: u64,
    pub max_ns: u64,
    pub total_ns: u64,
}

impl Lateness {
    /// Account one operation due at `due_ns` and started at `started_ns`.
    pub fn record(&mut self, pacer: &Pacer, due_ns: u64, started_ns: u64) {
        let late = started_ns.saturating_sub(due_ns);
        self.ops += 1;
        self.total_ns += late;
        self.max_ns = self.max_ns.max(late);
        if late > pacer.interval_ns {
            self.late_ops += 1;
        }
    }

    pub fn late_share(&self) -> f64 {
        self.late_ops as f64 / self.ops.max(1) as f64
    }

    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.ops.max(1) as f64 / 1e3
    }
}

/// Whether two row sets are equal as multisets (row order ignored,
/// duplicates counted). `Value`'s ordering is total, NULL first.
pub fn multiset_eq(mut a: Vec<Vec<Value>>, mut b: Vec<Vec<Value>>) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.sort();
    b.sort();
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 2000 samples: p99 is index 1979 with 20 beyond it — allowed.
        let big: Vec<u64> = (0..2000).collect();
        assert_eq!(tail_percentile(&big, 0.99), Some((0.99, 1979)));
        // 100 samples: p99 would leave one beyond; fall back to the
        // 90th sample (index 89, ten beyond).
        let small: Vec<u64> = (0..100).collect();
        assert_eq!(tail_percentile(&small, 0.99), Some((0.9, 89)));
        // Exactly 1000: p99 is index 989 with exactly ten beyond.
        let exact: Vec<u64> = (0..1000).collect();
        assert_eq!(tail_percentile(&exact, 0.99), Some((0.99, 989)));
        // Ten or fewer samples support no tail at all.
        assert_eq!(tail_percentile(&(0..10).collect::<Vec<u64>>(), 0.99), None);
        // Eleven support only the minimum.
        assert_eq!(
            tail_percentile(&(0..11).collect::<Vec<u64>>(), 0.99),
            Some((1.0 / 11.0, 0))
        );
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 1000 samples; the middle one holds a stall.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let latency = if w == 1 && i >= 900 { 10_000 } else { 100 + w };
                samples.push((w * 1_000 + i, latency));
            }
        }
        let t = windowed_tail(&samples, 1_000, 0.99).unwrap();
        assert_eq!(t.windows, 3);
        assert_eq!(t.effective_q, 0.99);
        // Window tails are 100, 10000, 102: the stall does not set the metric.
        assert_eq!(t.value, 102.0);
        // A window too small to report is skipped, and the fallback shows.
        samples.push((5_000, 1));
        assert_eq!(windowed_tail(&samples, 1_000, 0.99).unwrap().windows, 3);
        let sparse: Vec<(u64, u64)> = (0..50).map(|i| (i, i)).collect();
        let t = windowed_tail(&sparse, 1_000, 0.99).unwrap();
        assert_eq!((t.value, t.effective_q), (39.0, 0.8));
        assert_eq!(windowed_tail(&[], 1_000, 0.99), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn pacer_lateness_accounting() {
        let pacer = Pacer::per_second(20_000);
        assert_eq!(pacer.due_ns(0), 0);
        assert_eq!(pacer.due_ns(3), 150_000);
        let mut late = Lateness::default();
        late.record(&pacer, 0, 0); // on time
        late.record(&pacer, 50_000, 60_000); // 10 µs late: within one interval
        late.record(&pacer, 100_000, 400_000); // stalled: 300 µs late
        late.record(&pacer, 150_000, 140_000); // early counts as on time
        assert_eq!(late.ops, 4);
        assert_eq!(late.late_ops, 1);
        assert_eq!(late.max_ns, 300_000);
        assert_eq!(late.total_ns, 310_000);
        assert_eq!(late.late_share(), 0.25);
        assert_eq!(late.mean_us(), 77.5);
    }

    #[test]
    fn multiset_comparison_ignores_order_and_counts_duplicates() {
        let row = |a: i64, b: &str| vec![Value::Int64(a), Value::Utf8(b.to_string())];
        let a = vec![row(1, "x"), row(2, "y"), row(1, "x")];
        let b = vec![row(2, "y"), row(1, "x"), row(1, "x")];
        assert!(multiset_eq(a.clone(), b));
        // Same distinct rows, different multiplicities.
        let c = vec![row(1, "x"), row(2, "y"), row(2, "y")];
        assert!(!multiset_eq(a.clone(), c));
        assert!(!multiset_eq(a, vec![row(1, "x")]));
        // NULLs compare equal to NULLs.
        assert!(multiset_eq(
            vec![vec![Value::Null, Value::Int64(1)]],
            vec![vec![Value::Null, Value::Int64(1)]]
        ));
        assert!(multiset_eq(vec![], vec![]));
    }
}
