//! `--aa`: the same build measured against itself. Every workload's
//! timed phase runs `ROUNDS` times, the order of workloads alternating
//! between rounds; a metric whose two halves (odd and even rounds)
//! disagree beyond its bound cannot tell a regression from noise.

use idf_engine::error::Result;

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::workloads::{RunConfig, WORKLOADS};
use crate::{end_to_end, measure_named, stamp, END_TO_END};

pub const ROUNDS: usize = 5;
/// The bound every metric starts at; one that cannot hold it is listed
/// for demotion (or carries a wider, measured bound in BENCHMARK.json).
pub const STARTING_BOUND: f64 = 0.10;

/// Relative disagreement between the medians of two halves.
pub fn disagreement(a: &[f64], b: &[f64]) -> Option<f64> {
    let (a, b) = (median(a)?, median(b)?);
    let mean = (a + b) / 2.0;
    (mean != 0.0).then(|| (a - b).abs() / mean.abs())
}

/// Run the self-check over `only` (or every workload); `false` when any
/// gated metric's halves disagree beyond its bound or a run is incorrect.
pub fn run(only: Option<&str>, cfg: &RunConfig) -> Result<bool> {
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    // values[workload][metric][round]
    let mut values = vec![vec![Vec::with_capacity(ROUNDS); END_TO_END.len()]; workloads.len()];
    let mut all_correct = true;
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!("# aa round {} of {ROUNDS}: {}", round + 1, workloads[w]);
            let (setup_s, measured) = measure_named(workloads[w], cfg, 1)?;
            if measured.summary.failed + measured.checks.failed > 0 {
                all_correct = false;
                eprintln!(
                    "#   failed operations or checks: {:?}",
                    measured.summary.errors
                );
            }
            for (slot, metric) in values[w].iter_mut().zip(end_to_end(&setup_s, &measured)) {
                slot.push(metric.value);
            }
        }
    }
    let mut agree = true;
    let mut demotions = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        let mut metrics = Vec::new();
        eprintln!("{workload}");
        eprintln!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
            "metric", "q1", "median", "q3", "spread", "halves", "bound"
        );
        for (m, &(name, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let runs = &values[w][m];
            let [q1, q2, q3] = quartiles(runs).unwrap_or([f64::NAN; 3]);
            let iqr_share = spread(runs).unwrap_or(f64::NAN);
            let odd: Vec<f64> = runs.iter().copied().step_by(2).collect();
            let even: Vec<f64> = runs.iter().copied().skip(1).step_by(2).collect();
            let halves = disagreement(&odd, &even).unwrap_or(f64::NAN);
            // NaN (a metric that could not be measured) never agrees.
            let within = halves <= bound;
            agree &= within;
            if iqr_share.is_nan() || iqr_share > STARTING_BOUND {
                demotions.push(format!(
                    "{workload}/{name}: spread {:.1} % (bound in use {:.0} %)",
                    iqr_share * 100.0,
                    bound * 100.0
                ));
            }
            eprintln!(
                "  {name:<18} {q1:>12.3} {q2:>12.3} {q3:>12.3} {:>7.1}% {:>7.1}% {:>5.0}%{}",
                iqr_share * 100.0,
                halves * 100.0,
                bound * 100.0,
                if within { "" } else { "  DISAGREE" }
            );
            metrics.push((
                name.to_string(),
                Json::obj([
                    ("unit", Json::str(unit)),
                    (
                        "runs",
                        Json::Arr(runs.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                    ("q1", Json::Num(q1)),
                    ("median", Json::Num(q2)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(iqr_share)),
                    ("halves_disagreement", Json::Num(halves)),
                    ("bound", Json::Num(bound)),
                    ("within_bound", Json::Bool(within)),
                ]),
            ));
        }
        let mut report = stamp(workload, cfg, false);
        report.push(("aa_rounds".to_string(), Json::Int(ROUNDS as i64)));
        report.push(("metrics".to_string(), Json::Obj(metrics)));
        println!("{}", Json::Obj(report).render());
    }
    eprintln!(
        "metrics that did not repeat within {:.0} %:",
        STARTING_BOUND * 100.0
    );
    if demotions.is_empty() {
        eprintln!("  none");
    }
    for line in &demotions {
        eprintln!("  {line}");
    }
    println!(
        "{}",
        Json::obj([
            ("aa_agree", Json::Bool(agree)),
            ("aa_correct", Json::Bool(all_correct)),
            (
                "did_not_hold_starting_bound",
                Json::Arr(demotions.iter().map(Json::str).collect()),
            ),
        ])
        .render()
    );
    Ok(agree && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_disagree_by_the_gap_between_their_medians() {
        assert_eq!(
            disagreement(&[100.0, 100.0, 100.0], &[100.0, 100.0]),
            Some(0.0)
        );
        let d = disagreement(&[90.0, 95.0, 200.0], &[105.0, 105.0]).unwrap();
        assert!((d - 0.1).abs() < 1e-12, "{d}");
        assert_eq!(disagreement(&[], &[1.0]), None);
    }
}
