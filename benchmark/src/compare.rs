//! `--compare A.json B.json`: two result sets, metric by metric.
//!
//! For every workload × end-to-end metric it prints both medians, the
//! relative difference, the bound and a verdict. `worse`: B's median is
//! worse than A's by more than the bound. `unresolved`: the run-to-run
//! spread of either set is wider than the bound, so the sets cannot
//! settle the question either way. `ok` otherwise.

use std::fs;

use serde_json::JsonValue;

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::{field, number};
use crate::stats::{median, spread};

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Median of set A.
    pub a: f64,
    /// Median of set B.
    pub b: f64,
    /// `(b - a) / a`, signed.
    pub diff: f64,
    /// The wider of the two sets' quartile spreads (0 for single runs).
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges `b` against `a` for metric `m`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Row> {
    let (ma, mb) = (median(a)?, median(b)?);
    let diff = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = match m.better {
        Better::Lower => diff,
        Better::Higher => -diff,
    };
    let spread = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let verdict = if spread > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some(Row {
        a: ma,
        b: mb,
        diff,
        spread,
        verdict,
    })
}

/// The values of `metric` on `workload` in a result set.
fn values(set: &JsonValue, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = field(set, "workloads")?
        .as_array()?
        .iter()
        .find(|w| field(w, "name").and_then(JsonValue::as_str) == Some(workload))?;
    field(field(field(w, "end_to_end")?, metric)?, "values")?
        .as_array()?
        .iter()
        .map(number)
        .collect()
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when no row is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<15} {:<15} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "diff", "spread", "bound"
    );
    let mut clean = true;
    let mut rows = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name, m.name), values(&b, w.name, m.name))
            else {
                continue;
            };
            let Some(row) = judge(&m, &va, &vb) else {
                continue;
            };
            rows += 1;
            clean &= row.verdict != Verdict::Worse;
            println!(
                "{:<15} {:<15} {:>14.3} {:>14.3} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                row.a,
                row.b,
                row.diff * 100.0,
                row.spread * 100.0,
                m.bound * 100.0,
                row.verdict.word()
            );
        }
    }
    if rows == 0 {
        return Err("the two result sets share no workload and metric".to_string());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn worse_means_beyond_the_bound_in_the_bad_direction() {
        let lower = metric(Better::Lower);
        assert_eq!(
            judge(&lower, &[100.0], &[109.0]).unwrap().verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &[100.0], &[111.0]).unwrap().verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower, &[100.0], &[50.0]).unwrap().verdict,
            Verdict::Ok
        );
        let higher = metric(Better::Higher);
        assert_eq!(
            judge(&higher, &[100.0], &[89.0]).unwrap().verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &[100.0], &[150.0]).unwrap().verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let lower = metric(Better::Lower);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let row = judge(&lower, &noisy, &[130.0, 131.0, 132.0]).unwrap();
        assert!(row.spread > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        let row = judge(&lower, &steady, &[130.0, 131.0, 132.0]).unwrap();
        assert_eq!(row.verdict, Verdict::Worse);
    }
}
