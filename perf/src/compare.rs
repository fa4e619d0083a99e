//! `perf compare <old.json> <new.json>`: the regression gate.
//!
//! Reads two reports written by a full run and applies each end-to-end
//! metric's bound per workload. One row per (metric, workload) with both
//! values and the ratio new/old. A row is *unresolved*, never passed or
//! failed, when either side's run was noisy (`noise.p50_over_p25` above
//! 1.25) or, for loopback, unpinned. The verdict fails on any regression
//! beyond its bound and on any workload whose share of failed operations
//! grew.

use crate::json::Value;
use crate::report::END_TO_END;

/// Above this, a run spent most of its rounds in the host's noisy level.
pub const NOISE_LIMIT: f64 = 1.25;

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Old value (the ratio's base).
    pub old: f64,
    /// New value.
    pub new: f64,
    /// `ok`, `REGRESSION` or `unresolved`.
    pub verdict: &'static str,
}

fn metric(report: &Value, workload: &str, name: &str) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn fail_share(report: &Value, workload: &str) -> f64 {
    let field = |k| {
        report
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    field("failed") / field("attempted").max(1.0)
}

fn noisy(report: &Value, workload: &str) -> bool {
    metric(report, workload, "noise.p50_over_p25").is_some_and(|n| n > NOISE_LIMIT)
        || (workload == "loopback"
            && report.get("fingerprint").and_then(|f| f.get("pinned_cpu")) == Some(&Value::Null))
}

/// Compares two reports. Returns the rows and whether the gate passes.
pub fn compare(old: &Value, new: &Value) -> (Vec<Row>, bool) {
    let mut rows = Vec::new();
    let mut pass = true;
    let workloads: Vec<String> = old
        .get("workloads")
        .and_then(Value::as_obj)
        .map(|w| w.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    for w in &workloads {
        let unresolved = noisy(old, w) || noisy(new, w);
        for &(name, _, better, bound) in &END_TO_END {
            let (Some(o), Some(n)) = (metric(old, w, name), metric(new, w, name)) else {
                continue;
            };
            let worse_by = if better == "higher" {
                (o - n) / o
            } else {
                (n - o) / o
            };
            let verdict = if unresolved {
                "unresolved"
            } else if worse_by > bound {
                pass = false;
                "REGRESSION"
            } else {
                "ok"
            };
            rows.push(Row {
                workload: w.clone(),
                metric: name.to_string(),
                old: o,
                new: n,
                verdict,
            });
        }
        let (o, n) = (fail_share(old, w), fail_share(new, w));
        let verdict = if n > o {
            pass = false;
            "REGRESSION"
        } else {
            "ok"
        };
        rows.push(Row {
            workload: w.clone(),
            metric: "fail_share".to_string(),
            old: o,
            new: n,
            verdict,
        });
    }
    (rows, pass)
}

/// The rows as a table: both values and new/old with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "old (base)", "new", "new/old"
    );
    for r in rows {
        let ratio = if r.old == 0.0 {
            f64::NAN
        } else {
            r.new / r.old
        };
        out.push_str(&format!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>8.3}  {}\n",
            r.workload, r.metric, r.old, r.new, ratio, r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn report(throughput: f64, p50: f64, failed: u64, noise: f64) -> Value {
        parse(&format!(
            r#"{{"fingerprint": {{"pinned_cpu": 1}}, "workloads": {{"spoof_flood": {{"attempted": 1000, "failed": {failed},
              "metrics": {{"throughput_per_s": {{"value": {throughput}, "unit": "1/s"}},
                           "op_p50_us": {{"value": {p50}, "unit": "us"}},
                           "noise.p50_over_p25": {{"value": {noise}, "unit": "ratio"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, &str)> {
        rows.iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn within_bound_passes_beyond_bound_fails_in_the_right_direction() {
        let base = report(1000.0, 1.0, 0, 1.02);
        let (rows, pass) = compare(&base, &report(900.0, 1.1, 0, 1.02));
        assert!(pass, "{rows:?}");
        assert_eq!(
            verdicts(&rows),
            [
                ("throughput_per_s", "ok"),
                ("op_p50_us", "ok"),
                ("fail_share", "ok")
            ]
        );
        // Throughput down 30 % is a regression; up 30 % is not.
        let (rows, pass) = compare(&base, &report(700.0, 1.0, 0, 1.02));
        assert!(!pass);
        assert_eq!(rows[0].verdict, "REGRESSION");
        assert!(compare(&base, &report(1300.0, 0.7, 0, 1.02)).1);
        // Latency up 30 % is a regression.
        assert!(!compare(&base, &report(1000.0, 1.3, 0, 1.02)).1);
    }

    #[test]
    fn noisy_runs_are_unresolved_and_new_failures_always_fail() {
        let base = report(1000.0, 1.0, 0, 1.02);
        let (rows, pass) = compare(&base, &report(500.0, 2.0, 0, 1.4));
        assert!(pass, "a noisy run proves nothing either way");
        assert_eq!(rows[0].verdict, "unresolved");
        let (rows, pass) = compare(&base, &report(1000.0, 1.0, 1, 1.02));
        assert!(!pass);
        assert_eq!(rows.last().unwrap().verdict, "REGRESSION");
        assert!(render(&rows).contains("fail_share"));
    }
}
