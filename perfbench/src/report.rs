//! The run's result: a table for people, then one JSON line for tools.

use std::collections::HashMap;

use crate::stats::Samples;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the number was computed from (for timings and
    /// rates), when that is meaningful.
    pub samples: Option<usize>,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operations and checks issued.
    pub attempted: u64,
    /// Operations and checks whose result was wrong, plus missed deadlines.
    pub failed: u64,
    /// Conditions that fail the whole run.
    pub run_failures: Vec<String>,
    /// Remarks printed with the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    /// Adds the median and the tail percentile `q` of `samples` as two
    /// metrics in `unit_ns` nanoseconds per unit. When too few samples exist
    /// for `q`, the largest sample stands in and the run notes it.
    pub fn timing(
        &mut self,
        base: &str,
        tail: &str,
        q: f64,
        samples: &mut Samples,
        unit: &'static str,
        unit_ns: f64,
    ) {
        let n = samples.len();
        let p50 = samples.percentile(0.5);
        let pq = samples.percentile(q);
        if pq.is_none() {
            self.notes.push(format!(
                "{base}_{tail}: only {n} samples, reporting the largest sample instead"
            ));
        }
        let p50 = p50.or_else(|| samples.percentile(1.0)).unwrap_or(0);
        let pq = pq.or_else(|| samples.percentile(1.0)).unwrap_or(0);
        self.e2e(
            &format!("{base}_p50_{unit}"),
            p50 as f64 / unit_ns,
            unit,
            Some(n),
        );
        self.e2e(
            &format!("{base}_{tail}_{unit}"),
            pq as f64 / unit_ns,
            unit,
            Some(n),
        );
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("failed: {what}"));
        }
    }

    /// Records a condition that fails the whole run.
    pub fn fail_run(&mut self, what: String) {
        self.run_failures.push(what);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures.is_empty()
    }
}

/// Formats a number as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Reads the metric values back from a [`result_line`].
pub fn parse_result_line(line: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let Some(start) = line.find("\"metrics\"") else {
        return out;
    };
    let mut rest = &line[start + "\"metrics\"".len()..];
    while let Some(q) = rest.find("\": {\"value\": ") {
        let name_start = rest[..q].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..q].to_string();
        let tail = &rest[q + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.insert(name, v);
        }
        rest = &tail[end..];
    }
    out
}

/// The human-readable table: one metric per line, with unit, sample count
/// and — for per-layer metrics — what the metric should move.
pub fn table(title: &str, metrics: &[Metric], moves: &dyn Fn(&str) -> Option<String>) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let samples = m.samples.map(|n| format!("n={n}")).unwrap_or_default();
        let why = moves(&m.name).unwrap_or_default();
        out.push_str(&format!(
            "  {:<44} {:>16.4} {:<8} {:<10} {}\n",
            m.name, m.value, m.unit, samples, why
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    #[test]
    fn result_line_round_trips_values() {
        let metrics = vec![
            metric("setup_s", 6.123456789, "s"),
            metric("scan_meps", 130.25, "Melem/s"),
            metric("bench.tracing_overhead.get_p50_us", -0.03125, "us"),
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        let parsed = parse_result_line(&line);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed["setup_s"], 6.123456789);
        assert_eq!(parsed["scan_meps"], 130.25);
        assert_eq!(parsed["bench.tracing_overhead.get_p50_us"], -0.03125);
    }

    #[test]
    fn result_line_keeps_attempted_positive_and_numbers_finite() {
        let line = result_line(false, 0, 1, &[metric("x", f64::NAN, "s")]);
        assert!(line.contains("\"attempted\": 1"));
        assert!(line.contains("\"value\": 0.0"));
    }

    #[test]
    fn timing_reports_median_and_tail_with_sample_counts() {
        let mut out = Outcome::default();
        let mut s = Samples::default();
        for v in 1..=1000u64 {
            s.push(v * 1000);
        }
        out.timing("get", "p99", 0.99, &mut s, "us", 1e3);
        assert_eq!(out.e2e[0].name, "get_p50_us");
        assert_eq!(out.e2e[0].value, 500.0);
        assert_eq!(out.e2e[1].name, "get_p99_us");
        assert_eq!(out.e2e[1].value, 990.0);
        assert_eq!(out.e2e[1].samples, Some(1000));
        assert!(out.notes.is_empty());

        let mut few = Samples::default();
        for v in 1..=50u64 {
            few.push(v);
        }
        out.timing("scan", "p90", 0.9, &mut few, "ms", 1e6);
        assert_eq!(out.e2e[3].value, 50.0 / 1e6);
        assert_eq!(out.notes.len(), 1);
    }

    #[test]
    fn failures_decide_correctness() {
        let mut out = Outcome::default();
        assert!(out.correct());
        out.fail("get returned the wrong value".into());
        assert!(!out.correct());
        let mut run = Outcome::default();
        run.fail_run("flush did not return".into());
        assert!(!run.correct());
    }
}
