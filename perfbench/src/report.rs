//! Sample summaries and the two renderings of a result: human-readable
//! lines, and the one-line JSON object the benchmark ends with.

use std::fmt::Write as _;
use std::time::Duration;

/// Repeated measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// Percentiles tried, highest first, for the tail a timing reports.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

impl Samples {
    /// Records one value.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Records one duration, in seconds.
    pub fn push_secs(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The arithmetic mean; NaN when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle two for an even count); NaN when
    /// empty.
    #[must_use]
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest of [`TAIL_PERCENTILES`] with at least ten samples
    /// beyond it, as `(percentile, nearest-rank value)`.
    #[must_use]
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        TAIL_PERCENTILES.iter().find_map(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value (the median, for a timing).
    pub value: f64,
    /// For a timing: `(percentile, value, sample count)`.
    pub tail: Option<(Option<(f64, f64)>, usize)>,
    /// Whether the metric goes into the result object (otherwise it is
    /// printed for context only).
    pub in_result: bool,
}

/// A pass's result: metrics plus the count of checked runs.
#[derive(Debug, Clone)]
pub struct Report {
    /// Runs whose result was checked.
    pub attempted: u64,
    /// Checked runs that errored or ended in a wrong final state.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (failures, host facts).
    pub notes: Vec<String>,
}

impl Default for Report {
    fn default() -> Report {
        Report::new()
    }
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked run; a failed check records `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(format!("FAILED: {}", why()));
            }
        }
    }

    /// Reports a timing as its median, with its tail and sample count.
    pub fn timing(&mut self, name: &'static str, unit: &'static str, samples: &Samples) {
        self.push(
            name,
            unit,
            samples.median(),
            Some((samples.tail(), samples.len())),
            true,
        );
    }

    /// Reports a single value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, value, None, true);
    }

    /// Prints a timing like [`Report::timing`], but leaves it out of the
    /// result object.
    pub fn context_timing(&mut self, name: &'static str, unit: &'static str, samples: &Samples) {
        self.push(
            name,
            unit,
            samples.median(),
            Some((samples.tail(), samples.len())),
            false,
        );
    }

    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        tail: Option<(Option<(f64, f64)>, usize)>,
        in_result: bool,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            tail,
            in_result,
        });
    }

    /// Failed runs over attempted runs.
    #[must_use]
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Correct when something ran, nothing failed, and every metric is a
    /// finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// One line per metric, then the notes and the failure count.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<40} {:>16.6} {:<10}", m.name, m.value, m.unit);
            if let Some((tail, n)) = m.tail {
                let _ = write!(out, " median");
                if let Some((p, v)) = tail {
                    let _ = write!(out, ", p{p} {v:.6}");
                }
                let _ = write!(out, ", n={n}");
            }
            if !m.in_result {
                out.push_str(" (context, not in the result)");
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16.6} ratio      ({} failed of {} runs)",
            "fail_rate",
            self.fail_rate(),
            self.failed,
            self.attempted
        );
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().filter(|m| m.in_result).enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_the_sample_count() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.median(), 50.5);
        // 100 samples: p90 leaves exactly ten beyond it, p95 only five.
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        let mut few = Samples::default();
        few.push(1.0);
        assert_eq!(few.tail(), None);
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut r = Report::new();
        r.check(true, String::new);
        r.value("setup_s", "s", 0.25);
        assert_eq!(
            r.render_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
