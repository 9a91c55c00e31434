//! Metric collection, failure accounting and the result line.

use std::fmt::Write as _;
use std::path::PathBuf;

use uq_parallel::{chrome_trace, Tracer};

use crate::closed_loop::SetUps;
use crate::stats;

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Operations attempted and failed. A failed operation is any job that
/// panicked, was refused, or whose output missed its correctness check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation with its check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }
}

/// The final stdout line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit. A run is correct when at
/// least one operation ran, none failed and every value is finite.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.attempted > 0 && tally.failed == 0 && finite;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // non-finite values are not JSON; they already made the run
        // incorrect above
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// The end-to-end metrics of an untraced run: per-job wall times
/// (`tte`, of `noun`), the measured window and the set-up times. Job
/// times and the window are multiplied by `scale`, the window's run
/// share (see [`crate::host::Meter`]); each set-up by its own. Returns
/// them with report lines that give the shares and the unscaled
/// figures, so the scaling can be undone.
pub fn end_to_end(
    tte: &[f64],
    window_s: f64,
    scale: f64,
    setups: &SetUps,
    noun: &str,
) -> (Metrics, String) {
    let scaled: Vec<f64> = tte.iter().map(|t| t * scale).collect();
    let tail = stats::tail(&scaled);
    let setup_shares: Vec<f64> = setups
        .scaled
        .iter()
        .zip(&setups.raw)
        .map(|(s, r)| s / r)
        .collect();
    let mut text = format!(
        "tte_tail_s is the p{:.1} of {} {noun}\n\
         run share (CPU / (CPU + steal)) {scale:.4} in the window, {setup_shares:.4?} in the \
         set-ups; unscaled: tte_s {:.6} s, tte_tail_s {:.6} s, jobs_per_s {:.6}, setup_s {:.6} s\n",
        tail.percentile,
        tail.n,
        stats::median(tte),
        stats::tail(tte).value,
        tte.len() as f64 / window_s,
        stats::median(&setups.raw),
    );
    if tte.len() <= 20 {
        text.push_str(&format!("unscaled tte_s of the {noun}: {tte:.3?}\n"));
    }
    let mut m = Metrics::default();
    m.push("tte_s", stats::median(&scaled), "s");
    m.push("tte_tail_s", tail.value, "s");
    m.push(
        "jobs_per_s",
        tte.len() as f64 / (window_s * scale),
        "jobs/s",
    );
    m.push("setup_s", stats::median(&setups.scaled), "s");
    (m, text)
}

/// Write the Chrome trace (Perfetto-loadable) of a traced run's spans
/// that start before `until` (epoch seconds; the first traced job keeps
/// the file a few MB) under [`out_dir`], and return a report line
/// naming it.
pub fn write_chrome_trace(
    workload: &str,
    seed: u64,
    until: f64,
    processes: &[(&str, &Tracer)],
) -> String {
    let heads: Vec<(&str, Tracer)> = processes
        .iter()
        .map(|&(label, tracer)| {
            let head = Tracer::with_epoch(tracer.epoch());
            for e in tracer.events().into_iter().filter(|e| e.start < until) {
                head.record(e.rank, e.kind, e.start, e.end);
            }
            (label, head)
        })
        .collect();
    let refs: Vec<(&str, &Tracer)> = heads.iter().map(|(l, t)| (*l, t)).collect();
    let path = out_dir().join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, chrome_trace(&refs)).expect("write the Chrome trace");
    format!(
        "chrome trace of the spans before t = {until:.2} s: {}\n",
        path.display()
    )
}

/// Where run artifacts (reports, Chrome traces, service stores) go:
/// `out/` beside this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(Err("digest mismatch".into()));
        let mut m = Metrics::default();
        m.push("tte_s", 1.5, "s");
        let line = result_line(&tally, &m);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(line.contains("\"tte_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        let mut m = Metrics::default();
        m.push("tte_s", f64::NAN, "s");
        assert!(result_line(&tally, &m).starts_with("{\"correct\": false"));
    }
}
