//! Splitting a traced run's core-seconds into layers.
//!
//! The budget is `nproc × wall` summed over the traced jobs, in
//! wall-clock core-seconds. It splits into:
//! * **eval** — forward evaluations, from the benchmark-side wrapper;
//! * **step self** — the `obs` chain-step spans (eval, burn-in, serve,
//!   speculate steps) minus the wrapper evals they contain: proposals,
//!   MH accept/reject, ledger bookkeeping;
//! * **unattributed** — the rest: workers waiting for coarse samples,
//!   messages or jobs, role protocols, executor polling, transport,
//!   service, and time the host did not run the process.
//!
//! The three parts add up to the budget by construction. Apart from the
//! split, **idle** is the share of the budget the process spent off-CPU
//! (`budget − process CPU`); spans are wall-clock, so on a host whose
//! other tenants take CPU, spans can cover more of the budget than the
//! process's CPU time does.

use uq_parallel::{Hist, SpanKind, TraceEvent, Tracer};

use crate::host;
use crate::layers::Layers;
use crate::probe::Probe;
use crate::stats::median;

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Attribution {
    pub budget_s: f64,
    pub eval_s: f64,
    pub step_s: f64,
    pub step_self_s: f64,
    pub idle_s: f64,
    pub unattributed_s: f64,
}

impl Attribution {
    pub fn frac(&self, part: f64) -> f64 {
        if self.budget_s > 0.0 {
            part / self.budget_s
        } else {
            0.0
        }
    }

    /// Human-readable table for the run report.
    pub fn table(&self) -> String {
        let rows = [
            ("forward eval (wrapper spans)", self.eval_s),
            ("chain steps, self (obs spans - evals)", self.step_self_s),
            ("unattributed (outside spans)", self.unattributed_s),
            ("of the budget: off-CPU (idle)", self.idle_s),
        ];
        let mut out = format!(
            "layer attribution over {:.3} core-seconds (nproc x wall of the traced jobs):\n",
            self.budget_s
        );
        for (name, s) in rows {
            out.push_str(&format!(
                "  {name:<40} {s:>10.3} s  {:>6.1} %\n",
                100.0 * self.frac(s)
            ));
        }
        out
    }
}

fn is_step(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::Eval { .. }
            | SpanKind::Burnin { .. }
            | SpanKind::Serve { .. }
            | SpanKind::Speculate { .. }
    )
}

/// Union of the step spans as sorted, disjoint intervals.
fn step_union(steps: &[TraceEvent]) -> Vec<(f64, f64)> {
    let mut spans: Vec<(f64, f64)> = steps
        .iter()
        .filter(|e| is_step(e.kind))
        .map(|e| (e.start, e.end))
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut union: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => union.push((s, e)),
        }
    }
    union
}

/// Attribute `budget_s` core-seconds given the run's `obs` spans
/// (`steps`), the wrapper's eval spans, the wrapper's total eval time
/// and the process CPU seconds spent over the same jobs. An eval counts as a step's child when it
/// lies inside the union of step spans; with several workers an eval
/// outside its own step but inside another worker's would be
/// misfiled, which only chain construction (one eval per chain, outside
/// any step) can cause.
pub fn attribute(
    steps: &[TraceEvent],
    evals: &[TraceEvent],
    eval_s: f64,
    budget_s: f64,
    cpu_s: f64,
) -> Attribution {
    let union = step_union(steps);
    let step_s: f64 = steps
        .iter()
        .filter(|e| is_step(e.kind))
        .map(|e| e.end - e.start)
        .sum();
    let mut inside_s = 0.0;
    for e in evals {
        let i = union.partition_point(|u| u.0 <= e.start);
        if i > 0 && e.end <= union[i - 1].1 {
            inside_s += e.end - e.start;
        }
    }
    let step_self_s = (step_s - inside_s).max(0.0);
    Attribution {
        budget_s,
        eval_s,
        step_s,
        step_self_s,
        idle_s: (budget_s - cpu_s).max(0.0),
        unattributed_s: budget_s - eval_s - step_self_s,
    }
}

/// The traced jobs of a run, as every workload sees them.
pub struct Traced<'a> {
    /// The run's `obs` tracer, for the role-latency histograms (disabled
    /// where the workload cannot hand one in).
    pub obs: &'a Tracer,
    /// Chain-step spans that are CPU time. The runtime's are: a step
    /// waiting for a coarse sample suspends and its resumption is a span
    /// of its own. The thread scheduler's are not: its steps block
    /// inside the span, so `net` passes none.
    pub steps: &'a [TraceEvent],
    pub probe: &'a Probe,
    /// `N_l` of one job.
    pub samples: &'a [usize],
    pub jobs: usize,
    /// Wall seconds the traced jobs covered.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval(s).
    pub cpu_s: f64,
    pub traced_tte: &'a [f64],
    pub untraced_tte: &'a [f64],
}

/// Fill the layers every workload measures the same way — forward
/// evals per level, evals per sample, the role latencies, the
/// attribution and the tracing overhead — and return the attribution
/// table.
pub fn record_traced(layers: &mut Layers, t: &Traced<'_>) -> String {
    let jobs = t.jobs.max(1) as f64;
    for (level, &n) in t.samples.iter().enumerate() {
        let count = t.probe.count(level) as f64;
        let busy = t.probe.busy_s(level);
        layers.set(&format!("eval.count.l{level}"), count / jobs);
        layers.set(&format!("eval.busy_s.l{level}"), busy / jobs);
        if count > 0.0 {
            layers.set(&format!("eval.mean_ms.l{level}"), 1e3 * busy / count);
        }
        // forward evals per produced sample: the useful-work ratio
        layers.set(
            &format!("core.evals_per_sample.l{level}"),
            count / jobs / n as f64,
        );
    }
    layers.set(
        "roles.request_wait_p50_s",
        t.obs.hist(Hist::RequestWait).quantile_ceil(0.5) * 1e-6,
    );
    layers.set(
        "roles.serve_latency_p50_s",
        t.obs.hist(Hist::ServeLatency).quantile_ceil(0.5) * 1e-6,
    );
    let budget = host::nproc() as f64 * t.wall_s;
    let evals = t.probe.events();
    let eval_s: f64 = (0..t.samples.len()).map(|l| t.probe.busy_s(l)).sum();
    let a = attribute(t.steps, &evals, eval_s, budget, t.cpu_s);
    layers.set("runtime.idle_frac", a.frac(a.idle_s));
    layers.set("attr.eval_frac", a.frac(a.eval_s));
    layers.set("attr.step_self_frac", a.frac(a.step_self_s));
    layers.set("unattributed_frac", a.frac(a.unattributed_s));
    layers.set(
        "trace.overhead",
        median(t.traced_tte) / median(t.untraced_tte),
    );
    a.table()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            rank: 0,
            kind,
            start,
            end,
        }
    }

    #[test]
    fn parts_add_up_to_the_budget() {
        let steps = [
            ev(SpanKind::Eval { level: 0 }, 0.0, 1.0),
            ev(SpanKind::Serve { level: 0 }, 2.0, 3.0),
            ev(SpanKind::Checkpoint, 3.0, 3.5),
        ];
        let evals = [
            ev(SpanKind::Eval { level: 0 }, 0.1, 0.9),
            ev(SpanKind::Eval { level: 0 }, 2.5, 2.9),
            // chain construction: outside every step
            ev(SpanKind::Eval { level: 0 }, 4.0, 4.5),
        ];
        let a = attribute(&steps, &evals, 1.7, 10.0, 6.0);
        assert!((a.eval_s - 1.7).abs() < 1e-12);
        assert!((a.step_s - 2.0).abs() < 1e-12);
        assert!((a.step_self_s - 0.8).abs() < 1e-12);
        assert!((a.idle_s - 4.0).abs() < 1e-12);
        let sum = a.eval_s + a.step_self_s + a.unattributed_s;
        assert!((sum - a.budget_s).abs() < 1e-12);
    }
}
