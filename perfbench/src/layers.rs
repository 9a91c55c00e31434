//! The metric catalogue. Every untraced run prints [`END_TO_END`]; every
//! traced run prints all of [`PER_LAYER`], with `0` on a layer the
//! workload bypasses. `BENCHMARK.json` lists the same names and units
//! (pinned by a test).

use crate::report::Metrics;

/// `(name, unit)` of the end-to-end metrics, in report order. A job is
/// one inversion on `poisson`, `tsunami` and `net`, and one submitted
/// service job on `service`.
pub const END_TO_END: &[(&str, &str)] = &[
    // median per-job time from start (submit) to the final estimate
    ("tte_s", "s"),
    // highest percentile of per-job time with >= 10 jobs beyond it
    ("tte_tail_s", "s"),
    // jobs completed per second of the measured window
    ("jobs_per_s", "jobs/s"),
    // median of the run's set-ups, warm-up included
    ("setup_s", "s"),
];

/// `(name, unit)` of the per-layer metrics, in report order. `1/job`
/// counts are means per traced job.
pub const PER_LAYER: &[(&str, &str)] = &[
    // linalg kernels (micro-benchmarks at the Poisson meshes)
    ("linalg.spmv_ns.n16", "ns"),
    ("linalg.spmv_ns.n64", "ns"),
    ("linalg.spmv_ns.n128", "ns"),
    ("linalg.vcycle_ns.n16", "ns"),
    ("linalg.vcycle_ns.n64", "ns"),
    ("linalg.vcycle_ns.n128", "ns"),
    ("linalg.mgcg_solve_ns.n16", "ns"),
    ("linalg.mgcg_solve_ns.n64", "ns"),
    ("linalg.mgcg_solve_ns.n128", "ns"),
    ("linalg.mgcg_iters.n16", "count"),
    ("linalg.mgcg_iters.n64", "count"),
    ("linalg.mgcg_iters.n128", "count"),
    ("linalg.dot_gbps", "GB/s"),
    ("linalg.axpy_gbps", "GB/s"),
    ("linalg.spmv_gbps", "GB/s"),
    ("linalg.dot_flop_per_byte", "flop/B"),
    ("linalg.axpy_flop_per_byte", "flop/B"),
    ("linalg.spmv_flop_per_byte", "flop/B"),
    // fem / randfield forward pass
    ("fem.kappa_ns.n16", "ns"),
    ("fem.kappa_ns.n64", "ns"),
    ("fem.kappa_ns.n128", "ns"),
    ("fem.refill_ns.n16", "ns"),
    ("fem.refill_ns.n64", "ns"),
    ("fem.refill_ns.n128", "ns"),
    ("fem.forward_ns.n16", "ns"),
    ("fem.forward_ns.n64", "ns"),
    ("fem.forward_ns.n128", "ns"),
    // swe solver
    ("swe.step_ns.c9", "ns"),
    ("swe.step_ns.c13", "ns"),
    ("swe.step_ns.c17", "ns"),
    ("swe.rusanov_ns", "ns"),
    ("swe.steps_per_eval.l0", "count"),
    ("swe.steps_per_eval.l1", "count"),
    ("swe.steps_per_eval.l2", "count"),
    ("swe.forward_ns.l0", "ns"),
    ("swe.forward_ns.l1", "ns"),
    ("swe.forward_ns.l2", "ns"),
    // forward evals seen by the benchmark-side wrapper, in-run
    ("eval.count.l0", "1/job"),
    ("eval.count.l1", "1/job"),
    ("eval.count.l2", "1/job"),
    ("eval.busy_s.l0", "s/job"),
    ("eval.busy_s.l1", "s/job"),
    ("eval.busy_s.l2", "s/job"),
    ("eval.mean_ms.l0", "ms"),
    ("eval.mean_ms.l1", "ms"),
    ("eval.mean_ms.l2", "ms"),
    // core chains, rewind ledger and load balancer
    ("core.evals_per_sample.l0", "ratio"),
    ("core.evals_per_sample.l1", "ratio"),
    ("core.evals_per_sample.l2", "ratio"),
    ("ledger.serves", "1/job"),
    ("ledger.diverged_frac", "ratio"),
    ("ledger.spec_hit_rate", "ratio"),
    ("ledger.spec_waste_frac", "ratio"),
    ("lb.reassignments", "1/job"),
    // role protocols
    ("phonebook.messages", "1/job"),
    ("phonebook.wakeups", "1/job"),
    ("phonebook.mean_batch", "ratio"),
    ("roles.request_wait_p50_s", "s"),
    ("roles.serve_latency_p50_s", "s"),
    // cooperative runtime executor
    ("runtime.polls", "1/job"),
    ("runtime.wakeups", "1/job"),
    ("runtime.steals", "1/job"),
    ("runtime.idle_frac", "ratio"),
    // net wire
    ("net.frames_out", "1/job"),
    ("net.bytes_out", "B/job"),
    // wall time of a traced job per frame it sent: evals, role waits and
    // set-up included, not the transport cost alone
    ("net.job_us_per_frame", "us"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    // run store
    ("store.snapshots", "1/job"),
    ("store.bytes", "B/job"),
    ("store.put_ns", "ns"),
    ("store.get_ns", "ns"),
    // service admission and queueing
    ("svc.submit_ns", "ns"),
    ("svc.jobs_admitted", "count"),
    ("svc.jobs_preempted", "count"),
    ("svc.tte_over_predicted", "ratio"),
    // whole-run attribution
    ("attr.eval_frac", "ratio"),
    ("attr.step_self_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values being filled in by a traced run; every name starts
/// at 0 (a layer the workload bypasses).
pub struct Layers(Vec<f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(vec![0.0; PER_LAYER.len()])
    }
}

impl Layers {
    /// Set a metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] (a bug in this
    /// benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for ((name, unit), value) in PER_LAYER.iter().zip(self.0) {
            m.push(*name, value, unit);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here and in `BENCHMARK.json` must agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        // the text from `"key"` up to `"next"` (or the end of the file)
        let section = |key: &str, next: Option<&str>| -> String {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = next
                .and_then(|n| json[start..].find(&format!("\"{n}\"")))
                .map_or(json.len(), |e| start + e);
            json[start..end].to_string()
        };
        let check = |text: String, list: &[(&str, &str)]| {
            let entries = text.matches("\"name\"").count();
            assert_eq!(entries, list.len(), "metric count differs");
            for (name, unit) in list {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
            }
        };
        check(section("end_to_end", Some("per_layer")), END_TO_END);
        check(section("per_layer", None), PER_LAYER);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
