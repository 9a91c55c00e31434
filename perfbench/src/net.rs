//! The `net` workload: deterministic ridge inversions (one chain per
//! level, load balancing off) over loopback TCP, one after another, with
//! a [`NetDriver`] and two in-process [`run_net_worker`] endpoints per
//! job. The wire frames and the blocking scheduler roles do the work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    levels_digest, run_net_worker, Counter, Epoch, NetDriver, NetDriverOptions, NetReport,
    NetWorkerOptions, Tracer,
};

use crate::attribution::{record_traced, Traced};
use crate::closed_loop::{Job, SetUps, Window};
use crate::layers::Layers;
use crate::probe::{Probe, ProbeFactory};
use crate::report::{write_chrome_trace, Tally};
use crate::ridge::{self, JobInput, Ridge};
use crate::{host, kernels, mix, Args, Outcome};

/// Ridge samples per level of one job.
const SAMPLES: [usize; 2] = [9000, 1800];
/// Worker endpoints per job.
const WORKERS: usize = 2;
/// Distinct job inputs, cycled through: enough that the seed-to-seed
/// cost differences of single jobs average out in a run.
const INPUTS: usize = 8;
/// Jobs in each set-up's warm-up (one job alone makes a noisy set-up
/// time).
const WARMUP_JOBS: usize = 3;

fn inputs(seed: u64) -> Vec<JobInput> {
    (0..INPUTS)
        .map(|k| {
            let config = ridge::config(SAMPLES, mix(seed ^ ((k as u64) << 40)));
            let seed = config.seed;
            JobInput::new(config, seed)
        })
        .collect()
}

/// Exact `N_l` and the standalone digest, bit for bit.
fn check(report: &NetReport, input: &JobInput) -> Result<(), String> {
    for (l, &n) in input.config.samples_per_level.iter().enumerate() {
        let got = report.report.levels.get(l).map_or(0, |lv| lv.n_samples);
        if got != n {
            return Err(format!("level {l}: {got} samples, expected {n}"));
        }
    }
    let digest = levels_digest(&report.report.levels);
    if digest != input.digest {
        return Err(format!(
            "net digest {digest:#018x} != standalone {:#018x}",
            input.digest
        ));
    }
    Ok(())
}

/// One job over loopback: bind, start the workers, run, join, check.
fn job(factory: &Arc<dyn LevelFactory>, input: &JobInput, tracer: &Tracer) -> Job<()> {
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let driver = NetDriver::bind("127.0.0.1:0").expect("bind the driver on loopback");
        let opts = NetWorkerOptions {
            connect: driver.local_addr().to_string(),
            join: false,
            leave_at_barrier: None,
        };
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| s.spawn(|| run_net_worker(Arc::clone(factory), &opts, tracer)))
                .collect();
            let report = driver.run(
                Arc::clone(factory),
                &input.config,
                &NetDriverOptions {
                    workers: WORKERS,
                    every: 0,
                    store: None,
                    config_hash: 0,
                },
                tracer,
            );
            for w in workers {
                w.join().expect("net worker panicked");
            }
            report
        })
    }));
    let result = match outcome {
        Ok(report) => check(&report, input),
        Err(_) => Err("net job panicked".to_string()),
    };
    Job {
        result,
        tte: t0.elapsed().as_secs_f64(),
        cpu: host::process_cpu_s() - cpu0,
    }
}

pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    let epoch = Epoch::now();
    let run_tracer = Tracer::with_epoch(epoch);
    let probe = Probe::new(Tracer::with_epoch(epoch), false);
    let mut tally = Tally::default();

    // set-up: the model and warm-up jobs through the whole stack
    let (factory, setups) = SetUps::run(
        |_| {
            let f: Arc<dyn LevelFactory> =
                Arc::new(ProbeFactory::new(Arc::new(Ridge), Arc::clone(&probe)));
            for input in inputs.iter().cycle().take(WARMUP_JOBS) {
                tally.record(job(&f, input, &Tracer::disabled()).result);
            }
            f
        },
        drop,
    );

    let window = Window::measure(args, &mut tally, &probe, &run_tracer, |i, tracer| {
        job(&factory, &inputs[i % inputs.len()], tracer)
    });
    let mut text = format!(
        "net: {} jobs of N_l = {SAMPLES:?} over loopback with {WORKERS} workers in {:.2} s\n",
        window.jobs, window.window_s
    );

    let metrics = if args.trace {
        let mut layers = Layers::default();
        kernels::measure(&mut layers, args.seed);
        let traced_tte = window.traced_tte();
        let jobs = traced_tte.len().max(1) as f64;
        let frames = run_tracer.counter(Counter::NetFramesOut) as f64;
        let wall: f64 = traced_tte.iter().sum();
        layers.set(
            "ledger.serves",
            run_tracer.counter(Counter::Serves) as f64 / jobs,
        );
        layers.set("net.frames_out", frames / jobs);
        layers.set(
            "net.bytes_out",
            run_tracer.counter(Counter::NetBytesOut) as f64 / jobs,
        );
        // a whole job's wall time per frame it sent: evals, role waits
        // and set-up included, not the transport cost alone
        if frames > 0.0 {
            layers.set("net.job_us_per_frame", 1e6 * wall / frames);
        }
        text.push_str(&record_traced(
            &mut layers,
            &Traced {
                obs: &run_tracer,
                steps: &[],
                probe: &probe,
                samples: &SAMPLES,
                jobs: window.traced.len(),
                wall_s: wall,
                cpu_s: window.traced_cpu_s(),
                traced_tte: &traced_tte,
                untraced_tte: &window.untraced_tte,
            },
        ));
        text.push_str(&write_chrome_trace(
            &args.workload,
            args.seed,
            window.first_traced_end,
            &[
                ("net roles (obs spans)", &run_tracer),
                ("forward evals (benchmark wrapper)", probe.tracer()),
            ],
        ));
        layers.into_metrics()
    } else {
        let (m, line) = window.end_to_end(&setups, "jobs");
        text.push_str(&line);
        m
    };
    Outcome {
        tally,
        metrics,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A net job checked against a wrong reference digest is a failed
    /// operation, not a pass; against the right one it passes.
    #[test]
    fn a_wrong_reference_digest_fails_the_job() {
        let mut input = JobInput::new(ridge::config([300, 80], 5), 5);
        let factory: Arc<dyn LevelFactory> = Arc::new(Ridge);
        let right = job(&factory, &input, &Tracer::disabled()).result;
        assert_eq!(right, Ok(()));
        input.digest ^= 1;
        let wrong = job(&factory, &input, &Tracer::disabled()).result;
        assert!(wrong
            .expect_err("a wrong digest must fail")
            .contains("digest"));
    }
}
