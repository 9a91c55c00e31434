//! The set-up repetitions every workload shares, and the measured
//! window of the closed loops with one client (`poisson`, `tsunami`,
//! `net`): jobs back to back for `--seconds`. A traced run alternates
//! untraced and traced jobs, so the ratio of their medians is the
//! tracing overhead.

use std::time::{Duration, Instant};

use uq_parallel::Tracer;

use crate::host::Meter;
use crate::probe::Probe;
use crate::report::{end_to_end, Metrics, Tally};
use crate::{Args, SETUP_REPS};

/// Wall seconds of each set-up, unscaled and scaled by its run share
/// (see [`Meter`]).
#[derive(Default)]
pub struct SetUps {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl SetUps {
    /// Build a workload's set-up [`SETUP_REPS`] times, retiring each one
    /// before the next is built, and keep the last.
    pub fn run<S>(mut build: impl FnMut(usize) -> S, mut retire: impl FnMut(S)) -> (S, SetUps) {
        let mut times = SetUps::default();
        let mut last = None;
        for rep in 0..SETUP_REPS {
            if let Some(old) = last.take() {
                retire(old);
            }
            let meter = Meter::now();
            let t0 = Instant::now();
            let setup = build(rep);
            let raw = t0.elapsed().as_secs_f64();
            times.raw.push(raw);
            times.scaled.push(raw * meter.run_share());
            last = Some(setup);
        }
        (last.expect("at least one set-up"), times)
    }
}

/// One job as a workload's job step returns it: the checked result,
/// wall seconds and process CPU seconds.
pub struct Job<R> {
    pub result: Result<R, String>,
    pub tte: f64,
    pub cpu: f64,
}

/// The measured window of a closed loop.
pub struct Window<R> {
    /// Jobs attempted.
    pub jobs: usize,
    pub window_s: f64,
    /// Run share of the window (see [`Meter`]).
    pub share: f64,
    /// Wall seconds of the passing untraced jobs.
    pub untraced_tte: Vec<f64>,
    /// The passing traced jobs.
    pub traced: Vec<Job<R>>,
    /// `run_tracer`'s clock at the end of the first traced job.
    pub first_traced_end: f64,
}

impl<R> Window<R> {
    /// Run `job(i, tracer)` for `i = 0, 1, ...` until `--seconds` have
    /// passed (in a traced run, also until both kinds of job passed
    /// once). Odd jobs of a traced run get `run_tracer` and the probe
    /// on; the rest get a disabled tracer and the probe off. Every job's
    /// outcome goes to `tally`.
    pub fn measure(
        args: &Args,
        tally: &mut Tally,
        probe: &Probe,
        run_tracer: &Tracer,
        mut job: impl FnMut(usize, &Tracer) -> Job<R>,
    ) -> Self {
        let meter = Meter::now();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(args.seconds);
        let mut w = Window {
            jobs: 0,
            window_s: 0.0,
            share: 1.0,
            untraced_tte: Vec::new(),
            traced: Vec::new(),
            first_traced_end: 0.0,
        };
        loop {
            let traced = args.trace && w.jobs % 2 == 1;
            let tracer = if traced {
                run_tracer.clone()
            } else {
                Tracer::disabled()
            };
            probe.set(traced);
            let done = job(w.jobs, &tracer);
            probe.set(false);
            w.jobs += 1;
            match done.result {
                Ok(_) if traced => {
                    tally.record(Ok(()));
                    if w.traced.is_empty() {
                        w.first_traced_end = run_tracer.now();
                    }
                    w.traced.push(done);
                }
                Ok(_) => {
                    tally.record(Ok(()));
                    w.untraced_tte.push(done.tte);
                }
                Err(e) => tally.record(Err(e)),
            }
            let enough = !args.trace || (!w.traced.is_empty() && !w.untraced_tte.is_empty());
            if Instant::now() >= deadline && enough {
                break;
            }
        }
        w.window_s = start.elapsed().as_secs_f64();
        w.share = meter.run_share();
        w
    }

    pub fn traced_tte(&self) -> Vec<f64> {
        self.traced.iter().map(|j| j.tte).collect()
    }

    pub fn traced_cpu_s(&self) -> f64 {
        self.traced.iter().map(|j| j.cpu).sum()
    }

    /// The end-to-end metrics of the untraced jobs, with a report line.
    pub fn end_to_end(&self, setups: &SetUps, noun: &str) -> (Metrics, String) {
        end_to_end(&self.untraced_tte, self.window_s, self.share, setups, noun)
    }
}
