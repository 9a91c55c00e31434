//! The `poisson` and `tsunami` workloads: one caller running fixed-`N_l`
//! inversions back to back on the cooperative runtime (a closed loop
//! with one client), default policy (load balancing and speculation
//! on), `n_workers = nproc`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use uq_fem::problem::{constants as poisson_consts, PoissonFactory};
use uq_fem::PoissonHierarchy;
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    run_runtime_on, scheduler::ParallelLevelReport, Epoch, Runtime, RuntimeConfig, RuntimeReport,
    Tracer,
};
use uq_swe::tohoku::{constants as tohoku_consts, Resolution};
use uq_swe::TsunamiHierarchy;

use crate::attribution::{record_traced, Traced};
use crate::closed_loop::{Job, SetUps, Window};
use crate::layers::Layers;
use crate::probe::{Probe, ProbeFactory, Steps};
use crate::report::{write_chrome_trace, Tally};
use crate::{host, kernels, mix, Args, Outcome};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    Poisson,
    Tsunami,
}

/// The fixed schedule of one inversion.
struct Schedule {
    samples: [usize; 3],
    burn_in: [usize; 3],
    chains: [usize; 3],
    /// Levels, from level 0 up, whose chains must leave their start in
    /// every inversion (see [`check_chains`]).
    moving_levels: usize,
}

/// Table-3 meshes (elements per direction) at CI scale.
pub const POISSON_N: [usize; 3] = [16, 64, 128];
const POISSON_RHO: [usize; 2] = [20, 5];
const POISSON: Schedule = Schedule {
    samples: [600, 80, 16],
    burn_in: [40, 10, 4],
    chains: [2, 2, 2],
    // fewest moves seen per inversion: 560 / 37 / 11 on levels 0 / 1 / 2
    moving_levels: 3,
};
/// Correctness band on the estimated κ field against the synthetic
/// truth on the 33×33 QOI grid: relative L2 error at most this. At this
/// schedule the telescoping estimate of the lognormal field is noisy and
/// heavy-tailed (relative errors: median 0.85, 90th percentile 1.0,
/// maximum 1.57 over 250 exploratory inversions), so the band only
/// catches gross breakage; [`check_chains`] catches a sampler that does
/// not sample.
const POISSON_BAND: f64 = 3.0;

/// The `scaling_live --model swe` grids.
pub const TSUNAMI_RES: Resolution = Resolution::Custom([9, 13, 17]);
const TSUNAMI: Schedule = Schedule {
    samples: [240, 48, 10],
    burn_in: [20, 10, 5],
    chains: [2, 2, 2],
    // At these grids the level-1 chain accepts almost none of its coarse
    // proposals: 0 to 4 moves in ~135 candidates per inversion here, and
    // acceptance 0.017 to 0.034 in `run_sequential` at the same schedule.
    // So the fine chains mostly stay at their start, which is the truth;
    // only level 0 must move.
    moving_levels: 1,
};
/// Correctness band on the estimated source offset: each component
/// within twice the prior half-width (300 km) of the truth. The coarse
/// grids bias the estimate at this schedule and its level corrections
/// are noisy: offsets reached 173 km in measured and 191 km in
/// quarter-schedule warm-up inversions, so the estimate itself may
/// leave the prior box. The band only catches gross breakage;
/// [`check_chains`] catches a sampler that does not sample.
const TSUNAMI_BAND_KM: f64 = 2.0 * tohoku_consts::PRIOR_HALFWIDTH;

/// Warm-up inversions run this fraction of the schedule.
const WARMUP_DIVISOR: usize = 4;

impl Model {
    fn schedule(self) -> &'static Schedule {
        match self {
            Model::Poisson => &POISSON,
            Model::Tsunami => &TSUNAMI,
        }
    }
}

/// What the estimate is checked against.
enum Reference {
    /// True κ on the QOI grid.
    Field(Vec<f64>),
    /// True source offset (km).
    Source([f64; 2]),
}

/// The hierarchy (KL tabulation and MG set-up, or synthetic buoy
/// data) and its reference. Both problems are the paper's synthetic
/// set-ups with their fixed truths; `--seed` drives the chains.
fn build(model: Model) -> (Arc<dyn LevelFactory>, Reference) {
    match model {
        Model::Poisson => {
            let h = PoissonHierarchy::new(
                poisson_consts::PARAM_DIM,
                POISSON_N.to_vec(),
                poisson_consts::TRUTH_SEED,
            );
            let truth = h.true_qoi();
            (
                Arc::new(PoissonFactory::new(h, POISSON_RHO.to_vec())),
                Reference::Field(truth),
            )
        }
        // the buoy data come from a source at the reference epicentre,
        // θ = (0, 0)
        Model::Tsunami => (
            Arc::new(TsunamiHierarchy::new(TSUNAMI_RES)),
            Reference::Source([0.0, 0.0]),
        ),
    }
}

fn config(schedule: &Schedule, divisor: usize, seed: u64, n_workers: usize) -> RuntimeConfig {
    let samples = schedule.samples.map(|n| (n / divisor).max(1)).to_vec();
    let mut config = RuntimeConfig::new(samples, schedule.chains.to_vec());
    config.base.burn_in = schedule.burn_in.to_vec();
    config.base.seed = seed;
    config.n_workers = n_workers;
    config
}

/// Exact `N_l` per level, a finite estimate, chains that sampled
/// ([`check_chains`]) and the estimate inside the reference band.
/// Returns the estimate's distance from the reference (relative L2
/// error, or km).
fn check(
    r: &RuntimeReport,
    config: &RuntimeConfig,
    steps: &[Steps],
    model: Model,
    reference: &Reference,
) -> Result<f64, String> {
    for (l, &n) in config.base.samples_per_level.iter().enumerate() {
        let got = r.report.levels.get(l).map_or(0, |lv| lv.n_samples);
        if got != n {
            return Err(format!("level {l}: {got} samples, expected {n}"));
        }
    }
    let est = r.report.expectation();
    if !est.iter().all(|v| v.is_finite()) {
        return Err("non-finite estimate".to_string());
    }
    check_chains(&r.report.levels, steps, model.schedule().moving_levels)?;
    match reference {
        Reference::Field(truth) => {
            let (mut err2, mut norm2) = (0.0, 0.0);
            for (e, t) in est.iter().zip(truth) {
                err2 += (e - t) * (e - t);
                norm2 += t * t;
            }
            let rel = (err2 / norm2).sqrt();
            if est.len() != truth.len() || rel > POISSON_BAND {
                return Err(format!(
                    "kappa field relative L2 error {rel:.3} outside the band {POISSON_BAND}"
                ));
            }
            Ok(rel)
        }
        Reference::Source(truth) => {
            let off = (est[0] - truth[0]).abs().max((est[1] - truth[1]).abs());
            if off > TSUNAMI_BAND_KM {
                return Err(format!(
                    "source estimate ({:.1}, {:.1}) km is {off:.1} km from the truth \
                     ({:.1}, {:.1}), band {TSUNAMI_BAND_KM}",
                    est[0], est[1], truth[0], truth[1]
                ));
            }
            Ok(off)
        }
    }
}

/// The chains must have sampled, as `steps` (counted by the probe) and
/// the level terms show:
/// - on every level but the finest, some candidates were rejected, and
///   every component of the level term has a positive, finite
///   variance;
/// - on the first `moving_levels` levels, some candidates moved the
///   chain away from its starting point.
///
/// The finest level is exempt from the first rule: its chains accept
/// nearly every candidate (no rejection in most inversions), and its
/// corrections are often all zero, the fine state being its own pairing
/// mate. The reference band alone cannot tell a sampler that never
/// moves: the starting point is the tsunami truth, and κ ≡ 1, the
/// Poisson start, lies inside the Poisson band.
fn check_chains(
    levels: &[ParallelLevelReport],
    steps: &[Steps],
    moving_levels: usize,
) -> Result<(), String> {
    let finest = levels.len().saturating_sub(1);
    for (lv, s) in levels.iter().zip(steps) {
        let l = lv.level;
        if l < finest && s.rejected() == 0 {
            return Err(format!("level {l}: no candidate was rejected ({s:?})"));
        }
        if l < finest && !lv.var_correction.iter().all(|&v| v.is_finite() && v > 0.0) {
            return Err(format!(
                "level {l}: a level term without spread, variances {:?}",
                lv.var_correction
            ));
        }
        if l < moving_levels && s.moves == 0 {
            return Err(format!(
                "level {l}: the chains never left their start ({s:?})"
            ));
        }
    }
    Ok(())
}

/// A built workload: the hierarchy with its reference, the worker pool
/// and the probe its factory reports to.
struct Setup {
    model: Model,
    factory: Arc<dyn LevelFactory>,
    reference: Reference,
    pool: Runtime,
    probe: Arc<Probe>,
}

/// A passing inversion: its report, MH steps per level and distance
/// from the reference.
type Inverted = (RuntimeReport, Vec<Steps>, f64);

impl Setup {
    fn new(model: Model, probe: &Arc<Probe>, n_workers: usize) -> Self {
        let (inner, reference) = build(model);
        Self {
            model,
            factory: Arc::new(ProbeFactory::new(inner, Arc::clone(probe))),
            reference,
            pool: Runtime::new(n_workers),
            probe: Arc::clone(probe),
        }
    }

    /// One inversion of `config`: run and time it, count its MH steps
    /// per level and check it.
    fn invert(&self, config: &RuntimeConfig, tracer: &Tracer) -> Job<Inverted> {
        let before = self.probe.steps();
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_runtime_on(&self.pool, self.factory.as_ref(), config, tracer)
        }));
        let tte = t0.elapsed().as_secs_f64();
        let cpu = host::process_cpu_s() - cpu0;
        let steps: Vec<Steps> = self
            .probe
            .steps()
            .iter()
            .zip(&before)
            .map(|(after, before)| after.since(before))
            .collect();
        let result = match r {
            Ok(r) => check(&r, config, &steps, self.model, &self.reference)
                .map(|distance| (r, steps, distance)),
            Err(_) => Err("inversion panicked".to_string()),
        };
        Job { result, tte, cpu }
    }
}

pub fn run(model: Model, args: &Args) -> Outcome {
    let n_workers = host::nproc();
    let schedule = model.schedule();
    let mut tally = Tally::default();
    // traced runs record the runtime's obs spans and the wrapper's eval
    // spans on one timeline
    let epoch = Epoch::now();
    let run_tracer = Tracer::with_epoch(epoch);
    let probe = Probe::new(Tracer::with_epoch(epoch), true);

    // set-up: hierarchy, worker pool and a warm-up inversion
    let (setup, setups) = SetUps::run(
        |rep| {
            let setup = Setup::new(model, &probe, n_workers);
            let warm = config(
                schedule,
                WARMUP_DIVISOR,
                mix(args.seed ^ 0xA11CE ^ rep as u64),
                n_workers,
            );
            tally.record(setup.invert(&warm, &Tracer::disabled()).result.map(drop));
            setup
        },
        drop,
    );

    let mut notes = Vec::new();
    let window = Window::measure(args, &mut tally, &probe, &run_tracer, |i, tracer| {
        let cfg = config(
            schedule,
            1,
            mix(args.seed.wrapping_add(i as u64)),
            n_workers,
        );
        let job = setup.invert(&cfg, tracer);
        if let Ok((_, steps, distance)) = &job.result {
            let acceptance: Vec<f64> = steps.iter().map(Steps::acceptance).collect();
            notes.push(format!("{distance:.3} {acceptance:.2?}"));
        }
        job
    });

    let mut text = format!(
        "{model:?}: {} inversions of N_l = {:?} in {:.2} s on {n_workers} workers; \
         per inversion, the distance from the reference and the per-level acceptance: {}\n",
        window.jobs,
        schedule.samples,
        window.window_s,
        notes.join(", ")
    );
    let metrics = if args.trace {
        let mut layers = Layers::default();
        kernels::measure(&mut layers, args.seed);
        runtime_layers(&mut layers, &window.traced);
        let traced_tte = window.traced_tte();
        text.push_str(&record_traced(
            &mut layers,
            &Traced {
                obs: &run_tracer,
                steps: &run_tracer.events(),
                probe: &probe,
                samples: &schedule.samples,
                jobs: window.traced.len(),
                wall_s: traced_tte.iter().sum(),
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
                ("runtime (obs spans)", &run_tracer),
                ("forward evals (benchmark wrapper)", probe.tracer()),
            ],
        ));
        layers.into_metrics()
    } else {
        let (m, line) = window.end_to_end(&setups, "inversions");
        text.push_str(&line);
        m
    };
    Outcome {
        tally,
        metrics,
        text,
    }
}

/// Fill the layers only the runtime reports: ledger, load balancer,
/// phonebook and executor counters, per traced inversion.
fn runtime_layers(layers: &mut Layers, traced: &[Job<Inverted>]) {
    let jobs = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&RuntimeReport) -> usize| -> f64 {
        traced
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(|(r, _, _)| f(r) as f64)
            .sum()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let serves = sum(&|r| r.phonebook.ledger.serves);
    layers.set("ledger.serves", serves / jobs);
    layers.set(
        "ledger.diverged_frac",
        ratio(sum(&|r| r.phonebook.ledger.diverged), serves),
    );
    layers.set(
        "ledger.spec_hit_rate",
        ratio(sum(&|r| r.phonebook.ledger.spec_hits), serves),
    );
    layers.set(
        "ledger.spec_waste_frac",
        ratio(
            sum(&|r| r.phonebook.ledger.spec_misses),
            sum(&|r| r.phonebook.ledger.spec_launched),
        ),
    );
    layers.set("lb.reassignments", sum(&|r| r.report.reassignments) / jobs);
    let messages = sum(&|r| r.phonebook.messages);
    let wakeups = sum(&|r| r.phonebook.wakeups);
    layers.set("phonebook.messages", messages / jobs);
    layers.set("phonebook.wakeups", wakeups / jobs);
    layers.set("phonebook.mean_batch", ratio(messages, wakeups));
    layers.set("runtime.polls", sum(&|r| r.runtime.polls) / jobs);
    layers.set("runtime.wakeups", sum(&|r| r.runtime.wakeups) / jobs);
    layers.set("runtime.steals", sum(&|r| r.runtime.steals) / jobs);
}

#[cfg(test)]
mod tests {
    use uq_mcmc::{Proposal, SamplingProblem};

    use super::*;
    use crate::ridge::Ridge;

    /// The ridge hierarchy with its targets replaced by a broken one:
    /// flat (every candidate accepted) or zero away from the start (no
    /// candidate ever accepted).
    struct Broken {
        accept_all: bool,
    }

    impl SamplingProblem for Broken {
        fn dim(&self) -> usize {
            1
        }
        fn log_density(&mut self, theta: &[f64]) -> f64 {
            if self.accept_all || theta == [0.0] {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        }
    }

    impl LevelFactory for Broken {
        fn n_levels(&self) -> usize {
            Ridge.n_levels()
        }
        fn problem(&self, _level: usize) -> Box<dyn SamplingProblem> {
            Box::new(Broken {
                accept_all: self.accept_all,
            })
        }
        fn proposal(&self, level: usize) -> Box<dyn Proposal> {
            Ridge.proposal(level)
        }
        fn subsampling_rate(&self, level: usize) -> usize {
            Ridge.subsampling_rate(level)
        }
        fn starting_point(&self, level: usize) -> Vec<f64> {
            Ridge.starting_point(level)
        }
    }

    /// The chain check of one inversion of `inner` on the runtime,
    /// default policy, with both levels required to move.
    fn chain_check(inner: Arc<dyn LevelFactory>) -> Result<(), String> {
        let probe = Probe::new(Tracer::disabled(), true);
        let factory = ProbeFactory::new(inner, Arc::clone(&probe));
        let mut config = RuntimeConfig::new(vec![400, 100], vec![2, 2]);
        config.n_workers = 2;
        let r = run_runtime_on(&Runtime::new(2), &factory, &config, &Tracer::disabled());
        check_chains(&r.report.levels, &probe.steps(), 2)
    }

    #[test]
    fn a_working_sampler_passes_the_chain_check() {
        assert_eq!(chain_check(Arc::new(Ridge)), Ok(()));
    }

    /// A sampler that never moves from its start is a failed inversion,
    /// though its estimate sits at the start.
    #[test]
    fn a_sampler_that_never_moves_fails() {
        let err = chain_check(Arc::new(Broken { accept_all: false }))
            .expect_err("a chain stuck at its start must fail");
        assert!(err.starts_with("level 0"), "{err}");
    }

    /// A sampler that accepts every candidate is a failed inversion.
    #[test]
    fn a_sampler_that_accepts_everything_fails() {
        let err = chain_check(Arc::new(Broken { accept_all: true }))
            .expect_err("a chain that never rejects must fail");
        assert!(err.contains("no candidate was rejected"), "{err}");
    }
}
