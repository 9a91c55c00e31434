//! The two-level Gaussian ridge used by the `service` and `net`
//! workloads: evals cost nanoseconds, so scheduling, ledger, transport,
//! store and admission do nearly all the work.

use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::LevelFactory;
use uq_parallel::{levels_digest, run_parallel, ParallelConfig, Tracer};

const MEAN: [f64; 2] = [0.0, 0.35];
const SD: [f64; 2] = [0.15, 0.12];
const RHO: usize = 2;

pub struct Ridge;

struct Target {
    mean: f64,
    sd: f64,
}

impl SamplingProblem for Target {
    fn dim(&self) -> usize {
        1
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        isotropic_gaussian_logpdf(theta, &[self.mean], self.sd)
    }
}

impl LevelFactory for Ridge {
    fn n_levels(&self) -> usize {
        2
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(Target {
            mean: MEAN[level],
            sd: SD[level],
        })
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.2))
    }
    fn subsampling_rate(&self, _level: usize) -> usize {
        RHO
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// The deterministic regime in which a job's `levels_digest` is a pure
/// function of its config: one chain per level, load balancing off,
/// every sample recorded.
pub fn config(samples: [usize; 2], seed: u64) -> ParallelConfig {
    let mut config = ParallelConfig::new(samples.to_vec(), vec![1, 1]);
    config.burn_in = vec![30, 20];
    config.seed = seed;
    config.load_balancing = false;
    config.record_samples = true;
    config
}

/// One job input with its reference digest: the `levels_digest` of a
/// standalone `run_parallel` of the same config at `standalone_seed`
/// (the job's own seed, or its tenant seed in the service), computed
/// outside every timed window.
pub struct JobInput {
    pub config: ParallelConfig,
    pub digest: u64,
}

impl JobInput {
    pub fn new(config: ParallelConfig, standalone_seed: u64) -> Self {
        let mut standalone = config.clone();
        standalone.seed = standalone_seed;
        let digest = levels_digest(&run_parallel(&Ridge, &standalone, &Tracer::disabled()).levels);
        Self { config, digest }
    }
}
