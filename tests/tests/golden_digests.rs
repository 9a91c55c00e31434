//! Golden `levels_digest` table: every executor of the role protocols
//! must reproduce these literal digests bit-for-bit.
//!
//! The other conformance suites compare backends with each other inside
//! one run, so a change that shifted every backend the same way (a
//! reordered RNG draw, a different serve substream, a moved correction)
//! would still pass them. This table pins absolute values instead.
//!
//! Fixture: the tight-ridge two-level Gaussian hierarchy from
//! `speculation_conformance.rs` (fine `N(0.35, 0.12²)`, coarse
//! `N(0, 0.15²)`, `ρ = 2`) in the deterministic regime — one chain per
//! level, load balancing off, per-sample recording on. There the
//! thread-per-rank, pooled-runtime and TCP executors produce identical
//! per-sample traces.
//!
//! A row may only change together with a deliberate, documented change
//! to the sampler's statistics — never to make an executor refactor
//! pass.

use std::sync::Arc;
use uq_linalg::prob::isotropic_gaussian_logpdf;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::store::RunStore;
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    levels_digest, run_net_worker, run_parallel, run_parallel_ckpt, run_runtime, NetDriver,
    NetDriverOptions, NetWorkerOptions, ParallelCheckpoint, ParallelConfig, RuntimeConfig, Tracer,
};

const COARSE_MEAN: f64 = 0.0;
const COARSE_SD: f64 = 0.15;
const FINE_MEAN: f64 = 0.35;
const FINE_SD: f64 = 0.12;
const RHO: usize = 2;

struct Ridge;

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
            mean: [COARSE_MEAN, FINE_MEAN][level],
            sd: [COARSE_SD, FINE_SD][level],
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

/// The deterministic bit-parity regime on the ridge.
fn ridge_config(seed: u64, speculation: bool) -> ParallelConfig {
    let mut config = ParallelConfig::new(vec![300, 100], vec![1, 1]);
    config.burn_in = vec![30, 20];
    config.seed = seed;
    config.load_balancing = false;
    config.record_samples = true;
    config.speculation = speculation;
    config
}

/// Seed of the rows shared by the thread, runtime and net executors.
const SEED: u64 = 2_2026;

/// `run_parallel`, `run_runtime` (one worker, one shard) and a
/// two-worker loopback net run on `ridge_config(SEED, true)`.
const DIGEST_SPECULATIVE: u64 = 0x0ede_d645_18bf_7a6f;
/// `run_parallel` on `ridge_config(SEED, false)`.
const DIGEST_NO_SPECULATION: u64 = 0x0ede_d645_18bf_7a6f;
/// `run_parallel_ckpt` on `ridge_config(CKPT_SEED, true)` with a
/// snapshot every `CKPT_EVERY` top-level corrections.
const DIGEST_CHECKPOINTED: u64 = 0x9d68_476c_99c4_da1e;
const CKPT_SEED: u64 = 41;
const CKPT_EVERY: usize = 25;

fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

#[test]
fn thread_executor_matches_the_golden_digest() {
    let report = run_parallel(&Ridge, &ridge_config(SEED, true), &Tracer::disabled());
    assert_eq!(hex(levels_digest(&report.levels)), hex(DIGEST_SPECULATIVE));
}

#[test]
fn runtime_executor_matches_the_golden_digest() {
    let mut config = RuntimeConfig::new(vec![300, 100], vec![1, 1]);
    config.base = ridge_config(SEED, true);
    config.n_workers = 1;
    config.collector_shards = 1;
    let report = run_runtime(&Ridge, &config, &Tracer::disabled()).report;
    assert_eq!(hex(levels_digest(&report.levels)), hex(DIGEST_SPECULATIVE));
}

#[test]
fn net_executor_matches_the_golden_digest() {
    let config = ridge_config(SEED, true);
    let driver = NetDriver::bind("127.0.0.1:0").expect("bind loopback");
    let addr = driver.local_addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let opts = NetWorkerOptions {
                connect: addr.clone(),
                join: false,
                leave_at_barrier: None,
            };
            std::thread::spawn(move || run_net_worker(Arc::new(Ridge), &opts, &Tracer::disabled()))
        })
        .collect();
    let opts = NetDriverOptions {
        workers: 2,
        every: 0,
        store: None,
        config_hash: 0,
    };
    let net = driver.run(Arc::new(Ridge), &config, &opts, &Tracer::disabled());
    for w in workers {
        w.join().expect("worker thread panicked");
    }
    assert_eq!(
        hex(levels_digest(&net.report.levels)),
        hex(DIGEST_SPECULATIVE)
    );
}

#[test]
fn thread_executor_without_speculation_matches_the_golden_digest() {
    let report = run_parallel(&Ridge, &ridge_config(SEED, false), &Tracer::disabled());
    assert_eq!(
        hex(levels_digest(&report.levels)),
        hex(DIGEST_NO_SPECULATION)
    );
}

#[test]
fn thread_executor_with_a_mid_run_checkpoint_matches_the_golden_digest() {
    let dir = std::env::temp_dir().join(format!("uq-golden-digest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let snapshots = std::sync::atomic::AtomicUsize::new(0);
    let hook = |_done: usize, _hash: &str| {
        snapshots.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };
    let spec = ParallelCheckpoint {
        store: &store,
        config_hash: 0x601d,
        every: CKPT_EVERY,
        on_snapshot: Some(&hook),
        stop: None,
    };
    let report = run_parallel_ckpt(
        &Ridge,
        &ridge_config(CKPT_SEED, true),
        &Tracer::disabled(),
        Some(&spec),
        None,
    );
    let _ = std::fs::remove_dir_all(&dir);
    // the first tick always cuts a snapshot; later ticks are skipped
    // while one is still in flight, so the count beyond one is timing
    assert!(
        snapshots.into_inner() >= 1,
        "the fixture must cut a mid-run snapshot"
    );
    assert_eq!(hex(levels_digest(&report.levels)), hex(DIGEST_CHECKPOINTED));
}
