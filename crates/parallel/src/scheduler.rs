//! The parallel MLMCMC process architecture (paper Section 4.2, Fig. 8):
//! the vocabulary the four role protocols share, and the thread-per-rank
//! executor.
//!
//! Rank layout: rank 0 is the **root** (launches the run, tracks level
//! completion, orchestrates shutdown), rank 1 the **phonebook** (routes
//! coarse-proposal requests to chains holding fresh samples, detects load
//! imbalance from queued requests vs. unclaimed samples, and reassigns
//! chain groups — Section 4.3), ranks `2..2+L+1` are per-level
//! **collectors** (streaming moment accumulation of the telescoping
//! terms), and the remaining ranks are **controllers**, each running a
//! level-`l` chain built from the `uq-mlmcmc` coupled kernel. Controllers
//! on level `l ≥ 1` draw coarse proposals from level-`l-1` controllers
//! *through the phonebook*; the subsampling rate `ρ_l` is enforced by the
//! serving side (a chain only announces a sample as ready after `ρ_l`
//! further steps).
//!
//! The roles themselves are the state machines in [`crate::roles`];
//! this module holds their messages ([`Msg`]), configuration and report
//! types, and [`run_parallel`], which runs each machine on its own OS
//! thread. The pooled runtime ([`crate::roles::run_runtime`]) and the TCP
//! transport ([`crate::net`]) run the same machines.
//!
//! Shutdown is deadlock-free by construction: every suspended receive
//! also matches `Poison`/`Shutdown`, the phonebook poisons queued
//! requests before acknowledging shutdown, and the root only shuts
//! controllers down after the phonebook acknowledged (so no request can
//! be forwarded to an already-exited server without its requester also
//! being woken).

use crate::comm::{RankCtx, Universe};
use crate::obs::Tracer;
use crate::roles::{RoleOut, RoleSet, RuntimeConfig};
use crate::runtime::block_on;
use uq_mlmcmc::coupled::CoarseSample;
use uq_mlmcmc::ledger::{LedgerLease, LedgerState, PairingMode, ServeOutcome};
use uq_mlmcmc::store::{Backend, ChainCkpt, CollectorCkpt, RunSnapshot, RunStore};
use uq_mlmcmc::LevelFactory;

/// RNG stream seed of the controller at `rank` (every executor derives
/// it the same way, so chains are stream-identical on identical configs
/// — the cross-backend parity tests reproduce it).
pub fn controller_seed(base: u64, rank: usize) -> u64 {
    base.wrapping_add(rank as u64 * 0x9E37_79B9)
}

/// Messages exchanged between ranks.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Requester → phonebook: need one coarse sample from `level`,
    /// generated from the requester's current rewind `anchor`.
    CoarseRequest {
        level: usize,
        reply_to: usize,
        anchor: Box<CoarseSample>,
    },
    /// Phonebook → serving controller: execute one ledger serve for
    /// `reply_to` (the lease carries the session state and anchor).
    /// `speculative` serves are accept-case precomputations: the result
    /// goes back to the phonebook (inside [`Msg::ServeDone`]) instead of
    /// to `reply_to`, who never asked.
    Serve {
        reply_to: usize,
        lease: Box<LedgerLease>,
        speculative: bool,
    },
    /// Serving controller → requester: the served proposal (its `mate`
    /// field carries the ledger pairing state).
    CoarseSample {
        level: usize,
        sample: Box<CoarseSample>,
    },
    /// Serving controller → phonebook: one batched message concluding a
    /// serve — the ledger write-back, the speculative outcome (when
    /// `speculative`) and the availability re-announce folded together
    /// (PR 4 sent a separate `LedgerUpdate` plus `SampleReady` here).
    /// `session` echoes the lease's session seed so the phonebook can
    /// drop write-backs from dead session generations.
    ServeDone {
        requester: usize,
        level: usize,
        session: u64,
        /// Session stream position after this serve (`lease.serves + 1`).
        serves: u64,
        outcome: Box<ServeOutcome>,
        speculative: bool,
    },
    /// Teardown answer to a request that can no longer be served.
    Poison,
    /// Controller → phonebook: a fresh subsampled state is available.
    SampleReady { level: usize },
    /// Controller → collector: one telescoping-term sample.
    Correction {
        level: usize,
        y: Vec<f64>,
        theta: Vec<f64>,
        fine_qoi: Vec<f64>,
        coarse_qoi: Option<Vec<f64>>,
    },
    /// Collector → root: level target reached.
    LevelDone { level: usize },
    /// Root → controllers (broadcast): stop producing corrections for
    /// `level` (keep serving proposals).
    StopProducing { level: usize },
    /// Phonebook → controller: dynamic load balancing reassignment.
    Reassign { level: usize },
    /// Root → everyone: tear down.
    Shutdown,
    /// Phonebook → root: shutdown acknowledged, no more forwards.
    PhonebookDown,
    /// Phonebook → root at shutdown, just before [`Msg::PhonebookDown`]:
    /// routing/batching statistics, surfaced as
    /// [`crate::RuntimeReport::phonebook`].
    PhonebookReport(Box<crate::roles::PhonebookStats>),
    /// Collector → root at shutdown: accumulated statistics.
    CollectorReport(Box<CollectorData>),
    /// Controller → root at exit: per-level evaluation counts.
    ControllerReport {
        evals: Vec<usize>,
        eval_secs: Vec<f64>,
    },
    /// Top-level collector → root: a checkpoint interval elapsed (sent
    /// every `every` recorded corrections when checkpointing is on).
    CheckpointTick,
    /// Root → controllers, then (once all controllers acked) root →
    /// phonebook: pause own-chain stepping at the next clean boundary
    /// and capture state. Serving continues while paused, so requesters
    /// blocked mid-step still get their proposals and reach their own
    /// clean boundary.
    Checkpoint,
    /// Controller → its level's collector: per-destination-FIFO marker
    /// sent after the controller's last pre-pause [`Msg::Correction`].
    /// Once a collector has one flush per chain on its level, its count
    /// and moments are consistent with every captured chain state.
    CheckpointFlush,
    /// Controller → root: captured chain state for the snapshot.
    ControllerCkpt(Box<ChainCkpt>),
    /// Collector → root: captured accumulator state for the snapshot.
    CollectorCkpt(Box<CollectorCkpt>),
    /// Phonebook → root: the full ledger export, sent only once every
    /// dispatched serve has written back (`in_flight == 0`), so the
    /// export reflects all serve outcomes the captured chains observed.
    LedgerCkpt(Box<LedgerState>),
    /// Root → controllers (broadcast): snapshot persisted, resume
    /// stepping.
    CheckpointDone,
    /// Root → a controller being migrated (net transport): exit at the
    /// held checkpoint barrier instead of resuming. The
    /// rank's state travels in the barrier snapshot; the transport
    /// re-hosts it elsewhere and rewires routes before anyone may send
    /// to it again (see `crate::net`).
    Retire,
}

/// Post-snapshot hook for the parallel backends, called with
/// `(samples_done at the cut, content hash)`.
pub type ParallelSnapshotHook<'a> = dyn Fn(usize, &str) + Sync + 'a;

/// Checkpointing policy for a parallel run: where snapshots go, how the
/// format header is keyed, and how often the top-level collector ticks.
pub struct ParallelCheckpoint<'a> {
    /// Content-addressed store receiving the snapshots.
    pub store: &'a RunStore,
    /// Configuration hash written into every snapshot header (resume
    /// refuses snapshots taken under a different hash).
    pub config_hash: u64,
    /// Checkpoint every `every` top-level corrections (0 disables).
    pub every: usize,
    /// Called after each persisted snapshot with `(samples_done, hash)`
    /// — the crash-injection harness aborts the process from here.
    pub on_snapshot: Option<&'a ParallelSnapshotHook<'a>>,
    /// Cooperative-preemption flag. When set at the completion of a
    /// quiesce barrier, the run keeps the just-persisted snapshot as its
    /// resume point and drives the normal graceful shutdown instead of
    /// resuming the controllers — the barrier is fully quiescent (every
    /// chain paused at a clean boundary, ledger drained, nothing in
    /// flight), so stopping there strands no `ServeJob` and the snapshot
    /// resumes bit-identically. The runtime reports the stop via
    /// [`crate::RuntimeReport::preempted`]; [`run_parallel_ckpt`] stops
    /// the same way and returns the partial report up to the cut (its
    /// [`ParallelReport`] has no preempted marker, so the caller reads
    /// its own flag).
    pub stop: Option<&'a std::sync::atomic::AtomicBool>,
}

/// Data a collector ships back to the root.
#[derive(Clone, Debug)]
pub struct CollectorData {
    pub level: usize,
    pub n_samples: usize,
    pub mean: Vec<f64>,
    pub variance: Vec<f64>,
    pub theta_samples: Vec<Vec<f64>>,
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Configuration of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Target samples per level (`N_l`).
    pub samples_per_level: Vec<usize>,
    /// Burn-in steps per chain.
    pub burn_in: Vec<usize>,
    /// Initial number of chain groups per level.
    pub chains_per_level: Vec<usize>,
    /// Enable the phonebook's dynamic load balancer (Section 4.3).
    pub load_balancing: bool,
    /// Retain per-sample traces in the collectors (figures).
    pub record_samples: bool,
    /// Base RNG seed (each controller derives its own stream).
    pub seed: u64,
    /// Which coarse stream the correction moments pair against (see
    /// [`uq_mlmcmc::ledger::PairingMode`]).
    pub pairing: PairingMode,
    /// Dispatch speculative accept-case serves to idle servers (see
    /// [`uq_mlmcmc::ledger::LedgerBook`]). Statistically inert either
    /// way — a committed speculation is bit-identical to the real serve
    /// it replaces and a discarded one never touches session state
    /// (pinned by `tests/speculation_conformance.rs`) — so it defaults
    /// to on; the switch exists for A/B measurement and the conformance
    /// suite itself.
    pub speculation: bool,
}

impl ParallelConfig {
    pub fn new(samples_per_level: Vec<usize>, chains_per_level: Vec<usize>) -> Self {
        assert_eq!(samples_per_level.len(), chains_per_level.len());
        let n = samples_per_level.len();
        Self {
            samples_per_level,
            burn_in: vec![0; n],
            chains_per_level,
            load_balancing: true,
            record_samples: false,
            seed: 7,
            // the parallel backends default to the unbiased ledger
            // pairing: their pre-ledger serving was effectively unbiased
            // (independent stationary draws), so the proposal pairing's
            // O(contraction^ρ) bias would be a correctness regression
            // here. The sequential driver keeps the low-variance proposal
            // pairing by default — see DESIGN.md §5.
            pairing: PairingMode::Ledger,
            speculation: true,
        }
    }

    pub fn n_levels(&self) -> usize {
        self.samples_per_level.len()
    }

    /// Total ranks: root + phonebook + one collector per level + chains.
    pub fn n_ranks(&self) -> usize {
        2 + self.n_levels() + self.chains_per_level.iter().sum::<usize>()
    }
}

/// Per-level results of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelLevelReport {
    pub level: usize,
    pub n_samples: usize,
    /// `E[Q_0]` or `E[Q_l - Q_{l-1}]` per QOI component.
    pub mean_correction: Vec<f64>,
    pub var_correction: Vec<f64>,
    pub evaluations: usize,
    pub mean_eval_ms: f64,
    pub theta_samples: Vec<Vec<f64>>,
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Results of a parallel MLMCMC run.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    pub levels: Vec<ParallelLevelReport>,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed: f64,
    pub n_ranks: usize,
    /// Number of load-balancer reassignments performed.
    pub reassignments: usize,
}

impl ParallelReport {
    /// The telescoping-sum estimate.
    pub fn expectation(&self) -> Vec<f64> {
        let dim = self.levels[0].mean_correction.len();
        let mut total = vec![0.0; dim];
        for lvl in &self.levels {
            for (t, m) in total.iter_mut().zip(&lvl.mean_correction) {
                *t += m;
            }
        }
        total
    }

    pub fn total_evaluations(&self) -> usize {
        self.levels.iter().map(|l| l.evaluations).sum()
    }
}

/// Sentinel sample returned during teardown; its `-∞` density forces a
/// rejection, so the chain state stays valid.
pub(crate) fn poison_sample() -> CoarseSample {
    CoarseSample::plain(Vec::new(), f64::NEG_INFINITY, Vec::new())
}

pub(crate) const ROOT: usize = 0;
pub(crate) const PHONEBOOK: usize = 1;

/// Run parallel MLMCMC over the factory's hierarchy, one OS thread per
/// rank.
///
/// Spawns `config.n_ranks()` rank threads (root, phonebook, collectors,
/// controllers), each driving its [`crate::roles`] machine with
/// [`block_on`], executes the full schedule
/// and returns the assembled report. `tracer` may be
/// [`Tracer::disabled`].
pub fn run_parallel(
    factory: &dyn LevelFactory,
    config: &ParallelConfig,
    tracer: &Tracer,
) -> ParallelReport {
    run_parallel_ckpt(factory, config, tracer, None, None)
}

/// [`run_parallel`] with durable-run support: periodically persist
/// consistent-cut snapshots to `checkpoint`'s run store and/or resume a
/// run from a previously captured [`RunSnapshot`].
///
/// Both require `config.load_balancing == false` — the snapshot pins
/// each chain to a level, so the assignment must be static. A resumed
/// run continues bit-identically: every chain restores its exact kernel
/// state and RNG stream position, collectors restore their accumulators
/// and the phonebook re-imports the full rewind ledger.
///
/// Snapshots are tagged [`Backend::Thread`]; the run uses one collector
/// shard per level.
///
/// # Panics
/// Panics on inconsistent configuration or a snapshot taken by another
/// backend, seed or rank layout.
pub fn run_parallel_ckpt(
    factory: &dyn LevelFactory,
    config: &ParallelConfig,
    tracer: &Tracer,
    checkpoint: Option<&ParallelCheckpoint<'_>>,
    resume: Option<&RunSnapshot>,
) -> ParallelReport {
    let config = RuntimeConfig::one_shard(config.clone());
    let roles = RoleSet::new(
        factory,
        &config,
        tracer,
        Backend::Thread,
        checkpoint,
        resume,
    );
    let outs = Universe::run(config.n_ranks(), |ctx: RankCtx<Msg>| {
        block_on(&mut *roles.machine(ctx.rank()), ctx).0
    });
    RoleOut::root(outs).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SpanKind;
    use uq_linalg::prob::isotropic_gaussian_logpdf;
    use uq_mcmc::proposal::GaussianRandomWalk;
    use uq_mcmc::Proposal;
    use uq_mcmc::SamplingProblem;

    /// Analytic Gaussian hierarchy (same targets as the core test suite).
    struct GaussianHierarchy {
        means: Vec<f64>,
        sds: Vec<f64>,
    }

    impl GaussianHierarchy {
        fn three_level() -> Self {
            Self {
                means: vec![0.6, 0.9, 1.0],
                sds: vec![0.65, 0.55, 0.5],
            }
        }
    }

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

    impl LevelFactory for GaussianHierarchy {
        fn n_levels(&self) -> usize {
            self.means.len()
        }
        fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
            Box::new(Target {
                mean: self.means[level],
                sd: self.sds[level],
            })
        }
        fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
            Box::new(GaussianRandomWalk::new(0.8))
        }
        fn subsampling_rate(&self, _level: usize) -> usize {
            3
        }
        fn starting_point(&self, _level: usize) -> Vec<f64> {
            vec![0.0]
        }
    }

    #[test]
    fn two_level_parallel_run_completes() {
        let h = GaussianHierarchy {
            means: vec![0.5, 1.0],
            sds: vec![0.6, 0.5],
        };
        let config = ParallelConfig::new(vec![2000, 800], vec![1, 1]);
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.levels[0].n_samples, 2000);
        assert_eq!(report.levels[1].n_samples, 800);
        assert!(report.total_evaluations() >= 2800);
    }

    #[test]
    fn three_level_estimate_matches_truth() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![30_000, 4_000, 1_500], vec![2, 2, 1]);
        config.burn_in = vec![300, 100, 50];
        let report = run_parallel(&h, &config, &Tracer::disabled());
        let est = report.expectation()[0];
        assert!(
            (est - 1.0).abs() < 0.08,
            "parallel telescoping estimate {est}"
        );
        // correction means per level
        assert!((report.levels[0].mean_correction[0] - 0.6).abs() < 0.08);
        assert!((report.levels[1].mean_correction[0] - 0.3).abs() < 0.1);
    }

    #[test]
    fn load_balancer_disabled_still_completes() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![3000, 600, 200], vec![1, 1, 1]);
        config.load_balancing = false;
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.reassignments, 0);
        assert_eq!(report.levels[2].n_samples, 200);
    }

    #[test]
    fn recording_returns_samples_and_pairs() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![400, 150, 60], vec![1, 1, 1]);
        config.record_samples = true;
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.levels[0].theta_samples.len(), 400);
        assert_eq!(report.levels[1].correction_pairs.len(), 150);
        assert!(report.levels[0].correction_pairs.is_empty());
        // accepted coarse proposals appear as identical pairs
        let identical = report.levels[1]
            .correction_pairs
            .iter()
            .filter(|(c, f)| c == f)
            .count();
        assert!(identical > 0);
    }

    #[test]
    fn tracer_captures_burnin_and_evals() {
        let h = GaussianHierarchy::three_level();
        let mut config = ParallelConfig::new(vec![300, 100, 40], vec![1, 1, 1]);
        config.burn_in = vec![50, 20, 10];
        let tracer = Tracer::new();
        let _ = run_parallel(&h, &config, &tracer);
        let events = tracer.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::Burnin { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::Eval { .. })));
    }

    /// Bit-level equality of everything deterministic in a report
    /// (evaluation counts are excluded: a resumed run rebuilds its
    /// chains, so wall-clock/eval bookkeeping legitimately differs).
    fn assert_reports_identical(a: &ParallelReport, b: &ParallelReport) {
        assert_eq!(a.levels.len(), b.levels.len());
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.n_samples, lb.n_samples);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&la.mean_correction), bits(&lb.mean_correction));
            assert_eq!(bits(&la.var_correction), bits(&lb.var_correction));
            assert_eq!(la.theta_samples, lb.theta_samples);
            assert_eq!(la.correction_pairs, lb.correction_pairs);
        }
    }

    #[test]
    fn thread_resume_from_every_snapshot_is_bit_identical() {
        use std::sync::Mutex;
        use uq_mlmcmc::store::RunStore;

        // two levels: the serving chains are base chains, so serve legs
        // make no nested coarse requests and every ledger session sees a
        // deterministic request order — the regime where the thread
        // backend is bit-reproducible (three-level thread runs
        // interleave own-step and serve-leg requests on mid-level
        // sessions nondeterministically; see DESIGN.md §7)
        let h = GaussianHierarchy {
            means: vec![0.5, 1.0],
            sds: vec![0.6, 0.5],
        };
        let mut config = ParallelConfig::new(vec![300, 120], vec![1, 1]);
        config.burn_in = vec![30, 20];
        config.load_balancing = false;
        config.record_samples = true;
        let baseline = run_parallel(&h, &config, &Tracer::disabled());
        let baseline2 = run_parallel(&h, &config, &Tracer::disabled());
        assert_reports_identical(&baseline, &baseline2);

        let dir = std::env::temp_dir().join(format!("uq-thread-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let hashes: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let hook = |_done: usize, hash: &str| hashes.lock().unwrap().push(hash.to_string());
        let spec = ParallelCheckpoint {
            store: &store,
            config_hash: 99,
            every: 7,
            on_snapshot: Some(&hook),
            stop: None,
        };
        let checkpointed = run_parallel_ckpt(&h, &config, &Tracer::disabled(), Some(&spec), None);
        // checkpointing itself must not perturb the run
        assert_reports_identical(&baseline, &checkpointed);

        let hashes = hashes.into_inner().unwrap();
        assert!(
            hashes.len() >= 3,
            "expected several snapshots, got {}",
            hashes.len()
        );
        for hash in &hashes {
            let (snap, cfg) = store.get_snapshot(hash).unwrap();
            assert_eq!(cfg, 99);
            let resumed = run_parallel_ckpt(&h, &config, &Tracer::disabled(), None, Some(&snap));
            assert_reports_identical(&baseline, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_stop_flag_preempts_at_a_barrier_and_resumes_bit_identically() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        use uq_mlmcmc::store::RunStore;

        let h = GaussianHierarchy {
            means: vec![0.5, 1.0],
            sds: vec![0.6, 0.5],
        };
        let mut config = ParallelConfig::new(vec![300, 120], vec![1, 1]);
        config.burn_in = vec![30, 20];
        config.load_balancing = false;
        config.record_samples = true;
        let baseline = run_parallel(&h, &config, &Tracer::disabled());

        let dir = std::env::temp_dir().join(format!("uq-thread-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let hashes: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let hook = |_done: usize, hash: &str| hashes.lock().unwrap().push(hash.to_string());
        // raised before the run: the first completed barrier stops it
        let stop = AtomicBool::new(true);
        let spec = ParallelCheckpoint {
            store: &store,
            config_hash: 5,
            every: 30,
            on_snapshot: Some(&hook),
            stop: Some(&stop),
        };
        let stopped = run_parallel_ckpt(&h, &config, &Tracer::disabled(), Some(&spec), None);
        let hashes = hashes.into_inner().unwrap();
        assert_eq!(hashes.len(), 1, "the run must stop at its first barrier");
        assert!(
            stopped.levels[1].n_samples < 120,
            "stopped run reached its target"
        );

        let (snap, _) = store.get_snapshot(&hashes[0]).unwrap();
        assert_eq!(snap.samples_done, stopped.levels[1].n_samples);
        let resumed = run_parallel_ckpt(&h, &config, &Tracer::disabled(), None, Some(&snap));
        assert_reports_identical(&baseline, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extra_chains_on_coarse_level_share_load() {
        let h = GaussianHierarchy::three_level();
        let config = ParallelConfig::new(vec![4000, 800, 300], vec![3, 1, 1]);
        let report = run_parallel(&h, &config, &Tracer::disabled());
        assert_eq!(report.levels[0].n_samples, 4000);
        assert!(report.expectation()[0].is_finite());
    }
}
