//! The benchmark-side forward-eval wrapper.
//!
//! [`ProbeFactory`] wraps any [`LevelFactory`] so that, while its
//! [`Probe`] is on, every `log_density` call (one forward-model
//! evaluation) is counted and timed per level, and the first
//! [`SPAN_CAP`] of them are also recorded as `Eval { level }` spans in
//! the probe's own [`Tracer`]. A span's rank is the OS thread that ran
//! it, so the Chrome trace shows one row per worker thread. When the
//! probe is off the wrapper only forwards the call: it reads no clock.
//!
//! A probe made with `count_steps` also counts, on or off, each level's
//! MH steps from outside the chain: every proposal is one `log_density`
//! call, and the kernels ask for a QoI only of a state the chain takes
//! on (an accepted candidate, a chain start or a coarse anchor). So
//! `proposals - states` is the number of rejected candidates, and a
//! QoI asked away from the level's starting point is a move.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::LevelFactory;
use uq_parallel::{SpanKind, TraceEvent, Tracer};

/// Levels the per-level counters cover.
pub const MAX_LEVELS: usize = 3;

/// Spans kept per probe: enough for every eval of the traced inversions
/// (about 15k each), while the nanosecond evals of the ridge workloads
/// (millions per run) stay bounded in memory.
const SPAN_CAP: usize = 200_000;

/// Switch, per-level counters and span sink shared by every problem a
/// [`ProbeFactory`] hands out.
pub struct Probe {
    on: AtomicBool,
    count_steps: bool,
    spans: Tracer,
    recorded: AtomicUsize,
    count: [AtomicU64; MAX_LEVELS],
    busy_ns: [AtomicU64; MAX_LEVELS],
    proposals: [AtomicU64; MAX_LEVELS],
    states: [AtomicU64; MAX_LEVELS],
    moves: [AtomicU64; MAX_LEVELS],
}

/// MH step counts of one level (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Steps {
    /// Candidates evaluated.
    pub proposals: u64,
    /// States taken on: accepted candidates, chain starts and anchors.
    pub states: u64,
    /// States taken on away from the level's starting point.
    pub moves: u64,
}

impl Steps {
    /// Candidates the chain rejected.
    pub fn rejected(&self) -> u64 {
        self.proposals.saturating_sub(self.states)
    }

    /// Share of the candidates that moved the chain (anchors taken away
    /// from the start count as moves too).
    pub fn acceptance(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.moves as f64 / self.proposals as f64
        }
    }

    /// Counts between two readings of [`Probe::steps`].
    pub fn since(&self, before: &Steps) -> Steps {
        Steps {
            proposals: self.proposals - before.proposals,
            states: self.states - before.states,
            moves: self.moves - before.moves,
        }
    }
}

impl Probe {
    /// A probe recording into `spans` (share the epoch of the run's
    /// tracer so both land on one timeline). Starts off. With
    /// `count_steps` it counts every level's MH steps at all times.
    pub fn new(spans: Tracer, count_steps: bool) -> Arc<Self> {
        Arc::new(Self {
            on: AtomicBool::new(false),
            count_steps,
            spans,
            recorded: AtomicUsize::new(0),
            count: Default::default(),
            busy_ns: Default::default(),
            proposals: Default::default(),
            states: Default::default(),
            moves: Default::default(),
        })
    }

    /// Step counts per level so far (zeros unless made with
    /// `count_steps`).
    pub fn steps(&self) -> [Steps; MAX_LEVELS] {
        std::array::from_fn(|l| Steps {
            proposals: self.proposals[l].load(Ordering::Relaxed),
            states: self.states[l].load(Ordering::Relaxed),
            moves: self.moves[l].load(Ordering::Relaxed),
        })
    }

    /// Evals seen on `level` while on.
    pub fn count(&self, level: usize) -> u64 {
        self.count[level].load(Ordering::Relaxed)
    }

    /// Wall seconds spent in evals on `level` while on.
    pub fn busy_s(&self, level: usize) -> f64 {
        self.busy_ns[level].load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn tracer(&self) -> &Tracer {
        &self.spans
    }

    /// Recorded eval spans (at most [`SPAN_CAP`]), sorted by start time.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.spans.events()
    }
}

/// Small dense id of the calling OS thread (the span's rank).
fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// A [`LevelFactory`] whose problems report their forward evals to a
/// [`Probe`].
pub struct ProbeFactory {
    inner: Arc<dyn LevelFactory>,
    probe: Arc<Probe>,
}

impl ProbeFactory {
    pub fn new(inner: Arc<dyn LevelFactory>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl LevelFactory for ProbeFactory {
    fn n_levels(&self) -> usize {
        self.inner.n_levels()
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(ProbeProblem {
            inner: self.inner.problem(level),
            probe: Arc::clone(&self.probe),
            level,
            start: self.inner.starting_point(level),
        })
    }
    fn proposal(&self, level: usize) -> Box<dyn Proposal> {
        self.inner.proposal(level)
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        self.inner.subsampling_rate(level)
    }
    fn starting_point(&self, level: usize) -> Vec<f64> {
        self.inner.starting_point(level)
    }
    fn burn_in(&self, level: usize) -> usize {
        self.inner.burn_in(level)
    }
}

struct ProbeProblem {
    inner: Box<dyn SamplingProblem>,
    probe: Arc<Probe>,
    level: usize,
    start: Vec<f64>,
}

impl SamplingProblem for ProbeProblem {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn log_density(&mut self, theta: &[f64]) -> f64 {
        if self.probe.count_steps {
            self.probe.proposals[self.level].fetch_add(1, Ordering::Relaxed);
        }
        if !self.probe.on.load(Ordering::Relaxed) {
            return self.inner.log_density(theta);
        }
        let probe = &self.probe;
        let start = probe.spans.now();
        let value = self.inner.log_density(theta);
        let end = probe.spans.now();
        probe.count[self.level].fetch_add(1, Ordering::Relaxed);
        probe.busy_ns[self.level].fetch_add(((end - start) * 1e9) as u64, Ordering::Relaxed);
        if probe.recorded.fetch_add(1, Ordering::Relaxed) < SPAN_CAP {
            let kind = SpanKind::Eval { level: self.level };
            probe.spans.record(thread_slot(), kind, start, end);
        }
        value
    }
    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        if self.probe.count_steps {
            self.probe.states[self.level].fetch_add(1, Ordering::Relaxed);
            if theta != self.start.as_slice() {
                self.probe.moves[self.level].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.qoi(theta)
    }
    fn qoi_dim(&self) -> usize {
        self.inner.qoi_dim()
    }
}
