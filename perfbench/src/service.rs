//! The `service` workload: a long-lived [`Service`] on loopback TCP,
//! driven by a closed loop of two [`ServiceClient`] tenants (priorities
//! 1 and 2). Each tenant submits a ridge job, waits for it and submits
//! the next; every `PREEMPT_EVERY`-th job is preempted by its own client
//! after its first snapshot and resumed, so snapshot reads run beside
//! the other tenant's writes. Jobs checkpoint every `QUANTUM` top-level
//! corrections. The job stores live under `perfbench/out/`, on the
//! checkout's own file system: device durability cost is whatever that
//! file system charges, and each job's store is removed once the job is
//! checked.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use uq_mlmcmc::ledger::tenant_seed;
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    Counter, Epoch, JobSpec, JobState, JobStatus, RuntimeConfig, Service, ServiceClient,
    ServiceConfig, Tracer,
};

use crate::attribution::{record_traced, Traced};
use crate::closed_loop::SetUps;
use crate::host::Meter;
use crate::layers::Layers;
use crate::probe::{Probe, ProbeFactory};
use crate::report::{end_to_end, out_dir, write_chrome_trace, Tally};
use crate::ridge::{self, JobInput, Ridge};
use crate::stats::median;
use crate::{host, kernels, mix, Args, Outcome};

/// `(tenant, priority)` of the two clients.
const TENANTS: [(u64, f64); 2] = [(1, 1.0), (2, 2.0)];
/// Ridge samples per level of one job.
const SAMPLES: [usize; 2] = [20000, 6000];
/// Snapshot every this many top-level corrections.
const QUANTUM: usize = 1500;
/// Every this-many-th job of a client is preempted and resumed.
const PREEMPT_EVERY: usize = 4;
/// Distinct job inputs per tenant, cycled through: enough that the
/// seed-to-seed cost differences of single jobs average out in a run.
const JOBS_PER_TENANT: usize = 8;
/// Jobs per client in each set-up's warm-up.
const WARMUP_JOBS: usize = 3;

/// Inputs per tenant, with references computed by `run_parallel` at the
/// tenant-namespaced seed, outside every timed window.
fn inputs(seed: u64) -> Vec<Vec<JobInput>> {
    TENANTS
        .iter()
        .map(|&(tenant, _)| {
            (0..JOBS_PER_TENANT)
                .map(|k| {
                    let config = ridge::config(SAMPLES, mix(seed ^ (tenant << 32) ^ k as u64));
                    let seed = tenant_seed(config.seed, tenant);
                    JobInput::new(config, seed)
                })
                .collect()
        })
        .collect()
}

/// A completed job must carry the standalone digest at its tenant seed.
fn check(status: &JobStatus, input: &JobInput, tenant: u64) -> Result<(), String> {
    if status.state != JobState::Completed {
        return Err(format!("job {} ended {:?}", status.job, status.state));
    }
    if status.seed != tenant_seed(input.config.seed, tenant) {
        return Err(format!(
            "job {} ran outside tenant {tenant}'s seed space",
            status.job
        ));
    }
    if status.digest != input.digest {
        return Err(format!(
            "job {} digest {:#018x} != standalone {:#018x}",
            status.job, status.digest, input.digest
        ));
    }
    Ok(())
}

/// Per-job observations of one client.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    tte: Vec<f64>,
    submit_ns: Vec<f64>,
    tte_over_predicted: Vec<f64>,
    snapshots: Vec<f64>,
    store_bytes: Vec<f64>,
    serves: Vec<f64>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.tally.absorb(other.tally);
        self.tte.extend(other.tte);
        self.submit_ns.extend(other.submit_ns);
        self.tte_over_predicted.extend(other.tte_over_predicted);
        self.snapshots.extend(other.snapshots);
        self.store_bytes.extend(other.store_bytes);
        self.serves.extend(other.serves);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Interval of the clients' status polls. `ServiceClient::wait` polls
/// every 10 ms, which would round every job's time up to that grid and
/// hide any change in the service below it.
const POLL: Duration = Duration::from_millis(1);

fn status(client: &mut ServiceClient, id: u64) -> std::io::Result<JobStatus> {
    client
        .status(id)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "job vanished"))
}

/// Poll until the job leaves `Queued`/`Running`.
fn settle(client: &mut ServiceClient, id: u64) -> std::io::Result<JobStatus> {
    loop {
        let st = status(client, id)?;
        if !matches!(st.state, JobState::Queued | JobState::Running) {
            return Ok(st);
        }
        std::thread::sleep(POLL);
    }
}

/// Wait out a job, preempting it after its first snapshot and resuming
/// it when `preempt` is set.
fn await_job(client: &mut ServiceClient, id: u64, preempt: bool) -> std::io::Result<JobStatus> {
    if preempt {
        loop {
            let st = status(client, id)?;
            match st.state {
                JobState::Running if st.snapshots >= 1 => {
                    if client.preempt(id)? {
                        break;
                    }
                }
                JobState::Completed | JobState::Cancelled | JobState::Preempted => break,
                _ => std::thread::sleep(POLL),
            }
        }
        let st = settle(client, id)?;
        if st.state == JobState::Preempted {
            client.resume(id)?;
            return settle(client, id);
        }
        return Ok(st);
    }
    settle(client, id)
}

/// When a client stops: after a number of jobs (warm-up) or at a
/// deadline (the measured window).
#[derive(Clone, Copy)]
enum Until {
    Jobs(usize),
    Deadline(Instant),
}

/// Phases of a traced window. Untraced and traced phases alternate, so
/// the host's drift over the window falls on both alike.
const TRACE_PHASES: usize = 10;

/// The phase switches of a traced run: once the clock passes each of
/// `at`, both clients meet between two jobs; one of them runs
/// `on_switch(k)` for the `k`-th switch (the probe flips) before either
/// submits again. No job runs across a switch.
struct Switches {
    at: Vec<Instant>,
    barrier: Barrier,
    on_switch: Box<dyn Fn(usize) + Send + Sync>,
}

/// Clock, process CPU and the service's admission counters at a phase
/// boundary.
#[derive(Clone, Copy)]
struct Point {
    at: Instant,
    cpu_s: f64,
    admitted: u64,
    preempted: u64,
}

impl Point {
    fn now(svc_tracer: &Tracer) -> Self {
        Self {
            at: Instant::now(),
            cpu_s: host::process_cpu_s(),
            admitted: svc_tracer.counter(Counter::JobsAdmitted),
            preempted: svc_tracer.counter(Counter::JobsPreempted),
        }
    }
}

/// One tenant's closed loop. Returns the logs of the untraced and the
/// traced phases.
fn client_loop(
    client: &mut ServiceClient,
    store_root: &Path,
    (tenant, priority): (u64, f64),
    inputs: &[JobInput],
    until: Until,
    switches: Option<&Switches>,
) -> [ClientLog; 2] {
    let mut logs: [ClientLog; 2] = Default::default();
    let mut switched = 0;
    for k in 0.. {
        // every switch time lies before the deadline, so both clients
        // make every switch before either stops
        if let Some(sw) = switches {
            while switched < sw.at.len() && Instant::now() >= sw.at[switched] {
                if sw.barrier.wait().is_leader() {
                    (sw.on_switch)(switched);
                }
                sw.barrier.wait();
                switched += 1;
            }
        }
        let phase = switched % 2;
        match until {
            Until::Jobs(n) if k >= n => break,
            Until::Deadline(d) if Instant::now() >= d => break,
            _ => {}
        }
        let log = &mut logs[phase];
        let input = &inputs[k % inputs.len()];
        let spec = JobSpec {
            tenant,
            priority,
            model: "ridge".to_string(),
            config: RuntimeConfig {
                base: input.config.clone(),
                n_workers: 1,
                collector_shards: 1,
            },
            deadline: 0.0,
        };
        let t0 = Instant::now();
        let outcome = client.submit(spec).and_then(|admitted| {
            log.submit_ns.push(t0.elapsed().as_nanos() as f64);
            match admitted {
                Ok((id, predicted)) => {
                    let preempt = k % PREEMPT_EVERY == PREEMPT_EVERY - 1;
                    let st = await_job(client, id, preempt)?;
                    let tte = t0.elapsed().as_secs_f64();
                    Ok(Ok((st, tte, predicted)))
                }
                Err(reason) => Ok(Err(format!("tenant {tenant}: submit refused: {reason}"))),
            }
        });
        match outcome {
            Ok(Ok((st, tte, predicted))) => {
                log.tally.record(check(&st, input, tenant));
                log.tte.push(tte);
                log.tte_over_predicted.push(tte / predicted);
                log.snapshots.push(st.snapshots as f64);
                log.serves.push(st.serves as f64);
                let job_dir = store_root.join(format!("job-{}", st.job));
                log.store_bytes
                    .push(dir_bytes(&job_dir.join("objects")) as f64);
                let _ = std::fs::remove_dir_all(&job_dir);
            }
            Ok(Err(refused)) => log.tally.record(Err(refused)),
            Err(io) => {
                log.tally
                    .record(Err(format!("tenant {tenant}: connection: {io}")));
                // keep meeting the switch; a dead connection fails fast
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    logs
}

/// A running service with its two connected clients.
struct Stack {
    service: Service,
    clients: Vec<ServiceClient>,
    store_root: PathBuf,
}

impl Stack {
    fn start(factory: Arc<dyn LevelFactory + Send + Sync>, tracer: &Tracer, rep: usize) -> Self {
        let store_root = out_dir().join(format!("svc-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_root);
        let mut cfg = ServiceConfig::new(&store_root);
        cfg.lanes = TENANTS.len();
        cfg.pool_workers = host::nproc();
        cfg.quantum = QUANTUM;
        let mut service = Service::start(cfg, tracer);
        service.register_model("ridge", factory);
        let addr = service
            .listen("127.0.0.1:0")
            .expect("bind the service on loopback")
            .to_string();
        let clients = TENANTS
            .iter()
            .map(|_| ServiceClient::connect(&addr).expect("connect a client"))
            .collect();
        Self {
            service,
            clients,
            store_root,
        }
    }

    /// Both clients' loops, concurrently.
    fn drive(
        &mut self,
        inputs: &[Vec<JobInput>],
        until: Until,
        switches: Option<&Switches>,
    ) -> Vec<[ClientLog; 2]> {
        let root = &self.store_root;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(TENANTS)
                .zip(inputs)
                .map(|((client, tenant), inputs)| {
                    s.spawn(move || client_loop(client, root, tenant, inputs, until, switches))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    fn stop(self) {
        for client in self.clients {
            let _ = client.bye();
        }
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.store_root);
    }
}

pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    let epoch = Epoch::now();
    let probe = Probe::new(Tracer::with_epoch(epoch), false);
    let factory: Arc<dyn LevelFactory + Send + Sync> =
        Arc::new(ProbeFactory::new(Arc::new(Ridge), Arc::clone(&probe)));
    // admission counters are read in traced runs only
    let svc_tracer = if args.trace {
        Tracer::with_epoch(epoch)
    } else {
        Tracer::disabled()
    };
    let mut tally = Tally::default();

    // set-up: service, listener, clients and a warm-up that also teaches
    // the admission model measured eval times
    let (mut stack, setups) = SetUps::run(
        |rep| {
            let mut s = Stack::start(Arc::clone(&factory), &svc_tracer, rep);
            for [untraced, traced] in s.drive(&inputs, Until::Jobs(WARMUP_JOBS), None) {
                tally.absorb(untraced.tally);
                tally.absorb(traced.tally);
            }
            s
        },
        Stack::stop,
    );

    let meter = Meter::now();
    let start = Point::now(&svc_tracer);
    let deadline = start.at + Duration::from_secs(args.seconds);
    let points: Arc<Mutex<Vec<Point>>> = Arc::new(Mutex::new(vec![start]));
    let switches = args.trace.then(|| {
        let probe = Arc::clone(&probe);
        let points = Arc::clone(&points);
        let svc_tracer = svc_tracer.clone();
        let phase_s = args.seconds as f64 / TRACE_PHASES as f64;
        Switches {
            at: (1..TRACE_PHASES)
                .map(|k| start.at + Duration::from_secs_f64(phase_s * k as f64))
                .collect(),
            barrier: Barrier::new(TENANTS.len()),
            on_switch: Box::new(move |k| {
                probe.set(k % 2 == 0);
                points
                    .lock()
                    .expect("phase boundaries")
                    .push(Point::now(&svc_tracer));
            }),
        }
    });
    let logs = stack.drive(&inputs, Until::Deadline(deadline), switches.as_ref());
    let end = Point::now(&svc_tracer);
    let share = meter.run_share();
    probe.set(false);
    let window = (end.at - start.at).as_secs_f64();

    let [mut untraced, mut traced]: [ClientLog; 2] = Default::default();
    for [u, t] in logs {
        untraced.absorb(u);
        traced.absorb(t);
    }
    let mut text = format!(
        "service: {} + {} jobs (untraced + traced) in {window:.2} s, {} tenants, pool of {} workers\n",
        untraced.tte.len(),
        traced.tte.len(),
        TENANTS.len(),
        host::nproc()
    );

    let metrics = if args.trace {
        let mut layers = Layers::default();
        kernels::measure(&mut layers, args.seed);
        let mut points = std::mem::take(&mut *points.lock().expect("phase boundaries"));
        points.push(end);
        // phase p runs from points[p] to points[p + 1]; odd phases are
        // traced
        let traced_phases: Vec<(Point, Point)> = points
            .windows(2)
            .skip(1)
            .step_by(2)
            .map(|w| (w[0], w[1]))
            .collect();
        let sum = |f: &dyn Fn(&Point, &Point) -> f64| -> f64 {
            traced_phases.iter().map(|(a, b)| f(a, b)).sum()
        };
        let jobs = traced.tte.len().max(1) as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / jobs;
        layers.set("ledger.serves", mean(&traced.serves));
        layers.set("store.snapshots", mean(&traced.snapshots));
        layers.set("store.bytes", mean(&traced.store_bytes));
        layers.set("svc.submit_ns", median(&traced.submit_ns));
        layers.set(
            "svc.jobs_admitted",
            sum(&|a, b| (b.admitted - a.admitted) as f64),
        );
        layers.set(
            "svc.jobs_preempted",
            sum(&|a, b| (b.preempted - a.preempted) as f64),
        );
        layers.set("svc.tte_over_predicted", median(&traced.tte_over_predicted));
        // the service's own per-job tracers are internal: no obs spans,
        // so chain steps fall into the unattributed share
        text.push_str(&record_traced(
            &mut layers,
            &Traced {
                obs: &Tracer::disabled(),
                steps: &[],
                probe: &probe,
                samples: &SAMPLES,
                jobs: traced.tte.len(),
                wall_s: sum(&|a, b| (b.at - a.at).as_secs_f64()),
                cpu_s: sum(&|a, b| b.cpu_s - a.cpu_s),
                traced_tte: &traced.tte,
                untraced_tte: &untraced.tte,
            },
        ));
        // the first 50 ms of the first traced phase: ~13k evals
        let first = traced_phases.first().expect("a traced phase").0;
        let until = probe.tracer().now() - (end.at - first.at).as_secs_f64() + 0.05;
        text.push_str(&write_chrome_trace(
            &args.workload,
            args.seed,
            until,
            &[("forward evals (benchmark wrapper)", probe.tracer())],
        ));
        layers.into_metrics()
    } else {
        let (m, line) = end_to_end(&untraced.tte, window, share, &setups, "jobs");
        text.push_str(&line);
        m
    };
    tally.absorb(untraced.tally);
    tally.absorb(traced.tally);
    stack.stop();
    Outcome {
        tally,
        metrics,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job checked against a wrong reference digest is a failed
    /// operation, not a pass; against the right one it passes.
    #[test]
    fn a_wrong_reference_digest_fails_the_job() {
        let mut inputs = inputs(11);
        let probe = Probe::new(Tracer::disabled(), false);
        let factory = Arc::new(ProbeFactory::new(Arc::new(Ridge), probe));
        let mut stack = Stack::start(factory, &Tracer::disabled(), 99);
        for tenant_inputs in &mut inputs {
            tenant_inputs.truncate(1);
        }
        inputs[1][0].digest ^= 1;
        let logs = stack.drive(&inputs, Until::Jobs(1), None);
        stack.stop();
        assert_eq!(logs[0][0].tally.attempted, 1);
        assert_eq!(
            logs[0][0].tally.failed, 0,
            "{:?}",
            logs[0][0].tally.failures
        );
        assert_eq!(logs[1][0].tally.attempted, 1);
        assert_eq!(logs[1][0].tally.failed, 1);
        assert!(logs[1][0].tally.failures[0].contains("digest"));
    }
}
