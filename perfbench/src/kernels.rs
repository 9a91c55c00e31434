//! Micro-benchmarks of the layers below the forward eval, timed from
//! outside through each crate's public functions. Every traced run
//! measures all of them, so the kernel numbers sit beside the in-run
//! layer split of any workload.

use std::hint::black_box;
use std::time::Instant;

use uq_bench::pipeline_bench::{bench_hierarchy, bench_kappa, theta_chain};
use uq_fem::assembly::assemble;
use uq_fem::problem::constants as poisson_consts;
use uq_fem::{PoissonModel, StiffnessOperator, StructuredGrid};
use uq_linalg::solvers::{cg_into, SolverOptions, SolverWorkspace};
use uq_linalg::vector::{axpy, dot};
use uq_mlmcmc::{RunSnapshot, RunStore};
use uq_parallel::scheduler::Msg;
use uq_parallel::{
    decode_frame, encode_frame, run_runtime_ckpt, Frame, ParallelCheckpoint, RuntimeConfig, Tracer,
};
use uq_randfield::KlField2d;
use uq_swe::bathymetry::{self, Fidelity, DOMAIN};
use uq_swe::flux::{rusanov, Cons};
use uq_swe::solver::Boundary;
use uq_swe::{Grid2d, Scheme, SweSolver, SweState, TsunamiModel};

use crate::inversion::{POISSON_N, TSUNAMI_RES};
use crate::layers::Layers;
use crate::report::out_dir;
use crate::ridge::{self, Ridge};
use crate::stats::{median, time_ns};

pub fn measure(layers: &mut Layers, seed: u64) {
    linalg(layers);
    fem(layers, seed);
    swe(layers);
    wire(layers);
    store(layers, seed);
}

fn linalg(layers: &mut Layers) {
    let opts = SolverOptions {
        rel_tol: 1e-8,
        ..Default::default()
    };
    for n in POISSON_N {
        let grid = StructuredGrid::new(n);
        let rhs = assemble(&grid, &bench_kappa(&grid)).rhs;
        let h = bench_hierarchy(n);
        let a = h.matrix(0);
        let x: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
        let mut y = vec![0.0; a.rows()];
        let spmv = time_ns(|| a.matvec_into(black_box(&x), &mut y));
        layers.set(&format!("linalg.spmv_ns.n{n}"), spmv);
        layers.set(
            &format!("linalg.vcycle_ns.n{n}"),
            time_ns(|| h.vcycle_into(black_box(&rhs), &mut y)),
        );
        let mut ws = SolverWorkspace::new();
        let mut iters = 0;
        let solve = time_ns(|| {
            y.fill(0.0);
            let stats = cg_into(a, black_box(&rhs), &mut y, &h, opts, &mut ws);
            assert!(stats.converged, "MG-CG stalled at n = {n}");
            iters = stats.iterations;
        });
        layers.set(&format!("linalg.mgcg_solve_ns.n{n}"), solve);
        layers.set(&format!("linalg.mgcg_iters.n{n}"), iters as f64);
        if n == *POISSON_N.last().expect("meshes") {
            // computed bytes (no cache effects): CSR values + column
            // indices + gathered x per nonzero, row pointer + y per row
            let (nnz, rows) = (a.nnz() as f64, a.rows() as f64);
            let spmv_bytes = 24.0 * nnz + 16.0 * rows;
            layers.set("linalg.spmv_gbps", spmv_bytes / spmv);
            layers.set("linalg.spmv_flop_per_byte", 2.0 * nnz / spmv_bytes);
            let len = x.len() as f64;
            let d = time_ns(|| {
                black_box(dot(black_box(&x), black_box(&y)));
            });
            layers.set("linalg.dot_gbps", 16.0 * len / d);
            layers.set("linalg.dot_flop_per_byte", 2.0 / 16.0);
            let ax = time_ns(|| axpy(black_box(1e-9), black_box(&x), &mut y));
            layers.set("linalg.axpy_gbps", 24.0 * len / ax);
            layers.set("linalg.axpy_flop_per_byte", 2.0 / 24.0);
        }
    }
}

fn fem(layers: &mut Layers, seed: u64) {
    let field = KlField2d::new(
        poisson_consts::CORR_LEN,
        poisson_consts::FIELD_VARIANCE,
        poisson_consts::PARAM_DIM,
    );
    // a correlated θ chain: every forward call is a genuine warm-started
    // solve, as in MCMC
    let thetas = theta_chain(seed, poisson_consts::PARAM_DIM, 16);
    for n in POISSON_N {
        let mut model = PoissonModel::new(n, &field);
        let kappa = model.kappa_elements(&thetas[0]);
        layers.set(
            &format!("fem.kappa_ns.n{n}"),
            time_ns(|| {
                black_box(model.kappa_elements(black_box(&thetas[1])));
            }),
        );
        let mut op = StiffnessOperator::new(&StructuredGrid::new(n));
        layers.set(
            &format!("fem.refill_ns.n{n}"),
            time_ns(|| op.refill(black_box(&kappa))),
        );
        let mut k = 0;
        layers.set(
            &format!("fem.forward_ns.n{n}"),
            time_ns(|| {
                k += 1;
                black_box(model.forward(&thetas[k % thetas.len()]));
            }),
        );
    }
}

fn swe(layers: &mut Layers) {
    for level in 0..3 {
        let cells = TSUNAMI_RES.cells(level);
        // the level's own solver set-up, as `TsunamiModel::new` builds it
        let grid = Grid2d::new(cells, cells, DOMAIN.0, DOMAIN.1);
        let (fidelity, scheme) = match level {
            0 => (
                Fidelity::DepthAveraged,
                Scheme::SecondOrder { limiter: false },
            ),
            1 => (Fidelity::Smoothed, Scheme::SecondOrder { limiter: true }),
            _ => (Fidelity::Full, Scheme::SecondOrder { limiter: true }),
        };
        let bathy = bathymetry::tabulate(&grid, fidelity);
        let state = SweState::lake_at_rest(&bathy, 0.0);
        let mut solver = SweSolver::new(grid, bathy, state, scheme, Boundary::Outflow);
        solver.displace_surface(|x, y| 5.0 * (-(x / 6e4).powi(2) - (y / 1e5).powi(2)).exp());
        layers.set(
            &format!("swe.step_ns.c{cells}"),
            time_ns(|| {
                black_box(solver.step());
            }),
        );

        let mut model = TsunamiModel::new(level, TSUNAMI_RES);
        let theta = [10.0, -5.0];
        let t = Instant::now();
        black_box(model.forward(&theta));
        let once = t.elapsed().as_nanos() as f64;
        layers.set(
            &format!("swe.steps_per_eval.l{level}"),
            model.last_stats().timesteps as f64,
        );
        // forward evals take milliseconds: a few direct repeats suffice
        let mut samples = vec![once];
        for _ in 0..4 {
            let t = Instant::now();
            black_box(model.forward(&theta));
            samples.push(t.elapsed().as_nanos() as f64);
        }
        layers.set(&format!("swe.forward_ns.l{level}"), median(&samples));
    }
    let states: Vec<(Cons, Cons)> = (0..256)
        .map(|i| {
            let h = 1000.0 + i as f64;
            (
                Cons::new(h, 0.5 * h, 0.1),
                Cons::new(h + 3.0, 0.4 * h, -0.2),
            )
        })
        .collect();
    let batch = time_ns(|| {
        for &(l, r) in &states {
            black_box(rusanov(black_box(l), black_box(r), 0));
        }
    });
    layers.set("swe.rusanov_ns", batch / states.len() as f64);
}

fn wire(layers: &mut Layers) {
    // a remote message of the ridge jobs: one telescoping correction
    let frame = Frame::Data {
        to: 3,
        from: 5,
        msg: Msg::Correction {
            level: 1,
            y: vec![0.031],
            theta: vec![0.27],
            fine_qoi: vec![0.27],
            coarse_qoi: Some(vec![0.24]),
        },
    };
    let bytes = encode_frame(&frame);
    layers.set(
        "net.encode_ns",
        time_ns(|| {
            black_box(encode_frame(black_box(&frame)));
        }),
    );
    layers.set(
        "net.decode_ns",
        time_ns(|| {
            black_box(decode_frame(black_box(&bytes)).expect("round trip"));
        }),
    );
}

/// A real snapshot: the quiesce-barrier cut of a checkpointed ridge job.
fn ridge_snapshot(store: &RunStore, seed: u64) -> RunSnapshot {
    let config = RuntimeConfig {
        base: ridge::config([400, 150], seed),
        n_workers: 1,
        collector_shards: 1,
    };
    let ckpt = ParallelCheckpoint {
        store,
        config_hash: seed,
        every: 50,
        on_snapshot: None,
        stop: None,
    };
    run_runtime_ckpt(&Ridge, &config, &Tracer::disabled(), Some(&ckpt), None);
    store
        .latest_snapshot(Some(seed))
        .expect("readable store")
        .expect("the job took a snapshot")
        .1
}

fn store(layers: &mut Layers, seed: u64) {
    let root = out_dir().join(format!("store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = RunStore::open(&root).expect("open the bench store");
    let snap = ridge_snapshot(&store, seed);
    let mut put = Vec::new();
    let mut get = Vec::new();
    for _ in 0..15 {
        // content addressing skips existing objects: clear them first
        // so every put writes
        let objects = root.join("objects");
        for entry in std::fs::read_dir(&objects).expect("objects dir").flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
        let t = Instant::now();
        let hash = store.put_snapshot(&snap, seed).expect("put");
        put.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(store.get_snapshot(&hash).expect("get"));
        get.push(t.elapsed().as_nanos() as f64);
    }
    layers.set("store.put_ns", median(&put));
    layers.set("store.get_ns", median(&get));
    let _ = std::fs::remove_dir_all(&root);
}
