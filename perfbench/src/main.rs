//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload poisson|tsunami|service|net --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run derives its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures jobs for `--seconds`,
//! checks every job's output and prints, as its last stdout line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics of untraced jobs; `--trace
//! 1` alternates untraced and traced jobs and reports the per-layer
//! metrics, the attribution of core-seconds to layers and the tracing
//! overhead, and writes a Chrome trace under `perfbench/out/`. The first
//! stdout line is the host fingerprint. `BENCHMARK.json` at the
//! repository root lists the workloads and metrics.
//!
//! End-to-end times are scaled by the share of its runnable time the
//! host actually ran the process ([`host::Meter`]), which removes the
//! hypervisor's steal on an overcommitted virtual machine; the printed
//! text before the result line gives the run shares and the unscaled
//! figures.

mod attribution;
mod closed_loop;
mod host;
mod inversion;
mod kernels;
mod layers;
mod net;
mod probe;
mod report;
mod ridge;
mod service;
mod stats;

use std::time::Duration;

use report::{out_dir, result_line, Metrics, Tally};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs must end within this many seconds beyond `--seconds`.
const GRACE_S: u64 = 150;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Human-readable notes for the run report.
    pub text: String,
}

/// SplitMix64 step: derives per-job seeds and inputs from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["poisson", "tsunami", "service", "net"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (poisson, tsunami, service, net)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // a hung job must not hang the run: fail it, loudly, in bounded time
    let limit = args.seconds + GRACE_S;
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(limit));
        eprintln!("perfbench: run exceeded {limit} s; aborting");
        std::process::exit(3);
    });

    let fingerprint = host::fingerprint();
    println!("host {fingerprint}");
    let outcome = match args.workload.as_str() {
        "poisson" => inversion::run(inversion::Model::Poisson, &args),
        "tsunami" => inversion::run(inversion::Model::Tsunami, &args),
        "service" => service::run(&args),
        _ => net::run(&args),
    };

    let catalogue = if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    let printed: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.as_str(), *unit))
        .collect();
    assert_eq!(printed, catalogue, "metrics out of step with the catalogue");

    let mut report = format!(
        "workload {} seed {} seconds {} trace {}\nhost {fingerprint}\n{}",
        args.workload, args.seed, args.seconds, args.trace, outcome.text
    );
    for (name, value, unit) in outcome.metrics.iter() {
        let line = format!("{name:<28} {value:>16.6} {unit}");
        println!("{line}");
        report.push_str(&line);
        report.push('\n');
    }
    for msg in &outcome.tally.failures {
        eprintln!("perfbench: failed: {msg}");
        report.push_str(&format!("failed: {msg}\n"));
    }
    let name = format!(
        "{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(out_dir().join(name), &report).expect("write the run report");
    print!("{}", outcome.text);
    println!("{}", result_line(&outcome.tally, &outcome.metrics));
}
