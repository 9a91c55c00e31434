//! Host fingerprint and process CPU time.

use std::process::Command;

/// Largest pair of copy arrays a bandwidth measurement may allocate on a
/// machine shared with other workloads.
const COPY_CAP_BYTES: u64 = 512 << 20;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(label, bytes)` per cache of CPU 0, e.g. `("L3", 314572800)`.
fn caches() -> Vec<(String, u64)> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |idx: usize, file: &str| {
        std::fs::read_to_string(format!("{base}/index{idx}/{file}"))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for idx in 0..8 {
        let (Some(level), Some(kind), Some(size)) =
            (read(idx, "level"), read(idx, "type"), read(idx, "size"))
        else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{suffix}"), bytes));
    }
    out
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One-line JSON fingerprint: CPU model, `nproc`, caches, compiler,
/// source revision and the copy-bandwidth decision with both sizes.
pub fn fingerprint() -> String {
    let caches = caches();
    let llc = caches.last().map_or(0, |c| c.1);
    let cache_list: Vec<String> = caches
        .iter()
        .map(|(l, b)| format!("\"{l}\": {b}"))
        .collect();
    // a roofline needs a copy bandwidth measured on two arrays of at
    // least 4x the last-level cache each. Virtualised Xeon hosts report
    // last-level caches far beyond what the cap allows (300 MiB on a
    // 2-vCPU KVM guest), so the copy bandwidth is not measured and the
    // kernels report computed flop/byte without a roofline ratio
    let copy = format!(
        "{{\"measured\": false, \"llc_bytes\": {llc}, \"array_bytes_needed\": {}, \
         \"cap_bytes_for_both\": {COPY_CAP_BYTES}}}",
        4 * llc
    );
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {}, \"caches\": {{{}}}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"copy_bandwidth\": {copy}}}",
        cpu_model(),
        nproc(),
        cache_list.join(", "),
        env!("PERFBENCH_RUSTC"),
        git_rev()
    )
}

/// User + system CPU seconds consumed by this process so far, all
/// threads included (`/proc/self/stat` fields 14 and 15, in the 100 Hz
/// USER_HZ ticks Linux exports).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name may contain spaces; fields restart after ')'
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) is index 11
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU seconds the hypervisor withheld from this machine's vCPUs so far
/// (the `steal` column of the aggregate `cpu` line of `/proc/stat`,
/// summed over CPUs; 0 where the kernel does not report it).
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / 100.0
}

/// Process CPU time and the machine's steal time at one instant.
///
/// On a virtual machine whose host is overcommitted, the hypervisor
/// withholds CPU from runnable vCPUs ("steal"); wall times then stretch
/// by an amount that depends on the neighbours, not on this program.
/// The end-to-end times are scaled by [`Meter::run_share`] to remove
/// it.
#[derive(Clone, Copy)]
pub struct Meter {
    cpu_s: f64,
    steal_s: f64,
}

impl Meter {
    pub fn now() -> Self {
        Self {
            cpu_s: process_cpu_s(),
            steal_s: steal_s(),
        }
    }

    /// The share of its runnable time since `self` that the process was
    /// actually run: `CPU / (CPU + steal)`, with the machine's steal
    /// charged to this process (the only busy one). A wall time that
    /// was CPU-bound shrinks by this factor to what an uncontended host
    /// would have taken; 1 without steal.
    pub fn run_share(&self) -> f64 {
        let cpu = process_cpu_s() - self.cpu_s;
        let steal = steal_s() - self.steal_s;
        if cpu + steal > 0.0 {
            cpu / (cpu + steal)
        } else {
            1.0
        }
    }
}
