//! What the benchmark reads from the operating system (Linux `/proc`)
//! and the seed arithmetic shared by every workload.

use std::fs;

/// One step of splitmix64 — the mixer the repository's own crates use
/// for seed derivation. Sub-seeds and fault schedules are drawn from it
/// so the same `--seed` always yields the same inputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th sub-seed of `seed` within a named `domain`.
pub fn sub_seed(seed: u64, domain: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ domain.wrapping_mul(0xa076_1d64_78bd_642f)).wrapping_add(index))
}

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; there is no safe-code way to ask.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process (all threads, including ones
/// already joined) has consumed.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from after its closing parenthesis.
    let after_comm = stat.rsplit_once(')').expect("stat has a comm field").1;
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("stat carries utime and stime") as f64
    };
    (ticks() + ticks()) / CLOCK_TICKS_PER_S
}

/// Start the peak resident set size over from the current one. Where
/// the kernel does not allow it the peak stays the process's all-time
/// one, which is still a reading.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last reset, MiB
/// (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status carries VmHWM");
    kib / 1024.0
}

/// Remove every variable a library crate reads, so an inherited shell
/// cannot change the workload. Must run before any thread starts.
pub fn scrub_environment() {
    let ours: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WEBCAP_"))
        .collect();
    for key in ours {
        std::env::remove_var(&key);
    }
}
