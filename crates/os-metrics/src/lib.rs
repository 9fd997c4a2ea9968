//! Sysstat-like OS-level metric synthesis for the webcap testbed.
//!
//! The paper's comparison baseline collects **64 OS-level metrics** with
//! Sysstat 7.0.3 and finds them noticeably less accurate than hardware
//! counters for capacity measurement, especially under browsing-mix
//! traffic whose overload is caused by a few heavy database queries
//! (Section V-B, observation 2). This crate reproduces both the metric
//! surface and its limitations:
//!
//! * The 64 metrics ([`OS_METRIC_NAMES`]) span CPU, scheduler, memory,
//!   swap, paging, disk, network, sockets, and kernel tables — most carry
//!   little or no information about overload, exercising attribute
//!   selection realistically.
//! * CPU utilization **saturates at 100%**: once a tier is near its knee,
//!   `%user`/`%idle` look the same whether the backlog is stable or
//!   growing.
//! * OS metrics are **coarse and noisy** — they are derived from sampled
//!   scheduler snapshots and quantized the way sysstat reports them,
//!   unlike exact hardware event counts. The default relative noise is an
//!   order of magnitude larger than HPC counter noise.
//! * OS metrics carry **long-memory disturbances**: daemon activity, log
//!   rotation, checkpoint cycles and cache churn bias scheduler, disk and
//!   paging metrics on a time scale of minutes, so the bias does *not*
//!   average out within a 30-second aggregation window. Hardware event
//!   *ratios* (IPC, miss rates) are immune — the events count the
//!   workload itself.
//! * OS metrics carry **no instruction-mix channel**: a heavy scan and a
//!   burst of light transactions with the same CPU share are
//!   indistinguishable, which is exactly the paper's diagnosis of why OS
//!   metrics fail on browsing-mix overload.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use webcap_os::OsCollector;
//! use webcap_sim::{TierId, TierSample};
//!
//! let mut collector = OsCollector::new(TierId::Db);
//! let tier_state = TierSample { utilization: 0.95, ..Default::default() };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sample = collector.sample(&tier_state, 1.0, &mut rng);
//! assert_eq!(sample.values().len(), 64);
//! ```

// The determinism bans of DESIGN §8 (configured in the root `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

use rand::Rng;
use serde::{Deserialize, Serialize};
use webcap_sim::gauss::{self, GaussPairs};
use webcap_sim::{TierId, TierSample};

/// One collected OS metric.
struct Metric {
    /// Sysstat name.
    name: &'static str,
    /// Stationary standard deviation of the metric's slow multiplicative
    /// bias: large for scheduler/disk/paging metrics (daemon and
    /// checkpoint interference), small for memory levels, zero for CPU
    /// accounting.
    bias_amplitude: f64,
    /// A percentage (`pct_*`): capped at 100 once the bias is folded in.
    percent: bool,
}

const fn metric(name: &'static str, bias_amplitude: f64) -> Metric {
    Metric {
        name,
        bias_amplitude,
        percent: matches!(name.as_bytes(), [b'p', b'c', b't', b'_', ..]),
    }
}

/// The 64 metrics, in feature order. A metric is declared by its row
/// here and nowhere else: the row's position is the metric's slot in
/// every [`OsSample`] (and in the wire schema hash), and [`slot`] turns
/// the name into that position while compiling.
const METRICS: [Metric; 64] = [
    // CPU accounting is exact jiffy counting in the kernel; it is
    // saturating (its limitation), not biased.
    metric("pct_user", 0.0),
    metric("pct_nice", 0.0),
    metric("pct_system", 0.0),
    metric("pct_iowait", 0.0),
    metric("pct_steal", 0.15),
    metric("pct_idle", 0.0),
    // Scheduler statistics are 1 Hz snapshots of an extremely bursty,
    // strongly autocorrelated quantity: their window means carry large
    // correlated errors.
    metric("runq_sz", 0.60),
    metric("plist_sz", 0.15),
    metric("ldavg_1", 0.60),
    metric("ldavg_5", 0.60),
    metric("ldavg_15", 0.60),
    metric("blocked", 0.60),
    // Task churn.
    metric("proc_per_s", 0.40),
    metric("cswch_per_s", 0.40),
    metric("intr_per_s", 0.40),
    // Memory and swap levels barely drift.
    metric("kbmemfree", 0.04),
    metric("kbmemused", 0.04),
    metric("pct_memused", 0.04),
    metric("kbbuffers", 0.04),
    metric("kbcached", 0.04),
    metric("kbcommit", 0.04),
    metric("pct_commit", 0.04),
    metric("kbactive", 0.04),
    metric("kbinact", 0.04),
    metric("kbswpfree", 0.04),
    metric("kbswpused", 0.04),
    metric("pct_swpused", 0.15),
    metric("kbswpcad", 0.04),
    // Paging.
    metric("pgpgin_per_s", 0.40),
    metric("pgpgout_per_s", 0.40),
    metric("fault_per_s", 0.40),
    metric("majflt_per_s", 0.40),
    metric("pgfree_per_s", 0.40),
    metric("pgscank_per_s", 0.15),
    metric("pgscand_per_s", 0.15),
    metric("pgsteal_per_s", 0.15),
    // Disk.
    metric("tps", 0.40),
    metric("rtps", 0.40),
    metric("wtps", 0.40),
    metric("bread_per_s", 0.40),
    metric("bwrtn_per_s", 0.40),
    // Network.
    metric("rxpck_per_s", 0.15),
    metric("txpck_per_s", 0.15),
    metric("rxkb_per_s", 0.15),
    metric("txkb_per_s", 0.15),
    metric("rxcmp_per_s", 0.15),
    metric("txcmp_per_s", 0.15),
    metric("rxmcst_per_s", 0.15),
    metric("txmcst_per_s", 0.15),
    // Sockets.
    metric("totsck", 0.15),
    metric("tcpsck", 0.15),
    metric("udpsck", 0.15),
    metric("rawsck", 0.15),
    metric("ip_frag", 0.15),
    metric("tcp_tw", 0.15),
    // Kernel tables, ttys, per-page churn.
    metric("dentunusd", 0.15),
    metric("file_nr", 0.15),
    metric("inode_nr", 0.15),
    metric("pty_nr", 0.15),
    metric("rcvin_per_s", 0.15),
    metric("xmtin_per_s", 0.15),
    metric("frmpg_per_s", 0.15),
    metric("bufpg_per_s", 0.15),
    metric("campg_per_s", 0.15),
];

/// Names of the 64 collected OS metrics, in feature order (sysstat
/// vocabulary).
pub const OS_METRIC_NAMES: [&str; 64] = {
    let mut names = [""; 64];
    let mut i = 0;
    while i < names.len() {
        names[i] = METRICS[i].name;
        i += 1;
    }
    names
};

/// Slot of the metric called `name`. Meant for `const` contexts, where a
/// name that is not in [`METRICS`] fails the build instead of a run.
const fn slot(name: &str) -> usize {
    let name = name.as_bytes();
    let mut i = 0;
    while i < METRICS.len() {
        let candidate = METRICS[i].name.as_bytes();
        let mut same = candidate.len() == name.len();
        let mut b = 0;
        while same && b < name.len() {
            same = candidate[b] == name[b];
            b += 1;
        }
        if same {
            return i;
        }
        i += 1;
    }
    panic!("not an OS metric name")
}

/// One interval's worth of the 64 OS metrics on one tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OsSample {
    values: Vec<f64>,
}

impl OsSample {
    /// The 64 values, aligned with [`OS_METRIC_NAMES`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The 64 values, moved out.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Value of a named metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`OS_METRIC_NAMES`].
    pub fn value(&self, name: &str) -> f64 {
        let idx = OS_METRIC_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown OS metric {name}"));
        self.values[idx]
    }

    /// Feature names with a tier prefix, aligned with [`OsSample::values`].
    pub fn feature_names(prefix: &str) -> Vec<String> {
        OS_METRIC_NAMES
            .iter()
            .map(|n| format!("{prefix}{n}"))
            .collect()
    }
}

/// A per-tier OS metric collector (the Sysstat analogue).
///
/// Stateful because load averages are exponentially weighted histories of
/// the run-queue length.
#[derive(Debug, Clone)]
pub struct OsCollector {
    tier: TierId,
    noise_rel: f64,
    bias_scale: f64,
    ldavg: [f64; 3],
    total_mem_kb: f64,
    /// Per-metric slow multiplicative bias (OU process), index-aligned
    /// with [`OS_METRIC_NAMES`].
    bias: [f64; 64],
    bias_initialized: bool,
}

/// OU mean-reversion rate of the bias per second (τ ≈ 50 s, so the bias
/// survives a 30-second window).
const BIAS_REVERT: f64 = 0.02;

/// Gaussian draws one [`OsCollector::sample`] row makes after its bias
/// step: one per `noisy` call, whatever the noise level. Pinned against
/// `sample` by the `skip_consumes_what_sample_consumes` test.
const ROW_GAUSS_DRAWS: usize = 41;

impl OsCollector {
    /// Create a collector for one tier with the default noise level.
    pub fn new(tier: TierId) -> OsCollector {
        let total_mem_kb = match tier {
            TierId::App => 512.0 * 1024.0, // the paper's 512 MB app server
            TierId::Db => 1024.0 * 1024.0, // and 1 GB DB server
        };
        OsCollector {
            tier,
            noise_rel: 0.18,
            bias_scale: 1.0,
            ldavg: [0.0; 3],
            total_mem_kb,
            bias: [0.0; 64],
            bias_initialized: false,
        }
    }

    /// Override the relative sampling noise of dynamic metrics.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is negative or non-finite.
    #[cfg(test)]
    fn with_noise(mut self, rel: f64) -> OsCollector {
        assert!(rel >= 0.0 && rel.is_finite(), "noise must be nonnegative");
        self.noise_rel = rel;
        self
    }

    /// Scale the slow-bias disturbances (0 disables them).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    #[cfg(test)]
    fn with_bias_scale(mut self, scale: f64) -> OsCollector {
        assert!(
            scale >= 0.0 && scale.is_finite(),
            "bias scale must be nonnegative"
        );
        self.bias_scale = scale;
        self
    }

    /// The tier this collector watches.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Advance the per-metric slow biases by one interval.
    fn step_bias<R: Rng + ?Sized>(&mut self, interval_s: f64, gauss: &mut GaussPairs<'_, R>) {
        let steps = interval_s.max(1.0);
        for (bias, metric) in self.bias.iter_mut().zip(&METRICS) {
            let amp = metric.bias_amplitude * self.bias_scale;
            if amp == 0.0 {
                continue;
            }
            if !self.bias_initialized {
                // Start from the stationary distribution.
                *bias = amp * gauss.draw();
                continue;
            }
            let step_sd = amp * (2.0 * BIAS_REVERT * steps).sqrt();
            *bias += -BIAS_REVERT * steps * *bias + step_sd * gauss.draw();
            *bias = bias.clamp(-0.9, 3.0);
        }
        self.bias_initialized = true;
    }

    fn noisy<R: Rng + ?Sized>(&self, v: f64, gauss: &mut GaussPairs<'_, R>) -> f64 {
        (v * (1.0 + self.noise_rel * gauss.draw())).max(0.0)
    }

    /// Advance `rng` exactly as far as [`OsCollector::sample`] would,
    /// without synthesizing a row or touching the collector's state: a
    /// caller that does not read this tier's OS row keeps the rest of a
    /// shared stream bit-identical. The draw count is fixed by the
    /// configuration: one per biased metric (the same `amplitude × scale
    /// != 0` test `step_bias` makes) plus `ROW_GAUSS_DRAWS`, two words per
    /// pair of draws — 100 words at the defaults.
    pub fn skip<R: Rng + ?Sized>(&self, rng: &mut R) {
        let biased = METRICS
            .iter()
            .filter(|m| m.bias_amplitude * self.bias_scale != 0.0)
            .count();
        gauss::skip(rng, biased + ROW_GAUSS_DRAWS);
    }

    /// Collect one interval of OS metrics from the simulator tier state.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        ts: &TierSample,
        interval_s: f64,
        rng: &mut R,
    ) -> OsSample {
        assert!(interval_s > 0.0, "interval must be positive");
        // One pair source per row, bias step included; a spare still
        // unused when the row ends is dropped with it.
        let gauss = &mut GaussPairs::new(rng);
        self.step_bias(interval_s, gauss);
        // Built on the heap, where the sample keeps it; the fixed length
        // lets the compiler check every constant slot below.
        let mut v = Box::new([0.0f64; 64]);
        // Load averages update first (stateful), the rest is functional.
        let load_now = ts.avg_runnable + ts.disk_queue_avg;
        for (i, minutes) in [1.0f64, 5.0, 15.0].iter().enumerate() {
            let alpha = 1.0 - (-interval_s / (minutes * 60.0)).exp();
            self.ldavg[i] += alpha * (load_now - self.ldavg[i]);
        }
        let ldavg = self.ldavg;

        // A `const` item, not a `const {}` block: a block inside this
        // generic function would only be evaluated once it is
        // instantiated, and a misspelt name would pass `cargo check`.
        macro_rules! set {
            ($name:literal, $value:expr $(,)?) => {{
                const SLOT: usize = slot($name);
                v[SLOT] = $value;
            }};
        }

        // --- CPU accounting (percent, quantized to sysstat's 0.01) ---
        // Saturates: util near 1.0 reads as ~100% busy whether the backlog
        // is stable or exploding.
        let util = ts.utilization.clamp(0.0, 1.0);
        let user = self.noisy(util * 82.0, gauss).min(100.0);
        let system = self.noisy(util * 12.0, gauss).min(100.0 - user);
        let iowait = self
            .noisy(ts.disk_utilization * (1.0 - util) * 90.0, gauss)
            .min(100.0 - user - system);
        let q = |x: f64| (x * 100.0).round() / 100.0;
        set!("pct_user", q(user));
        set!("pct_nice", q(self.noisy(0.3, gauss)));
        set!("pct_system", q(system));
        set!("pct_iowait", q(iowait));
        set!("pct_steal", 0.0);
        set!("pct_idle", q((100.0 - user - system - iowait).max(0.0)));

        // --- Scheduler ---
        // runq is a *sampled* queue length: integer, very noisy for bursty
        // loads.
        set!("runq_sz", self.noisy(ts.avg_runnable, gauss).round());
        // Tomcat pre-spawns its worker pool, so the app tier's process
        // list barely moves with load; MySQL runs one thread per open
        // connection, so the DB's process list tracks held connections.
        let plist = match self.tier {
            TierId::App => 92.0 + 130.0,
            TierId::Db => 68.0 + ts.pool_in_use_avg,
        };
        set!("plist_sz", self.noisy(plist, gauss).round());
        set!("ldavg_1", (ldavg[0] * 100.0).round() / 100.0);
        set!("ldavg_5", (ldavg[1] * 100.0).round() / 100.0);
        set!("ldavg_15", (ldavg[2] * 100.0).round() / 100.0);
        set!("blocked", self.noisy(ts.disk_queue_avg, gauss).round());

        // --- Task churn ---
        let req_rate = ts.arrivals as f64 / interval_s;
        set!("proc_per_s", self.noisy(0.4 + req_rate * 0.02, gauss));
        set!(
            "cswch_per_s",
            self.noisy(240.0 + req_rate * 45.0 + ts.avg_runnable * 130.0, gauss),
        );
        set!("intr_per_s", self.noisy(310.0 + req_rate * 22.0, gauss));

        // --- Memory ---
        // The DB allocates per-connection buffers; the app tier's heap is
        // dominated by the pre-sized JVM, so load barely shows.
        let mem_per_token = match self.tier {
            TierId::App => 0.0, // JVM heap is pre-sized
            TierId::Db => 2048.0,
        };
        let used = (0.35 * self.total_mem_kb + ts.pool_in_use_avg * mem_per_token)
            .min(self.total_mem_kb * 0.97);
        let used = self.noisy(used, gauss).min(self.total_mem_kb * 0.99);
        set!("kbmemfree", (self.total_mem_kb - used).round());
        set!("kbmemused", used.round());
        set!("pct_memused", q(used / self.total_mem_kb * 100.0));
        set!(
            "kbbuffers",
            self.noisy(0.04 * self.total_mem_kb, gauss).round(),
        );
        set!(
            "kbcached",
            self.noisy(0.30 * self.total_mem_kb, gauss).round(),
        );
        set!("kbcommit", self.noisy(used * 1.4, gauss).round());
        set!("pct_commit", q(used * 1.4 / self.total_mem_kb * 100.0));
        set!("kbactive", self.noisy(used * 0.7, gauss).round());
        set!("kbinact", self.noisy(used * 0.2, gauss).round());

        // --- Swap: effectively unused ---
        let swap_total = 1024.0 * 1024.0;
        set!("kbswpfree", swap_total - 128.0);
        set!("kbswpused", 128.0);
        set!("pct_swpused", 0.01);
        set!("kbswpcad", 16.0);

        // --- Paging ---
        let disk_rate = ts.disk_ops as f64 / interval_s;
        set!("pgpgin_per_s", self.noisy(disk_rate * 36.0, gauss));
        set!("pgpgout_per_s", self.noisy(6.0 + disk_rate * 9.0, gauss));
        set!("fault_per_s", self.noisy(120.0 + req_rate * 14.0, gauss));
        set!("majflt_per_s", self.noisy(disk_rate * 0.05, gauss));
        set!("pgfree_per_s", self.noisy(180.0 + req_rate * 20.0, gauss));
        set!("pgscank_per_s", 0.0);
        set!("pgscand_per_s", 0.0);
        set!("pgsteal_per_s", 0.0);

        // --- Disk ---
        set!("tps", self.noisy(disk_rate, gauss));
        set!("rtps", self.noisy(disk_rate * 0.8, gauss));
        set!("wtps", self.noisy(disk_rate * 0.2 + 1.5, gauss));
        set!("bread_per_s", self.noisy(disk_rate * 220.0, gauss));
        set!("bwrtn_per_s", self.noisy(disk_rate * 48.0 + 30.0, gauss));

        // --- Network (requests and DB calls generate packets) ---
        set!("rxpck_per_s", self.noisy(12.0 + req_rate * 9.0, gauss));
        set!("txpck_per_s", self.noisy(12.0 + req_rate * 11.0, gauss));
        set!("rxkb_per_s", self.noisy(2.0 + req_rate * 3.0, gauss));
        set!("txkb_per_s", self.noisy(2.0 + req_rate * 14.0, gauss));
        set!("rxcmp_per_s", 0.0);
        set!("txcmp_per_s", 0.0);
        set!("rxmcst_per_s", self.noisy(0.2, gauss));
        set!("txmcst_per_s", 0.0);

        // --- Sockets ---
        // The RBE closes connections after each interaction (HTTP/1.0
        // style), so socket tables are dominated by time-wait churn — a
        // request-rate signal, not a backlog signal.
        set!("totsck", self.noisy(120.0 + req_rate * 3.0, gauss).round());
        set!("tcpsck", self.noisy(40.0 + req_rate * 2.5, gauss).round());
        set!("udpsck", 6.0);
        set!("rawsck", 0.0);
        set!("ip_frag", 0.0);
        set!("tcp_tw", self.noisy(req_rate * 1.5, gauss).round());

        // --- Kernel tables, ttys, per-page churn ---
        set!("dentunusd", self.noisy(24_000.0, gauss).round());
        set!(
            "file_nr",
            self.noisy(2_500.0 + req_rate * 5.0, gauss).round()
        );
        set!("inode_nr", self.noisy(18_000.0, gauss).round());
        set!("pty_nr", 2.0);
        set!("rcvin_per_s", 0.0);
        set!("xmtin_per_s", 0.0);
        set!(
            "frmpg_per_s",
            self.noisy(req_rate * 0.5, gauss) - self.noisy(req_rate * 0.5, gauss),
        );
        set!("bufpg_per_s", self.noisy(0.4, gauss));
        set!("campg_per_s", self.noisy(1.8 + req_rate * 0.1, gauss));

        // Fold in the slow disturbances last.
        for ((value, bias), metric) in v.iter_mut().zip(&self.bias).zip(&METRICS) {
            *value = (*value * (1.0 + bias)).max(0.0);
            if metric.percent {
                *value = value.min(100.0);
            }
        }
        OsSample {
            values: (v as Box<[f64]>).into_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn state(util: f64, runnable: f64, pool: f64, queue_end: usize) -> TierSample {
        TierSample {
            utilization: util,
            avg_runnable: runnable,
            pool_in_use_avg: pool,
            pool_queue_end: queue_end,
            arrivals: 80,
            completions: 80,
            disk_ops: 20,
            disk_utilization: 0.3,
            disk_queue_avg: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn names_are_64_and_unique() {
        assert_eq!(OS_METRIC_NAMES.len(), 64);
        let mut sorted = OS_METRIC_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    #[test]
    fn sample_has_64_finite_values() {
        let mut c = OsCollector::new(TierId::App);
        let mut rng = StdRng::seed_from_u64(1);
        let s = c.sample(&state(0.7, 4.0, 30.0, 0), 1.0, &mut rng);
        assert_eq!(s.values().len(), 64);
        for (name, v) in OS_METRIC_NAMES.iter().zip(s.values()) {
            assert!(v.is_finite(), "{name} not finite");
        }
    }

    #[test]
    fn cpu_percentages_sum_to_at_most_100() {
        let mut c = OsCollector::new(TierId::Db);
        let mut rng = StdRng::seed_from_u64(2);
        for util in [0.0, 0.5, 0.99, 1.0] {
            let s = c.sample(&state(util, 10.0, 20.0, 0), 1.0, &mut rng);
            let total = s.value("pct_user")
                + s.value("pct_system")
                + s.value("pct_iowait")
                + s.value("pct_idle");
            assert!(total <= 100.5, "total {total} at util {util}");
        }
    }

    #[test]
    fn utilization_saturates_near_knee() {
        // The defining limitation: 0.97 and 1.0 utilization are barely
        // distinguishable in CPU accounting.
        let mut c = OsCollector::new(TierId::Db).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let near = c.sample(&state(0.97, 10.0, 20.0, 0), 1.0, &mut rng);
        let over = c.sample(&state(1.0, 14.0, 32.0, 50), 1.0, &mut rng);
        let rel = (over.value("pct_user") - near.value("pct_user")).abs() / near.value("pct_user");
        assert!(rel < 0.05, "pct_user should barely move: {rel}");
    }

    #[test]
    fn load_average_lags_runq() {
        let mut c = OsCollector::new(TierId::App).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(4);
        // Quiet for a while…
        let mut calm = None;
        for _ in 0..30 {
            calm = Some(c.sample(&state(0.1, 0.5, 2.0, 0), 1.0, &mut rng));
        }
        let calm = calm.unwrap();
        // …then a sudden burst: ldavg_1 rises but lags the raw queue.
        let mut last = calm.clone();
        for _ in 0..10 {
            last = c.sample(&state(1.0, 40.0, 100.0, 10), 1.0, &mut rng);
        }
        assert!(last.value("ldavg_1") > calm.value("ldavg_1"));
        assert!(
            last.value("ldavg_1") < 40.0,
            "one-minute average lags the spike"
        );
        assert!(last.value("ldavg_15") < last.value("ldavg_1"));
    }

    #[test]
    fn runq_is_noisier_than_hpc_counters() {
        let mut c = OsCollector::new(TierId::Db);
        let mut rng = StdRng::seed_from_u64(5);
        let ts = state(0.95, 18.0, 30.0, 0);
        let vals: Vec<f64> = (0..200)
            .map(|_| c.sample(&ts, 1.0, &mut rng).value("runq_sz"))
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let sd = (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt();
        let cv = sd / mean;
        assert!(cv > 0.1, "OS sampling noise should be coarse, cv {cv}");
    }

    #[test]
    fn db_memory_grows_with_connections_app_barely() {
        // MySQL allocates per-connection buffers; the JVM heap is
        // pre-sized, so the app tier's memory hardly moves with load.
        let mut db = OsCollector::new(TierId::Db)
            .with_noise(0.0)
            .with_bias_scale(0.0);
        let mut app = OsCollector::new(TierId::App)
            .with_noise(0.0)
            .with_bias_scale(0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let db_idle = db.sample(&state(0.2, 1.0, 2.0, 0), 1.0, &mut rng);
        let db_busy = db.sample(&state(0.9, 6.0, 8.0, 30), 1.0, &mut rng);
        let db_delta = db_busy.value("kbmemused") - db_idle.value("kbmemused");
        assert!(db_delta > 10_000.0, "db delta {db_delta}");
        let app_idle = app.sample(&state(0.2, 1.0, 5.0, 0), 1.0, &mut rng);
        let app_busy = app.sample(&state(0.9, 10.0, 120.0, 30), 1.0, &mut rng);
        let app_delta = app_busy.value("kbmemused") - app_idle.value("kbmemused");
        assert_eq!(app_delta, 0.0, "pre-sized JVM heap: app {app_delta}");
    }

    #[test]
    fn sockets_track_request_rate_not_backlog() {
        let mut c = OsCollector::new(TierId::App)
            .with_noise(0.0)
            .with_bias_scale(0.0);
        let mut rng = StdRng::seed_from_u64(9);
        // Same request rate, wildly different backlog: sockets identical.
        let calm = c.sample(&state(0.9, 2.0, 10.0, 0), 1.0, &mut rng);
        let backed_up = c.sample(&state(1.0, 2.0, 128.0, 300), 1.0, &mut rng);
        assert_eq!(calm.value("tcpsck"), backed_up.value("tcpsck"));
    }

    #[test]
    fn feature_names_prefix() {
        let names = OsSample::feature_names("app_os_");
        assert_eq!(names.len(), 64);
        assert_eq!(names[0], "app_os_pct_user");
    }

    #[test]
    fn app_and_db_have_different_memory_sizes() {
        assert_eq!(OsCollector::new(TierId::App).tier(), TierId::App);
        let mut ca = OsCollector::new(TierId::App).with_noise(0.0);
        let mut cd = OsCollector::new(TierId::Db).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(8);
        let s = state(0.5, 2.0, 10.0, 0);
        let a = ca.sample(&s, 1.0, &mut rng);
        let d = cd.sample(&s, 1.0, &mut rng);
        assert!(d.value("kbmemfree") > a.value("kbmemfree"));
    }

    #[test]
    #[should_panic(expected = "unknown OS metric")]
    fn unknown_metric_panics() {
        let mut c = OsCollector::new(TierId::App);
        let mut rng = StdRng::seed_from_u64(7);
        let s = c.sample(&state(0.5, 2.0, 10.0, 0), 1.0, &mut rng);
        let _ = s.value("nonexistent");
    }

    // --- Pins: the 64 values of a row, bit for bit ---
    //
    // Trained meters, decisions and the benchmark's oracles are functions
    // of these bits. The three tests below know nothing of how `sample`
    // finds a slot or an amplitude, so a change to that has to leave them
    // passing as they are.

    /// An idle, a near-knee and an overloaded tier interval, fed to one
    /// collector in this order (load averages carry state across calls).
    fn pin_states() -> [TierSample; 3] {
        [
            TierSample {
                utilization: 0.04,
                avg_runnable: 0.1,
                pool_in_use_avg: 1.0,
                arrivals: 6,
                completions: 6,
                disk_ops: 2,
                disk_utilization: 0.02,
                ..Default::default()
            },
            state(0.93, 6.0, 9.0, 0),
            TierSample {
                utilization: 1.0,
                avg_runnable: 40.0,
                pool_in_use_avg: 128.0,
                pool_queue_end: 300,
                arrivals: 140,
                completions: 70,
                disk_ops: 65,
                disk_utilization: 0.9,
                disk_queue_avg: 4.0,
                ..Default::default()
            },
        ]
    }

    /// The rows of [`pin_states`] with noise and bias off, `[App, Db]`.
    #[rustfmt::skip]
    const NOISELESS_ROWS: [[[f64; 64]; 3]; 2] = [
        [
            [
                3.28, 0.3, 0.48, 1.73, 0.0, 94.51, 0.0, 222.0, 0.0, 0.0, 0.0, 0.0, 0.52, 523.0,
                442.0, 340787.0, 183501.0, 35.0, 20972.0, 157286.0, 256901.0, 49.0, 128451.0,
                36700.0, 1048448.0, 128.0, 0.01, 16.0, 72.0, 24.0, 204.0, 0.1, 300.0, 0.0, 0.0, 0.0,
                2.0, 1.6, 1.9, 440.0, 126.0, 66.0, 78.0, 20.0, 86.0, 0.0, 0.0, 0.2, 0.0, 138.0,
                55.0, 6.0, 0.0, 0.0, 9.0, 24000.0, 2530.0, 18000.0, 2.0, 0.0, 0.0, 0.0, 0.4,
                2.4000000000000004,
            ],
            [
                76.26, 0.3, 11.16, 1.89, 0.0, 10.69, 6.0, 222.0, 0.11, 0.02, 0.01, 1.0, 2.0, 4620.0,
                2070.0, 340787.0, 183501.0, 35.0, 20972.0, 157286.0, 256901.0, 49.0, 128451.0,
                36700.0, 1048448.0, 128.0, 0.01, 16.0, 720.0, 186.0, 1240.0, 1.0, 1780.0, 0.0, 0.0,
                0.0, 20.0, 16.0, 5.5, 4400.0, 990.0, 732.0, 892.0, 242.0, 1122.0, 0.0, 0.0, 0.2,
                0.0, 360.0, 240.0, 6.0, 0.0, 0.0, 120.0, 24000.0, 2900.0, 18000.0, 2.0, 0.0, 0.0,
                0.0, 0.4, 9.8,
            ],
            [
                82.0, 0.3, 12.0, 0.0, 0.0, 6.0, 40.0, 222.0, 0.83, 0.17, 0.06, 4.0, 3.2, 11740.0,
                3390.0, 340787.0, 183501.0, 35.0, 20972.0, 157286.0, 256901.0, 49.0, 128451.0,
                36700.0, 1048448.0, 128.0, 0.01, 16.0, 2340.0, 591.0, 2080.0, 3.25, 2980.0, 0.0,
                0.0, 0.0, 65.0, 52.0, 14.5, 14300.0, 3150.0, 1272.0, 1552.0, 422.0, 1962.0, 0.0,
                0.0, 0.2, 0.0, 540.0, 390.0, 6.0, 0.0, 0.0, 210.0, 24000.0, 3200.0, 18000.0, 2.0,
                0.0, 0.0, 0.0, 0.4, 15.8,
            ],
        ],
        [
            [
                3.28, 0.3, 0.48, 1.73, 0.0, 94.51, 0.0, 69.0, 0.0, 0.0, 0.0, 0.0, 0.52, 523.0,
                442.0, 679526.0, 369050.0, 35.2, 41943.0, 314573.0, 516669.0, 49.27, 258335.0,
                73810.0, 1048448.0, 128.0, 0.01, 16.0, 72.0, 24.0, 204.0, 0.1, 300.0, 0.0, 0.0, 0.0,
                2.0, 1.6, 1.9, 440.0, 126.0, 66.0, 78.0, 20.0, 86.0, 0.0, 0.0, 0.2, 0.0, 138.0,
                55.0, 6.0, 0.0, 0.0, 9.0, 24000.0, 2530.0, 18000.0, 2.0, 0.0, 0.0, 0.0, 0.4,
                2.4000000000000004,
            ],
            [
                76.26, 0.3, 11.16, 1.89, 0.0, 10.69, 6.0, 77.0, 0.11, 0.02, 0.01, 1.0, 2.0, 4620.0,
                2070.0, 663142.0, 385434.0, 36.76, 41943.0, 314573.0, 539607.0, 51.46, 269804.0,
                77087.0, 1048448.0, 128.0, 0.01, 16.0, 720.0, 186.0, 1240.0, 1.0, 1780.0, 0.0, 0.0,
                0.0, 20.0, 16.0, 5.5, 4400.0, 990.0, 732.0, 892.0, 242.0, 1122.0, 0.0, 0.0, 0.2,
                0.0, 360.0, 240.0, 6.0, 0.0, 0.0, 120.0, 24000.0, 2900.0, 18000.0, 2.0, 0.0, 0.0,
                0.0, 0.4, 9.8,
            ],
            [
                82.0, 0.3, 12.0, 0.0, 0.0, 6.0, 40.0, 196.0, 0.83, 0.17, 0.06, 4.0, 3.2, 11740.0,
                3390.0, 419430.0, 629146.0, 60.0, 41943.0, 314573.0, 880804.0, 84.0, 440402.0,
                125829.0, 1048448.0, 128.0, 0.01, 16.0, 2340.0, 591.0, 2080.0, 3.25, 2980.0, 0.0,
                0.0, 0.0, 65.0, 52.0, 14.5, 14300.0, 3150.0, 1272.0, 1552.0, 422.0, 1962.0, 0.0,
                0.0, 0.2, 0.0, 540.0, 390.0, 6.0, 0.0, 0.0, 210.0, 24000.0, 3200.0, 18000.0, 2.0,
                0.0, 0.0, 0.0, 0.4, 15.8,
            ],
        ],
    ];

    #[test]
    fn noiseless_rows_land_in_their_pinned_slots() {
        // Without noise and bias every draw is multiplied by zero: the row
        // is a pure function of the inputs on any `StdRng`, so a value
        // written to the wrong slot shows up here by name.
        for (tier, rows) in TierId::ALL.into_iter().zip(NOISELESS_ROWS) {
            let mut c = OsCollector::new(tier).with_noise(0.0).with_bias_scale(0.0);
            let mut rng = StdRng::seed_from_u64(11);
            for (call, (ts, row)) in pin_states().iter().zip(rows).enumerate() {
                let s = c.sample(ts, 1.0, &mut rng);
                for ((name, got), want) in OS_METRIC_NAMES.iter().zip(s.values()).zip(row) {
                    assert_eq!(*got, want, "{tier:?} call {call}: {name}");
                }
            }
        }
    }

    #[test]
    fn default_noise_rows_keep_their_draw_order() {
        // FNV-1a over the bits of 2 000 default-noise rows per tier, on
        // the workspace's one `StdRng` stream (splitmix64, DESIGN §10).
        let states = pin_states();
        for (tier, want) in TierId::ALL
            .into_iter()
            .zip([0x73d7_0c42_2000_eca7_u64, 0x991a_686c_2897_2899])
        {
            let mut c = OsCollector::new(tier);
            let mut rng = StdRng::seed_from_u64(2833);
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for call in 0..2000 {
                let s = c.sample(&states[call % 3], 1.0, &mut rng);
                for byte in s.values().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(hash, want, "{tier:?}: {hash:#018x}");
        }
    }

    /// A stream that counts the words drawn from it.
    struct CountingRng {
        inner: StdRng,
        words: u64,
    }

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn skip_consumes_what_sample_consumes() {
        // `skip` stands in for `sample` on a shared stream, so the two
        // must draw the same number of words on every configuration, on
        // the first call (stationary bias start) and on a later one.
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(13),
            words: 0,
        };
        for tier in TierId::ALL {
            for noise in [0.0, 0.18] {
                for bias_scale in [0.0, 1.0] {
                    let mut c = OsCollector::new(tier)
                        .with_noise(noise)
                        .with_bias_scale(bias_scale);
                    for (call, ts) in pin_states().iter().enumerate() {
                        let before = rng.words;
                        c.skip(&mut rng);
                        let skipped = rng.words - before;
                        c.sample(ts, 1.0, &mut rng);
                        let sampled = rng.words - before - skipped;
                        assert_eq!(
                            skipped, sampled,
                            "{tier:?} noise {noise} bias {bias_scale} call {call}"
                        );
                        // 41 draws with the bias off: the odd one's
                        // spare is dropped, and its pair still counts.
                        let want = if bias_scale == 0.0 { 42 } else { 100 };
                        assert_eq!(sampled, want, "{tier:?} bias {bias_scale}");
                    }
                }
            }
        }
    }

    /// The bias amplitude of a metric as a rule over its name — how the
    /// amplitudes were first written down.
    fn bias_amplitude_by_name(name: &str) -> f64 {
        match name {
            "runq_sz" | "ldavg_1" | "ldavg_5" | "ldavg_15" | "blocked" => 0.60,
            "cswch_per_s" | "intr_per_s" | "proc_per_s" => 0.40,
            "tps" | "rtps" | "wtps" | "bread_per_s" | "bwrtn_per_s" => 0.40,
            "pgpgin_per_s" | "pgpgout_per_s" | "fault_per_s" | "majflt_per_s" | "pgfree_per_s" => {
                0.40
            }
            "pct_user" | "pct_system" | "pct_iowait" | "pct_idle" | "pct_nice" => 0.0,
            name if name.starts_with("kb") || name.contains("mem") || name.contains("commit") => {
                0.04
            }
            _ => 0.15,
        }
    }

    #[test]
    fn bias_amplitudes_follow_the_by_name_rule() {
        // The first step draws each biased metric from its stationary
        // distribution, `amplitude × gauss`, in name order, and draws
        // nothing for an amplitude of zero: replaying the rule on a twin
        // stream checks all 64 amplitudes and the draw order at once.
        let mut c = OsCollector::new(TierId::App);
        let mut rng = StdRng::seed_from_u64(12);
        let mut twin_rng = rng.clone();
        c.step_bias(1.0, &mut GaussPairs::new(&mut rng));
        let mut twin = GaussPairs::new(&mut twin_rng);
        for (name, got) in OS_METRIC_NAMES.iter().zip(c.bias) {
            let amp = bias_amplitude_by_name(name);
            let want = if amp == 0.0 { 0.0 } else { amp * twin.draw() };
            assert_eq!(got, want, "{name}");
        }
    }
}
