//! The counter-synthesis model: micro-architecturally plausible counter
//! values driven by simulated tier state.
//!
//! The response surfaces encode the effects the paper's approach relies
//! on:
//!
//! * **Instruction throughput tracks utilization** — cycles scale with CPU
//!   busy time, instructions with delivered work.
//! * **Concurrency pollutes caches** — as more sessions execute
//!   concurrently (runnable jobs + held pool tokens), the combined working
//!   set overflows the L2, so the miss ratio and stall fraction climb and
//!   IPC falls. This continues *past* the saturation knee (overload pins
//!   the pool at its capacity), which is precisely the signal that remains
//!   visible to hardware counters when OS-level utilization has already
//!   pegged at 100%.
//! * **Instruction mix is hardware-visible** — browse-class work (large
//!   scans, joins) has a lower base IPC and higher memory traffic per
//!   instruction than order-class OLTP work. OS metrics carry no such
//!   composition channel.
//!
//! Counter noise is small and multiplicative (hardware counts are exact;
//! residual variation comes from code-path diversity), in contrast to the
//! coarse, quantized OS metrics of `webcap-os`.

use rand::Rng;
use serde::{Deserialize, Serialize};
use webcap_sim::gauss::{self, GaussPairs};
use webcap_sim::{TierId, TierSample};

use crate::events::HpcEvent;

/// One tier's counter readings over a sampling interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    counts: [u64; HpcEvent::COUNT],
    interval_s: f64,
}

impl CounterSample {
    /// Raw count of one event.
    pub fn count(&self, event: HpcEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Event rate per second.
    pub fn rate(&self, event: HpcEvent) -> f64 {
        self.count(event) as f64 / self.interval_s
    }

    /// Interval length in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// All counts in [`HpcEvent::ALL`] order.
    pub fn counts(&self) -> &[u64; HpcEvent::COUNT] {
        &self.counts
    }
}

/// The derived metrics' names, in [`DerivedMetrics::to_features`] order.
pub const DERIVED_METRIC_NAMES: [&str; 12] = [
    "ipc",
    "upc",
    "l2_miss_rate",
    "l2_mpki",
    "l1d_mpki",
    "tc_mpki",
    "itlb_mpki",
    "dtlb_mpki",
    "branch_mispredict_rate",
    "bus_per_kcycle",
    "stall_fraction",
    "instr_per_s",
];

/// Derived per-interval metrics — the attribute values performance
/// synopses are trained on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedMetrics {
    /// Instructions per cycle.
    pub ipc: f64,
    /// µops per cycle.
    pub upc: f64,
    /// L2 miss ratio (misses / references).
    pub l2_miss_rate: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// L1D misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// Trace-cache misses per kilo-instruction.
    pub tc_mpki: f64,
    /// ITLB misses per kilo-instruction.
    pub itlb_mpki: f64,
    /// DTLB misses per kilo-instruction.
    pub dtlb_mpki: f64,
    /// Mispredicted fraction of retired branches.
    pub branch_mispredict_rate: f64,
    /// Bus transactions per kilo-cycle.
    pub bus_per_kcycle: f64,
    /// Fraction of cycles stalled on resources.
    pub stall_fraction: f64,
    /// Instructions retired per second.
    pub instr_per_s: f64,
}

impl DerivedMetrics {
    /// Compute derived metrics from raw counts.
    pub fn from_sample(s: &CounterSample) -> DerivedMetrics {
        let instr = s.count(HpcEvent::InstructionsRetired) as f64;
        let cycles = (s.count(HpcEvent::CyclesUnhalted) as f64).max(1.0);
        let ki = (instr / 1000.0).max(1e-9);
        let l2_ref = (s.count(HpcEvent::L2References) as f64).max(1.0);
        let branches = (s.count(HpcEvent::BranchesRetired) as f64).max(1.0);
        DerivedMetrics {
            ipc: instr / cycles,
            upc: s.count(HpcEvent::UopsRetired) as f64 / cycles,
            l2_miss_rate: s.count(HpcEvent::L2Misses) as f64 / l2_ref,
            l2_mpki: s.count(HpcEvent::L2Misses) as f64 / ki,
            l1d_mpki: s.count(HpcEvent::L1DMisses) as f64 / ki,
            tc_mpki: s.count(HpcEvent::TraceCacheMisses) as f64 / ki,
            itlb_mpki: s.count(HpcEvent::ItlbMisses) as f64 / ki,
            dtlb_mpki: s.count(HpcEvent::DtlbMisses) as f64 / ki,
            branch_mispredict_rate: s.count(HpcEvent::BranchMispredicts) as f64 / branches,
            bus_per_kcycle: s.count(HpcEvent::BusTransactions) as f64 / (cycles / 1000.0),
            stall_fraction: (s.count(HpcEvent::StallCycles) as f64 / cycles).min(1.0),
            instr_per_s: instr / s.interval_s(),
        }
    }

    /// Feature names, aligned with [`DerivedMetrics::to_features`].
    pub fn feature_names(prefix: &str) -> Vec<String> {
        DERIVED_METRIC_NAMES
            .iter()
            .map(|n| format!("{prefix}{n}"))
            .collect()
    }

    /// Arithmetic mean of a set of metric snapshots (used to aggregate
    /// per-second samples into the paper's 30-second intervals).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn mean(samples: &[DerivedMetrics]) -> DerivedMetrics {
        assert!(!samples.is_empty(), "cannot average no samples");
        let n = samples.len() as f64;
        let sum = |f: &dyn Fn(&DerivedMetrics) -> f64| samples.iter().map(f).sum::<f64>() / n;
        DerivedMetrics {
            ipc: sum(&|m| m.ipc),
            upc: sum(&|m| m.upc),
            l2_miss_rate: sum(&|m| m.l2_miss_rate),
            l2_mpki: sum(&|m| m.l2_mpki),
            l1d_mpki: sum(&|m| m.l1d_mpki),
            tc_mpki: sum(&|m| m.tc_mpki),
            itlb_mpki: sum(&|m| m.itlb_mpki),
            dtlb_mpki: sum(&|m| m.dtlb_mpki),
            branch_mispredict_rate: sum(&|m| m.branch_mispredict_rate),
            bus_per_kcycle: sum(&|m| m.bus_per_kcycle),
            stall_fraction: sum(&|m| m.stall_fraction),
            instr_per_s: sum(&|m| m.instr_per_s),
        }
    }

    /// The metrics as a feature vector (order matches
    /// [`DerivedMetrics::feature_names`]).
    pub fn to_features(&self) -> Vec<f64> {
        vec![
            self.ipc,
            self.upc,
            self.l2_miss_rate,
            self.l2_mpki,
            self.l1d_mpki,
            self.tc_mpki,
            self.itlb_mpki,
            self.dtlb_mpki,
            self.branch_mispredict_rate,
            self.bus_per_kcycle,
            self.stall_fraction,
            self.instr_per_s,
        ]
    }
}

/// Per-tier micro-architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierArch {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Number of cores (must match the simulator tier).
    pub cores: u32,
    /// Simulator work units one core delivers per second at zero
    /// contention (must match the simulator tier's `speed`).
    pub sim_speed: f64,
    /// IPC of the tier's code at low concurrency on a balanced mix.
    pub base_ipc: f64,
    /// L2 references per instruction at baseline.
    pub l2_ref_per_instr: f64,
    /// Baseline L2 miss ratio.
    pub base_l2_miss_ratio: f64,
    /// Baseline stall fraction.
    pub base_stall_fraction: f64,
}

impl TierArch {
    /// Pentium 4 (2.0 GHz, 1 core) — the paper's app server.
    pub fn pentium4_app() -> TierArch {
        TierArch {
            clock_hz: 2.0e9,
            cores: 1,
            sim_speed: 1.0,
            base_ipc: 1.15,
            l2_ref_per_instr: 0.020,
            base_l2_miss_ratio: 0.045,
            base_stall_fraction: 0.14,
        }
    }

    /// Pentium D (2.8 GHz, 2 cores) — the paper's DB server.
    pub fn pentium_d_db() -> TierArch {
        TierArch {
            clock_hz: 2.8e9,
            cores: 2,
            sim_speed: 1.0,
            base_ipc: 1.00,
            l2_ref_per_instr: 0.030,
            base_l2_miss_ratio: 0.060,
            base_stall_fraction: 0.16,
        }
    }
}

/// `noise` draws one [`HpcModel::sample`] call makes, one per
/// synthesized count but cycles. Pinned against `sample` by the
/// `skip_consumes_what_sample_consumes` test.
const NOISE_DRAWS: usize = 14;

/// The first `noise` draws of a row, the ones the counts
/// [`DerivedMetrics`] reads take; the last pair (loads and stores
/// retired) is read by no derived metric, and [`HpcModel::derived`]
/// steps past it.
const DERIVED_DRAWS: usize = 12;

/// The counter synthesizer: holds per-tier architecture parameters and a
/// noise level, and turns [`TierSample`]s into [`CounterSample`]s
/// ([`sample`](Self::sample)) or straight into the [`DerivedMetrics`]
/// row they yield ([`derived`](Self::derived), for callers that keep
/// only the row). Both run one body of response surfaces and leave a
/// shared stream where the other does; [`skip`](Self::skip) leaves it
/// there too, synthesizing nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HpcModel {
    app: TierArch,
    db: TierArch,
    /// Multiplicative noise σ applied to synthesized quantities.
    noise_sigma: f64,
}

impl HpcModel {
    /// The paper-like default: P4 app server, Pentium D DB server, 2 %
    /// counter noise.
    pub fn testbed() -> HpcModel {
        HpcModel {
            app: TierArch::pentium4_app(),
            db: TierArch::pentium_d_db(),
            noise_sigma: 0.02,
        }
    }

    /// Override the noise level.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[cfg(test)]
    fn with_noise(mut self, sigma: f64) -> HpcModel {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "noise must be nonnegative"
        );
        self.noise_sigma = sigma;
        self
    }

    /// The architecture parameters of a tier.
    pub fn arch(&self, tier: TierId) -> &TierArch {
        match tier {
            TierId::App => &self.app,
            TierId::Db => &self.db,
        }
    }

    /// Advance `rng` exactly as far as [`HpcModel::sample`] (and
    /// [`HpcModel::derived`]) would, without synthesizing counters: a
    /// caller that does not read this tier's HPC row keeps the rest of a
    /// shared stream bit-identical. `NOISE_DRAWS` `noise` draws, two
    /// words per pair of them (14 words), none at σ = 0.
    pub fn skip<R: Rng + ?Sized>(&self, rng: &mut R) {
        self.skip_draws(rng, NOISE_DRAWS);
    }

    /// Step `rng` past `draws` `noise` draws without computing them.
    fn skip_draws<R: Rng + ?Sized>(&self, rng: &mut R, draws: usize) {
        if self.noise_sigma == 0.0 {
            return;
        }
        gauss::skip(rng, draws);
    }

    /// A multiplicative noise factor, clamped to stay positive.
    fn noise<R: Rng + ?Sized>(&self, gauss: &mut GaussPairs<'_, R>) -> f64 {
        if self.noise_sigma == 0.0 {
            return 1.0;
        }
        (1.0 + self.noise_sigma * gauss.draw()).max(0.05)
    }

    /// Synthesize one interval's counters for `tier` from its simulator
    /// sample.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        tier: TierId,
        ts: &TierSample,
        interval_s: f64,
        rng: &mut R,
    ) -> CounterSample {
        self.synthesize(tier, ts, interval_s, rng, true)
    }

    /// The derived metrics of one interval for `tier`, bit-identical to
    /// `DerivedMetrics::from_sample(&self.sample(..))` on the same stream
    /// position, which it leaves where `sample` leaves it. It draws the
    /// first `DERIVED_DRAWS` normals and steps past the last pair's two
    /// words without computing them: no derived metric reads loads or
    /// stores retired.
    pub fn derived<R: Rng + ?Sized>(
        &self,
        tier: TierId,
        ts: &TierSample,
        interval_s: f64,
        rng: &mut R,
    ) -> DerivedMetrics {
        DerivedMetrics::from_sample(&self.synthesize(tier, ts, interval_s, rng, false))
    }

    /// The one body of response surfaces behind [`sample`](Self::sample)
    /// and [`derived`](Self::derived). Without `memory_ops` the loads and
    /// stores retired read 0 and their noise pair is skipped, not drawn.
    fn synthesize<R: Rng + ?Sized>(
        &self,
        tier: TierId,
        ts: &TierSample,
        interval_s: f64,
        rng: &mut R,
        memory_ops: bool,
    ) -> CounterSample {
        assert!(interval_s > 0.0, "interval must be positive");
        // One pair source per row; a spare still unused when the row
        // ends is dropped with it.
        let gauss = &mut GaussPairs::new(rng);
        let arch = self.arch(tier);
        let cores = f64::from(arch.cores);

        // Busy cycles across cores; a small floor models OS housekeeping.
        let util = ts.utilization.max(0.005);
        let cycles = util * arch.clock_hz * cores * interval_s;

        // Working-set pressure: the threads actually *executing*
        // concurrently. Threads blocked on a downstream tier or on disk
        // sleep and do not thrash the cache — which is exactly why the
        // front-end's counters stay quiet when the database is the
        // bottleneck (Table I's diagonal structure).
        let pollution = (1.0 + ts.avg_runnable / cores).ln();

        // Instruction-mix composition (hardware-visible): browse work is
        // scan/join heavy and needs fewer instructions per unit of time
        // because it stalls more.
        let browse = ts.browse_work_fraction();
        let mix_ipc_penalty = match tier {
            TierId::Db => 0.22 * browse,
            TierId::App => 0.06 * (1.0 - browse),
        };

        // Instructions are tied to the *work the simulator delivered*: a
        // request comprises a fixed instruction stream, so instructions
        // retired scale with completed work, while cycles scale with busy
        // time. Their ratio (IPC) therefore degrades exactly when
        // contention makes the same work burn more cycles — consistent
        // with the simulator's capacity-degradation model.
        let ipc_ref = arch.base_ipc * (1.0 - mix_ipc_penalty);
        let work_floor = 0.003 * cores * arch.sim_speed * interval_s;
        let work = ts.delivered_work_s.max(work_floor);
        let instr = work / arch.sim_speed * ipc_ref * arch.clock_hz * self.noise(gauss);

        let l2_ref = instr * arch.l2_ref_per_instr * (1.0 + 0.25 * browse) * self.noise(gauss);
        let mix_miss_boost = match tier {
            TierId::Db => 0.55 * browse,
            TierId::App => 0.10 * (1.0 - browse),
        };
        let l2_miss_ratio = (arch.base_l2_miss_ratio
            * (1.0 + mix_miss_boost)
            * (1.0 + 0.45 * pollution)
            * self.noise(gauss))
        .min(0.95);
        let l2_miss = l2_ref * l2_miss_ratio;

        let stall_fraction = (arch.base_stall_fraction
            * (1.0 + 0.30 * browse)
            * (1.0 + 0.35 * pollution)
            * self.noise(gauss))
        .min(0.92);

        let l1d = instr * 0.012 * (1.0 + 0.15 * pollution) * self.noise(gauss);
        let tc = instr * 0.003 * (1.0 + 0.12 * pollution) * self.noise(gauss);
        let itlb = instr * 0.0004 * (1.0 + 0.10 * pollution) * self.noise(gauss);
        let dtlb = instr * 0.0015 * (1.0 + 0.20 * pollution) * self.noise(gauss);
        let branches = instr * 0.18 * self.noise(gauss);
        let mispredicts =
            branches * (0.045 * (1.0 + 0.12 * pollution)).min(0.25) * self.noise(gauss);
        let bus = (l2_miss * 1.15 + instr * 0.0005) * self.noise(gauss);
        let uops = instr * 1.45 * self.noise(gauss);
        let (loads, stores) = if memory_ops {
            (
                instr * 0.32 * self.noise(gauss),
                instr * 0.14 * self.noise(gauss),
            )
        } else {
            // `DERIVED_DRAWS` is even, so no spare is pending here and
            // the pair's two words are the next ones.
            self.skip_draws(rng, NOISE_DRAWS - DERIVED_DRAWS);
            (0.0, 0.0)
        };

        let mut counts = [0u64; HpcEvent::COUNT];
        let mut set = |e: HpcEvent, v: f64| counts[e.index()] = v.max(0.0) as u64;
        set(HpcEvent::InstructionsRetired, instr);
        set(HpcEvent::CyclesUnhalted, cycles);
        set(HpcEvent::UopsRetired, uops);
        set(HpcEvent::L1DMisses, l1d);
        set(HpcEvent::L2References, l2_ref);
        set(HpcEvent::L2Misses, l2_miss);
        set(HpcEvent::TraceCacheMisses, tc);
        set(HpcEvent::ItlbMisses, itlb);
        set(HpcEvent::DtlbMisses, dtlb);
        set(HpcEvent::BranchesRetired, branches);
        set(HpcEvent::BranchMispredicts, mispredicts);
        set(HpcEvent::BusTransactions, bus);
        set(HpcEvent::StallCycles, stall_fraction * cycles);
        set(HpcEvent::LoadsRetired, loads);
        set(HpcEvent::StoresRetired, stores);
        CounterSample { counts, interval_s }
    }
}

impl Default for HpcModel {
    fn default() -> HpcModel {
        HpcModel::testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn tier_sample(util: f64, pool: f64, runnable: f64, browse: f64) -> TierSample {
        TierSample {
            utilization: util,
            // Work tracks utilization with mild contention loss as the
            // pool fills (mirrors the simulator's degradation).
            delivered_work_s: util / (1.0 + 0.004 * pool),
            avg_runnable: runnable,
            pool_in_use_avg: pool,
            pool_queue_avg: 0.0,
            pool_queue_end: 0,
            pool_in_use_end: pool as usize,
            disk_utilization: 0.0,
            disk_queue_avg: 0.0,
            disk_ops: 0,
            arrivals: 100,
            completions: 100,
            browse_work_submitted_s: browse,
            order_work_submitted_s: 1.0 - browse,
        }
    }

    #[test]
    fn cycles_track_utilization() {
        let m = HpcModel::testbed().with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let lo = m.sample(TierId::App, &tier_sample(0.2, 3.0, 1.0, 0.5), 1.0, &mut rng);
        let hi = m.sample(TierId::App, &tier_sample(0.9, 3.0, 1.0, 0.5), 1.0, &mut rng);
        let ratio =
            hi.count(HpcEvent::CyclesUnhalted) as f64 / lo.count(HpcEvent::CyclesUnhalted) as f64;
        assert!((ratio - 4.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn concurrency_raises_miss_rate_and_lowers_ipc() {
        let m = HpcModel::testbed().with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let light = m.sample(TierId::Db, &tier_sample(0.95, 6.0, 3.0, 0.8), 1.0, &mut rng);
        let heavy = m.sample(
            TierId::Db,
            &tier_sample(1.0, 32.0, 22.0, 0.8),
            1.0,
            &mut rng,
        );
        let dl = DerivedMetrics::from_sample(&light);
        let dh = DerivedMetrics::from_sample(&heavy);
        assert!(
            dh.l2_miss_rate > 1.15 * dl.l2_miss_rate,
            "{} vs {}",
            dh.l2_miss_rate,
            dl.l2_miss_rate
        );
        assert!(dh.ipc < dl.ipc);
        assert!(dh.stall_fraction > dl.stall_fraction);
    }

    #[test]
    fn browse_mix_is_visible_in_db_counters() {
        let m = HpcModel::testbed().with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let scan = m.sample(TierId::Db, &tier_sample(0.9, 10.0, 5.0, 1.0), 1.0, &mut rng);
        let oltp = m.sample(TierId::Db, &tier_sample(0.9, 10.0, 5.0, 0.0), 1.0, &mut rng);
        let ds = DerivedMetrics::from_sample(&scan);
        let d_oltp = DerivedMetrics::from_sample(&oltp);
        assert!(ds.ipc < d_oltp.ipc, "scans lower IPC");
        assert!(ds.l2_miss_rate > d_oltp.l2_miss_rate, "scans miss more");
    }

    #[test]
    fn derived_metrics_are_finite_and_bounded() {
        let m = HpcModel::testbed();
        let mut rng = StdRng::seed_from_u64(4);
        for util in [0.0, 0.3, 1.0] {
            for pool in [0.0, 16.0, 128.0] {
                let s = m.sample(
                    TierId::App,
                    &tier_sample(util, pool, pool / 2.0, 0.5),
                    1.0,
                    &mut rng,
                );
                let d = DerivedMetrics::from_sample(&s);
                for v in d.to_features() {
                    assert!(v.is_finite() && v >= 0.0, "bad feature {v}");
                }
                assert!(d.l2_miss_rate <= 1.0);
                assert!(d.stall_fraction <= 1.0);
            }
        }
    }

    #[test]
    fn feature_names_align_with_vector() {
        let names = DerivedMetrics::feature_names("db_");
        let m = HpcModel::testbed();
        let mut rng = StdRng::seed_from_u64(5);
        let s = m.sample(TierId::Db, &tier_sample(0.5, 8.0, 4.0, 0.6), 1.0, &mut rng);
        let d = DerivedMetrics::from_sample(&s);
        assert_eq!(names.len(), d.to_features().len());
        assert!(names[0].starts_with("db_"));
    }

    #[test]
    fn zero_noise_is_deterministic() {
        let m = HpcModel::testbed().with_noise(0.0);
        let ts = tier_sample(0.7, 10.0, 4.0, 0.5);
        let mut r1 = StdRng::seed_from_u64(10);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = m.sample(TierId::App, &ts, 1.0, &mut r1);
        let b = m.sample(TierId::App, &ts, 1.0, &mut r2);
        assert_eq!(a, b);
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
        // must draw the same number of words at every noise level.
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(14),
            words: 0,
        };
        let ts = tier_sample(0.7, 10.0, 4.0, 0.5);
        for (sigma, want) in [(0.0, 0), (0.02, 14)] {
            let m = HpcModel::testbed().with_noise(sigma);
            for tier in TierId::ALL {
                let before = rng.words;
                m.skip(&mut rng);
                let skipped = rng.words - before;
                m.sample(tier, &ts, 1.0, &mut rng);
                let sampled = rng.words - before - skipped;
                assert_eq!(skipped, sampled, "σ {sigma} {tier:?}");
                assert_eq!(sampled, want, "σ {sigma} {tier:?}");
            }
        }
    }

    #[test]
    fn derived_is_the_derived_row_of_sample_and_ends_where_it_does() {
        // `derived` stands in for `DerivedMetrics::from_sample(&sample(..))`
        // on a shared stream: the same row, bit for bit, and the same
        // next word. Degenerate states first — idle (zero utilization,
        // zero work, nothing submitted), busy with no work delivered, no
        // browse work — then seeded random ones.
        let mut states = vec![
            TierSample::default(),
            TierSample {
                delivered_work_s: 0.0,
                ..tier_sample(0.8, 12.0, 6.0, 0.5)
            },
            tier_sample(0.5, 4.0, 2.0, 0.0),
        ];
        let mut gen = StdRng::seed_from_u64(44);
        for _ in 0..64 {
            let pool: f64 = gen.random_range(0.0..128.0);
            states.push(tier_sample(
                gen.random_range(0.0..1.0),
                pool,
                gen.random_range(0.0..pool.max(1.0)),
                gen.random_range(0.0..1.0),
            ));
        }
        for sigma in [0.0, 0.02, 0.3] {
            let m = HpcModel::testbed().with_noise(sigma);
            for tier in TierId::ALL {
                for (i, ts) in states.iter().enumerate() {
                    let interval_s = [1.0, 0.5, 2.0][i % 3];
                    let mut sampled = StdRng::seed_from_u64(i as u64);
                    let mut derived = StdRng::seed_from_u64(i as u64);
                    let want =
                        DerivedMetrics::from_sample(&m.sample(tier, ts, interval_s, &mut sampled));
                    let got = m.derived(tier, ts, interval_s, &mut derived);
                    for ((name, w), g) in DERIVED_METRIC_NAMES
                        .iter()
                        .zip(want.to_features())
                        .zip(got.to_features())
                    {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "σ {sigma} {tier:?} state {i}: {name} {w} vs {g}"
                        );
                    }
                    assert_eq!(
                        sampled.next_u64(),
                        derived.next_u64(),
                        "σ {sigma} {tier:?} state {i}: the streams part"
                    );
                }
            }
        }
    }

    #[test]
    fn default_noise_rows_keep_their_draw_order() {
        // FNV-1a over the counts of 2 000 default-noise rows per tier, on
        // the workspace's one `StdRng` stream (splitmix64, DESIGN §10): a
        // draw out of order, or a noise value that moved, changes it.
        let states = [
            tier_sample(0.04, 1.0, 0.1, 0.2),
            tier_sample(0.93, 9.0, 6.0, 0.5),
            tier_sample(1.0, 128.0, 40.0, 0.8),
        ];
        let m = HpcModel::testbed();
        for (tier, want) in TierId::ALL
            .into_iter()
            .zip([0x7213_f1ae_3d4f_1632_u64, 0xff38_ab71_59d3_712c])
        {
            let mut rng = StdRng::seed_from_u64(2833);
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for call in 0..2000 {
                let s = m.sample(tier, &states[call % 3], 1.0, &mut rng);
                for byte in s.counts().iter().flat_map(|c| c.to_le_bytes()) {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(hash, want, "{tier:?}: {hash:#018x}");
        }
    }

    #[test]
    fn idle_tier_still_counts_housekeeping() {
        let m = HpcModel::testbed().with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let s = m.sample(TierId::App, &tier_sample(0.0, 0.0, 0.0, 0.5), 1.0, &mut rng);
        assert!(s.count(HpcEvent::CyclesUnhalted) > 0);
        assert!(s.count(HpcEvent::InstructionsRetired) > 0);
    }
}
