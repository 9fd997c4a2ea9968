//! Property tests of the simulator's conservation laws and determinism
//! guarantees.
//!
//! Each property runs one case per generator seed; a failing assertion
//! names the seed, which reproduces the case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_sim::resources::{FcfsDisk, PsCpu, TokenPool};
use webcap_sim::{run, SimConfig, SimTime};
use webcap_tpcw::{Mix, TrafficProgram};

const CASES: u64 = 256;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn f64s(rng: &mut StdRng, len: std::ops::Range<usize>, values: std::ops::Range<f64>) -> Vec<f64> {
    let n = rng.random_range(len);
    (0..n).map(|_| rng.random_range(values.clone())).collect()
}

/// Work conservation: every unit of demand pushed into a PS CPU is
/// eventually delivered, and the delivered-work accumulator matches.
#[test]
fn ps_cpu_conserves_work() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let demands = f64s(&mut rng, 1..20, 0.01..2.0);
        let cores = rng.random_range(1u32..4);
        let alpha = rng.random_range(0.0f64..0.05);
        let mut cpu = PsCpu::new(cores, 1.0, alpha);
        let total: f64 = demands.iter().sum();
        for (i, &d) in demands.iter().enumerate() {
            cpu.push(t(0.0), i as u64, d);
        }
        let mut now = t(0.0);
        let mut completed = 0usize;
        while let Some(done) = cpu.next_completion(now) {
            now = done;
            cpu.pop_completed(now);
            completed += 1;
            assert!(
                completed <= demands.len(),
                "seed {seed}: more completions than jobs"
            );
        }
        assert_eq!(completed, demands.len(), "seed {seed}");
        let (_, delivered, _) = cpu.stats();
        // Delivered work equals the demand sum (within µs rounding).
        assert!(
            (delivered - total).abs() < 1e-3 * total + 1e-3,
            "seed {seed}: delivered {delivered} vs demanded {total}"
        );
    }
}

/// The job with the least remaining work always completes first, so
/// completion times are non-decreasing.
#[test]
fn ps_cpu_completions_are_ordered() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let demands = f64s(&mut rng, 2..15, 0.01..1.0);
        let mut cpu = PsCpu::new(1, 1.0, 0.0);
        for (i, &d) in demands.iter().enumerate() {
            cpu.push(t(0.0), i as u64, d);
        }
        let mut now = t(0.0);
        let mut last = now;
        while let Some(done) = cpu.next_completion(now) {
            assert!(done >= last, "seed {seed}");
            last = done;
            now = done;
            cpu.pop_completed(now);
        }
    }
}

/// Token conservation: tokens held never exceed capacity, and every
/// waiter eventually receives a token in FIFO order.
#[test]
fn token_pool_is_conserving_and_fifo() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.random_range(1usize..8);
        let mut pool = TokenPool::new(capacity);
        let mut queued: Vec<u64> = Vec::new();
        let mut granted: Vec<u64> = Vec::new();
        let mut held = 0usize;
        let mut next_id = 0u64;
        let mut clock = 0.0;
        for _ in 0..rng.random_range(1usize..40) {
            let arrival: bool = rng.random();
            clock += 0.1;
            if arrival || held == 0 {
                let id = next_id;
                next_id += 1;
                if pool.try_acquire(t(clock)) {
                    held += 1;
                    granted.push(id);
                } else {
                    pool.enqueue(t(clock), id);
                    queued.push(id);
                }
            } else {
                // Release.
                match pool.release(t(clock)) {
                    Some(waiter) => {
                        // FIFO: must be the oldest queued id.
                        assert_eq!(Some(waiter), queued.first().copied(), "seed {seed}");
                        queued.remove(0);
                        granted.push(waiter);
                    }
                    None => {
                        held -= 1;
                    }
                }
            }
            assert!(pool.in_use() <= capacity, "seed {seed}");
            assert_eq!(pool.queue_len(), queued.len(), "seed {seed}");
        }
        // Granted ids are unique.
        let mut sorted = granted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), granted.len(), "seed {seed}");
    }
}

/// The disk serves operations one at a time in arrival order and its
/// busy time equals the service-time sum.
#[test]
fn disk_is_fcfs_and_accounts_busy_time() {
    // A case that failed once, kept ahead of the generated ones.
    let regression = vec![
        0.18356859090523164,
        0.01,
        0.02931858144209906,
        0.18391466170598253,
    ];
    check_disk("regression case", &regression);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        check_disk(&format!("seed {seed}"), &f64s(&mut rng, 1..20, 0.01..0.5));
    }
}

fn check_disk(case: &str, services: &[f64]) {
    let mut disk = FcfsDisk::new();
    let mut pending: Option<SimTime> = None;
    for (i, &s) in services.iter().enumerate() {
        if let Some(done) = disk.submit(t(0.0), i as u64, s) {
            pending = Some(done);
        }
    }
    let mut order = Vec::new();
    while let Some(done) = pending {
        let (finished, next) = disk.complete(done);
        order.push(finished);
        pending = next.map(|(_, d)| d);
    }
    assert_eq!(order.len(), services.len(), "{case}");
    for (i, &id) in order.iter().enumerate() {
        assert_eq!(id, i as u64, "{case}: FCFS order violated");
    }
    let total: f64 = services.iter().sum();
    let (busy, _, ops) = disk.stats(t(1000.0));
    assert_eq!(ops, services.len() as u64, "{case}");
    // Each operation's service time is rounded to the microsecond grid.
    let tolerance = 2e-6 * services.len() as f64;
    assert!(
        (busy - total).abs() < tolerance,
        "{case}: busy {busy} vs {total}"
    );
}

/// End-to-end conservation and determinism over random small
/// workloads: issued = completed + in-flight, and same seed → same
/// telemetry. Eight cases: each is two full simulator runs.
#[test]
fn engine_conserves_requests_and_is_deterministic() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.random_range(0u64..1000);
        let ebs = rng.random_range(5u32..60);
        let browse_blend = rng.random_range(0.0f64..1.0);
        let mix = Mix::browsing().blend(&Mix::ordering(), browse_blend);
        let program = TrafficProgram::steady(mix, ebs, 45.0);
        let a = run(SimConfig::testbed(seed), program.clone());
        let b = run(SimConfig::testbed(seed), program);
        assert_eq!(&a.samples, &b.samples, "case {case}");
        let issued: u64 = a.samples.iter().map(|s| s.issued).sum();
        let completed: u64 = a.samples.iter().map(|s| s.completed).sum();
        let in_flight = a.samples.last().map_or(0, |s| s.in_flight) as u64;
        assert_eq!(issued, completed + in_flight, "case {case}");
        // Utilizations are fractions.
        for s in &a.samples {
            assert!((0.0..=1.0).contains(&s.app.utilization), "case {case}");
            assert!((0.0..=1.0).contains(&s.db.utilization), "case {case}");
            assert!((0.0..=1.0).contains(&s.db.disk_utilization), "case {case}");
        }
    }
}
