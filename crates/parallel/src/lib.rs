//! Deterministic parallel execution for the webcap workspace.
//!
//! The system's one fan-out level — the independent simulated
//! executions of a training or an evaluation, and a training's four
//! synopsis inductions — goes through
//! [`par_map`], which runs tasks on scoped threads while
//! preserving **bit-for-bit determinism**: results are collected into the
//! input order, every task is a pure function of its input, and any
//! randomness a task needs comes from its own pre-derived seed stream
//! ([`derive_seed`], keyed by `(task kind, index, base seed)`), never from
//! a shared RNG. Consequently the output of a parallel run is byte-
//! identical to the sequential run regardless of thread count or
//! scheduling — the invariant `crates/core/tests/determinism.rs` enforces.
//!
//! The degree of parallelism is a value ([`Parallelism`]) callers pass
//! in, so the same binary can run single-threaded (reference results) or
//! use the host's cores; no environment variable is read.

// The determinism bans of DESIGN §8 (configured in the root `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

/// How many worker threads a fan-out point may use.
///
/// The knob never changes *results* — parallel execution is
/// deterministic by construction — only wall-clock time. It is not
/// serializable, so meters trained at different thread counts serialize
/// to identical bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Run every task inline on the calling thread (the reference path).
    Sequential,
    /// Use exactly this many worker threads (clamped to at least 1;
    /// `Threads(1)` is equivalent to `Sequential`).
    Threads(usize),
    /// Size the pool from the host: the available hardware parallelism,
    /// capped at [`MAX_AUTO_THREADS`].
    #[default]
    Auto,
}

/// Upper bound on the thread count `Parallelism::Auto` will pick.
pub const MAX_AUTO_THREADS: usize = 16;

impl Parallelism {
    /// Resolve the worker-thread count for a fan-out of `tasks` tasks.
    /// Always at least 1 and never more than `tasks` (when `tasks > 0`).
    fn worker_count(self, tasks: usize) -> usize {
        let raw = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(MAX_AUTO_THREADS),
        };
        raw.min(tasks.max(1))
    }

    /// Parse a `--jobs`-style value: `auto`/`0` → [`Parallelism::Auto`],
    /// `1` → [`Parallelism::Sequential`], `n` → [`Parallelism::Threads`].
    pub fn from_jobs(value: &str) -> Option<Parallelism> {
        if value.eq_ignore_ascii_case("auto") {
            return Some(Parallelism::Auto);
        }
        match value.parse::<usize>().ok()? {
            0 => Some(Parallelism::Auto),
            1 => Some(Parallelism::Sequential),
            n => Some(Parallelism::Threads(n)),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Sequential => f.write_str("sequential"),
            Parallelism::Threads(n) => write!(f, "{n} threads"),
            Parallelism::Auto => f.write_str("auto"),
        }
    }
}

/// Namespaces for [`derive_seed`], so seed streams never collide across
/// task kinds that share a base seed.
pub mod seed_domain {
    /// Per-tier telemetry agents' metric synthesis (`webcap-net`): the
    /// per-sample seed is derived from `(AGENT_METRICS + tier index,
    /// sample seq, base seed)`, so a replayed or re-sent sample always
    /// regenerates identical metric rows regardless of what was dropped
    /// before it.
    pub const AGENT_METRICS: u64 = 0x61_67_6e_74; // "agnt"
}

/// Derive an independent `StdRng`-ready seed for one parallel task,
/// keyed by `(domain, index, base)`.
///
/// The derivation is a SplitMix64-style finalizer over the three keys, so
/// nearby `(domain, index)` pairs produce statistically unrelated streams
/// and — crucially — the seed depends only on the task's *identity*,
/// never on which worker thread runs it or in what order. Deriving all
/// seeds up front is what makes parallel execution bit-identical to
/// sequential execution.
pub fn derive_seed(domain: u64, index: u64, base: u64) -> u64 {
    let mut z = base
        .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map `inputs` through `f`, preserving input order in the output.
///
/// With [`Parallelism::Sequential`] (or a resolved worker count of 1)
/// this is a plain in-order map on the calling thread. Otherwise tasks
/// are pulled from a shared queue by scoped worker threads and each
/// result is written into its input's slot, so the output is identical
/// to the sequential map whenever `f` is a pure function of its input —
/// scheduling and thread count cannot reorder or alter results.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope observes the worker failure).
pub fn par_map<T, R, F>(par: Parallelism, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let total = inputs.len();
    let workers = par.worker_count(total);
    if workers <= 1 || total <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let queue = std::sync::Mutex::new(inputs.into_iter().enumerate());
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(total, || None);
    let results_mutex = std::sync::Mutex::new(&mut results);
    // The scope joins every worker and re-raises a worker's panic.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The guard is a temporary of this statement: the lock
                // is released before `f` runs.
                let job = queue.lock().expect("no poisoned workers").next();
                let Some((idx, input)) = job else { break };
                let out = f(input);
                let mut guard = results_mutex.lock().expect("no poisoned workers");
                guard[idx] = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_for_pure_functions() {
        let inputs: Vec<u64> = (0..257).collect();
        let f = |x: u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        let seq = par_map(Parallelism::Sequential, inputs.clone(), f);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            assert_eq!(seq, par_map(par, inputs.clone(), f), "{par}");
        }
    }

    #[test]
    fn order_is_preserved() {
        let out = par_map(
            Parallelism::Threads(4),
            (0..100).collect::<Vec<i32>>(),
            |x| x * 2,
        );
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = par_map(Parallelism::Threads(8), Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
        let one = par_map(Parallelism::Threads(8), vec![41], |x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(100), 4);
        assert_eq!(Parallelism::Threads(0).worker_count(100), 1);
        assert_eq!(Parallelism::Threads(8).worker_count(3), 3);
        let auto = Parallelism::Auto.worker_count(1000);
        assert!((1..=MAX_AUTO_THREADS).contains(&auto));
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(Parallelism::from_jobs("auto"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::from_jobs("0"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::from_jobs("1"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::from_jobs("6"), Some(Parallelism::Threads(6)));
        assert_eq!(Parallelism::from_jobs("x"), None);
    }

    #[test]
    fn derived_seeds_are_distinct_per_key() {
        let mut seen = std::collections::BTreeSet::new();
        for domain in [seed_domain::AGENT_METRICS, seed_domain::AGENT_METRICS + 1] {
            for index in 0..64 {
                for base in [0u64, 1, 0xdead_beef] {
                    assert!(
                        seen.insert(derive_seed(domain, index, base)),
                        "collision at ({domain}, {index}, {base})"
                    );
                }
            }
        }
    }

    #[test]
    fn derive_seed_is_a_pure_function() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
    }

    #[test]
    fn display_names() {
        assert_eq!(Parallelism::Sequential.to_string(), "sequential");
        assert_eq!(Parallelism::Threads(3).to_string(), "3 threads");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
    }
}
