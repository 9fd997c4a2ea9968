//! The reference kernel every end-to-end timing is scaled by.
//!
//! The sandbox this benchmark is judged in shares its memory system
//! with other tenants: a pure-ALU loop repeats within 1–5 % from run to
//! run, but anything that misses cache slows by up to 1.5× for tens of
//! seconds at a time, and the repository's code misses cache a lot. No
//! statistic over repetitions inside one ≈20 s run can see past a slow
//! spell that outlasts the run. What does: timing a fixed piece of work
//! with a similar appetite for memory right before and right after
//! each timed region, and reporting the region's time in units of it.
//!
//! The kernel lives here, in the benchmark's own directory, and calls
//! nothing from the repository, so no change to the program can move
//! it; a change to the kernel is a change to the benchmark and needs a
//! new baseline.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::sys::splitmix64;

/// The kernel time that defines the unit. Calibrated times are
/// `measured × NOMINAL_S ÷ kernel time`: what the clock would have read
/// on a machine on which the kernel takes this long. The sandbox this
/// was written on is such a machine when it is quiet, so there a
/// calibrated second is a plain second; elsewhere it is not, and two
/// hosts' calibrated numbers compare only through the kernel. The plain
/// readings are always printed beside the calibrated ones.
pub const NOMINAL_S: f64 = 0.0145;

/// 8 MB of `u32`: well past the last-level cache share of one core.
const CHAIN_LEN: usize = 2_000_000;

pub struct Reference {
    /// One cycle through every index, in scrambled order.
    chain: Vec<u32>,
    /// Where the next walk resumes, so that no run re-reads the lines
    /// the previous one just pulled into cache.
    cursor: Cell<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        // Sattolo's shuffle yields a single cycle, so a walk never
        // settles into a short, cache-resident loop.
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut x = 0x5eed;
        for i in (1..CHAIN_LEN).rev() {
            x = splitmix64(x);
            chain.swap(i, (x % i as u64) as usize);
        }
        Reference {
            chain,
            cursor: Cell::new(0),
        }
    }

    /// Run the kernel once and return how long it took, seconds. Three
    /// parts of about equal length, one per way the machine was seen to
    /// slow down: a dependent arithmetic chain, a dependent walk through
    /// the chain (memory latency), and a `BTreeMap` of freshly allocated
    /// vectors built and summed (the allocator and ordered-map traffic
    /// the collector's hot path has).
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut x = 1u64;
        for _ in 0..1_200_000 {
            x = splitmix64(x);
        }
        std::hint::black_box(x);
        let mut at = self.cursor.get();
        for _ in 0..50_000 {
            at = self.chain[at as usize];
        }
        self.cursor.set(at);
        let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut y = u64::from(at);
        for _ in 0..14_000 {
            y = splitmix64(y);
            map.insert(y % 4096, vec![y as f64; 76]);
        }
        let sum: f64 = map.values().flatten().sum();
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64()
    }

    /// Run `f` between two runs of the kernel. Returns its result and
    /// the factor that calibrates a time measured inside it.
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.run();
        let out = f();
        let after = self.run();
        (out, NOMINAL_S / ((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_and_the_scale_is_sane() {
        let reference = Reference::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = reference.chain[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN_LEN);
        let (out, scale) = reference.around(|| 7);
        assert_eq!(out, 7);
        assert!(scale > 0.0 && scale.is_finite());
    }
}
