//! The agent's retry/backoff policy for its redial loop.
//!
//! An agent whose collector crashed, restarted or shed it redials with
//! jittered exponential backoff (so a fleet of agents does not hammer a
//! recovering collector in lockstep), a bounded attempt budget (so a
//! dead collector surfaces as an error rather than an infinite loop),
//! and a per-attempt handshake timeout.
//!
//! [`RetryPolicy`] packages those three knobs. The jitter is
//! *deterministic* — derived from `(seed, attempt)` via the same
//! counter-based seed derivation the rest of the workspace uses — so
//! retry schedules replay exactly in tests.

use std::time::Duration;

use webcap_parallel::derive_seed;

/// Seed-derivation namespace for backoff jitter.
const BACKOFF_DOMAIN: u64 = 0x62_6b_6f_66; // "bkof"

/// Jittered exponential backoff with an attempt budget and a
/// per-attempt timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff before the second attempt (the first retry).
    pub initial: Duration,
    /// Backoff growth cap.
    pub max: Duration,
    /// Total attempts (initial try included) before giving up.
    pub max_attempts: u32,
    /// Timeout the caller should apply to each individual attempt
    /// (e.g. a connection read timeout). [`RetryPolicy::run`] does not
    /// enforce it — enforcement is operation-specific — but carrying
    /// it here keeps the whole retry posture in one value.
    pub attempt_timeout: Duration,
}

impl RetryPolicy {
    /// The agent redial posture: snappy first retry, 1 s cap, a budget
    /// of 40 attempts (≈ half a minute of nominal backoff), 500 ms per
    /// handshake attempt.
    pub fn dial_defaults() -> RetryPolicy {
        RetryPolicy {
            initial: Duration::from_millis(25),
            max: Duration::from_secs(1),
            max_attempts: 40,
            attempt_timeout: Duration::from_millis(500),
        }
    }

    /// Backoff before attempt `attempt` (1-based): exponential from
    /// `initial`, capped at `max`, scaled by a deterministic jitter in
    /// [0.75, 1.25) derived from `(seed, attempt)`.
    pub fn delay(&self, seed: u64, attempt: u32) -> Duration {
        let exp = self
            .initial
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.max);
        let jitter_bits = derive_seed(BACKOFF_DOMAIN, u64::from(attempt), seed) % 1000;
        let factor = 0.75 + 0.5 * (jitter_bits as f64 / 1000.0);
        exp.mul_f64(factor)
    }

    /// Run `op` until it succeeds, the attempt budget is exhausted, or
    /// it fails with an error `retryable` rejects. Sleeps the jittered
    /// backoff between attempts. `op` receives the 1-based attempt
    /// number; the final error is returned verbatim.
    pub fn run<T, E>(
        &self,
        seed: u64,
        mut retryable: impl FnMut(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let budget = self.max_attempts.max(1);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= budget || !retryable(&e) {
                        return Err(e);
                    }
                    std::thread::sleep(self.delay(seed, attempt));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_capped_and_jittered() {
        let policy = RetryPolicy {
            initial: Duration::from_millis(20),
            max: Duration::from_millis(500),
            max_attempts: 40,
            attempt_timeout: Duration::from_millis(500),
        };
        let mut prev_nominal = Duration::ZERO;
        for attempt in 1..=10 {
            let d = policy.delay(7, attempt);
            let nominal = policy
                .initial
                .saturating_mul(1u32 << (attempt - 1).min(20))
                .min(policy.max);
            assert!(nominal >= prev_nominal, "nominal backoff never shrinks");
            prev_nominal = nominal;
            assert!(d >= nominal.mul_f64(0.75), "attempt {attempt}: {d:?}");
            assert!(d <= nominal.mul_f64(1.25), "attempt {attempt}: {d:?}");
        }
        // Deterministic per (seed, attempt); seeds decorrelate.
        assert_eq!(policy.delay(7, 3), policy.delay(7, 3));
        assert_ne!(policy.delay(7, 3), policy.delay(8, 3));
    }

    #[test]
    fn run_retries_until_success() {
        let policy = RetryPolicy {
            initial: Duration::from_micros(10),
            max: Duration::from_micros(20),
            max_attempts: 5,
            attempt_timeout: Duration::from_millis(1),
        };
        let mut calls = 0;
        let out: Result<u32, &str> = policy.run(
            3,
            |_| true,
            |attempt| {
                calls += 1;
                if attempt < 3 {
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out, Ok(3));
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_stops_at_the_attempt_budget() {
        let policy = RetryPolicy {
            initial: Duration::from_micros(10),
            max: Duration::from_micros(20),
            max_attempts: 4,
            attempt_timeout: Duration::from_millis(1),
        };
        let mut calls = 0;
        let out: Result<(), &str> = policy.run(
            3,
            |_| true,
            |_| {
                calls += 1;
                Err("always")
            },
        );
        assert_eq!(out, Err("always"));
        assert_eq!(calls, 4, "initial try plus three retries");
    }

    #[test]
    fn run_returns_non_retryable_errors_immediately() {
        let policy = RetryPolicy::dial_defaults();
        let mut calls = 0;
        let out: Result<(), &str> = policy.run(
            3,
            |e| *e != "fatal",
            |_| {
                calls += 1;
                Err("fatal")
            },
        );
        assert_eq!(out, Err("fatal"));
        assert_eq!(calls, 1, "non-retryable error short-circuits");
    }

    #[test]
    fn zero_attempt_budget_still_tries_once() {
        let policy = RetryPolicy {
            initial: Duration::from_micros(10),
            max: Duration::from_micros(20),
            max_attempts: 0,
            attempt_timeout: Duration::from_millis(1),
        };
        let mut calls = 0;
        let out: Result<(), &str> = policy.run(
            3,
            |_| true,
            |_| {
                calls += 1;
                Err("always")
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }
}
