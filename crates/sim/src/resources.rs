//! Queueing resources: a processor-sharing CPU with contention
//! degradation, a FIFO token pool (worker threads / DB connections), and a
//! FCFS disk.
//!
//! All resources keep time-integral accumulators (busy time, delivered
//! work, queue-length integrals) that the telemetry sampler reads as
//! cumulative values and differences per sampling interval.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{ceil_to_u64, SimDuration, SimTime};

/// Identifier of a job inside the simulator: an in-flight request,
/// named by the index of the emulated browser that waits for it.
pub type JobId = usize;

/// A processor-sharing CPU with `cores` cores at `speed` work-units per
/// second each, degraded by contention when more jobs are runnable than
/// cores exist:
///
/// `capacity(n) = min(n, cores)·speed / (1 + α·max(0, n − cores))`
///
/// The degradation term models context-switch and cache-pollution overhead
/// and produces the post-saturation *throughput decline* the paper
/// describes (its reference \[11\]). Every runnable job receives an equal
/// share `capacity(n)/n`.
///
/// Kept in virtual time: every runnable job has received the same work
/// since it arrived, so one clock (the work each has received in the
/// current busy period) and one finish tag per job say everything, and
/// an event costs O(log n) (`DESIGN.md` §5.1).
#[derive(Debug, Clone)]
pub struct PsCpu {
    cores: f64,
    speed: f64,
    contention_alpha: f64,
    /// Fraction of capacity consumed by background interference (OS
    /// daemons, GC, cache warmup) — see `TierConfig::background`.
    background: f64,
    /// The virtual clock: work each runnable job has received since the
    /// CPU last emptied, in seconds of speed-1.0 work. Reset to 0 when
    /// the last job leaves.
    virtual_work: f64,
    /// Runnable jobs by finish tag, the least first: a job with `work`
    /// pushed at virtual clock `v` completes when the clock reaches
    /// `v + work`.
    jobs: BinaryHeap<Reverse<FinishTag>>,
    /// Jobs pushed so far: the arrival number of the next one.
    arrivals: u64,
    /// `capacity(n)` and `capacity(n)/n` at the current `n` and
    /// background (both 0 when `n == 0`).
    total_rate: f64,
    job_rate: f64,
    last_update: SimTime,
    // Cumulative accumulators.
    busy_time_s: f64,
    delivered_work_s: f64,
    job_time_integral: f64,
}

impl PsCpu {
    /// Create a CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, `speed <= 0`, or `alpha` is negative or
    /// not finite.
    pub fn new(cores: u32, speed: f64, contention_alpha: f64) -> PsCpu {
        assert!(cores > 0, "need at least one core");
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        assert!(
            contention_alpha >= 0.0 && contention_alpha.is_finite(),
            "alpha must be nonnegative and finite"
        );
        PsCpu {
            cores: f64::from(cores),
            speed,
            contention_alpha,
            background: 0.0,
            virtual_work: 0.0,
            jobs: BinaryHeap::new(),
            arrivals: 0,
            total_rate: 0.0,
            job_rate: 0.0,
            last_update: SimTime::ZERO,
            busy_time_s: 0.0,
            delivered_work_s: 0.0,
            job_time_integral: 0.0,
        }
    }

    /// Total deliverable work rate with `n` runnable jobs.
    pub fn capacity(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n_f = n as f64;
        let base = n_f.min(self.cores) * self.speed * (1.0 - self.background);
        base / (1.0 + self.contention_alpha * (n_f - self.cores).max(0.0))
    }

    /// Update the background-interference fraction. Advances accounting to
    /// `now` first so past work is credited at the old rate; a completion
    /// time computed before the call no longer holds at the new one.
    ///
    /// # Panics
    ///
    /// Panics if `background` is not within `[0, 0.95]`.
    pub fn set_background(&mut self, now: SimTime, background: f64) {
        assert!(
            (0.0..=0.95).contains(&background),
            "background must be in [0, 0.95]"
        );
        self.advance(now);
        self.background = background;
        self.refresh_rates();
    }

    /// Recompute the cached rates after `n` or the background changed.
    fn refresh_rates(&mut self) {
        let n = self.jobs.len();
        self.total_rate = self.capacity(n);
        self.job_rate = if n == 0 {
            0.0
        } else {
            self.total_rate / n as f64
        };
    }

    /// Current background-interference fraction.
    pub fn background(&self) -> f64 {
        self.background
    }

    /// Number of runnable jobs.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Advance internal accounting to `now`: every runnable job receives
    /// `job_rate · dt` more work, which is one addition to the virtual
    /// clock.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.seconds_since(self.last_update);
        if dt > 0.0 {
            let n = self.jobs.len();
            if n > 0 {
                self.virtual_work += self.job_rate * dt;
                self.busy_time_s += dt;
                self.delivered_work_s += self.total_rate * dt;
                self.job_time_integral += n as f64 * dt;
            }
            self.last_update = now;
        } else if now > self.last_update {
            self.last_update = now;
        }
    }

    /// Add a runnable job with `work` seconds of speed-1.0 demand.
    ///
    /// Call [`PsCpu::advance`] first (the engine always does).
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative or non-finite.
    pub fn push(&mut self, now: SimTime, id: JobId, work: f64) {
        assert!(work >= 0.0 && work.is_finite(), "work must be nonnegative");
        self.advance(now);
        self.jobs.push(Reverse(FinishTag {
            finish: self.virtual_work + work,
            arrival: self.arrivals,
            id,
        }));
        self.arrivals += 1;
        self.refresh_rates();
    }

    /// When the next job will finish if the membership stays unchanged.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let least = self.min_remaining()?;
        // Round *up* to the next microsecond so at the event time the
        // remaining work has truly reached zero.
        let us = ceil_to_u64(least / self.job_rate * 1e6).max(1);
        Some(now + SimDuration::from_micros(us))
    }

    /// Remove and return the job with the least finish tag (the one that
    /// completes first; of equal tags, the earliest arrival).
    ///
    /// # Panics
    ///
    /// Panics if no job is active.
    pub fn pop_completed(&mut self, now: SimTime) -> JobId {
        self.advance(now);
        let Reverse(head) = self.jobs.pop().expect("no active job to complete");
        if self.jobs.is_empty() {
            // No tag refers to the clock any more: a new busy period
            // starts from zero.
            self.virtual_work = 0.0;
        }
        self.refresh_rates();
        head.id
    }

    /// Remaining work of the job closest to completion (for tests).
    pub fn min_remaining(&self) -> Option<f64> {
        let Reverse(head) = self.jobs.peek()?;
        Some((head.finish - self.virtual_work).max(0.0))
    }

    /// Cumulative statistics: `(busy_time_s, delivered_work_s,
    /// job_time_integral)`.
    pub fn stats(&self) -> (f64, f64, f64) {
        (
            self.busy_time_s,
            self.delivered_work_s,
            self.job_time_integral,
        )
    }
}

/// A runnable job's place in a [`PsCpu`]: it completes when the virtual
/// clock reaches `finish`. Ordered by `finish`, then by arrival, so jobs
/// with equal tags leave first-in, first-out.
#[derive(Debug, Clone, Copy)]
struct FinishTag {
    finish: f64,
    arrival: u64,
    id: JobId,
}

impl Ord for FinishTag {
    fn cmp(&self, other: &Self) -> Ordering {
        self.finish
            .total_cmp(&other.finish)
            .then(self.arrival.cmp(&other.arrival))
    }
}

impl PartialOrd for FinishTag {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for FinishTag {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FinishTag {}

/// A FIFO pool of identical tokens: Tomcat worker threads or MySQL
/// connections. Jobs that cannot acquire a token wait in arrival order.
#[derive(Debug, Clone)]
pub struct TokenPool {
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<JobId>,
    last_update: SimTime,
    in_use_integral: f64,
    queue_integral: f64,
    total_acquisitions: u64,
}

impl TokenPool {
    /// Create a pool with `capacity` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> TokenPool {
        assert!(capacity > 0, "pool capacity must be positive");
        TokenPool {
            capacity,
            in_use: 0,
            waiters: VecDeque::new(),
            last_update: SimTime::ZERO,
            in_use_integral: 0.0,
            queue_integral: 0.0,
            total_acquisitions: 0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.seconds_since(self.last_update);
        if dt > 0.0 {
            self.in_use_integral += self.in_use as f64 * dt;
            self.queue_integral += self.waiters.len() as f64 * dt;
        }
        if now > self.last_update {
            self.last_update = now;
        }
    }

    /// Try to take a token; on failure the caller should
    /// [`TokenPool::enqueue`].
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.advance(now);
        if self.in_use < self.capacity {
            self.in_use += 1;
            self.total_acquisitions += 1;
            true
        } else {
            false
        }
    }

    /// Join the wait queue.
    pub fn enqueue(&mut self, now: SimTime, id: JobId) {
        self.advance(now);
        self.waiters.push_back(id);
    }

    /// Release a token. If a waiter exists, the token passes directly to
    /// it and its id is returned (the engine resumes that job *holding*
    /// the token); otherwise the token returns to the pool.
    ///
    /// # Panics
    ///
    /// Panics if no token is in use.
    pub fn release(&mut self, now: SimTime) -> Option<JobId> {
        self.advance(now);
        assert!(self.in_use > 0, "release without acquire");
        if let Some(next) = self.waiters.pop_front() {
            self.total_acquisitions += 1;
            Some(next)
        } else {
            self.in_use -= 1;
            None
        }
    }

    /// Tokens currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Jobs currently waiting.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative statistics: `(in_use_integral, queue_integral,
    /// total_acquisitions)`; call with the current time to fold in the
    /// elapsed span.
    pub fn stats(&mut self, now: SimTime) -> (f64, f64, u64) {
        self.advance(now);
        (
            self.in_use_integral,
            self.queue_integral,
            self.total_acquisitions,
        )
    }
}

/// A single FCFS disk.
#[derive(Debug, Clone)]
pub struct FcfsDisk {
    busy: Option<JobId>,
    queue: VecDeque<(JobId, f64)>,
    last_update: SimTime,
    busy_time_s: f64,
    queue_integral: f64,
    ops: u64,
    busy_since: Option<SimTime>,
}

impl FcfsDisk {
    /// An idle disk.
    pub fn new() -> FcfsDisk {
        FcfsDisk {
            busy: None,
            queue: VecDeque::new(),
            last_update: SimTime::ZERO,
            busy_time_s: 0.0,
            queue_integral: 0.0,
            ops: 0,
            busy_since: None,
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.seconds_since(self.last_update);
        if dt > 0.0 {
            if self.busy.is_some() {
                self.busy_time_s += dt;
            }
            self.queue_integral += self.queue.len() as f64 * dt;
        }
        if now > self.last_update {
            self.last_update = now;
        }
    }

    /// Submit an I/O of `service_s` seconds. If the disk is idle the
    /// operation starts immediately and its completion time is returned;
    /// otherwise it queues and `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if `service_s <= 0` (zero-length I/O should be skipped by
    /// the caller) or non-finite.
    pub fn submit(&mut self, now: SimTime, id: JobId, service_s: f64) -> Option<SimTime> {
        assert!(
            service_s > 0.0 && service_s.is_finite(),
            "disk service must be positive"
        );
        self.advance(now);
        if self.busy.is_none() {
            self.busy = Some(id);
            self.busy_since = Some(now);
            Some(SimTime::from_secs_f64(now.as_secs_f64() + service_s))
        } else {
            self.queue.push_back((id, service_s));
            None
        }
    }

    /// Complete the in-service operation. Returns the finished job and, if
    /// a queued operation starts, `(next_job, its_completion_time)`.
    ///
    /// # Panics
    ///
    /// Panics if the disk is idle.
    pub fn complete(&mut self, now: SimTime) -> (JobId, Option<(JobId, SimTime)>) {
        self.advance(now);
        let finished = self.busy.take().expect("disk completion while idle");
        self.ops += 1;
        self.busy_since = None;
        let next = self.queue.pop_front().map(|(id, service)| {
            self.busy = Some(id);
            self.busy_since = Some(now);
            (id, SimTime::from_secs_f64(now.as_secs_f64() + service))
        });
        (finished, next)
    }

    /// Queued (not yet started) operations.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative statistics: `(busy_time_s, queue_integral, ops)`.
    pub fn stats(&mut self, now: SimTime) -> (f64, f64, u64) {
        self.advance(now);
        (self.busy_time_s, self.queue_integral, self.ops)
    }
}

impl Default for FcfsDisk {
    fn default() -> FcfsDisk {
        FcfsDisk::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_job_runs_at_core_speed() {
        let mut cpu = PsCpu::new(1, 2.0, 0.0);
        cpu.push(t(0.0), 1, 1.0); // 1 work unit at 2 units/s → 0.5 s
        let done = cpu.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 0.5).abs() < 1e-5, "done at {done}");
        assert_eq!(cpu.pop_completed(done), 1);
        assert_eq!(cpu.active_jobs(), 0);
    }

    #[test]
    fn two_jobs_share_one_core() {
        let mut cpu = PsCpu::new(1, 1.0, 0.0);
        cpu.push(t(0.0), 1, 1.0);
        cpu.push(t(0.0), 2, 1.0);
        // Each runs at 0.5 units/s → both near 2.0 s; first pop at ~2 s.
        let done = cpu.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn multicore_runs_jobs_in_parallel() {
        let mut cpu = PsCpu::new(2, 1.0, 0.0);
        cpu.push(t(0.0), 1, 1.0);
        cpu.push(t(0.0), 2, 1.0);
        let done = cpu.next_completion(t(0.0)).unwrap();
        assert!(
            (done.as_secs_f64() - 1.0).abs() < 1e-5,
            "2 cores → no sharing penalty"
        );
    }

    #[test]
    fn contention_degrades_capacity() {
        let cpu = PsCpu::new(1, 1.0, 0.1);
        assert_eq!(cpu.capacity(1), 1.0);
        assert!(
            (cpu.capacity(11) - 1.0 / 2.0).abs() < 1e-12,
            "10 excess at α=0.1 halves"
        );
        assert!(cpu.capacity(21) < cpu.capacity(11));
    }

    #[test]
    fn shorter_job_completes_first() {
        let mut cpu = PsCpu::new(1, 1.0, 0.0);
        cpu.push(t(0.0), 7, 5.0);
        cpu.push(t(0.0), 8, 0.5);
        let done = cpu.next_completion(t(0.0)).unwrap();
        assert_eq!(cpu.pop_completed(done), 8);
        // Remaining job has 5 − 0.5 = 4.5 left (each got 0.5 of work).
        assert!((cpu.min_remaining().unwrap() - 4.5).abs() < 1e-5);
    }

    #[test]
    fn equal_tags_leave_in_arrival_order() {
        let mut cpu = PsCpu::new(1, 1.0, 0.0);
        for id in [9, 3, 7] {
            cpu.push(t(0.0), id, 0.25);
        }
        cpu.push(t(0.0), 5, 0.0);
        // The zero-work job first; the three equal tags by arrival, not
        // by id.
        let mut order = Vec::new();
        let mut now = t(0.0);
        while let Some(done) = cpu.next_completion(now) {
            now = done;
            order.push(cpu.pop_completed(now));
        }
        assert_eq!(order, [5, 9, 3, 7]);
    }

    #[test]
    fn each_busy_period_starts_the_virtual_clock_at_zero() {
        let mut cpu = PsCpu::new(1, 1.0, 0.0);
        cpu.push(t(0.0), 1, 0.3);
        let done = cpu.next_completion(t(0.0)).unwrap();
        cpu.pop_completed(done);
        // Were the clock left at ≈ 0.3, `(0.3 + 0.1) − 0.3` would not
        // give back 0.1 exactly.
        cpu.push(t(2.0), 2, 0.1);
        assert_eq!(cpu.min_remaining(), Some(0.1));
    }

    #[test]
    fn cpu_stats_accumulate() {
        let mut cpu = PsCpu::new(1, 1.0, 0.0);
        cpu.push(t(0.0), 1, 1.0);
        let done = cpu.next_completion(t(0.0)).unwrap();
        cpu.pop_completed(done);
        cpu.advance(t(5.0));
        let (busy, work, jobs_dt) = cpu.stats();
        assert!((busy - 1.0).abs() < 1e-5);
        assert!((work - 1.0).abs() < 1e-5);
        assert!((jobs_dt - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pool_acquire_release_fifo() {
        let mut pool = TokenPool::new(1);
        assert!(pool.try_acquire(t(0.0)));
        assert!(!pool.try_acquire(t(0.1)));
        pool.enqueue(t(0.1), 42);
        pool.enqueue(t(0.2), 43);
        assert_eq!(pool.queue_len(), 2);
        assert_eq!(pool.release(t(1.0)), Some(42), "FIFO handoff");
        assert_eq!(pool.release(t(2.0)), Some(43));
        assert_eq!(pool.release(t(3.0)), None);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn pool_stats_time_weighted() {
        let mut pool = TokenPool::new(2);
        assert!(pool.try_acquire(t(0.0)));
        let (in_use_int, _, acq) = pool.stats(t(2.0));
        assert!((in_use_int - 2.0).abs() < 1e-9, "1 token × 2 s");
        assert_eq!(acq, 1);
    }

    #[test]
    fn disk_serializes_operations() {
        let mut disk = FcfsDisk::new();
        let done1 = disk
            .submit(t(0.0), 1, 0.5)
            .expect("idle disk starts at once");
        assert!((done1.as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(disk.submit(t(0.1), 2, 0.25), None, "second op queues");
        assert_eq!(disk.queue_len(), 1);
        let (fin, next) = disk.complete(done1);
        assert_eq!(fin, 1);
        let (next_id, next_done) = next.expect("queued op starts");
        assert_eq!(next_id, 2);
        assert!((next_done.as_secs_f64() - 0.75).abs() < 1e-9);
        let (fin2, none) = disk.complete(next_done);
        assert_eq!(fin2, 2);
        assert!(none.is_none());
        let (busy, _, ops) = disk.stats(t(1.0));
        assert_eq!(ops, 2);
        assert!((busy - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn over_release_panics() {
        let mut pool = TokenPool::new(1);
        let _ = pool.release(t(0.0));
    }

    #[test]
    #[should_panic(expected = "disk completion while idle")]
    fn idle_disk_complete_panics() {
        let mut disk = FcfsDisk::new();
        let _ = disk.complete(t(0.0));
    }
}
