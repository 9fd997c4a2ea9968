//! The discrete-event simulation engine.
//!
//! Requests flow through the two tiers as in the paper's testbed: an
//! emulated browser issues a request; the app tier assigns a worker thread
//! (held for the whole request, including database waits — the request
//! *dead time* of Section I); the request alternates app-tier CPU bursts
//! with database calls, each of which acquires a connection, burns DB CPU,
//! and possibly performs disk I/O. Completion returns the response to the
//! browser, which thinks and issues again.
//!
//! Events are processed in `(time, sequence)` order. The future-event
//! list is split by what each source can promise about its due times —
//! a heap for the think timers and the tick, a FIFO for the network
//! hops, one slot per server for its next completion — and merged on
//! that key, so the order is the one a single heap would give (see
//! `DESIGN.md` §5.1). All randomness comes from one seeded RNG, so runs
//! are reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_tpcw::{RequestClass, RequestType, TrafficProgram};

use crate::config::{SimConfig, TierId};
use crate::gauss::GaussPairs;
use crate::histogram::RtHistogram;
use crate::resources::{FcfsDisk, JobId, PsCpu, TokenPool};
use crate::telemetry::{AppStats, SystemSample, TierSample};
use crate::time::{SimDuration, SimTime};

/// Output of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// One sample per sampling period, in time order.
    pub samples: Vec<SystemSample>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// An EB's think time ended; issue the next request (or retire).
    Issue { eb: usize },
    /// App-tier CPU finished its shortest job.
    AppCpuDone,
    /// DB-tier CPU finished its shortest job.
    DbCpuDone,
    /// The DB disk finished its in-service operation.
    DiskDone,
    /// A DB call crossed the network and arrives at the connection pool.
    DbArrive { req: JobId },
    /// A finished DB call crossed back; resume the app-tier burst.
    AppResume { req: JobId },
    /// Telemetry sampling tick (also adjusts the EB population).
    Tick,
}

/// When an event is due and the number of the `schedule` call that
/// made it: the total order events are dispatched in.
type Due = (SimTime, u64);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    due: Due,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due)
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct Request {
    class: RequestClass,
    issued_at: SimTime,
    /// Remaining DB calls after the current burst.
    db_calls_left: u32,
    /// App CPU work per burst (total split across `db_calls + 1` bursts).
    app_burst_work: f64,
    /// DB CPU work per call.
    db_cpu_per_call: f64,
    /// DB disk time per call.
    db_disk_per_call: f64,
}

#[derive(Debug)]
struct EbState {
    active: bool,
    /// The closed loop allows one request per EB at a time, so the
    /// EB's index doubles as the request's [`JobId`].
    request: Option<Request>,
}

/// Per-interval event counters, reset at every tick.
#[derive(Debug, Default, Clone)]
struct IntervalCounters {
    response_times: RtHistogram,
    issued: u64,
    issued_browse: u64,
    completed: u64,
    completed_browse: u64,
    response_time_sum_s: f64,
    response_time_max_s: f64,
    app_arrivals: u64,
    app_completions: u64,
    db_arrivals: u64,
    db_completions: u64,
    app_browse_work: f64,
    app_order_work: f64,
    db_browse_work: f64,
    db_order_work: f64,
}

/// Cumulative resource statistics at the previous tick, used to derive
/// per-interval deltas.
#[derive(Debug, Default, Clone, Copy)]
struct TierCumulative {
    busy_s: f64,
    work_s: f64,
    job_time: f64,
    pool_in_use_int: f64,
    pool_queue_int: f64,
    disk_busy_s: f64,
    disk_queue_int: f64,
    disk_ops: u64,
}

/// The two-tier website simulator.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    program: TrafficProgram,
    clock: SimTime,
    end: SimTime,
    /// Counts every `schedule` call, so same-instant events keep the
    /// order they were scheduled in — also across the five sources.
    seq: u64,
    /// `Issue` and `Tick`: the only events due an arbitrary time ahead.
    timers: BinaryHeap<Reverse<Scheduled>>,
    /// `DbArrive` and `AppResume`: due one constant delay after a
    /// monotone clock, hence already in order.
    hops: VecDeque<Scheduled>,
    /// Next completion of each server, overwritten whenever its
    /// membership or rate changes.
    app_cpu_done: Option<Due>,
    db_cpu_done: Option<Due>,
    disk_done: Option<Due>,
    rng: StdRng,
    app_cpu: PsCpu,
    db_cpu: PsCpu,
    app_pool: TokenPool,
    db_pool: TokenPool,
    disk: FcfsDisk,
    ebs: Vec<EbState>,
    /// How many of `ebs` are `active`.
    active_ebs: u32,
    retire_quota: u32,
    counters: IntervalCounters,
    prev: [TierCumulative; 2],
    samples: Vec<SystemSample>,
    in_flight: u32,
    target_ebs: u32,
    last_tick: SimTime,
    background: [f64; 2],
    /// Dedicated RNG for the background-interference process so the
    /// environment trajectory is identical across runs that share a seed
    /// but differ in workload or configuration (paired experiments).
    bg_rng: StdRng,
}

impl Simulation {
    /// Build a simulation of `program` on the testbed described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig, program: TrafficProgram) -> Simulation {
        cfg.validate();
        let app_cpu = PsCpu::new(
            cfg.app.cores,
            cfg.app.effective_speed(),
            cfg.app.contention_alpha,
        );
        let db_cpu = PsCpu::new(
            cfg.db.cores,
            cfg.db.effective_speed(),
            cfg.db.contention_alpha,
        );
        let app_pool = TokenPool::new(cfg.app.pool_size);
        let db_pool = TokenPool::new(cfg.db.pool_size);
        let end = SimTime::from_secs_f64(program.duration_s());
        let period = SimDuration::from_secs_f64(cfg.sample_period_s);
        // One sample per tick: reserve the whole run's telemetry up front
        // instead of growing through repeated reallocation.
        let expected_samples = end.as_micros().div_ceil(period.as_micros()) as usize + 1;
        let rng = StdRng::seed_from_u64(cfg.seed);
        let sim_cfg_bg_app = cfg.app.background.mean;
        let sim_cfg_bg_db = cfg.db.background.mean;
        let seed_for_bg = cfg.seed ^ 0xB6_B6_B6;
        let mut sim = Simulation {
            cfg,
            program,
            clock: SimTime::ZERO,
            end,
            seq: 0,
            timers: BinaryHeap::new(),
            hops: VecDeque::new(),
            app_cpu_done: None,
            db_cpu_done: None,
            disk_done: None,
            rng,
            app_cpu,
            db_cpu,
            app_pool,
            db_pool,
            disk: FcfsDisk::new(),
            ebs: Vec::new(),
            active_ebs: 0,
            retire_quota: 0,
            counters: IntervalCounters::default(),
            prev: [TierCumulative::default(); 2],
            samples: Vec::with_capacity(expected_samples),
            in_flight: 0,
            target_ebs: 0,
            last_tick: SimTime::ZERO,
            background: [sim_cfg_bg_app, sim_cfg_bg_db],
            bg_rng: StdRng::seed_from_u64(seed_for_bg),
        };
        let bg0 = sim.background;
        sim.app_cpu.set_background(SimTime::ZERO, bg0[0]);
        sim.db_cpu.set_background(SimTime::ZERO, bg0[1]);
        let initial = sim.program.at(0.0).ebs;
        sim.adjust_population(initial);
        sim.schedule(SimTime::ZERO + period, Event::Tick);
        sim
    }

    /// Run to the end of the traffic program and return the telemetry.
    pub fn run(mut self) -> SimOutput {
        while let Some((time, event)) = self.pop_next() {
            if time > self.end {
                break;
            }
            self.clock = time;
            self.dispatch(event);
        }
        SimOutput {
            samples: self.samples,
        }
    }

    fn schedule(&mut self, time: SimTime, event: Event) {
        self.seq += 1;
        let due = (time, self.seq);
        match event {
            Event::Issue { .. } | Event::Tick => {
                self.timers.push(Reverse(Scheduled { due, event }));
            }
            Event::DbArrive { .. } | Event::AppResume { .. } => {
                assert!(
                    self.hops.back().is_none_or(|last| last.due < due),
                    "network hops must fall due in the order they are scheduled"
                );
                self.hops.push_back(Scheduled { due, event });
            }
            Event::AppCpuDone => self.app_cpu_done = Some(due),
            Event::DbCpuDone => self.db_cpu_done = Some(due),
            Event::DiskDone => {
                assert!(
                    self.disk_done.is_none(),
                    "the disk serves one operation at a time"
                );
                self.disk_done = Some(due);
            }
        }
    }

    /// Remove and return the earliest event of the five sources.
    fn pop_next(&mut self) -> Option<(SimTime, Event)> {
        // A plain loop on purpose: the `filter_map` + `min_by_key` form
        // of this merge made whole runs 45 % slower.
        let mut next: Option<(Due, Event)> = None;
        for head in [
            self.timers.peek().map(|Reverse(s)| (s.due, s.event)),
            self.hops.front().map(|s| (s.due, s.event)),
            self.app_cpu_done.map(|due| (due, Event::AppCpuDone)),
            self.db_cpu_done.map(|due| (due, Event::DbCpuDone)),
            self.disk_done.map(|due| (due, Event::DiskDone)),
        ] {
            if let Some((due, _)) = head {
                if next.is_none_or(|(earliest, _)| due < earliest) {
                    next = head;
                }
            }
        }
        let ((time, _), event) = next?;
        // The same routing as `schedule`, in reverse.
        match event {
            Event::Issue { .. } | Event::Tick => {
                self.timers.pop();
            }
            Event::DbArrive { .. } | Event::AppResume { .. } => {
                self.hops.pop_front();
            }
            Event::AppCpuDone => self.app_cpu_done = None,
            Event::DbCpuDone => self.db_cpu_done = None,
            Event::DiskDone => self.disk_done = None,
        }
        Some((time, event))
    }

    fn schedule_after(&mut self, delay_s: f64, event: Event) {
        let t = self.clock + SimDuration::from_secs_f64(delay_s);
        self.schedule(t, event);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Issue { eb } => self.on_issue(eb),
            Event::AppCpuDone => self.on_app_cpu_done(),
            Event::DbCpuDone => self.on_db_cpu_done(),
            Event::DiskDone => self.on_disk_done(),
            Event::DbArrive { req } => self.on_db_arrive(req),
            Event::AppResume { req } => self.start_app_burst(req),
            Event::Tick => self.on_tick(),
        }
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    fn on_issue(&mut self, eb: usize) {
        if !self.ebs[eb].active {
            return;
        }
        if self.retire_quota > 0 {
            self.retire_quota -= 1;
            self.ebs[eb].active = false;
            self.active_ebs -= 1;
            return;
        }
        let snapshot = self.program.at(self.clock.as_secs_f64());
        let rtype = snapshot.mix.sample(&mut self.rng);
        let class = rtype.class();
        self.counters.issued += 1;
        if class == RequestClass::Browse {
            self.counters.issued_browse += 1;
        }
        self.in_flight += 1;

        let request = self.build_request(rtype);
        assert!(
            self.ebs[eb].request.is_none(),
            "EB {eb} issued with a request still in flight"
        );
        self.ebs[eb].request = Some(request);

        self.counters.app_arrivals += 1;
        if self.app_pool.try_acquire(self.clock) {
            self.start_app_burst(eb);
        } else {
            self.app_pool.enqueue(self.clock, eb);
        }
    }

    fn build_request(&mut self, rtype: RequestType) -> Request {
        let base = self.cfg.profile.demand(rtype);
        let app_noise = self.cfg.profile.noise(&mut self.rng);
        let db_noise = self.cfg.profile.noise(&mut self.rng);
        let disk_noise = self.cfg.profile.noise(&mut self.rng);
        let bursts = f64::from(base.db_calls + 1);
        let calls = f64::from(base.db_calls.max(1));
        Request {
            class: rtype.class(),
            issued_at: self.clock,
            db_calls_left: base.db_calls,
            app_burst_work: base.app_cpu_s * app_noise / bursts,
            db_cpu_per_call: base.db_cpu_s * db_noise / calls,
            db_disk_per_call: base.db_disk_s * disk_noise / calls,
        }
    }

    /// The request EB `eb` has in flight.
    fn request(&self, eb: JobId) -> &Request {
        self.ebs[eb]
            .request
            .as_ref()
            .expect("job without a request in flight")
    }

    fn finish_request(&mut self, eb: JobId) {
        // Hand the worker thread to the next queued request, if any.
        if let Some(waiter) = self.app_pool.release(self.clock) {
            self.start_app_burst(waiter);
        }
        let req = self.ebs[eb]
            .request
            .take()
            .expect("finishing unknown request");
        self.counters.app_completions += 1;
        self.counters.completed += 1;
        if req.class == RequestClass::Browse {
            self.counters.completed_browse += 1;
        }
        let rt = self.clock.seconds_since(req.issued_at);
        self.counters.response_time_sum_s += rt;
        self.counters.response_time_max_s = self.counters.response_time_max_s.max(rt);
        self.counters.response_times.record(rt);
        self.in_flight -= 1;

        // The browser thinks, then issues again.
        let think = self.cfg.think.sample(&mut self.rng);
        self.schedule_after(think, Event::Issue { eb });
    }

    // ------------------------------------------------------------------
    // Application tier
    // ------------------------------------------------------------------

    fn start_app_burst(&mut self, req_id: JobId) {
        let req = self.request(req_id);
        let work = req.app_burst_work;
        match req.class {
            RequestClass::Browse => self.counters.app_browse_work += work,
            RequestClass::Order => self.counters.app_order_work += work,
        }
        self.app_cpu.push(self.clock, req_id, work);
        self.reschedule_app_cpu();
    }

    /// Called after every change to the app CPU's membership or rate:
    /// the completion scheduled before it no longer holds.
    fn reschedule_app_cpu(&mut self) {
        self.app_cpu_done = None;
        if let Some(t) = self.app_cpu.next_completion(self.clock) {
            self.schedule(t, Event::AppCpuDone);
        }
    }

    fn on_app_cpu_done(&mut self) {
        let req_id = self.app_cpu.pop_completed(self.clock);
        self.reschedule_app_cpu();
        let req = self.ebs[req_id]
            .request
            .as_mut()
            .expect("unknown request on app CPU");
        if req.db_calls_left > 0 {
            req.db_calls_left -= 1;
            let delay = self.cfg.network_delay_s;
            self.schedule_after(delay, Event::DbArrive { req: req_id });
        } else {
            self.finish_request(req_id);
        }
    }

    // ------------------------------------------------------------------
    // Database tier
    // ------------------------------------------------------------------

    fn on_db_arrive(&mut self, req_id: JobId) {
        self.counters.db_arrivals += 1;
        if self.db_pool.try_acquire(self.clock) {
            self.start_db_cpu(req_id);
        } else {
            self.db_pool.enqueue(self.clock, req_id);
        }
    }

    fn start_db_cpu(&mut self, req_id: JobId) {
        let req = self.request(req_id);
        let work = req.db_cpu_per_call;
        match req.class {
            RequestClass::Browse => self.counters.db_browse_work += work,
            RequestClass::Order => self.counters.db_order_work += work,
        }
        self.db_cpu.push(self.clock, req_id, work);
        self.reschedule_db_cpu();
    }

    /// As [`Simulation::reschedule_app_cpu`], for the DB CPU.
    fn reschedule_db_cpu(&mut self) {
        self.db_cpu_done = None;
        if let Some(t) = self.db_cpu.next_completion(self.clock) {
            self.schedule(t, Event::DbCpuDone);
        }
    }

    fn on_db_cpu_done(&mut self) {
        let req_id = self.db_cpu.pop_completed(self.clock);
        self.reschedule_db_cpu();
        let disk_s = self.request(req_id).db_disk_per_call;
        if disk_s > 0.0 {
            if let Some(done) = self.disk.submit(self.clock, req_id, disk_s) {
                self.schedule(done, Event::DiskDone);
            }
        } else {
            self.finish_db_call(req_id);
        }
    }

    fn on_disk_done(&mut self) {
        let (finished, next) = self.disk.complete(self.clock);
        if let Some((_, done)) = next {
            self.schedule(done, Event::DiskDone);
        }
        self.finish_db_call(finished);
    }

    fn finish_db_call(&mut self, req_id: JobId) {
        self.counters.db_completions += 1;
        if let Some(waiter) = self.db_pool.release(self.clock) {
            self.start_db_cpu(waiter);
        }
        let delay = self.cfg.network_delay_s;
        self.schedule_after(delay, Event::AppResume { req: req_id });
    }

    // ------------------------------------------------------------------
    // Telemetry and population control
    // ------------------------------------------------------------------

    fn adjust_population(&mut self, target: u32) {
        self.target_ebs = target;
        let effective = self.active_ebs.saturating_sub(self.retire_quota);
        if target > effective {
            let mut need = target - effective;
            // First cancel pending retirements.
            let cancel = need.min(self.retire_quota);
            self.retire_quota -= cancel;
            need -= cancel;
            for _ in 0..need {
                let id = self.ebs.len();
                self.ebs.push(EbState {
                    active: true,
                    request: None,
                });
                self.active_ebs += 1;
                // Stagger session starts across a think time to avoid a
                // synchronized arrival pulse.
                let offset = self.rng.random::<f64>() * self.cfg.think.mean_s();
                let t = self.clock + SimDuration::from_secs_f64(offset);
                self.schedule(t, Event::Issue { eb: id });
            }
        } else {
            self.retire_quota += effective - target;
        }
    }

    fn tier_cumulative(&mut self, tier: TierId) -> TierCumulative {
        let now = self.clock;
        match tier {
            TierId::App => {
                self.app_cpu.advance(now);
                let (busy_s, work_s, job_time) = self.app_cpu.stats();
                let (pool_in_use_int, pool_queue_int, _) = self.app_pool.stats(now);
                TierCumulative {
                    busy_s,
                    work_s,
                    job_time,
                    pool_in_use_int,
                    pool_queue_int,
                    disk_busy_s: 0.0,
                    disk_queue_int: 0.0,
                    disk_ops: 0,
                }
            }
            TierId::Db => {
                self.db_cpu.advance(now);
                let (busy_s, work_s, job_time) = self.db_cpu.stats();
                let (pool_in_use_int, pool_queue_int, _) = self.db_pool.stats(now);
                let (disk_busy_s, disk_queue_int, disk_ops) = self.disk.stats(now);
                TierCumulative {
                    busy_s,
                    work_s,
                    job_time,
                    pool_in_use_int,
                    pool_queue_int,
                    disk_busy_s,
                    disk_queue_int,
                    disk_ops,
                }
            }
        }
    }

    fn tier_sample(&mut self, tier: TierId, interval: f64) -> TierSample {
        let cum = self.tier_cumulative(tier);
        let prev = self.prev[tier.index()];
        self.prev[tier.index()] = cum;
        let c = &self.counters;
        let (arrivals, completions, browse_w, order_w) = match tier {
            TierId::App => (
                c.app_arrivals,
                c.app_completions,
                c.app_browse_work,
                c.app_order_work,
            ),
            TierId::Db => (
                c.db_arrivals,
                c.db_completions,
                c.db_browse_work,
                c.db_order_work,
            ),
        };
        let (pool_in_use_end, pool_queue_end) = match tier {
            TierId::App => (self.app_pool.in_use(), self.app_pool.queue_len()),
            TierId::Db => (self.db_pool.in_use(), self.db_pool.queue_len()),
        };
        TierSample {
            utilization: ((cum.busy_s - prev.busy_s) / interval).clamp(0.0, 1.0),
            delivered_work_s: cum.work_s - prev.work_s,
            avg_runnable: (cum.job_time - prev.job_time) / interval,
            pool_in_use_avg: (cum.pool_in_use_int - prev.pool_in_use_int) / interval,
            pool_queue_avg: (cum.pool_queue_int - prev.pool_queue_int) / interval,
            pool_queue_end,
            pool_in_use_end,
            disk_utilization: ((cum.disk_busy_s - prev.disk_busy_s) / interval).clamp(0.0, 1.0),
            disk_queue_avg: (cum.disk_queue_int - prev.disk_queue_int) / interval,
            disk_ops: cum.disk_ops - prev.disk_ops,
            arrivals,
            completions,
            browse_work_submitted_s: browse_w,
            order_work_submitted_s: order_w,
        }
    }

    fn on_tick(&mut self) {
        let interval = self.clock.seconds_since(self.last_tick);
        if interval > 0.0 {
            let app = self.tier_sample(TierId::App, interval);
            let db = self.tier_sample(TierId::Db, interval);
            let c = std::mem::take(&mut self.counters);
            let snapshot = self.program.at(self.clock.as_secs_f64());
            self.samples.push(SystemSample {
                t_s: self.clock.as_secs_f64(),
                interval_s: interval,
                front: AppStats {
                    ebs_target: self.target_ebs,
                    ebs_active: self.active_ebs,
                    mix_id: snapshot.mix.id(),
                    issued: c.issued,
                    issued_browse: c.issued_browse,
                    completed: c.completed,
                    completed_browse: c.completed_browse,
                    response_time_sum_s: c.response_time_sum_s,
                    response_time_max_s: c.response_time_max_s,
                    in_flight: self.in_flight,
                    response_times: c.response_times,
                },
                app,
                db,
            });
        }
        self.last_tick = self.clock;

        let target = self.program.at(self.clock.as_secs_f64()).ebs;
        self.adjust_population(target);
        self.step_background();

        let next = self.clock + SimDuration::from_secs_f64(self.cfg.sample_period_s);
        if next <= self.end {
            self.schedule(next, Event::Tick);
        }
    }

    /// One Ornstein–Uhlenbeck step of each tier's background interference,
    /// then reschedule the CPUs at the new effective capacity.
    ///
    /// Each tier's innovation is a [`GaussPairs`] row of its own on the
    /// dedicated RNG, two words, so how far a tick moves that stream
    /// depends only on the configuration and the background state: paired
    /// runs that differ in anything else share the trajectory. (Sharing one
    /// pair between the tiers moves the trajectory, and with it Table I's
    /// TAN-lead gate below its bound: `DESIGN.md` §5.8, seventh example.)
    fn step_background(&mut self) {
        for tier in TierId::ALL {
            let bg_cfg = self.cfg.tier(tier).background;
            if bg_cfg.step_sd == 0.0 && bg_cfg.mean == self.background[tier.index()] {
                continue;
            }
            let z = GaussPairs::new(&mut self.bg_rng).draw();
            let cur = self.background[tier.index()];
            let next = (cur + bg_cfg.revert * (bg_cfg.mean - cur) + bg_cfg.step_sd * z)
                .clamp(0.0, bg_cfg.max);
            self.background[tier.index()] = next;
            match tier {
                TierId::App => {
                    self.app_cpu.set_background(self.clock, next);
                    self.reschedule_app_cpu();
                }
                TierId::Db => {
                    self.db_cpu.set_background(self.clock, next);
                    self.reschedule_db_cpu();
                }
            }
        }
    }
}

/// Convenience: build and run in one call.
pub fn run(cfg: SimConfig, program: TrafficProgram) -> SimOutput {
    Simulation::new(cfg, program).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcap_tpcw::Mix;

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig::testbed(seed)
    }

    fn issued(out: &SimOutput) -> u64 {
        out.samples.iter().map(|s| s.front.issued).sum()
    }

    fn completed(out: &SimOutput) -> u64 {
        out.samples.iter().map(|s| s.front.completed).sum()
    }

    /// Completions per simulated second over the whole run.
    fn mean_throughput(out: &SimOutput) -> f64 {
        let duration_s: f64 = out.samples.iter().map(|s| s.interval_s).sum();
        completed(out) as f64 / duration_s
    }

    /// Mean response time over every completed request.
    fn mean_response_time_s(out: &SimOutput) -> f64 {
        let rt_sum: f64 = out
            .samples
            .iter()
            .map(|s| s.front.response_time_sum_s)
            .sum();
        rt_sum / completed(out) as f64
    }

    #[test]
    fn light_load_completes_everything_quickly() {
        let program = TrafficProgram::steady(Mix::shopping(), 20, 60.0);
        let out = run(quick_cfg(1), program);
        assert_eq!(out.samples.len(), 60);
        assert!(completed(&out) > 50, "completed {}", completed(&out));
        // At 20 EBs the system is far below capacity: sub-100 ms responses.
        let rt = mean_response_time_s(&out);
        assert!(rt < 0.2, "mean rt {rt}");
        // Issued ≈ completed (closed loop, no pile-up).
        assert!(issued(&out) - completed(&out) < 25);
    }

    #[test]
    fn deterministic_across_runs() {
        let program = TrafficProgram::ramp(Mix::ordering(), 10, 80, 60.0);
        let a = run(quick_cfg(42), program.clone());
        let b = run(quick_cfg(42), program);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let program = TrafficProgram::steady(Mix::shopping(), 50, 30.0);
        let a = run(quick_cfg(1), program.clone());
        let b = run(quick_cfg(2), program);
        assert_ne!(completed(&a), completed(&b));
    }

    #[test]
    fn throughput_grows_with_load_when_underloaded() {
        let low = run(
            quick_cfg(3),
            TrafficProgram::steady(Mix::shopping(), 20, 120.0),
        );
        let high = run(
            quick_cfg(3),
            TrafficProgram::steady(Mix::shopping(), 80, 120.0),
        );
        let (low, high) = (mean_throughput(&low), mean_throughput(&high));
        assert!(high > 2.5 * low, "low {low} high {high}");
    }

    #[test]
    fn ordering_overload_saturates_app_tier() {
        // Far beyond the ~46 req/s app capacity of the ordering mix.
        let program = TrafficProgram::steady(Mix::ordering(), 700, 180.0);
        let out = run(quick_cfg(4), program);
        let tail = &out.samples[120..];
        let app_util: f64 = tail.iter().map(|s| s.app.utilization).sum::<f64>() / tail.len() as f64;
        let db_util: f64 = tail.iter().map(|s| s.db.utilization).sum::<f64>() / tail.len() as f64;
        assert!(app_util > 0.98, "app util {app_util}");
        assert!(db_util < 0.85, "db util {db_util} should not saturate");
        // Response times inflate well past think-free levels.
        let rt: f64 = tail
            .iter()
            .filter_map(|s| s.mean_response_time_s())
            .sum::<f64>()
            / tail.len() as f64;
        assert!(rt > 1.0, "rt {rt}");
    }

    #[test]
    fn browsing_overload_saturates_db_tier() {
        // Beyond the ~74 req/s DB capacity of the browsing mix.
        let program = TrafficProgram::steady(Mix::browsing(), 1000, 180.0);
        let out = run(quick_cfg(5), program);
        let tail = &out.samples[120..];
        let db_util: f64 = tail.iter().map(|s| s.db.utilization).sum::<f64>() / tail.len() as f64;
        let app_util: f64 = tail.iter().map(|s| s.app.utilization).sum::<f64>() / tail.len() as f64;
        assert!(db_util > 0.97, "db util {db_util}");
        assert!(app_util < 0.8, "app util {app_util} should not saturate");
    }

    #[test]
    fn population_ramps_and_retires() {
        let program = TrafficProgram::ramp(Mix::shopping(), 10, 100, 60.0).then_steady(
            Mix::shopping(),
            10,
            120.0,
        );
        let out = run(quick_cfg(6), program);
        let mid = &out.samples[55];
        assert!(
            mid.front.ebs_active > 80,
            "ramp should have grown: {}",
            mid.front.ebs_active
        );
        let last = out.samples.last().unwrap();
        // Retirement is lazy (EBs finish their think first) but a minute in
        // the population must have come back down.
        assert!(
            last.front.ebs_active <= 12,
            "retire should shrink: {}",
            last.front.ebs_active
        );
    }

    #[test]
    fn sample_times_are_regular() {
        let out = run(
            quick_cfg(7),
            TrafficProgram::steady(Mix::shopping(), 10, 10.0),
        );
        for (i, s) in out.samples.iter().enumerate() {
            assert!((s.t_s - (i + 1) as f64).abs() < 1e-6);
            assert!((s.interval_s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn collector_overhead_costs_throughput_when_saturated() {
        let mut cheap = quick_cfg(8);
        let mut costly = quick_cfg(8);
        costly.app.collector_overhead = 0.10;
        cheap.app.collector_overhead = 0.0;
        // The paired background trajectory (dedicated RNG) makes the
        // comparison tight even over a few minutes.
        let program = TrafficProgram::steady(Mix::ordering(), 500, 300.0);
        let a = run(cheap, program.clone());
        let b = run(costly, program);
        let ratio = mean_throughput(&b) / mean_throughput(&a);
        assert!(
            ratio < 0.97,
            "10% overhead should cost ≥3% throughput, ratio {ratio}"
        );
    }

    #[test]
    fn conservation_issued_equals_completed_plus_in_flight() {
        let program = TrafficProgram::steady(Mix::shopping(), 60, 90.0);
        let out = run(quick_cfg(9), program);
        let final_in_flight = out.samples.last().unwrap().front.in_flight as u64;
        assert_eq!(issued(&out), completed(&out) + final_in_flight);
    }
}
