//! Per-collector window digestion.
//!
//! A sharded collector owns a subset of the fleet's tiers. For each
//! owned tier it runs a [`TierDigester`] — `webcap-net`'s reassembly
//! core, the same state machine the unsharded collector's `Assembler`
//! is built from — producing one compact [`TierWindowDigest`] per
//! complete window instead of buffering raw samples until both tiers
//! arrive. Because both planes run the one implementation of the rules,
//! the union of the shards' poisoned sets equals the unsharded
//! collector's poisoned set for the same per-tier frame sequences, and
//! the digests carry aggregates built with the exact float-operation
//! order of the in-process monitor.
//!
//! The [`FleetCollector`] groups a collector's digesters behind one
//! PR 4 [`Supervisor`]: reconnects, emitted windows, and poisoned
//! windows feed the health state machine, and every flushed
//! [`DigestFrame`] is stamped with the supervisor's state at emission
//! time — a SafeMode stamp makes the merge node poison the frame's
//! windows instead of trusting them.

use std::collections::BTreeSet;

use webcap_net::{
    DigestFin, DigestFrame, HealthState, Supervisor, SupervisorConfig, TierDigester,
    TierWindowDigest, WireSample,
};
use webcap_sim::TierId;

/// One sharded collector: the digesters for its owned tiers behind one
/// supervisor, batching completed digests and poison verdicts into
/// sequenced [`DigestFrame`]s for the merge node.
#[derive(Debug)]
pub struct FleetCollector {
    collector: u32,
    supervisor: Supervisor,
    digesters: Vec<TierDigester>,
    next_seq: u64,
    pending_windows: Vec<TierWindowDigest>,
    pending_poisons: Vec<i64>,
    misrouted: u64,
}

impl FleetCollector {
    /// A collector with index `collector` owning `tiers` (deduplicated,
    /// in [`TierId::ALL`] order), starting Healthy.
    pub fn new(
        collector: u32,
        tiers: &[TierId],
        window_len: i64,
        origin: i64,
        sup_cfg: SupervisorConfig,
    ) -> FleetCollector {
        let digesters = TierId::ALL
            .into_iter()
            .filter(|t| tiers.contains(t))
            .map(|t| TierDigester::new(t, window_len, origin))
            .collect();
        FleetCollector {
            collector,
            supervisor: Supervisor::new(sup_cfg),
            digesters,
            next_seq: 0,
            pending_windows: Vec::new(),
            pending_poisons: Vec::new(),
            misrouted: 0,
        }
    }

    /// The collector's index in the fleet topology.
    pub fn index(&self) -> u32 {
        self.collector
    }

    /// Tiers this collector owns, in [`TierId::ALL`] order.
    pub fn tiers(&self) -> Vec<TierId> {
        self.digesters.iter().map(TierDigester::tier).collect()
    }

    /// Current supervisor health.
    pub fn health(&self) -> HealthState {
        self.supervisor.state()
    }

    /// Next digest sequence to be emitted.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Protocol anomalies across the owned digesters, plus samples
    /// routed to a tier this collector does not own.
    pub fn anomalies(&self) -> u64 {
        self.misrouted
            + self
                .digesters
                .iter()
                .map(TierDigester::anomalies)
                .sum::<u64>()
    }

    /// Union of the owned digesters' poisoned windows.
    pub fn poisoned_windows(&self) -> BTreeSet<i64> {
        let mut out = BTreeSet::new();
        for d in &self.digesters {
            out.extend(d.poisoned_windows().iter().copied());
        }
        out
    }

    /// Run `event` on `tier`'s digester and absorb what it produced; a
    /// tier this collector does not own is a misrouted anomaly.
    fn on_tier(&mut self, tier: TierId, event: impl FnOnce(&mut TierDigester, &mut Supervisor)) {
        match self.digesters.iter_mut().find(|d| d.tier() == tier) {
            Some(d) => {
                event(d, &mut self.supervisor);
                self.drain_events();
            }
            None => self.misrouted += 1,
        }
    }

    /// Note a (re)connection of `tier`'s agent.
    pub fn on_session_start(&mut self, tier: TierId) {
        self.on_tier(tier, |d, supervisor| {
            if d.on_session_start() {
                supervisor.on_reconnect();
            }
        });
    }

    /// Feed one received sample for `tier`.
    pub fn on_sample(&mut self, tier: TierId, ws: &WireSample) {
        self.on_tier(tier, |d, _| d.on_sample(ws.clone()));
    }

    /// `tier`'s agent finished cleanly with final sequence `last_seq`.
    pub fn on_bye(&mut self, tier: TierId, last_seq: u64) {
        self.on_tier(tier, |d, _| d.on_bye(last_seq));
    }

    /// `tier`'s session ended abnormally (no `Bye`): its in-flight
    /// window is quarantined at once, as on the unsharded collector.
    pub fn on_session_abort(&mut self, tier: TierId) {
        self.on_tier(tier, |d, _| d.on_session_abort());
    }

    /// Move completed digests and fresh poisons into the pending batch,
    /// feeding the supervisor one quality event per outcome.
    fn drain_events(&mut self) {
        for d in &mut self.digesters {
            for dig in d.take_ready() {
                self.supervisor.on_window_emitted();
                self.pending_windows.push(dig);
            }
            for w in d.take_new_poisons() {
                self.supervisor.on_window_poisoned();
                self.pending_poisons.push(w);
            }
        }
    }

    /// Emit the pending batch as the next sequenced [`DigestFrame`],
    /// stamped with the supervisor's current health. Returns `None`
    /// when there is nothing to say (no digests, no poisons, no `fin`).
    pub fn flush(&mut self, fin: Option<DigestFin>) -> Option<DigestFrame> {
        self.drain_events();
        if self.pending_windows.is_empty() && self.pending_poisons.is_empty() && fin.is_none() {
            return None;
        }
        let frame = DigestFrame {
            collector: self.collector,
            seq: self.next_seq,
            health: self.supervisor.state(),
            windows: std::mem::take(&mut self.pending_windows),
            poisoned: std::mem::take(&mut self.pending_poisons),
            fin,
        };
        self.next_seq += 1;
        Some(frame)
    }
}
