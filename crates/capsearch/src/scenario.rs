//! Seeded, pure-data scenarios, read and written as JSON.
//!
//! A [`Scenario`] is everything a capacity search needs to be replayed
//! bit-for-bit anywhere: a seed, an SLO, a load curve expressed as
//! *fractions of the probe level* (so one scenario describes the shape
//! of the traffic at every probed population), a mix timeline, and a
//! schedule of telemetry faults. It deliberately contains no behavior
//! beyond translation into the existing building blocks: a
//! [`TrafficProgram`] for the simulator and a pair of
//! [`FaultSchedule`]s for the `webcap-net` agents.
//!
//! The on-disk form is the JSON `serde_json` writes for the derived
//! types: mixes and tiers by variant name (`"Shopping"`, `"Db"`), a
//! fault as `{"AgentDown": {"tier": "Db", "from_s": 90, "until_s":
//! 105}}`. Floats are written with shortest-roundtrip formatting, so
//! JSON → [`Scenario`] → JSON is byte-lossless (property-tested).
//! [`Scenario::from_json`] is the one reader: unknown keys, duplicate
//! keys, missing keys and out-of-range values are errors naming the
//! field, because a scenario that drives a capacity claim must not
//! silently ignore a typo.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use webcap_net::FaultSchedule;
use webcap_sim::TierId;
use webcap_tpcw::{Mix, Phase, TrafficProgram};

/// The service-level objective a probe is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Response-time deadline, seconds: a completed request slower than
    /// this counts as an error.
    pub timeout_s: f64,
    /// Maximum tolerated fraction of errors (requests past the
    /// deadline) over the scored windows.
    pub max_error_fraction: f64,
    /// Maximum tolerated 99th-percentile response time, seconds.
    pub max_p99_s: f64,
}

/// The named TPC-W mixes a scenario phase can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioMix {
    /// TPC-W browsing mix (95% browse interactions).
    Browsing,
    /// TPC-W shopping mix (80% browse interactions).
    Shopping,
    /// TPC-W ordering mix (50% browse interactions).
    Ordering,
}

impl ScenarioMix {
    /// The full mix definition.
    pub fn mix(&self) -> Mix {
        match self {
            ScenarioMix::Browsing => Mix::browsing(),
            ScenarioMix::Shopping => Mix::shopping(),
            ScenarioMix::Ordering => Mix::ordering(),
        }
    }
}

/// One phase of a scenario's load curve. `from`/`to` are fractions of
/// the probed population: a probe at `P` EBs runs this phase from
/// `round(from * P)` to `round(to * P)` emulated browsers (at least 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPhase {
    /// Mix active during the phase.
    pub mix: ScenarioMix,
    /// Load fraction at phase start.
    pub from: f64,
    /// Load fraction at phase end (equal to `from` = steady phase).
    pub to: f64,
    /// Phase duration, seconds.
    pub duration_s: f64,
}

/// A scheduled telemetry fault, in sample-sequence time (sequence `s`
/// is the per-tier sample covering simulated second `s+1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// One tier's agent drops every sample with sequence in
    /// `[from_s, until_s)` — a silent outage the collector must
    /// quarantine.
    AgentDown {
        /// Affected tier.
        tier: TierId,
        /// First dropped sequence (inclusive).
        from_s: u64,
        /// First sequence sent again (exclusive bound).
        until_s: u64,
    },
    /// One tier's agent tears its connection down and reconnects
    /// immediately before sending sequence `at_s`.
    Reconnect {
        /// Affected tier.
        tier: TierId,
        /// Sequence the new session starts with.
        at_s: u64,
    },
}

impl FaultEvent {
    fn tier(&self) -> TierId {
        match self {
            FaultEvent::AgentDown { tier, .. } | FaultEvent::Reconnect { tier, .. } => *tier,
        }
    }
}

/// A complete, replayable capacity-search scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique scenario name (also the golden-report file stem).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Seed for the simulation run and the metric synthesis.
    pub seed: u64,
    /// Leading seconds excluded from SLO scoring (closed-loop warm-up).
    pub warmup_s: u32,
    /// The SLO defining the capacity boundary.
    pub slo: Slo,
    /// The load curve, as fractions of the probe level.
    pub phases: Vec<ScenarioPhase>,
    /// Scheduled telemetry faults, in any order ([`Scenario::schedules`]
    /// sorts them per tier).
    pub faults: Vec<FaultEvent>,
}

impl Scenario {
    /// Total scenario duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// The traffic program for a probe at `probe_ebs` emulated
    /// browsers: every phase's fractions scaled by the probe level.
    pub fn program(&self, probe_ebs: u32) -> TrafficProgram {
        let scale = |frac: f64| ((frac * f64::from(probe_ebs)).round() as u32).max(1);
        let phases = self
            .phases
            .iter()
            .map(|p| {
                let (from, to) = (scale(p.from), scale(p.to));
                let shape = if from == to {
                    webcap_tpcw::traffic::PopulationShape::Steady { ebs: from }
                } else {
                    webcap_tpcw::traffic::PopulationShape::Ramp { from, to }
                };
                Phase {
                    mix: p.mix.mix(),
                    shape,
                    duration_s: p.duration_s,
                }
            })
            .collect();
        TrafficProgram::new(phases)
    }

    /// The per-tier fault schedules (`[App, Db]`) for the loopback
    /// plane, and for the pure poisoning oracle the sim executor uses.
    pub fn schedules(&self) -> [FaultSchedule; 2] {
        let mut schedules = [FaultSchedule::NONE, FaultSchedule::NONE];
        for event in &self.faults {
            let slot = match event.tier() {
                TierId::App => &mut schedules[0],
                TierId::Db => &mut schedules[1],
            };
            match *event {
                FaultEvent::AgentDown {
                    from_s, until_s, ..
                } => {
                    slot.drop_ranges.push((from_s, until_s.saturating_sub(1)));
                }
                FaultEvent::Reconnect { at_s, .. } => slot.reconnect_before.push(at_s),
            }
        }
        for schedule in &mut schedules {
            schedule.drop_ranges.sort_unstable();
            schedule.reconnect_before.sort_unstable();
        }
        schedules
    }

    /// Read a scenario from its JSON form (what `serde_json` writes for
    /// it), validating strictly.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing key, an unknown mix, tier or fault
    /// kind, an unknown or duplicate key at any depth, and a value
    /// outside its range (a name that is not kebab-case, a non-positive
    /// duration or deadline, a load fraction outside (0, 16], an empty
    /// phase list, an inverted fault range) are errors naming the field.
    pub fn from_json(json: &str) -> Result<Scenario, serde_json::Error> {
        let scenario: Scenario = serde_json::from_str(json)?;
        let raw: Value = serde_json::from_str(json)?;
        let canonical: Value = serde_json::from_str(&serde_json::to_string(&scenario)?)?;
        same_keys(&raw, &canonical, "")?;
        scenario.check().map_err(serde::de::Error::custom)?;
        Ok(scenario)
    }

    /// The value rules serde's types cannot state.
    fn check(&self) -> Result<(), String> {
        let kebab = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
        if self.name.is_empty() || !self.name.chars().all(kebab) {
            return Err("`name` must be nonempty kebab-case ([a-z0-9-])".into());
        }
        if self.slo.timeout_s <= 0.0 {
            return Err("`slo.timeout_s` must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.slo.max_error_fraction) {
            return Err("`slo.max_error_fraction` must be within [0, 1]".into());
        }
        if self.slo.max_p99_s <= 0.0 {
            return Err("`slo.max_p99_s` must be positive".into());
        }
        if self.phases.is_empty() {
            return Err("`phases` needs at least one phase".into());
        }
        for (i, phase) in self.phases.iter().enumerate() {
            for (value, key) in [(phase.from, "from"), (phase.to, "to")] {
                if !(value > 0.0 && value <= 16.0) {
                    return Err(format!("`phases[{i}].{key}` must be within (0, 16]"));
                }
            }
            if phase.duration_s <= 0.0 {
                return Err(format!("`phases[{i}].duration_s` must be positive"));
            }
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if let FaultEvent::AgentDown {
                from_s, until_s, ..
            } = *fault
            {
                if until_s <= from_s {
                    return Err(format!(
                        "`faults[{i}].AgentDown.until_s` must exceed `from_s`"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Require `raw` to carry the keys `canonical` carries, each once, in
/// every object at every depth, naming the first key that breaks the
/// rule by its path (`phases[0].bogus`). Deserializing already refuses
/// a missing key, but reads one of two duplicates and skips an unknown
/// one.
fn same_keys(raw: &Value, canonical: &Value, path: &str) -> Result<(), serde_json::Error> {
    let bad = |what: &str, at: &str| serde::de::Error::custom(format_args!("{what} key `{at}`"));
    match (raw, canonical) {
        (Value::Object(raw), Value::Object(canonical)) => {
            for (i, (key, value)) in raw.iter().enumerate() {
                let at = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if raw.iter().take(i).any(|(k, _)| k == key) {
                    return Err(bad("duplicate", &at));
                }
                let Some((_, expected)) = canonical.iter().find(|(k, _)| k == key) else {
                    return Err(bad("unknown", &at));
                };
                same_keys(value, expected, &at)?;
            }
            Ok(())
        }
        (Value::Array(raw), Value::Array(canonical)) => raw
            .iter()
            .zip(canonical)
            .enumerate()
            .try_for_each(|(i, (item, expected))| {
                same_keys(item, expected, &format!("{path}[{i}]"))
            }),
        _ => Ok(()),
    }
}

fn steady(mix: ScenarioMix, frac: f64, duration_s: f64) -> ScenarioPhase {
    ScenarioPhase {
        mix,
        from: frac,
        to: frac,
        duration_s,
    }
}

fn ramp(mix: ScenarioMix, from: f64, to: f64, duration_s: f64) -> ScenarioPhase {
    ScenarioPhase {
        mix,
        from,
        to,
        duration_s,
    }
}

/// The built-in scenario library — six seeded schedules well beyond the
/// paper's three steady mixes, in canonical order.
pub fn library() -> Vec<Scenario> {
    let slo = Slo {
        timeout_s: 1.5,
        max_error_fraction: 0.08,
        max_p99_s: 2.5,
    };
    vec![
        Scenario {
            name: "steady-shopping".into(),
            description: "steady shopping mix at the probe level".into(),
            seed: 101,
            warmup_s: 30,
            slo,
            phases: vec![steady(ScenarioMix::Shopping, 1.0, 180.0)],
            faults: Vec::new(),
        },
        Scenario {
            name: "flash-crowd".into(),
            description: "quiet shopping traffic with a 60 s burst to the probe level".into(),
            seed: 102,
            warmup_s: 30,
            slo: Slo {
                max_error_fraction: 0.12,
                ..slo
            },
            phases: vec![
                steady(ScenarioMix::Shopping, 0.45, 60.0),
                steady(ScenarioMix::Shopping, 1.0, 60.0),
                steady(ScenarioMix::Shopping, 0.45, 60.0),
            ],
            faults: Vec::new(),
        },
        Scenario {
            name: "diurnal-ramp".into(),
            description: "browsing load ramping up to the probe level and back down".into(),
            seed: 103,
            warmup_s: 30,
            slo,
            phases: vec![
                ramp(ScenarioMix::Browsing, 0.35, 1.0, 90.0),
                steady(ScenarioMix::Browsing, 1.0, 30.0),
                ramp(ScenarioMix::Browsing, 1.0, 0.35, 90.0),
            ],
            faults: Vec::new(),
        },
        Scenario {
            name: "mix-drift".into(),
            description: "ordering traffic drifting to browsing mid-run at constant load".into(),
            seed: 104,
            warmup_s: 30,
            slo,
            phases: vec![
                steady(ScenarioMix::Ordering, 1.0, 90.0),
                steady(ScenarioMix::Browsing, 1.0, 90.0),
            ],
            faults: Vec::new(),
        },
        Scenario {
            name: "slow-leak".into(),
            description: "ordering load creeping from 75% to 100% of the probe level".into(),
            seed: 105,
            warmup_s: 30,
            slo,
            phases: vec![ramp(ScenarioMix::Ordering, 0.75, 1.0, 240.0)],
            faults: Vec::new(),
        },
        Scenario {
            name: "replica-failure".into(),
            description: "steady shopping peak with a db agent outage and an app reconnect".into(),
            seed: 106,
            warmup_s: 30,
            slo,
            phases: vec![steady(ScenarioMix::Shopping, 1.0, 180.0)],
            faults: vec![
                FaultEvent::AgentDown {
                    tier: TierId::Db,
                    from_s: 90,
                    until_s: 105,
                },
                FaultEvent::Reconnect {
                    tier: TierId::App,
                    at_s: 160,
                },
            ],
        },
    ]
}

/// Look a built-in scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    library().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(s: &Scenario) -> String {
        serde_json::to_string(s).expect("scenarios serialize")
    }

    #[test]
    fn library_is_well_formed() {
        let lib = library();
        assert!(lib.len() >= 6, "at least six scenarios");
        let mut names: Vec<&str> = lib.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lib.len(), "names are unique");
        for s in &lib {
            assert!(s.duration_s() >= 120.0, "{}: long enough to score", s.name);
            assert_eq!(s.duration_s() % 30.0, 0.0, "{}: whole windows only", s.name);
            assert!(s.warmup_s > 0, "{}: warm-up excluded", s.name);
            // Every scenario must replay through both executors.
            let program = s.program(50);
            assert!(program.duration_s() > 0.0);
            let _ = s.schedules();
            // And pass the reader's rules.
            if let Err(e) = Scenario::from_json(&json(s)) {
                panic!("{}: {e}", s.name);
            }
        }
    }

    #[test]
    fn library_round_trips_through_json() {
        for s in library() {
            let text = json(&s);
            let back = Scenario::from_json(&text).unwrap_or_else(|e| {
                panic!("{}: {e}\n{text}", s.name);
            });
            assert_eq!(back, s, "{}", s.name);
            assert_eq!(json(&back), text, "{}: canonical form", s.name);
        }
    }

    #[test]
    fn program_scales_fractions_by_the_probe() {
        let s = find("flash-crowd").unwrap();
        let program = s.program(100);
        // 0.45 * 100 → 45 EBs in the quiet phases, 100 at the burst.
        let quiet = program.at(10.0);
        let burst = program.at(90.0);
        assert_eq!(quiet.ebs, 45);
        assert_eq!(burst.ebs, 100);
    }

    #[test]
    fn schedules_map_seconds_to_sequences() {
        let s = find("replica-failure").unwrap();
        let [app, db] = s.schedules();
        assert_eq!(db.drop_ranges, vec![(90, 104)], "inclusive upper bound");
        assert!(db.reconnect_before.is_empty());
        assert_eq!(app.reconnect_before, vec![160]);
        assert!(app.drop_ranges.is_empty());
    }

    #[test]
    fn malformed_scenarios_are_refused_naming_the_field() {
        let base = json(&find("steady-shopping").unwrap());
        // (text replaced in the library JSON, its replacement, what the
        // error must name)
        let rows: &[(&str, &str, &str)] = &[
            (
                r#""seed":101"#,
                r#""seed":101,"bogus":1"#,
                "unknown key `bogus`",
            ),
            (
                r#""duration_s":180.0"#,
                r#""duration_s":180.0,"bogus":1"#,
                "unknown key `phases[0].bogus`",
            ),
            (
                r#""faults":[]"#,
                r#""faults":[{"Reconnect":{"tier":"App","at_s":3,"bogus":1}}]"#,
                "unknown key `faults[0].Reconnect.bogus`",
            ),
            (
                r#""seed":101"#,
                r#""seed":101,"seed":102"#,
                "duplicate key `seed`",
            ),
            (
                r#""max_p99_s":2.5"#,
                r#""max_p99_s":2.5,"max_p99_s":2.5"#,
                "duplicate key `slo.max_p99_s`",
            ),
            (r#""seed":101,"#, "", "missing field `seed`"),
            (r#""timeout_s":1.5,"#, "", "slo: missing field `timeout_s`"),
            (r#""Shopping""#, r#""Brunch""#, "mix"),
            (
                r#""faults":[]"#,
                r#""faults":[{"Crash":{"tier":"Db"}}]"#,
                "faults",
            ),
            (
                r#""faults":[]"#,
                r#""faults":[{"Reconnect":{"tier":"Cache","at_s":3}}]"#,
                "tier",
            ),
            (r#""warmup_s":30"#, r#""warmup_s":4294967296"#, "warmup_s"),
            (r#""steady-shopping""#, r#""../x""#, "`name`"),
            (r#""steady-shopping""#, r#""""#, "`name`"),
            (r#""steady-shopping""#, r#""Steady""#, "`name`"),
            (
                r#""timeout_s":1.5"#,
                r#""timeout_s":0.0"#,
                "`slo.timeout_s`",
            ),
            (
                r#""max_error_fraction":0.08"#,
                r#""max_error_fraction":1.5"#,
                "`slo.max_error_fraction`",
            ),
            (
                r#""max_error_fraction":0.08"#,
                r#""max_error_fraction":-0.1"#,
                "`slo.max_error_fraction`",
            ),
            (
                r#""max_p99_s":2.5"#,
                r#""max_p99_s":0.0"#,
                "`slo.max_p99_s`",
            ),
            (r#""from":1.0"#, r#""from":0.0"#, "`phases[0].from`"),
            (r#""to":1.0"#, r#""to":16.5"#, "`phases[0].to`"),
            (
                r#""duration_s":180.0"#,
                r#""duration_s":0.0"#,
                "`phases[0].duration_s`",
            ),
            (
                r#""faults":[]"#,
                r#""faults":[{"AgentDown":{"tier":"Db","from_s":10,"until_s":10}}]"#,
                "`faults[0].AgentDown.until_s`",
            ),
            (
                r#""phases":[{"mix":"Shopping","from":1.0,"to":1.0,"duration_s":180.0}]"#,
                r#""phases":[]"#,
                "`phases`",
            ),
        ];
        for &(from, to, names) in rows {
            assert!(base.contains(from), "row {from:?} edits the base text");
            let text = base.replacen(from, to, 1);
            match Scenario::from_json(&text) {
                Ok(_) => panic!("accepted {text}"),
                Err(e) => assert!(e.to_string().contains(names), "{e} (for {text})"),
            }
        }
    }
}
