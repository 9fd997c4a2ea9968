//! The hardware performance-counter event set.
//!
//! The paper's testbed read counters on Intel NetBurst CPUs (Pentium 4 /
//! Pentium D) through the PerfCtr kernel patch in global mode. The event
//! set below is a NetBurst-flavoured selection of the counters such a
//! setup exposes: instruction/µop retirement, cache hierarchy behaviour,
//! the trace cache, TLBs, branches, front-side-bus transactions, and
//! resource stalls.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A hardware counter event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HpcEvent {
    /// Instructions retired.
    InstructionsRetired,
    /// Unhalted core cycles (summed across cores).
    CyclesUnhalted,
    /// Micro-operations retired.
    UopsRetired,
    /// L1 data-cache misses.
    L1DMisses,
    /// L2 cache references (loads + RFOs reaching L2).
    L2References,
    /// L2 cache misses.
    L2Misses,
    /// Trace-cache (decoded µop cache) misses — NetBurst specific.
    TraceCacheMisses,
    /// Instruction-TLB misses.
    ItlbMisses,
    /// Data-TLB misses.
    DtlbMisses,
    /// Branch instructions retired.
    BranchesRetired,
    /// Mispredicted branches retired.
    BranchMispredicts,
    /// Front-side-bus transactions (memory traffic).
    BusTransactions,
    /// Cycles stalled on resource contention (memory, ROB, store buffer).
    StallCycles,
    /// Retired memory load µops.
    LoadsRetired,
    /// Retired memory store µops.
    StoresRetired,
}

impl HpcEvent {
    /// All events, in fixed report order.
    pub const ALL: [HpcEvent; 15] = [
        HpcEvent::InstructionsRetired,
        HpcEvent::CyclesUnhalted,
        HpcEvent::UopsRetired,
        HpcEvent::L1DMisses,
        HpcEvent::L2References,
        HpcEvent::L2Misses,
        HpcEvent::TraceCacheMisses,
        HpcEvent::ItlbMisses,
        HpcEvent::DtlbMisses,
        HpcEvent::BranchesRetired,
        HpcEvent::BranchMispredicts,
        HpcEvent::BusTransactions,
        HpcEvent::StallCycles,
        HpcEvent::LoadsRetired,
        HpcEvent::StoresRetired,
    ];

    /// Number of events.
    pub const COUNT: usize = 15;

    /// Dense index aligned with [`HpcEvent::ALL`], which lists the
    /// variants in declaration order.
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// PerfCtr-style event mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            HpcEvent::InstructionsRetired => "instr_retired",
            HpcEvent::CyclesUnhalted => "cycles_unhalted",
            HpcEvent::UopsRetired => "uops_retired",
            HpcEvent::L1DMisses => "l1d_miss",
            HpcEvent::L2References => "l2_ref",
            HpcEvent::L2Misses => "l2_miss",
            HpcEvent::TraceCacheMisses => "tc_miss",
            HpcEvent::ItlbMisses => "itlb_miss",
            HpcEvent::DtlbMisses => "dtlb_miss",
            HpcEvent::BranchesRetired => "br_retired",
            HpcEvent::BranchMispredicts => "br_mispred",
            HpcEvent::BusTransactions => "bus_trans",
            HpcEvent::StallCycles => "stall_cycles",
            HpcEvent::LoadsRetired => "loads_retired",
            HpcEvent::StoresRetired => "stores_retired",
        }
    }
}

impl fmt::Display for HpcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for (i, e) in HpcEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        assert_eq!(HpcEvent::ALL.len(), HpcEvent::COUNT);
    }

    #[test]
    fn mnemonics_unique() {
        let mut names: Vec<&str> = HpcEvent::ALL.iter().map(|e| e.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HpcEvent::COUNT);
    }

    #[test]
    fn display_is_mnemonic() {
        assert_eq!(HpcEvent::L2Misses.to_string(), "l2_miss");
    }
}
