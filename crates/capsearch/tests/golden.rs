//! Golden regression suite: one byte-exact capacity report per library
//! scenario.
//!
//! Each test runs the full capacity search (meter training, bisection,
//! probe scoring) with [`SearchConfig::quick`] through the in-process
//! [`SimExecutor`] and compares the rendered report byte-for-byte
//! against `tests/golden/<scenario>.json`.
//!
//! A missing golden fails like a mismatch does; on a mismatch the test
//! also leaves the actual bytes under `target/tmp/capsearch/` for
//! inspection. Only a deliberate bless writes a golden, and this suite
//! is the one writer: `WEBCAP_BLESS=1 cargo test -p webcap-capsearch
//! --test golden` runs the same search the check runs.
//!
//! Byte identity across thread counts is part of the contract:
//! `thread_count_does_not_change_report_bytes` checks pinned pool widths
//! in-process, which is the whole check — no environment variable sets
//! a worker count.

use std::fs;
use std::path::{Path, PathBuf};

use webcap_capsearch::{search_scenario, CapacityReport, SearchConfig, SimExecutor};
use webcap_core::{CapacityMeter, MeterConfig};
use webcap_parallel::Parallelism;

mod common;
use common::{meter, METER_SEED};

fn search(meter: &CapacityMeter, name: &str) -> CapacityReport {
    let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
    let mut executor = SimExecutor::new(meter);
    search_scenario(&scenario, &mut executor, &SearchConfig::quick()).expect("sim search")
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn spill_path(name: &str) -> PathBuf {
    let target = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/capsearch");
    target.join(format!("{name}.json"))
}

fn check_golden(name: &str) {
    let actual = search(meter(), name).render();
    let path = golden_path(name);
    if std::env::var_os("WEBCAP_BLESS").is_some_and(|v| v == "1") {
        fs::write(&path, &actual).expect("write golden");
        eprintln!("blessed golden report {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden report {} is unreadable ({e}); goldens are committed files — \
             restore it, or regenerate deliberately with WEBCAP_BLESS=1",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let spill = spill_path(name);
    fs::create_dir_all(spill.parent().expect("spill dir has a parent")).ok();
    fs::write(&spill, &actual).expect("write actual report");
    let divergence = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map_or_else(
            || "lengths differ".to_string(),
            |i| format!("first divergence at line {}", i + 1),
        );
    panic!(
        "capacity report for `{name}` diverged from {} ({divergence}); \
         actual bytes left at {}; regenerate deliberately with WEBCAP_BLESS=1",
        path.display(),
        spill.display(),
    );
}

#[test]
fn golden_steady_shopping() {
    check_golden("steady-shopping");
}

#[test]
fn golden_flash_crowd() {
    check_golden("flash-crowd");
}

#[test]
fn golden_diurnal_ramp() {
    check_golden("diurnal-ramp");
}

#[test]
fn golden_mix_drift() {
    check_golden("mix-drift");
}

#[test]
fn golden_slow_leak() {
    check_golden("slow-leak");
}

#[test]
fn golden_replica_failure() {
    check_golden("replica-failure");
}

#[test]
fn thread_count_does_not_change_report_bytes() {
    let reference = search(meter(), "steady-shopping").render();
    for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let pinned =
            CapacityMeter::train(&MeterConfig::small_for_tests(METER_SEED).with_parallelism(par))
                .expect("meter trains");
        let report = search(&pinned, "steady-shopping").render();
        assert_eq!(report, reference, "report bytes must not depend on {par:?}");
    }
}

#[test]
fn report_metadata_is_coherent() {
    let report = search(meter(), "flash-crowd");
    assert_eq!(report.schema_version, 1);
    assert_eq!(report.executor, "sim");
    assert_eq!(report.scenario, "flash-crowd");
    assert_eq!(report.config_hash.len(), 16);
    assert!(!report.probes.is_empty());
    // The capacity claim is backed by a recorded probe.
    if report.capacity_ebs > 0 {
        assert!(report
            .probes
            .iter()
            .any(|p| p.probe_ebs == report.capacity_ebs && p.slo_pass));
    }
    if let Some(failing) = report.bracket_failing_ebs {
        assert!(report
            .probes
            .iter()
            .any(|p| p.probe_ebs == failing && !p.slo_pass));
        assert!(failing > report.capacity_ebs);
    }
}
