//! Byte pins of the engine's output.
//!
//! The simulator is the oracle for every label, probe and gate in the
//! workspace, so a change meant only to make it faster must leave every
//! simulated statistic identical. Each run below is fingerprinted as
//! FNV-1a over `serde_json::to_string(&out.samples)` (the stand-in
//! prints floats so that they round-trip, so the hash sees every bit)
//! and compared with a literal generated at the last declared re-pin
//! (processor sharing in virtual time and the one-logarithm Erlang draw,
//! DESIGN §5.1). A mismatch names the run; all mismatches of a test are
//! reported together, in the form the table takes.

use webcap_sim::{run, SimConfig};
use webcap_tpcw::{Mix, TrafficProgram};

fn fingerprint(cfg: SimConfig, program: TrafficProgram) -> u64 {
    let out = run(cfg, program);
    let json = serde_json::to_string(&out.samples).expect("samples serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check(runs: Vec<(String, SimConfig, TrafficProgram, u64)>) {
    let moved: Vec<String> = runs
        .into_iter()
        .filter_map(|(name, cfg, program, pinned)| {
            let got = fingerprint(cfg, program);
            (got != pinned).then(|| format!("{name}: got 0x{got:016x}, pinned 0x{pinned:016x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "simulated output moved in {} run(s):\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// The three canonical mixes at loads on both sides of the knee and
/// past both pool sizes (10 connections, 128 workers), two seeds each.
#[test]
fn steady_grid_is_pinned() {
    const PINS: [(&str, u32, u64, u64); 24] = [
        ("browsing", 20, 1, 0x7ef0_46ce_8a89_5d65),
        ("browsing", 20, 2, 0x57d4_49c1_79c5_5006),
        ("browsing", 300, 1, 0xf140_220d_5d1e_b400),
        ("browsing", 300, 2, 0x82bb_5a6d_d7ba_3d6e),
        ("browsing", 600, 1, 0xfd3e_0f1e_9c10_1f1e),
        ("browsing", 600, 2, 0x6269_c988_949c_4b7a),
        ("browsing", 1024, 1, 0x335d_a8e7_1fc3_c66c),
        ("browsing", 1024, 2, 0xe8a0_6630_79bf_20eb),
        ("shopping", 20, 1, 0xb6a1_001e_8960_5dbe),
        ("shopping", 20, 2, 0xd015_4ffc_2605_6090),
        ("shopping", 300, 1, 0x8f32_0203_c921_b693),
        ("shopping", 300, 2, 0x3de2_435e_66d6_3e63),
        ("shopping", 600, 1, 0x2e37_7de4_ab26_3197),
        ("shopping", 600, 2, 0x0511_9523_4f75_9247),
        ("shopping", 1024, 1, 0xefcc_5b15_f5c5_652b),
        ("shopping", 1024, 2, 0x6bc1_5a43_017e_4c0b),
        ("ordering", 20, 1, 0x5d87_960b_2d94_f8f7),
        ("ordering", 20, 2, 0x73bd_3664_0ca6_79fc),
        ("ordering", 300, 1, 0xf45b_d5e1_49b1_1aaa),
        ("ordering", 300, 2, 0xc741_0df8_f90c_87ae),
        ("ordering", 600, 1, 0x186e_06d3_f084_fbc3),
        ("ordering", 600, 2, 0xe3b8_1bb1_899d_c66b),
        ("ordering", 1024, 1, 0x2c90_fa82_9429_1da8),
        ("ordering", 1024, 2, 0xe3f7_01d2_ee8c_46bf),
    ];
    let runs = PINS
        .iter()
        .map(|&(mix_name, ebs, seed, pinned)| {
            let mix = match mix_name {
                "browsing" => Mix::browsing(),
                "shopping" => Mix::shopping(),
                "ordering" => Mix::ordering(),
                other => panic!("no canonical mix is called {other}"),
            };
            (
                format!("steady {mix_name}, {ebs} EBs, seed {seed}"),
                SimConfig::testbed(seed),
                TrafficProgram::steady(mix, ebs, 120.0),
                pinned,
            )
        })
        .collect();
    check(runs);
}

/// The paths a steady run does not take: population growth, lazy
/// retirement and its cancellation; hops that tie with same-instant
/// events, so only `seq` orders them; a disk queue that never drains;
/// and mix switches mid-run.
#[test]
fn special_programs_are_pinned() {
    let ramp_spike = TrafficProgram::ramp(Mix::shopping(), 10, 400, 60.0)
        .then_steady(Mix::shopping(), 50, 8.0)
        .then_spike(Mix::ordering(), 700, 30.0)
        .then_ramp(Mix::browsing(), 20, 60.0);

    let mut zero_delay = SimConfig::testbed(11);
    zero_delay.network_delay_s = 0.0;

    let mut slow_disk = SimConfig::testbed(12);
    slow_disk.profile = slow_disk.profile.with_disk_scale(6.0);

    let interleaved =
        TrafficProgram::interleaved((Mix::browsing(), 500), (Mix::ordering(), 350), 40.0, 2);

    check(vec![
        (
            "ramp-up, steady-low, spike, ramp-down, seed 10".to_string(),
            SimConfig::testbed(10),
            ramp_spike,
            0xa8d6_0333_a5c4_13a8,
        ),
        (
            "network_delay_s = 0, shopping, 300 EBs, seed 11".to_string(),
            zero_delay,
            TrafficProgram::steady(Mix::shopping(), 300, 120.0),
            0x4b7f_7bb0_f638_5e5e,
        ),
        (
            "disk scale 6, browsing, 400 EBs, seed 12".to_string(),
            slow_disk,
            TrafficProgram::steady(Mix::browsing(), 400, 120.0),
            0xe950_d43d_60a7_5c6f,
        ),
        (
            "interleaved browsing 500 / ordering 350, seed 13".to_string(),
            SimConfig::testbed(13),
            interleaved,
            0x22a9_d3ad_e4c6_19a9,
        ),
    ]);
}
