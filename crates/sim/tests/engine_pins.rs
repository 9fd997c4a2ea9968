//! Byte pins of the engine's output.
//!
//! The simulator is the oracle for every label, probe and gate in the
//! workspace, so a change meant only to make it faster must leave every
//! simulated statistic identical. Each run below is fingerprinted as
//! FNV-1a over `serde_json::to_string(&out.samples)` (the stand-in
//! prints floats so that they round-trip, so the hash sees every bit)
//! and compared with a literal generated at the last declared re-pin
//! (the front-end statistics nested into one `AppStats` record; the
//! statistics themselves are those of processor sharing in virtual time
//! and the one-logarithm Erlang draw, DESIGN §5.1). A mismatch names the
//! run; all mismatches of a test are reported together, in the form the
//! table takes.

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
        ("browsing", 20, 1, 0x49ac_d6df_ef62_5dbf),
        ("browsing", 20, 2, 0x6fce_4219_9168_894a),
        ("browsing", 300, 1, 0x7dd3_4f0e_990a_13f8),
        ("browsing", 300, 2, 0x15b1_9392_46d6_1a3c),
        ("browsing", 600, 1, 0x9580_9752_d33a_965e),
        ("browsing", 600, 2, 0x4970_1087_9878_7ff4),
        ("browsing", 1024, 1, 0x5d97_3afb_afbe_b9c6),
        ("browsing", 1024, 2, 0x3635_6096_c696_e28f),
        ("shopping", 20, 1, 0xc2af_277c_701e_fc46),
        ("shopping", 20, 2, 0xcecb_ddc0_adc4_2c5e),
        ("shopping", 300, 1, 0xc211_bc90_2700_76cd),
        ("shopping", 300, 2, 0x6fdc_cc62_60ef_2681),
        ("shopping", 600, 1, 0xdafc_1b89_7e90_a339),
        ("shopping", 600, 2, 0x6baf_ae07_1e8d_67d3),
        ("shopping", 1024, 1, 0xb6e8_01d4_45e3_3e73),
        ("shopping", 1024, 2, 0xe0c7_b339_f7b9_a787),
        ("ordering", 20, 1, 0xd8bd_55a9_c428_fb99),
        ("ordering", 20, 2, 0x71af_49a8_0221_375a),
        ("ordering", 300, 1, 0x005b_c7ea_1d4a_596e),
        ("ordering", 300, 2, 0xfc85_bfd2_60a0_cbd0),
        ("ordering", 600, 1, 0xcc87_9e7f_bef2_0ebb),
        ("ordering", 600, 2, 0x8718_cbe2_3da0_b08f),
        ("ordering", 1024, 1, 0xcd58_398f_7a42_52ca),
        ("ordering", 1024, 2, 0x2d31_37a4_f375_41f1),
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
            0x8712_d518_3ee1_e2f0,
        ),
        (
            "network_delay_s = 0, shopping, 300 EBs, seed 11".to_string(),
            zero_delay,
            TrafficProgram::steady(Mix::shopping(), 300, 120.0),
            0xcf1a_2f21_b7ee_c326,
        ),
        (
            "disk scale 6, browsing, 400 EBs, seed 12".to_string(),
            slow_disk,
            TrafficProgram::steady(Mix::browsing(), 400, 120.0),
            0x2b80_7c8a_7d80_b5c9,
        ),
        (
            "interleaved browsing 500 / ordering 350, seed 13".to_string(),
            SimConfig::testbed(13),
            interleaved,
            0x9f40_73a0_8d90_fe0f,
        ),
    ]);
}
