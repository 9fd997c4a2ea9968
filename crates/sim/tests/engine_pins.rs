//! Byte pins of the engine's output.
//!
//! The simulator is the oracle for every label, probe and gate in the
//! workspace, so a change meant only to make it faster must leave every
//! simulated statistic identical. Each run below is fingerprinted as
//! FNV-1a over `serde_json::to_string(&out.samples)` (the stand-in
//! prints floats so that they round-trip, so the hash sees every bit)
//! and compared with a literal generated before the event list was
//! split by source. A mismatch names the run; all mismatches of a test
//! are reported together, in the form the table takes.

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
        ("browsing", 20, 1, 0x2138_afb1_ddbe_20d7),
        ("browsing", 20, 2, 0xf3e5_4420_d090_37e9),
        ("browsing", 300, 1, 0xef3e_6c19_bdb6_9a8f),
        ("browsing", 300, 2, 0x6c08_20ce_6c4b_d471),
        ("browsing", 600, 1, 0x865e_51ae_0452_a426),
        ("browsing", 600, 2, 0x3cc6_4fa4_72bf_5bf4),
        ("browsing", 1024, 1, 0xea36_1b31_5110_2b46),
        ("browsing", 1024, 2, 0xf8b6_fbdd_0e71_a977),
        ("shopping", 20, 1, 0x6200_9123_f934_af15),
        ("shopping", 20, 2, 0x1c7e_e008_c31b_e570),
        ("shopping", 300, 1, 0x3744_f572_72df_5c71),
        ("shopping", 300, 2, 0x386d_6989_509c_ac1c),
        ("shopping", 600, 1, 0xba82_b983_2f62_a57f),
        ("shopping", 600, 2, 0xc536_5a8e_44f1_04d3),
        ("shopping", 1024, 1, 0x295d_7d84_d682_6d3f),
        ("shopping", 1024, 2, 0x8c25_91af_aba5_8055),
        ("ordering", 20, 1, 0x41cc_202f_ce23_9bc7),
        ("ordering", 20, 2, 0xf046_d77b_63bc_90a3),
        ("ordering", 300, 1, 0xc0f6_4c19_4ba0_5dcb),
        ("ordering", 300, 2, 0x80a5_46f5_714e_ec51),
        ("ordering", 600, 1, 0x3505_013a_9535_08d6),
        ("ordering", 600, 2, 0xb0b2_cf39_4cb0_3cdd),
        ("ordering", 1024, 1, 0xd885_7de9_03bc_ea8c),
        ("ordering", 1024, 2, 0xe542_67f1_215c_4326),
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
            0xf0fe_d103_1120_ec02,
        ),
        (
            "network_delay_s = 0, shopping, 300 EBs, seed 11".to_string(),
            zero_delay,
            TrafficProgram::steady(Mix::shopping(), 300, 120.0),
            0x1f45_d573_fb18_23e1,
        ),
        (
            "disk scale 6, browsing, 400 EBs, seed 12".to_string(),
            slow_disk,
            TrafficProgram::steady(Mix::browsing(), 400, 120.0),
            0x6679_dc77_b290_964f,
        ),
        (
            "interleaved browsing 500 / ordering 350, seed 13".to_string(),
            SimConfig::testbed(13),
            interleaved,
            0xf9f4_4507_96da_b391,
        ),
    ]);
}
