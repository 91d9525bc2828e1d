//! Golden digests of every deterministic figure: at `--scale 20 --seed 7`
//! each figure CSV and each study's comparison table
//! (`StudyReport::table`) must hash to the FNV-1a-64 value recorded
//! before figures were declared as column tables, so the text and CSV
//! renderers are proven to carry the same numbers as the hand-written
//! formatting they replaced. Fig 9's CSV alone was re-recorded since,
//! when its slot columns began printing the clamped counts the simulator
//! runs (`NodeSpec::sim_slots`) instead of the scenario's.
//!
//! At `--scale 20` every cache of Fig 12 holds most of its node's items,
//! so a change to the simulator's compare timing can leave every figure
//! byte unchanged. Fig 12's CSV is pinned again at `--scale 5`, where the
//! distributed-cache cells thrash and such a change moves most rows.
//!
//! `table1`, `transports` and `scale1k` are left out: they carry
//! wall-clock columns (the threaded runtime's measured stage and run
//! times, the sharded simulator's wall seconds), so two runs of the same
//! build differ in those three and nowhere else.

use std::num::NonZeroU64;

use rocket_bench::{ExpOptions, EXPERIMENTS};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const TABLES: [(&str, u64); 11] = [
    ("fig7", 0x0221_e919_3f58_657d),
    ("fig8", 0x0221_e919_3f58_657d),
    ("fig9", 0x02f5_4275_1459_bf3c),
    ("fig10", 0xcf7b_f4cd_ac28_aa44),
    ("fig11", 0x3d92_1cd8_83ff_c175),
    ("fig12", 0xa090_1e4e_71e9_b08c),
    ("fig13", 0xba18_46c0_c83a_d49e),
    ("fig14", 0xc76b_b324_6fde_b58e),
    ("fig15", 0x7507_44c1_1ec9_e799),
    ("cartesius96", 0x2e0d_b61d_a54e_924a),
    ("model", 0xc3d8_3e0f_7f77_7bfa),
];

const CSVS: [(&str, u64); 12] = [
    ("fig7", 0x71b8_9f1d_6166_c1e8),
    ("fig8", 0x5377_d886_ec13_7177),
    ("fig9", 0x6254_ed71_6b6f_1226),
    ("fig10", 0xeba3_6f41_3ba4_7198),
    ("fig11", 0xf4f7_b3ec_add9_1ca2),
    ("fig12", 0xeb34_8fa3_d2b3_a3b0),
    ("fig13", 0x30f0_1353_f344_6fcc),
    ("fig14", 0x07da_3e23_9019_abee),
    ("fig15", 0xd46c_c144_27b0_ef3e),
    ("cartesius96", 0x062d_5bb1_3d23_44e5),
    ("cartesius96_replications", 0x88ee_1bea_6300_c85e),
    ("model", 0x5cf2_25fd_fee2_8fc8),
];

fn options(scale: u64) -> ExpOptions {
    ExpOptions {
        extra_scale: NonZeroU64::new(scale).unwrap(),
        seed: 7,
        perf_log: None,
    }
}

#[test]
fn deterministic_figures_match_recorded_digests() {
    let opts = options(20);
    let mut tables = Vec::new();
    let mut csvs = Vec::new();
    for &(name, _) in &TABLES {
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        let fig = (exp.run)(&opts).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        tables.push((name, fnv1a64(fig.report.table().as_bytes())));
        for (stem, csv) in &fig.csv {
            csvs.push((*stem, fnv1a64(csv.as_bytes())));
        }
    }
    assert_eq!(tables, TABLES, "study table digests moved");
    assert_eq!(csvs, CSVS, "figure CSV digests moved");
}

#[test]
fn fig12_csv_matches_recorded_digest_where_caches_thrash() {
    let exp = EXPERIMENTS.iter().find(|e| e.name == "fig12").unwrap();
    let fig = (exp.run)(&options(5)).expect("fig12 runs");
    let [(stem, csv)] = &fig.csv[..] else {
        panic!("fig12 writes one CSV");
    };
    assert_eq!(
        (*stem, fnv1a64(csv.as_bytes())),
        ("fig12", 0x4a23_2e65_6e82_4e58)
    );
}
