//! Golden reshape fixture: pins the unit files the paper-scale reshape
//! produces.
//!
//! `reshape_manifest_par` runs on `html_18mil(0.01, seed)` (180k files, so
//! the pack takes the sharded route with its tail repack) at two unit sizes.
//! For each case `tests/fixtures/reshape_golden.json` records the FNV-1a
//! digest of every unit file's `id`, `size` and `complexity` bits, in
//! output order, plus the full [`PackingStats`].
//!
//! The packing kernels are checked against their naive oracles on small
//! random inputs; this fixture pins the real size distribution at a scale
//! where the oracles cannot run, so a kernel rewrite that changes a single
//! placement shows here.
//!
//! Regenerate (only when a packing change is intended) with
//! `UPDATE_GOLDEN=1 cargo test -p reshape --test reshape_golden`.

use corpus::hash::fnv1a;
use reshape::{reshape_manifest_par, PackingStats, Parallelism, UnitSize, PAR_PACK_MIN_ITEMS};
use serde::Serialize;

const FIXTURE: &str = include_str!("fixtures/reshape_golden.json");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/reshape_golden.json"
);

const SEEDS: [u64; 2] = [1, 20101];
/// 4 MB units leave the corpus's larger files oversize; 100 MB is the
/// paper's unit size.
const UNITS: [u64; 2] = [4_000_000, 100_000_000];

#[derive(Debug, Serialize)]
struct ReshapeCase {
    seed: u64,
    unit_bytes: u64,
    files: usize,
    files_fnv1a64: String,
    stats: PackingStats,
}

fn reshape_case(seed: u64, unit_bytes: u64) -> ReshapeCase {
    let manifest = corpus::html_18mil(0.01, seed);
    assert!(
        manifest.len() >= PAR_PACK_MIN_ITEMS,
        "must take the sharded route"
    );
    let out = reshape_manifest_par(
        &manifest,
        UnitSize::Bytes(unit_bytes),
        Parallelism::Rayon(2),
    );
    let mut bytes = Vec::with_capacity(out.files.len() * 24);
    for f in &out.files {
        bytes.extend_from_slice(&f.id.to_le_bytes());
        bytes.extend_from_slice(&f.size.to_le_bytes());
        bytes.extend_from_slice(&f.complexity.to_bits().to_le_bytes());
    }
    ReshapeCase {
        seed,
        unit_bytes,
        files: out.files.len(),
        files_fnv1a64: format!("{:016x}", fnv1a(&bytes)),
        stats: out.stats,
    }
}

#[test]
fn reshape_matches_committed_golden_fixture() {
    let cases: Vec<ReshapeCase> = SEEDS
        .into_iter()
        .flat_map(|seed| UNITS.into_iter().map(move |unit| reshape_case(seed, unit)))
        .collect();
    // The small unit must exercise the oversize pass-through.
    assert!(cases
        .iter()
        .any(|c| c.unit_bytes == UNITS[0] && c.stats.oversize_bins > 0));
    let rendered = serde_json::to_string_pretty(&cases).expect("fixture json") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).expect("write fixture");
        return;
    }
    for (got, want) in rendered.lines().zip(FIXTURE.lines()) {
        assert_eq!(got, want, "reshape diverged from the golden fixture");
    }
    assert_eq!(rendered.lines().count(), FIXTURE.lines().count());
}
