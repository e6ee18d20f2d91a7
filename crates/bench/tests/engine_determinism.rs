//! Engine determinism over the real exhibit registry: the same scenario
//! set must render byte-identically across repeated runs and across
//! thread counts, with the fixture cache active, and every deterministic
//! table must match its pinned bytes.

use shatter_bench::builtin_registry;
use shatter_engine::runner::run_scenarios;
use shatter_engine::{FixtureCache, RunConfig, RunParams};

fn quick_cfg(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        params: RunParams {
            days: 3,
            span: 10,
            ..RunParams::default()
        },
        fail_fast: false,
    }
}

fn rendered_deterministic(threads: usize) -> Vec<(String, String)> {
    let reg = builtin_registry();
    let scenarios: Vec<_> = reg
        .all()
        .into_iter()
        .filter(|s| s.deterministic())
        // The testbed replay is deterministic but slow in debug builds
        // and exercises no cache path; covered by exhibit_smoke.
        .filter(|s| s.id() != "testbed")
        .collect();
    let cache = FixtureCache::new();
    let out = run_scenarios(&scenarios, &cache, &quick_cfg(threads));
    assert!(out.cache.hits > 0, "cache never hit across the suite");
    out.reports
        .into_iter()
        .map(|r| (r.id, r.table.render()))
        .collect()
}

/// FNV-1a of every deterministic table rendered at [`quick_cfg`], in
/// registry order: a refactor must leave every clean table's bytes
/// alone, and a change that means to move them updates these pins.
const TABLE_PINS: [(&str, u64); 16] = [
    ("fig3", 0xc0e3d9e4c2cc825a),
    ("fig4", 0x8a5288ea4a25bdcd),
    ("fig5", 0x5ef5e1c21eef1411),
    ("fig6", 0xb11efd9229db5456),
    ("tab3", 0x6c29b27246993e58),
    ("tab4", 0x39145cc7d70f56c7),
    ("tab5", 0xed2b341c080af8f8),
    ("strategies", 0x1b3192f683bbd505),
    ("fig10", 0x62e7a173bb5588b7),
    ("tab6", 0xaf4a9473e200ecaa),
    ("tab7", 0x6b4678d4afdee97a),
    ("ablation", 0xed29585e4086a074),
    ("scaled_homes", 0xb9df792d66456dfa),
    ("capability_grid", 0x75c231e9de450c77),
    ("defense_sweep", 0x73567a76a6d1939e),
    ("fleet_smoke", 0xe16edb3d02aa0618),
];

#[test]
fn suite_is_byte_identical_across_runs_and_thread_counts() {
    let serial_a = rendered_deterministic(1);
    let hashes: Vec<(&str, u64)> = serial_a
        .iter()
        .map(|(id, t)| (id.as_str(), shatter_store::fnv1a_bytes(t.as_bytes())))
        .collect();
    assert_eq!(hashes, TABLE_PINS, "rendered tables moved off their pins");
    let serial_b = rendered_deterministic(1);
    assert_eq!(serial_a, serial_b, "repeat serial runs diverged");
    let parallel = rendered_deterministic(4);
    assert_eq!(serial_a, parallel, "parallel run diverged from serial");
}

#[test]
fn heavy_exhibits_byte_identical_across_pool_widths() {
    // Running a single scenario with a wide thread budget leaves the
    // whole surplus to `ScenarioCtx::par_map`, so this exercises real
    // intra-scenario parallelism (the suite-level test above mostly
    // saturates the budget with scenario workers instead).
    let reg = builtin_registry();
    for id in [
        "tab5",
        "tab6",
        "strategies",
        "ablation",
        "scaled_homes",
        "capability_grid",
    ] {
        let one = |threads: usize| {
            let cache = FixtureCache::new();
            let scenarios = reg.select(&[id.to_string()]).expect("known id");
            let out = run_scenarios(&scenarios, &cache, &quick_cfg(threads));
            out.reports[0].table.render()
        };
        assert_eq!(one(1), one(6), "{id} diverged across pool widths");
    }
}

#[test]
fn cached_run_matches_uncached_run() {
    let reg = builtin_registry();
    let scenarios = reg
        .select(&["fig3".to_string(), "fig6".to_string(), "tab6".to_string()])
        .expect("known ids");
    let shared = FixtureCache::new();
    let cached = run_scenarios(&scenarios, &shared, &quick_cfg(2));
    // Fresh cache per scenario: every fixture/ADM retrained from scratch.
    let mut uncached = Vec::new();
    for s in &scenarios {
        let fresh = FixtureCache::new();
        let one = run_scenarios(std::slice::from_ref(s), &fresh, &quick_cfg(1));
        uncached.extend(one.reports);
    }
    let a: Vec<String> = cached.reports.iter().map(|r| r.table.render()).collect();
    let b: Vec<String> = uncached.iter().map(|r| r.table.render()).collect();
    assert_eq!(a, b, "fixture caching changed exhibit output");
    assert!(cached.cache.hits > 0);
}
