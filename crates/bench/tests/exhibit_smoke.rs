//! Smoke tests for the reproduction harness: every exhibit must produce a
//! well-formed table at reduced scale through the scenario registry, and
//! the key claim encoded in each exhibit must hold even on the quick
//! configuration.

use shatter_bench::{builtin_registry, run_exhibit, Table};
use shatter_core::SmtScheduler;
use shatter_engine::runner::run_scenarios;
use shatter_engine::{FixtureCache, RunConfig, RunParams, ScenarioStatus};
use shatter_smt::Budget;

fn assert_well_formed(t: &Table) {
    assert!(!t.id.is_empty());
    assert!(!t.header.is_empty());
    assert!(!t.rows.is_empty(), "{} produced no rows", t.id);
    for row in &t.rows {
        assert_eq!(row.len(), t.header.len(), "{}: ragged row {row:?}", t.id);
    }
    // Render and CSV paths must not panic and must contain every header.
    let rendered = t.render();
    let csv = t.to_csv();
    for h in &t.header {
        assert!(csv.starts_with(&t.header.join(",")) || csv.contains(h));
    }
    assert!(rendered.contains(&t.id));
}

fn cell(t: &Table, row_match: &[(usize, &str)], col: usize) -> f64 {
    t.rows
        .iter()
        .find(|r| row_match.iter().all(|&(i, v)| r[i] == v))
        .unwrap_or_else(|| panic!("{}: no row matching {row_match:?}", t.id))[col]
        .parse()
        .expect("numeric cell")
}

#[test]
fn fig3_savings_positive() {
    let t = run_exhibit("fig3", 6, 20);
    assert_well_formed(&t);
    for house in ["A", "B"] {
        let savings = cell(&t, &[(0, house), (1, "SAVINGS%")], 3);
        assert!(savings > 20.0, "house {house} savings {savings}");
    }
}

#[test]
fn fig5_f1_grows_with_training_days() {
    let t = run_exhibit("fig5", 20, 20); // train points 10, 15
    assert_well_formed(&t);
    let f1_10 = cell(&t, &[(0, "DBSCAN"), (1, "HAO1"), (2, "10")], 3);
    let f1_15 = cell(&t, &[(0, "DBSCAN"), (1, "HAO1"), (2, "15")], 3);
    assert!(f1_15 >= f1_10 - 8.0, "f1 {f1_10} -> {f1_15}");
}

#[test]
fn fig6_kmeans_covers_more_area() {
    let t = run_exhibit("fig6", 12, 20);
    assert_well_formed(&t);
    let db = cell(&t, &[(0, "DBSCAN"), (2, "AREA")], 5);
    let km = cell(&t, &[(0, "K-Means"), (2, "AREA")], 5);
    assert!(km > db, "km {km} vs db {db}");
}

#[test]
fn tab3_has_all_schedule_rows() {
    let t = run_exhibit("tab3", 12, 20);
    assert_well_formed(&t);
    for label in ["Actual", "Greedy", "SHATTER", "RangeThresh", "Trigger"] {
        assert!(t.rows.iter().any(|r| r[0] == label), "missing row {label}");
    }
}

#[test]
fn tab4_partial_knowledge_not_easier_to_detect() {
    let t = run_exhibit("tab4", 15, 20);
    assert_well_formed(&t);
    // Averaged F1: partial <= all + slack.
    let avg = |knowledge: &str| -> f64 {
        let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] == knowledge).collect();
        rows.iter()
            .map(|r| r[6].parse::<f64>().unwrap())
            .sum::<f64>()
            / rows.len() as f64
    };
    assert!(avg("Partial") <= avg("All") + 0.05);
}

#[test]
fn tab5_biota_highest_and_detected() {
    let t = run_exhibit("tab5", 6, 20);
    assert_well_formed(&t);
    let biota_a = cell(&t, &[(0, "BIoTA")], 3);
    let benign_a = cell(&t, &[(0, "Benign")], 3);
    assert!(biota_a > benign_a);
    let detect = cell(&t, &[(0, "BIoTA")], 5);
    assert!(detect >= 0.6);
}

#[test]
fn strategies_enumerates_registry_and_dp_is_stealthy() {
    let t = run_exhibit("strategies", 12, 20);
    assert_well_formed(&t);
    for key in ["biota", "greedy", "dp", "smt"] {
        assert!(t.rows.iter().any(|r| r[0] == key), "missing strategy {key}");
    }
    // The SHATTER window optimizer must validate as stealthy.
    let dp_row = t.rows.iter().find(|r| r[0] == "dp").expect("dp row");
    assert_eq!(dp_row[4], "true");
}

#[test]
fn zero_smt_budget_degrades_strategies_and_fig11() {
    // The `repro --budget conflicts=0,pivots=0,probes=0` route: the
    // budget rides in `RunParams::smt` and halts every SMT window that
    // needs search. (fig11's first ten minutes solve without any, so
    // its span covers the first hour.)
    let cfg = RunConfig {
        threads: 1,
        params: RunParams {
            days: 4,
            span: 60,
            smt: SmtScheduler {
                budget: Budget::parse("conflicts=0,pivots=0,probes=0").ok(),
                ..SmtScheduler::default()
            },
            ..RunParams::default()
        },
        fail_fast: false,
    };
    let reg = builtin_registry();
    let scenarios = reg
        .select(&["strategies".to_string(), "fig11".to_string()])
        .expect("known ids");
    let out = run_scenarios(&scenarios, &FixtureCache::new(), &cfg);
    for r in &out.reports {
        assert!(
            matches!(r.status, ScenarioStatus::Degraded { .. }),
            "{}: {:?}",
            r.id,
            r.status
        );
    }
}

#[test]
fn fig10_with_triggering_dominates() {
    let t = run_exhibit("fig10", 4, 20);
    assert_well_formed(&t);
    for house in ["A", "B"] {
        let without = cell(&t, &[(0, house), (1, "TOTAL")], 3);
        let with = cell(&t, &[(0, house), (1, "TOTAL")], 4);
        assert!(with >= without - 1e-9);
    }
}

#[test]
fn tab6_tab7_monotone_in_access() {
    let t6 = run_exhibit("tab6", 4, 20);
    assert_well_formed(&t6);
    let v4 = cell(&t6, &[(0, "4")], 1);
    let v2 = cell(&t6, &[(0, "2")], 1);
    assert!(v4 >= v2 - 1e-9, "tab6 A: {v4} < {v2}");
    let t7 = run_exhibit("tab7", 4, 20);
    assert_well_formed(&t7);
    let a13 = cell(&t7, &[(0, "13")], 1);
    let a3 = cell(&t7, &[(0, "3")], 1);
    assert!(a13 >= a3 - 1e-9, "tab7 A: {a13} < {a3}");
}

#[test]
fn fig11_produces_both_sweeps() {
    let t = run_exhibit("fig11", 12, 20);
    assert_well_formed(&t);
    assert!(t.rows.iter().any(|r| r[0] == "horizon"));
    assert!(t.rows.iter().any(|r| r[0] == "zones"));
}

#[test]
fn testbed_exhibit_reports_increment() {
    let t = run_exhibit("testbed", 4, 20);
    assert_well_formed(&t);
    let inc = cell(&t, &[(0, "energy_increment_pct")], 1);
    assert!(inc > 10.0, "increment {inc}");
}

#[test]
fn ablation_rows_cover_all_axes() {
    let t = run_exhibit("ablation", 3, 20);
    assert_well_formed(&t);
    for axis in ["horizon", "trigger_aware", "adm_eps", "battery_kwh"] {
        assert!(t.rows.iter().any(|r| r[0] == axis), "missing axis {axis}");
    }
}

#[test]
fn scaled_homes_covers_shapes_and_attack_lifts_cost() {
    let t = run_exhibit("scaled_homes", 4, 20);
    assert_well_formed(&t);
    for (zones, occupants) in [("6", "2"), ("10", "3"), ("16", "4")] {
        let row = t
            .rows
            .iter()
            .find(|r| r[1] == zones)
            .unwrap_or_else(|| panic!("missing {zones}-zone row"));
        assert_eq!(row[2], occupants);
        let benign: f64 = row[3].parse().unwrap();
        let attacked: f64 = row[4].parse().unwrap();
        assert!(
            attacked >= benign - 1e-9,
            "{zones} zones: attacked {attacked} < benign {benign}"
        );
    }
}

#[test]
fn capability_grid_full_corner_dominates() {
    let t = run_exhibit("capability_grid", 4, 20);
    assert_well_formed(&t);
    assert_eq!(t.rows.len(), 9, "3 zone profiles x 3 windows");
    let full = cell(&t, &[(0, "all"), (1, "all-day")], 4);
    for row in &t.rows {
        let lift: f64 = row[4].parse().unwrap();
        // Restricting the attacker can only shed impact (small slack
        // for scheduler tie-breaking).
        assert!(
            lift <= full + 0.25,
            "{}x{} lift {lift} beats full-capability {full}",
            row[0],
            row[1]
        );
    }
}

#[test]
fn defense_sweep_ranks_every_asset_and_plans() {
    let t = run_exhibit("defense_sweep", 6, 20);
    assert_well_formed(&t);
    // 4 indoor zones + 13 appliances ranked.
    assert_eq!(t.rows.iter().filter(|r| r[0] == "rank").count(), 17);
    // The greedy plan stops at zero marginal value, so at smoke scale it
    // may be empty — but never over budget.
    assert!(t.rows.iter().filter(|r| r[0] == "plan").count() <= 3);
    let residual = cell(&t, &[(0, "residual")], 3);
    assert!(residual.is_finite());
}

#[test]
fn fig4_reports_scores_for_small_minpts() {
    let t = run_exhibit("fig4", 10, 20);
    assert_well_formed(&t);
    let dbi = cell(&t, &[(0, "DBSCAN"), (1, "2")], 2);
    assert!(dbi.is_finite());
}
