//! Acceptance pin for the two-phase numeric pipeline: the float
//! fast-path and forced-exact simplex modes must render byte-identical
//! exhibit tables once the columns that legitimately depend on the mode
//! are masked — wall-clock timings and the `float_piv`/`fb` effort
//! counters. Every semantic column (verdicts, objectives, schedules,
//! SAT-core counters) must match cell for cell. The mode reaches the
//! exhibits through `RunParams::smt`, the `repro --exact-simplex` route.

use shatter_bench::{run_exhibit_with, Table};
use shatter_core::SmtScheduler;
use shatter_engine::RunParams;

/// Columns whose cells may differ between numeric modes: wall-clock
/// timings (machine noise) and the mode's own effort counters.
fn masked_columns(t: &Table) -> Vec<usize> {
    t.header
        .iter()
        .enumerate()
        .filter(|(_, h)| {
            matches!(
                h.as_str(),
                "total_ms" | "per_window_us" | "float_piv" | "fb"
            )
        })
        .map(|(i, _)| i)
        .collect()
}

fn column(t: &Table, name: &str) -> usize {
    t.header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("{}: no column {name}", t.id))
}

#[test]
fn exhibit_tables_identical_across_numeric_modes() {
    let run = |force_exact: bool| -> Vec<Table> {
        let params = RunParams {
            days: 4,
            span: 10,
            smt: SmtScheduler {
                force_exact,
                ..SmtScheduler::default()
            },
            ..RunParams::default()
        };
        ["strategies", "fig11"]
            .iter()
            .map(|id| run_exhibit_with(id, params))
            .collect()
    };
    let fast = run(false);
    let exact = run(true);

    let mut fast_float_pivots = 0u64;
    for (f, e) in fast.iter().zip(&exact) {
        assert_eq!(f.header, e.header, "{}: headers diverged", f.id);
        assert_eq!(f.rows.len(), e.rows.len(), "{}: row counts diverged", f.id);
        let masked = masked_columns(f);
        for (ri, (rf, re)) in f.rows.iter().zip(&e.rows).enumerate() {
            for (ci, (cf, ce)) in rf.iter().zip(re).enumerate() {
                if masked.contains(&ci) {
                    continue;
                }
                assert_eq!(
                    cf, ce,
                    "{}: row {ri} column {} diverged between numeric modes",
                    f.id, f.header[ci]
                );
            }
        }
        // The masked counters must prove each leg ran its own pipeline:
        // the exact leg never pivots in floats; the fast leg does
        // somewhere in the suite (some exhibits solve by propagation
        // alone at smoke scale, so the check is suite-wide).
        let fp = column(f, "float_piv");
        let total = |t: &Table| -> u64 {
            t.rows
                .iter()
                .map(|r| r[fp].parse::<u64>().expect("numeric float_piv"))
                .sum()
        };
        fast_float_pivots += total(f);
        assert_eq!(total(e), 0, "{}: exact leg reported float pivots", f.id);
    }
    assert!(
        fast_float_pivots > 0,
        "fast leg reported no float pivots anywhere in the suite"
    );
}
