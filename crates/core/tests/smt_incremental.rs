//! Incremental == from-scratch: the cross-window reused solver must be
//! indistinguishable from a fresh solver per window.
//!
//! [`SmtScheduler`] carries one `shatter-smt` solver across a day's
//! windows (template clauses encoded once, probes guarded by assumption
//! literals, warm-started simplex). Because `Solver::pop` restores the
//! solver exactly — heuristics included — the committed schedule must be
//! *byte-identical* to the `reuse_solver: false` reference path that
//! rebuilds a solver per window, across seeds, spans, horizons and
//! capability profiles; objectives then agree trivially, and a tolerance
//! check on the reward guards the comparison against vacuous equality.

use std::collections::HashMap;
use std::sync::Mutex;

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::{
    AttackSchedule, AttackerCapability, RewardTable, SmtScheduler, WindowMemo, WindowSolution,
};
use shatter_dataset::{synthesize, Dataset, HouseSpec, SynthConfig};
use shatter_hvac::EnergyModel;
use shatter_smarthome::{houses, Minute, OccupantId, ZoneId};

fn world(seed: u64) -> (Dataset, HullAdm, RewardTable, AttackerCapability) {
    let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, seed));
    let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
    let model = EnergyModel::standard(houses::aras_house_a());
    let table = RewardTable::build(&model);
    let cap = AttackerCapability::full(&houses::aras_house_a());
    (ds, adm, table, cap)
}

/// Minimal in-memory [`WindowMemo`] so the memoized path joins the
/// equivalence check.
#[derive(Default)]
struct MapMemo(Mutex<HashMap<String, WindowSolution>>);

impl WindowMemo for MapMemo {
    fn window(&self, key: &str, compute: &mut dyn FnMut() -> WindowSolution) -> WindowSolution {
        if let Some(hit) = self.0.lock().unwrap().get(key) {
            return hit.clone();
        }
        let v = compute();
        self.0.lock().unwrap().insert(key.to_string(), v.clone());
        v
    }
}

fn reward(table: &RewardTable, o: OccupantId, row: &[ZoneId]) -> f64 {
    row.iter()
        .enumerate()
        .map(|(t, &z)| table.rate(o, z, t as Minute))
        .sum()
}

#[test]
fn reused_solver_is_byte_identical_to_fresh_per_window() {
    for &(seed, span, caps_restricted) in &[(71u64, 40usize, false), (5, 30, true), (13, 50, false)]
    {
        let (ds, adm, table, cap_full) = world(seed);
        let day = &ds.days[10];
        let caps: Vec<(&str, AttackerCapability)> = if caps_restricted {
            vec![
                ("full", cap_full.clone()),
                (
                    "zones123",
                    cap_full
                        .clone()
                        .with_zone_access([ZoneId(1), ZoneId(2), ZoneId(3)]),
                ),
            ]
        } else {
            vec![("full", cap_full.clone())]
        };
        for (cap_name, cap) in &caps {
            for &horizon in &[7usize, 10] {
                let inc = SmtScheduler {
                    horizon,
                    ..SmtScheduler::default()
                };
                let fresh = SmtScheduler {
                    reuse_solver: false,
                    ..inc
                };
                let o = OccupantId(0);
                let (inc_row, inc_stats) = inc.schedule_occupant(o, &table, &adm, cap, day, span);
                let (fresh_row, fresh_stats) =
                    fresh.schedule_occupant(o, &table, &adm, cap, day, span);
                let ctx = format!("seed={seed} span={span} cap={cap_name} horizon={horizon}");
                assert_eq!(inc_row, fresh_row, "zone rows diverge ({ctx})");
                assert_eq!(
                    inc_stats.windows, fresh_stats.windows,
                    "window counts diverge ({ctx})"
                );
                assert_eq!(
                    inc_stats.fallbacks, fresh_stats.fallbacks,
                    "fallback counts diverge ({ctx})"
                );
                // Objectives: identical rows give identical rewards; the
                // tolerance bound is what the satellite contract states
                // and keeps the assertion meaningful if rows ever differ.
                let tol_usd = inc.tol_microusd * inc_stats.windows as f64 / 1e6;
                let (ri, rf) = (reward(&table, o, &inc_row), reward(&table, o, &fresh_row));
                assert!(
                    (ri - rf).abs() <= tol_usd + 1e-9,
                    "objectives diverge beyond tol ({ctx}): {ri} vs {rf}"
                );
            }
        }
    }
}

#[test]
fn memoized_reused_solver_matches_direct_path() {
    // The memo replays fragments out of solve order (here: second
    // occupant first on a pre-warmed cache); solutions and replayed
    // effort must match the memo-free path exactly.
    let (ds, adm, table, cap) = world(71);
    let day = &ds.days[10];
    let sched = SmtScheduler::default();
    let memo = MapMemo::default();

    let direct: Vec<Vec<ZoneId>> = (0..2)
        .map(|o| {
            sched
                .schedule_occupant(OccupantId(o), &table, &adm, &cap, day, 40)
                .0
        })
        .collect();
    let direct_stats = sched
        .schedule_occupant(OccupantId(0), &table, &adm, &cap, day, 40)
        .1;

    let mut memoized: Vec<Vec<ZoneId>> = Vec::new();
    for o in [1usize, 0] {
        let (row, _) = sched.schedule_occupant_memo(
            OccupantId(o),
            &table,
            &adm,
            &cap,
            day,
            40,
            Some((&memo, "t")),
        );
        memoized.insert(0, row);
    }
    assert_eq!(direct, memoized);

    // A pure cache-hit replay reports the original effort, not zero.
    let (replay_row, replay_stats) = sched.schedule_occupant_memo(
        OccupantId(0),
        &table,
        &adm,
        &cap,
        day,
        40,
        Some((&memo, "t")),
    );
    assert_eq!(replay_row, direct[0]);
    assert_eq!(replay_stats, direct_stats);
}

// ----- numeric modes (certified float fast path vs forced exact) ---------

/// The float fast path re-certifies every verdict with exact rationals,
/// so schedules, window counts and fallbacks must be byte-identical to
/// the forced-exact reference across spans, horizons and capability
/// profiles — only the effort counters (float pivots, exact fallbacks)
/// may differ between the modes.
#[test]
fn forced_exact_mode_schedules_byte_identically() {
    for &(seed, span, restrict) in &[(71u64, 40usize, false), (5, 30, true)] {
        let (ds, adm, table, cap_full) = world(seed);
        let day = &ds.days[10];
        let caps: Vec<(&str, AttackerCapability)> = if restrict {
            vec![
                ("full", cap_full.clone()),
                (
                    "zones123",
                    cap_full
                        .clone()
                        .with_zone_access([ZoneId(1), ZoneId(2), ZoneId(3)]),
                ),
            ]
        } else {
            vec![("full", cap_full.clone())]
        };
        for (cap_name, cap) in &caps {
            for &horizon in &[7usize, 10] {
                let fast = SmtScheduler {
                    horizon,
                    force_exact: false,
                    ..SmtScheduler::default()
                };
                let exact = SmtScheduler {
                    force_exact: true,
                    ..fast
                };
                let o = OccupantId(0);
                let (fast_row, fast_stats) =
                    fast.schedule_occupant(o, &table, &adm, cap, day, span);
                let (exact_row, exact_stats) =
                    exact.schedule_occupant(o, &table, &adm, cap, day, span);
                let ctx = format!("seed={seed} span={span} cap={cap_name} horizon={horizon}");
                assert_eq!(fast_row, exact_row, "zone rows diverge ({ctx})");
                assert_eq!(
                    (fast_stats.windows, fast_stats.fallbacks),
                    (exact_stats.windows, exact_stats.fallbacks),
                    "window accounting diverges ({ctx})"
                );
                assert_eq!(
                    (fast_stats.theory_conflicts, fast_stats.sat_decisions),
                    (exact_stats.theory_conflicts, exact_stats.sat_decisions),
                    "search effort diverges ({ctx})"
                );
                // The counters prove each mode really ran its pipeline.
                assert!(fast_stats.float_pivots > 0, "fast path idle ({ctx})");
                assert_eq!(
                    exact_stats.float_pivots, 0,
                    "exact mode used floats ({ctx})"
                );
            }
        }
    }
}

/// Mode is part of the memo key: a cache populated by the fast path must
/// not replay its effort counters into a forced-exact run (schedules may
/// be shared only when the mode matches).
#[test]
fn memo_keys_separate_numeric_modes() {
    let (ds, adm, table, cap) = world(71);
    let day = &ds.days[10];
    let memo = MapMemo::default();
    let fast = SmtScheduler::default();
    let exact = SmtScheduler {
        force_exact: true,
        ..SmtScheduler::default()
    };
    let (fast_row, fast_stats) = fast.schedule_occupant_memo(
        OccupantId(0),
        &table,
        &adm,
        &cap,
        day,
        30,
        Some((&memo, "t")),
    );
    let keys_after_fast = memo.0.lock().unwrap().len();
    let (exact_row, exact_stats) = exact.schedule_occupant_memo(
        OccupantId(0),
        &table,
        &adm,
        &cap,
        day,
        30,
        Some((&memo, "t")),
    );
    assert_eq!(fast_row, exact_row);
    assert!(fast_stats.float_pivots > 0);
    assert_eq!(exact_stats.float_pivots, 0);
    assert!(
        memo.0.lock().unwrap().len() > keys_after_fast,
        "exact run must miss the fast-path cache entries"
    );
}

#[test]
fn assembled_schedules_identical_across_paths() {
    // The schedule-level view of the same property: the AttackSchedules
    // assembled from both occupants' rows (zones *and* derived backing
    // activities) must be equal structures.
    let (ds, adm, table, cap) = world(71);
    let day = &ds.days[10];
    let assemble = |reuse: bool| -> AttackSchedule {
        let sched = SmtScheduler {
            reuse_solver: reuse,
            ..SmtScheduler::default()
        };
        let zones = (0..2)
            .map(|o| {
                sched
                    .schedule_occupant(OccupantId(o), &table, &adm, &cap, day, 30)
                    .0
            })
            .collect();
        AttackSchedule::from_zone_rows(zones, &table)
    };
    assert_eq!(assemble(true), assemble(false));
}
