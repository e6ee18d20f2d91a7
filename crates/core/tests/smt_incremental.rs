//! Window memoization replays the direct path: every window of
//! [`SmtScheduler`] solves on a fresh copy of its span's template, so a
//! window's solution depends on its memo key alone. The memoized path
//! serves windows in any order and from any earlier solve, and must
//! commit the same rows and report the same effort as the memo-free
//! path.

use std::collections::HashMap;
use std::sync::Mutex;

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::{AttackerCapability, RewardTable, SmtScheduler, WindowMemo, WindowSolution};
use shatter_dataset::{synthesize, Dataset, HouseSpec, SynthConfig};
use shatter_hvac::EnergyModel;
use shatter_smarthome::{houses, OccupantId, ZoneId, MINUTES_PER_DAY};

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

#[test]
fn memoized_windows_match_direct_path() {
    // The memo replays fragments out of solve order (here: second
    // occupant first on a pre-warmed cache); solutions and replayed
    // effort must match the memo-free path exactly. Over a full day,
    // because night windows take no decisions.
    let (ds, adm, table, cap) = world(71);
    let day = &ds.days[10];
    let sched = SmtScheduler::default();
    let memo = MapMemo::default();

    let direct: Vec<Vec<ZoneId>> = (0..2)
        .map(|o| {
            sched
                .schedule_occupant(OccupantId(o), &table, &adm, &cap, day, MINUTES_PER_DAY)
                .0
        })
        .collect();
    let direct_stats = sched
        .schedule_occupant(OccupantId(0), &table, &adm, &cap, day, MINUTES_PER_DAY)
        .1;
    assert!(direct_stats.sat_decisions > 0, "the day must search");

    let mut memoized: Vec<Vec<ZoneId>> = Vec::new();
    for o in [1usize, 0] {
        let (row, _) = sched.schedule_occupant_memo(
            OccupantId(o),
            &table,
            &adm,
            &cap,
            day,
            MINUTES_PER_DAY,
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
        MINUTES_PER_DAY,
        Some((&memo, "t")),
    );
    assert_eq!(replay_row, direct[0]);
    assert_eq!(replay_stats, direct_stats);
}
