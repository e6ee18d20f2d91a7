//! Property test of attacked-day pricing: `price_attacked_day`, which
//! refills the attacked record only at minutes where it can change,
//! costs a day bit for bit like materializing the attacked trace with
//! `attacked_day_trace` and pricing it with `EnergyModel::day_cost`.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestRng;

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::impact::{attacked_day_trace, price_attacked_day};
use shatter_core::trigger::{plan_triggers, TriggerPlan};
use shatter_core::{AttackSchedule, AttackerCapability};
use shatter_dataset::{synthesize, DayTrace, HouseSpec, MinuteRecord, OccupantState, SynthConfig};
use shatter_hvac::{DchvacController, EnergyModel};
use shatter_smarthome::{houses, Activity, ApplianceId, Home, OccupantId, ZoneId, MINUTES_PER_DAY};

/// ARAS House A: zones, appliances and occupants.
const ZONES: usize = 5;
const APPLIANCES: usize = 13;
const OCCUPANTS: usize = 2;

/// Appliance bits set one time in four: a record's appliance states, or
/// the appliances a run toggles.
fn arb_sparse_bits() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec((0u8..4).prop_map(|x| x == 0), APPLIANCES)
}

fn arb_record() -> impl Strategy<Value = MinuteRecord> {
    let occ = (0..ZONES, 0..Activity::ALL.len()).prop_map(|(z, a)| OccupantState {
        zone: ZoneId(z),
        activity: Activity::ALL[a],
    });
    (prop::collection::vec(occ, OCCUPANTS), arb_sparse_bits()).prop_map(
        |(occupants, appliances)| MinuteRecord {
            occupants,
            appliances,
        },
    )
}

/// Run lengths: one minute a quarter of the time, else up to `max`.
fn arb_len(max: usize) -> impl Strategy<Value = usize> {
    (0u8..4, 2..=max).prop_map(|(single, len)| if single == 0 { 1 } else { len })
}

/// An actual day of record runs: each run replaces the record, toggles
/// appliances, or changes one occupant's activity or zone. Every run is
/// one allocation shared by its minutes; a short run list is padded by
/// extending its last record.
fn arb_actual() -> impl Strategy<Value = DayTrace> {
    let run = (
        0u8..4,
        arb_record(),
        arb_sparse_bits(),
        (0..OCCUPANTS, 0..Activity::ALL.len(), 0..ZONES),
        arb_len(120),
    );
    (arb_record(), prop::collection::vec(run, 10..=60)).prop_map(|(first, runs)| {
        let mut rec = first;
        let mut minutes = Vec::with_capacity(MINUTES_PER_DAY);
        for (kind, fresh, toggles, (o, a, z), len) in runs {
            match kind {
                0 => rec = fresh,
                1 => {
                    for (on, flip) in rec.appliances.iter_mut().zip(toggles) {
                        *on ^= flip;
                    }
                }
                2 => rec.occupants[o].activity = Activity::ALL[a],
                _ => rec.occupants[o].zone = ZoneId(z),
            }
            minutes.extend(std::iter::repeat_n(Arc::new(rec.clone()), len));
        }
        minutes.truncate(MINUTES_PER_DAY);
        minutes.resize(MINUTES_PER_DAY, Arc::new(rec));
        DayTrace { day: 0, minutes }
    })
}

/// What one occupant's reported rows draw from: `covered[t]` lists the
/// zones whose stay profile has a minimum stay for an arrival at minute
/// t (so a report arriving there can trigger), and `linked[z]` the
/// activities linked to an appliance of zone z.
#[derive(Clone)]
struct RowPools {
    covered: Vec<Vec<ZoneId>>,
    linked: Vec<Vec<Activity>>,
}

impl RowPools {
    fn new(home: &Home, adm: &HullAdm, o: OccupantId) -> RowPools {
        let profiles: Vec<_> = (0..ZONES).map(|z| adm.stay_profile(o, ZoneId(z))).collect();
        RowPools {
            covered: (0..MINUTES_PER_DAY)
                .map(|t| {
                    (0..ZONES)
                        .filter(|&z| profiles[z].min_stay(t).is_some())
                        .map(ZoneId)
                        .collect()
                })
                .collect(),
            linked: (0..ZONES)
                .map(|z| {
                    (home.appliances_in(ZoneId(z)))
                        .flat_map(|a| a.linked_activities.iter().copied())
                        .collect()
                })
                .collect(),
        }
    }
}

/// One occupant's reported zone and activity rows, built from runs that
/// change the zone and the activity, the activity only, or the zone only.
/// Half the zones a run picks are ones the ADM covers at the run's start,
/// and half the activities are linked to an appliance of the run's zone,
/// so that reports trigger appliances and their minimum stays run out
/// within a run.
fn arb_reported_rows(pools: RowPools) -> impl Strategy<Value = (Vec<ZoneId>, Vec<Activity>)> {
    let run = (
        0u8..3,
        (any::<bool>(), 0..ZONES),
        (any::<bool>(), 0..Activity::ALL.len()),
        arb_len(240),
    );
    prop::collection::vec(run, 10..=60).prop_map(move |runs| {
        let (mut zone, mut activity) = (ZoneId(0), Activity::ALL[0]);
        let (mut zones, mut activities) = (Vec::new(), Vec::new());
        for (kind, (pick_covered, z), (pick_linked, a), len) in runs {
            let start = zones.len().min(MINUTES_PER_DAY - 1);
            if kind != 1 {
                let covered = &pools.covered[start];
                zone = if pick_covered && !covered.is_empty() {
                    covered[z % covered.len()]
                } else {
                    ZoneId(z)
                };
            }
            if kind != 2 {
                let linked = &pools.linked[zone.index()];
                activity = if pick_linked && !linked.is_empty() {
                    linked[a % linked.len()]
                } else {
                    Activity::ALL[a]
                };
            }
            zones.extend(std::iter::repeat_n(zone, len));
            activities.extend(std::iter::repeat_n(activity, len));
        }
        zones.resize(MINUTES_PER_DAY, zone);
        activities.resize(MINUTES_PER_DAY, activity);
        (zones, activities)
    })
}

fn arb_schedule(home: &Home, adm: &HullAdm) -> impl Strategy<Value = AttackSchedule> {
    let rows = |o| arb_reported_rows(RowPools::new(home, adm, OccupantId(o)));
    (rows(0), rows(1)).prop_map(|(a, b)| {
        let (zones, activities) = [a, b].into_iter().unzip();
        AttackSchedule { zones, activities }
    })
}

/// A capability from masks over the conditioned zones, occupants and
/// appliances, with an optional timeslot window.
fn arb_capability(home: &Home) -> impl Strategy<Value = AttackerCapability> {
    let full = AttackerCapability::full(home);
    (
        0u32..16,
        0u32..1 << OCCUPANTS,
        0u32..1 << APPLIANCES,
        (any::<bool>(), 0u32..1440, 1u32..1440),
    )
        .prop_map(
            move |(zones, occupants, appliances, (windowed, start, len))| {
                let mut cap = (full.clone())
                    .with_zone_access((1..ZONES).filter(|z| zones >> (z - 1) & 1 == 1).map(ZoneId))
                    .with_appliance_access(
                        (0..APPLIANCES)
                            .filter(|d| appliances >> d & 1 == 1)
                            .map(ApplianceId),
                    );
                cap.occupants.retain(|o| occupants >> o.index() & 1 == 1);
                if windowed {
                    cap = cap.with_timeslots(start, start + len);
                }
                cap
            },
        )
}

/// `day` with every minute deep-copied into its own allocation.
fn deep_copy(day: &DayTrace) -> DayTrace {
    DayTrace {
        day: day.day,
        minutes: (day.minutes.iter())
            .map(|r| Arc::new(MinuteRecord::clone(r)))
            .collect(),
    }
}

/// Over random actual days, laid out shared per run and deep-copied,
/// random reported rows and random capabilities, both legs of
/// `price_attacked_day` cost the attacked day exactly as
/// `day_cost` prices the materialized attacked trace, the no-trigger leg
/// with an empty plan and the triggering leg with `plan_triggers`' plan.
///
/// Non-vacuity: the cases contain minutes where the attacked record
/// changes for exactly one reason (a new actual allocation, a reported
/// zone, a reported activity, or the triggered set), so skipping any of
/// those change checks misprices some case.
#[test]
fn attacked_cost_matches_materialized_trace() {
    let home = houses::aras_house_a();
    let model = EnergyModel::standard(home.clone());
    let adm = HullAdm::train(
        &synthesize(&SynthConfig::new(HouseSpec::aras_a(), 10, 7)),
        AdmKind::default_kmeans(),
    );
    let strategy = (
        arb_actual(),
        arb_schedule(&home, &adm),
        arb_capability(&home),
    );
    let empty = TriggerPlan {
        on: vec![Vec::new(); MINUTES_PER_DAY],
    };
    // Minutes where only the actual allocation, only a reported zone,
    // only a reported activity, or only the triggered set changes.
    let mut sole = [0usize; 4];
    for case in 0..64 {
        let mut rng = TestRng::from_parts("attacked_cost_matches_materialized_trace", case);
        let (shared, schedule, cap) = strategy.sample(&mut rng);
        for day in [&shared, &deep_copy(&shared)] {
            for with_triggering in [false, true] {
                let got = price_attacked_day(&model, &adm, &cap, day, &schedule, with_triggering);
                let plan = if with_triggering {
                    plan_triggers(&home, &adm, &cap, day, &schedule)
                } else {
                    empty.clone()
                };
                let attacked = attacked_day_trace(day, &schedule, &plan);
                let want = model.day_cost(&DchvacController, &attacked).total_usd();
                assert_eq!(
                    got.attacked_cost_usd.to_bits(),
                    want.to_bits(),
                    "case {case}, triggering {with_triggering}: {} vs {want}",
                    got.attacked_cost_usd
                );
                assert_eq!(got.triggered_minutes, plan.total_minutes());
                for t in 1..MINUTES_PER_DAY {
                    let changed = [
                        !Arc::ptr_eq(&day.minutes[t], &day.minutes[t - 1]),
                        schedule.zones.iter().any(|row| row[t] != row[t - 1]),
                        schedule.activities.iter().any(|row| row[t] != row[t - 1]),
                        plan.on[t] != plan.on[t - 1],
                    ];
                    let mut reasons = (0..changed.len()).filter(|&k| changed[k]);
                    if let (Some(k), None) = (reasons.next(), reasons.next()) {
                        sole[k] += 1;
                    }
                }
            }
        }
    }
    assert!(
        sole.iter().all(|&n| n > 0),
        "vacuous: sole changes {sole:?}"
    );
}
