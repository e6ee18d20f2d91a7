//! Real-time appliance-triggering decisions (paper Algorithm 1 and
//! Eq. 16).
//!
//! The pre-computed attack schedule evades the ADM; evading the *occupants*
//! requires real-time decisions, because real behaviour diverges from the
//! schedule. An appliance may be adversarially activated (by inaudible
//! voice command) only when:
//!
//! 1. the attacker can reach it (`D^A`, `T^A`),
//! 2. the appliance's zone is *actually* unoccupied — or everyone actually
//!    there is unaware (deep sleep / shower) — so nobody notices (Eq. 16),
//! 3. the attack schedule *reports* an occupant in that zone performing an
//!    activity linked to the appliance, so the controller sees a coherent
//!    activity–appliance picture,
//! 4. the reported occupant is still within the ADM's minimum expected
//!    stay (`minStay`) for their reported arrival (Algorithm 1's `thresh`),
//!    after which a real interaction pattern would be expected.

use shatter_adm::HullAdm;
use shatter_dataset::DayTrace;
use shatter_smarthome::{Appliance, ApplianceId, Home, Minute, OccupantId, MINUTES_PER_DAY};

use crate::{AttackSchedule, AttackerCapability};

/// Per-minute adversarial appliance activations for one day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerPlan {
    /// `on[t]` = appliances adversarially activated during minute `t`.
    pub on: Vec<Vec<ApplianceId>>,
}

impl TriggerPlan {
    /// Total appliance-minutes triggered.
    pub fn total_minutes(&self) -> usize {
        self.on.iter().map(Vec::len).sum()
    }

    /// Whether anything is triggered at all.
    pub fn is_empty(&self) -> bool {
        self.total_minutes() == 0
    }
}

/// Derives the day's appliance-triggering plan (Algorithm 1 + Eq. 16).
///
/// One forward pass per occupant carries the reported arrival of the
/// current reported stay, so Algorithm 1's `thresh` (`minStay` at that
/// arrival) is read once per reported episode from the occupant's
/// [`HullAdm::stay_profile`]. Occupants are planned in index order, so
/// each minute's activations keep occupant order.
///
/// Each zone's triggerable appliances (`cap.appliances` applied, home
/// order) are listed once per call, and a minute outside the timeslot
/// window is skipped before any appliance is looked at, so a minute only
/// checks its reported zone's list for a linked activity and an appliance
/// that is off.
pub fn plan_triggers(
    home: &Home,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    schedule: &AttackSchedule,
) -> TriggerPlan {
    let mut on: Vec<Vec<ApplianceId>> = vec![Vec::new(); MINUTES_PER_DAY];
    let mut zone_apps: Vec<Vec<&Appliance>> = vec![Vec::new(); home.zones().len()];
    for a in home.appliances() {
        if cap.appliances.contains(&a.id) {
            zone_apps[a.zone.index()].push(a);
        }
    }
    for (o, row) in schedule.zones.iter().enumerate() {
        let mut arrival = 0;
        let mut thresh = None;
        for (t, &zone) in row.iter().enumerate().take(MINUTES_PER_DAY) {
            if t == 0 || row[t - 1] != zone {
                arrival = t;
                thresh = adm.stay_profile(OccupantId(o), zone).min_stay(arrival);
            }
            // The paper's per-slot `trig` predicate: the reported stay has
            // not exceeded `minStay`, and the occupant is not actually in
            // the reported zone.
            let rec = &actual.minutes[t];
            let within_thresh = thresh.is_some_and(|m| (t - arrival) as f64 <= m);
            if !within_thresh || rec.occupants[o].zone == zone || !cap.can_attack_at(t as Minute) {
                continue;
            }
            // Eq. 16: every occupant actually in the zone must be unaware.
            let zone_safe = rec
                .occupants
                .iter()
                .all(|os| os.zone != zone || os.activity.is_unaware());
            if !zone_safe {
                continue;
            }
            let activity = schedule.activities[o][t];
            for a in &zone_apps[zone.index()] {
                if !a.linked_to(activity) {
                    continue;
                }
                // Already genuinely on? Then triggering adds nothing.
                if rec.appliances[a.id.index()] {
                    continue;
                }
                if !on[t].contains(&a.id) {
                    on[t].push(a.id);
                }
            }
        }
    }
    TriggerPlan { on }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RewardTable, Scheduler, WindowDpScheduler};
    use std::sync::Arc;

    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, MinuteRecord, SynthConfig};
    use shatter_hvac::EnergyModel;
    use shatter_smarthome::{houses, ZoneId};

    fn setup() -> (
        Home,
        shatter_dataset::Dataset,
        HullAdm,
        RewardTable,
        AttackerCapability,
    ) {
        let home = houses::aras_house_a();
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 41));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
        let model = EnergyModel::standard(home.clone());
        let table = RewardTable::build(&model);
        let cap = AttackerCapability::full(&home);
        (home, ds, adm, table, cap)
    }

    #[test]
    fn triggers_never_fire_in_actually_occupied_aware_zones() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let plan = plan_triggers(&home, &adm, &cap, day, &sched);
        for (t, apps) in plan.on.iter().enumerate() {
            for aid in apps {
                let zone = home.appliance(*aid).zone;
                for os in &day.minutes[t].occupants {
                    assert!(
                        os.zone != zone || os.activity.is_unaware(),
                        "minute {t}: {} triggered in occupied zone",
                        home.appliance(*aid).name
                    );
                }
            }
        }
    }

    #[test]
    fn triggers_respect_appliance_capability() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let restricted = cap
            .clone()
            .with_appliance_access([ApplianceId(0), ApplianceId(1)]);
        let plan = plan_triggers(&home, &adm, &restricted, day, &sched);
        for apps in &plan.on {
            for aid in apps {
                assert!(aid.index() < 2);
            }
        }
    }

    #[test]
    fn triggers_match_reported_activity() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[11];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let plan = plan_triggers(&home, &adm, &cap, day, &sched);
        for (t, apps) in plan.on.iter().enumerate() {
            for aid in apps {
                let a = home.appliance(*aid);
                let matched = (0..sched.n_occupants())
                    .any(|o| sched.zones[o][t] == a.zone && a.linked_to(sched.activities[o][t]));
                assert!(matched, "minute {t}: {} has no reporting occupant", a.name);
            }
        }
    }

    #[test]
    fn schedule_with_divergence_usually_triggers_something() {
        let (home, ds, adm, table, cap) = setup();
        let mut total = 0usize;
        for day in &ds.days[10..12] {
            let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
            if sched.divergence(day) > 100 {
                total += plan_triggers(&home, &adm, &cap, day, &sched).total_minutes();
            }
        }
        assert!(total > 0, "no triggering despite diverging schedules");
    }

    /// Algorithm 1 + Eq. 16 applied literally, minute by minute: every
    /// appliance of the reported zone is scanned and its reach probed
    /// with `cap.can_trigger`.
    fn reference_plan(
        home: &Home,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        schedule: &AttackSchedule,
    ) -> TriggerPlan {
        let mut on: Vec<Vec<ApplianceId>> = vec![Vec::new(); MINUTES_PER_DAY];
        for (o, row) in schedule.zones.iter().enumerate() {
            for (t, &zone) in row.iter().enumerate() {
                let arrival = (0..=t)
                    .rev()
                    .take_while(|&s| row[s] == zone)
                    .last()
                    .unwrap();
                let thresh = adm.stay_profile(OccupantId(o), zone).min_stay(arrival);
                let rec = &actual.minutes[t];
                if !thresh.is_some_and(|m| (t - arrival) as f64 <= m)
                    || rec.occupants[o].zone == zone
                    || rec
                        .occupants
                        .iter()
                        .any(|os| os.zone == zone && !os.activity.is_unaware())
                {
                    continue;
                }
                for a in home.appliances_in(zone) {
                    if cap.can_trigger(a.id, t as Minute)
                        && a.linked_to(schedule.activities[o][t])
                        && !rec.appliances[a.id.index()]
                        && !on[t].contains(&a.id)
                    {
                        on[t].push(a.id);
                    }
                }
            }
        }
        TriggerPlan { on }
    }

    /// The planner's per-zone appliance lists give the reference's plan,
    /// activation order included, under full, zone-subset,
    /// appliance-subset and timeslot capabilities, for DP schedules over
    /// days whose records are shared per run and over deep copies.
    #[test]
    fn plan_matches_per_minute_reference() {
        let (home, ds, adm, table, full) = setup();
        let caps = [
            full.clone(),
            full.clone().with_zone_access([ZoneId(2), ZoneId(3)]),
            full.clone()
                .with_appliance_access([ApplianceId(0), ApplianceId(4), ApplianceId(11)]),
            full.clone().with_timeslots(540, 1020),
        ];
        let mut triggered = Vec::new();
        for cap in &caps {
            let mut total = 0;
            for shared in &ds.days[10..12] {
                let copied = DayTrace {
                    day: shared.day,
                    minutes: (shared.minutes.iter())
                        .map(|r| Arc::new(MinuteRecord::clone(r)))
                        .collect(),
                };
                let sched = WindowDpScheduler::default().schedule(&table, &adm, cap, shared);
                for day in [shared, &copied] {
                    let plan = plan_triggers(&home, &adm, cap, day, &sched);
                    assert_eq!(plan, reference_plan(&home, &adm, cap, day, &sched));
                    total += plan.total_minutes();
                }
            }
            triggered.push(total);
        }
        assert!(triggered.iter().all(|&n| n > 0), "vacuous: {triggered:?}");
    }

    #[test]
    fn no_trigger_when_appliance_already_on() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let plan = plan_triggers(&home, &adm, &cap, day, &sched);
        for (t, apps) in plan.on.iter().enumerate() {
            for aid in apps {
                assert!(!day.minutes[t].appliances[aid.index()]);
            }
        }
    }
}
