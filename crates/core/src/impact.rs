//! End-to-end attack-impact evaluation: synthesize a schedule, derive the
//! triggering plan, build the falsified sensor trace the controller
//! consumes, and price the result (paper Tables V–VII, Fig. 10).

use std::sync::Arc;

use shatter_adm::HullAdm;
use shatter_dataset::{DayTrace, MinuteRecord, OccupantState};
use shatter_hvac::{DayPricer, DchvacController, EnergyModel};
use shatter_smarthome::{ApplianceId, MINUTES_PER_DAY};

use crate::biota::detection_rate;
use crate::schedule::{AttackSchedule, Scheduler};
use crate::trigger::{plan_triggers, TriggerPlan};
use crate::{AttackerCapability, RewardTable};

/// Result of evaluating an attack on one day.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Control cost under genuine behaviour, $.
    pub benign_cost_usd: f64,
    /// Control cost with the attack in place, $.
    pub attacked_cost_usd: f64,
    /// Minutes of adversarial appliance activation.
    pub triggered_minutes: usize,
    /// Occupant-minutes where the schedule diverges from actual.
    pub divergence: usize,
    /// Fraction of diverging reported episodes the ADM flags (0 = fully
    /// stealthy).
    pub detection_rate: f64,
}

impl AttackOutcome {
    /// Attack-induced extra cost, $.
    pub fn impact_usd(&self) -> f64 {
        self.attacked_cost_usd - self.benign_cost_usd
    }
}

/// Builds the sensor trace the controller sees (and the loads the home
/// really pays for) during the attack: occupant measurements follow the
/// falsified schedule, appliance states are the genuine ones plus the
/// adversarially triggered activations (which draw real power).
pub fn attacked_day_trace(
    actual: &DayTrace,
    schedule: &AttackSchedule,
    triggers: &TriggerPlan,
) -> DayTrace {
    let minutes = (0..MINUTES_PER_DAY)
        .map(|t| {
            let mut rec = MinuteRecord {
                occupants: Vec::new(),
                appliances: Vec::new(),
            };
            fill_attacked_minute(&mut rec, actual, schedule, &triggers.on[t], t);
            Arc::new(rec)
        })
        .collect();
    DayTrace {
        day: actual.day,
        minutes,
    }
}

/// Overwrites `rec` with minute `t` of the attacked trace (see
/// [`attacked_day_trace`]), reusing its buffers; `triggered` are the
/// minute's adversarial activations.
fn fill_attacked_minute(
    rec: &mut MinuteRecord,
    actual: &DayTrace,
    schedule: &AttackSchedule,
    triggered: &[ApplianceId],
    t: usize,
) {
    rec.occupants.clear();
    rec.occupants
        .extend((0..schedule.n_occupants()).map(|o| OccupantState {
            zone: schedule.zones[o][t],
            activity: schedule.activities[o][t],
        }));
    rec.appliances.clear();
    rec.appliances
        .extend_from_slice(&actual.minutes[t].appliances);
    for aid in triggered {
        rec.appliances[aid.index()] = true;
    }
}

/// Evaluates one day of attack: schedule synthesis, optional appliance
/// triggering, pricing of the attacked vs. benign trace.
pub fn evaluate_day(
    model: &EnergyModel,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    scheduler: &dyn Scheduler,
    with_triggering: bool,
) -> AttackOutcome {
    let table = RewardTable::build(model);
    evaluate_day_with_table(model, &table, adm, cap, actual, scheduler, with_triggering)
}

/// Like [`evaluate_day`] but reusing a prebuilt [`RewardTable`] (the table
/// only depends on the energy model, so month-scale sweeps build it once).
pub fn evaluate_day_with_table(
    model: &EnergyModel,
    table: &RewardTable,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    scheduler: &dyn Scheduler,
    with_triggering: bool,
) -> AttackOutcome {
    let schedule = scheduler.schedule(table, adm, cap, actual);
    evaluate_day_with_schedule(model, adm, cap, actual, &schedule, with_triggering, None)
}

/// Evaluates a *precomputed* schedule: [`price_attacked_day`] plus the
/// benign cost, the schedule's divergence from the actual day and its
/// detection rate under `adm`. Schedule synthesis dominates attack
/// evaluation, so callers comparing triggering on/off (Fig. 10, Tables
/// VI–VII) or sweeping defenses against a fixed attack should
/// synthesize once and price each leg; callers that keep only the
/// attacked cost call [`price_attacked_day`] directly.
///
/// `benign_cost_usd` optionally supplies the (schedule-independent)
/// benign day cost so month-scale sweeps can price each genuine day
/// once.
pub fn evaluate_day_with_schedule(
    model: &EnergyModel,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    schedule: &AttackSchedule,
    with_triggering: bool,
    benign_cost_usd: Option<f64>,
) -> AttackOutcome {
    let priced = price_attacked_day(model, adm, cap, actual, schedule, with_triggering);
    AttackOutcome {
        benign_cost_usd: benign_cost_usd
            .unwrap_or_else(|| model.day_cost(&DchvacController, actual).total_usd()),
        attacked_cost_usd: priced.attacked_cost_usd,
        triggered_minutes: priced.triggered_minutes,
        divergence: schedule.divergence(actual),
        detection_rate: detection_rate(adm, schedule, actual),
    }
}

/// The attacked day's price and the triggering behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackedPrice {
    /// Control cost with the attack in place, $.
    pub attacked_cost_usd: f64,
    /// Minutes of adversarial appliance activation.
    pub triggered_minutes: usize,
}

/// Prices a *precomputed* schedule: derive the triggering plan (when
/// `with_triggering`), then cost the falsified day under the DCHVAC
/// controller.
///
/// The attacked day is priced minute by minute from one reused record,
/// never materialized. The record is refilled and pushed to the
/// [`DayPricer`] only at minutes where it can differ from the previous
/// one: the actual record is another allocation (a new run of a shared
/// trace; every minute of a deep-copied one), an occupant's reported
/// zone or activity changes, or the triggered set changes. Every other
/// minute goes through [`DayPricer::push_unchanged`], so the cost is
/// bit-identical to pricing [`attacked_day_trace`] with
/// [`EnergyModel::day_cost`]. On the Table VI sweep a leg refills about
/// 42 of its 1,440 minutes.
pub fn price_attacked_day(
    model: &EnergyModel,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    schedule: &AttackSchedule,
    with_triggering: bool,
) -> AttackedPrice {
    let triggers = with_triggering.then(|| plan_triggers(model.home(), adm, cap, actual, schedule));
    let triggered_at = |t: usize| triggers.as_ref().map_or(&[][..], |p| &p.on[t][..]);
    let mut pricer = DayPricer::new(model, &DchvacController);
    let mut rec = MinuteRecord {
        occupants: Vec::with_capacity(schedule.n_occupants()),
        appliances: Vec::with_capacity(model.home().appliances().len()),
    };
    for t in 0..MINUTES_PER_DAY {
        let changed = t == 0
            || !Arc::ptr_eq(&actual.minutes[t], &actual.minutes[t - 1])
            || schedule.zones.iter().any(|row| row[t] != row[t - 1])
            || schedule.activities.iter().any(|row| row[t] != row[t - 1])
            || triggered_at(t) != triggered_at(t - 1);
        if changed {
            fill_attacked_minute(&mut rec, actual, schedule, triggered_at(t), t);
            pricer.push(&rec);
        } else {
            pricer.push_unchanged();
        }
    }
    AttackedPrice {
        attacked_cost_usd: pricer.total_usd(),
        triggered_minutes: triggers.as_ref().map_or(0, TriggerPlan::total_minutes),
    }
}

/// Evaluates an attack over many days (e.g. a month), reusing one reward
/// table.
pub fn evaluate_days(
    model: &EnergyModel,
    adm: &HullAdm,
    cap: &AttackerCapability,
    days: &[DayTrace],
    scheduler: &dyn Scheduler,
    with_triggering: bool,
) -> Vec<AttackOutcome> {
    let table = RewardTable::build(model);
    days.iter()
        .map(|d| evaluate_day_with_table(model, &table, adm, cap, d, scheduler, with_triggering))
        .collect()
}

/// Sums attacked cost over outcomes, $.
pub fn total_attacked_usd(outcomes: &[AttackOutcome]) -> f64 {
    outcomes.iter().map(|o| o.attacked_cost_usd).sum()
}

/// Sums benign cost over outcomes, $.
pub fn total_benign_usd(outcomes: &[AttackOutcome]) -> f64 {
    outcomes.iter().map(|o| o.benign_cost_usd).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BiotaScheduler, GreedyScheduler, WindowDpScheduler};
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
    use shatter_smarthome::houses;

    fn setup() -> (
        EnergyModel,
        shatter_dataset::Dataset,
        HullAdm,
        AttackerCapability,
    ) {
        let home = houses::aras_house_a();
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 61));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
        let model = EnergyModel::standard(home.clone());
        let cap = AttackerCapability::full(&home);
        (model, ds, adm, cap)
    }

    #[test]
    fn attack_increases_cost() {
        let (model, ds, adm, cap) = setup();
        let out = evaluate_day(
            &model,
            &adm,
            &cap,
            &ds.days[10],
            &WindowDpScheduler::default(),
            true,
        );
        assert!(
            out.attacked_cost_usd > out.benign_cost_usd,
            "attack {} vs benign {}",
            out.attacked_cost_usd,
            out.benign_cost_usd
        );
        assert!(out.detection_rate <= 0.05);
    }

    #[test]
    fn triggering_adds_impact() {
        // Paper Fig. 10: appliance triggering raises cost further (~20%).
        let (model, ds, adm, cap) = setup();
        let day = &ds.days[11];
        let without = evaluate_day(
            &model,
            &adm,
            &cap,
            day,
            &WindowDpScheduler::default(),
            false,
        );
        let with = evaluate_day(&model, &adm, &cap, day, &WindowDpScheduler::default(), true);
        assert!(with.attacked_cost_usd >= without.attacked_cost_usd);
    }

    #[test]
    fn biota_raw_cost_highest_but_detected() {
        let (model, ds, adm, cap) = setup();
        let day = &ds.days[10];
        let biota = evaluate_day(&model, &adm, &cap, day, &BiotaScheduler, false);
        let shatter = evaluate_day(
            &model,
            &adm,
            &cap,
            day,
            &WindowDpScheduler::default(),
            false,
        );
        assert!(biota.attacked_cost_usd >= shatter.attacked_cost_usd * 0.9);
        assert!(
            biota.detection_rate >= 0.5,
            "biota detection {}",
            biota.detection_rate
        );
        assert!(shatter.detection_rate <= 0.05);
    }

    #[test]
    fn greedy_weaker_than_dp_over_days() {
        let (model, ds, adm, cap) = setup();
        let dp = evaluate_days(
            &model,
            &adm,
            &cap,
            &ds.days[10..12],
            &WindowDpScheduler::default(),
            false,
        );
        let greedy = evaluate_days(
            &model,
            &adm,
            &cap,
            &ds.days[10..12],
            &GreedyScheduler,
            false,
        );
        assert!(total_attacked_usd(&dp) >= total_attacked_usd(&greedy) * 0.95);
    }

    #[test]
    fn schedule_reuse_matches_direct_evaluation() {
        let (model, ds, adm, cap) = setup();
        let day = &ds.days[10];
        let table = RewardTable::build(&model);
        let scheduler = WindowDpScheduler::default();
        let direct = evaluate_day_with_table(&model, &table, &adm, &cap, day, &scheduler, true);
        let sched = scheduler.schedule(&table, &adm, &cap, day);
        let benign = model.day_cost(&DchvacController, day).total_usd();
        let reused =
            evaluate_day_with_schedule(&model, &adm, &cap, day, &sched, true, Some(benign));
        assert_eq!(direct.attacked_cost_usd, reused.attacked_cost_usd);
        assert_eq!(direct.benign_cost_usd, reused.benign_cost_usd);
        assert_eq!(direct.divergence, reused.divergence);
        assert_eq!(direct.detection_rate, reused.detection_rate);
        let priced = price_attacked_day(&model, &adm, &cap, day, &sched, true);
        assert_eq!(priced.attacked_cost_usd, reused.attacked_cost_usd);
        assert_eq!(priced.triggered_minutes, reused.triggered_minutes);
    }

    #[test]
    fn attacked_trace_preserves_genuine_appliances() {
        let (model, ds, adm, cap) = setup();
        let day = &ds.days[10];
        let table = RewardTable::build(&model);
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let triggers = plan_triggers(model.home(), &adm, &cap, day, &sched);
        let attacked = attacked_day_trace(day, &sched, &triggers);
        for (t, rec) in attacked.minutes.iter().enumerate() {
            for (a, &on) in day.minutes[t].appliances.iter().enumerate() {
                if on {
                    assert!(rec.appliances[a], "genuine appliance state dropped");
                }
            }
        }
    }
}
