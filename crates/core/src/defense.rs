//! Defense analytics on top of the attack analyzer.
//!
//! The paper's closing argument (§VII-D) is that SHATTER's attack vectors
//! are a *defense guide*: by re-running the analyzer under restricted
//! attacker capabilities, a designer learns which sensors and appliances
//! are worth hardening. This module turns that workflow into an API:
//! marginal-value rankings for zone-sensor hardening and appliance
//! de-voicing, and a greedy hardening plan under a budget.

use shatter_adm::HullAdm;
use shatter_dataset::DayTrace;
use shatter_hvac::EnergyModel;
use shatter_smarthome::{ApplianceId, ZoneId};

use crate::impact::{evaluate_day_with_table, total_attacked_usd, total_benign_usd};
use crate::{AttackerCapability, RewardTable, Scheduler};

/// One ranked hardening option.
#[derive(Debug, Clone, PartialEq)]
pub struct HardeningOption {
    /// What to harden.
    pub target: HardeningTarget,
    /// Attack-impact dollars removed by hardening it (relative to the
    /// current capability).
    pub impact_removed_usd: f64,
}

/// A hardenable asset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardeningTarget {
    /// Protect one zone's occupancy/IAQ sensing (drop it from `Z^A`).
    ZoneSensors(ZoneId),
    /// Remove one appliance's voice-command reachability (drop from `D^A`).
    Appliance(ApplianceId),
}

/// Attack impact (attacked − benign dollars) over the given days under a
/// capability. `table` is `model`'s reward table, built once by the
/// caller for every capability an analysis tries.
pub fn attack_impact_usd(
    model: &EnergyModel,
    table: &RewardTable,
    adm: &HullAdm,
    cap: &AttackerCapability,
    days: &[DayTrace],
    scheduler: &dyn Scheduler,
) -> f64 {
    let outcomes: Vec<_> = days
        .iter()
        .map(|d| evaluate_day_with_table(model, table, adm, cap, d, scheduler, true))
        .collect();
    total_attacked_usd(&outcomes) - total_benign_usd(&outcomes)
}

/// Ranks every single-asset hardening step by the attack impact it
/// removes, highest first.
pub fn rank_hardening(
    model: &EnergyModel,
    table: &RewardTable,
    adm: &HullAdm,
    cap: &AttackerCapability,
    days: &[DayTrace],
    scheduler: &dyn Scheduler,
) -> Vec<HardeningOption> {
    let baseline = attack_impact_usd(model, table, adm, cap, days, scheduler);
    let mut options = Vec::new();

    for z in model.home().indoor_zones() {
        if !cap.zones.contains(&z.id) {
            continue;
        }
        let mut c = cap.clone();
        c.zones.remove(&z.id);
        let left = attack_impact_usd(model, table, adm, &c, days, scheduler);
        options.push(HardeningOption {
            target: HardeningTarget::ZoneSensors(z.id),
            impact_removed_usd: baseline - left,
        });
    }
    for a in model.home().appliances() {
        if !cap.appliances.contains(&a.id) {
            continue;
        }
        let mut c = cap.clone();
        c.appliances.remove(&a.id);
        let left = attack_impact_usd(model, table, adm, &c, days, scheduler);
        options.push(HardeningOption {
            target: HardeningTarget::Appliance(a.id),
            impact_removed_usd: baseline - left,
        });
    }
    options.sort_by(|a, b| {
        b.impact_removed_usd
            .partial_cmp(&a.impact_removed_usd)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    options
}

/// Greedily picks up to `budget` hardening steps, re-evaluating marginal
/// value after each pick (submodular-style greedy). Returns the chosen
/// steps with their *marginal* impact reduction and the residual attack
/// impact.
pub fn greedy_hardening_plan(
    model: &EnergyModel,
    table: &RewardTable,
    adm: &HullAdm,
    cap: &AttackerCapability,
    days: &[DayTrace],
    scheduler: &dyn Scheduler,
    budget: usize,
) -> (Vec<HardeningOption>, f64) {
    let mut current = cap.clone();
    let mut plan = Vec::new();
    for _ in 0..budget {
        let ranked = rank_hardening(model, table, adm, &current, days, scheduler);
        let Some(best) = ranked.into_iter().next() else {
            break;
        };
        if best.impact_removed_usd <= 0.0 {
            break;
        }
        match best.target {
            HardeningTarget::ZoneSensors(z) => {
                current.zones.remove(&z);
            }
            HardeningTarget::Appliance(a) => {
                current.appliances.remove(&a);
            }
        }
        plan.push(best);
    }
    let residual = attack_impact_usd(model, table, adm, &current, days, scheduler);
    (plan, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowDpScheduler;
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
    use shatter_smarthome::houses;

    fn setup() -> (
        EnergyModel,
        RewardTable,
        shatter_dataset::Dataset,
        HullAdm,
        AttackerCapability,
    ) {
        let home = houses::aras_house_a();
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 91));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_dbscan());
        let model = EnergyModel::standard(home.clone());
        let table = RewardTable::build(&model);
        let cap = AttackerCapability::full(&home);
        (model, table, ds, adm, cap)
    }

    #[test]
    fn ranking_covers_all_assets() {
        let (model, table, ds, adm, cap) = setup();
        let ranked = rank_hardening(
            &model,
            &table,
            &adm,
            &cap,
            &ds.days[10..11],
            &WindowDpScheduler::default(),
        );
        // 4 indoor zones + 13 appliances.
        assert_eq!(ranked.len(), 17);
        // Sorted descending.
        for w in ranked.windows(2) {
            assert!(w[0].impact_removed_usd >= w[1].impact_removed_usd - 1e-12);
        }
    }

    #[test]
    fn hardening_never_helps_the_attacker_much() {
        let (model, table, ds, adm, cap) = setup();
        let ranked = rank_hardening(
            &model,
            &table,
            &adm,
            &cap,
            &ds.days[10..11],
            &WindowDpScheduler::default(),
        );
        // Restricting the attacker can only remove impact (small numeric
        // slack for scheduler tie-breaking).
        for opt in &ranked {
            assert!(
                opt.impact_removed_usd >= -0.25,
                "{:?} increased impact by {}",
                opt.target,
                -opt.impact_removed_usd
            );
        }
    }

    #[test]
    fn greedy_plan_reduces_residual_impact() {
        let (model, table, ds, adm, cap) = setup();
        let days = &ds.days[10..11];
        let sched = WindowDpScheduler::default();
        let baseline = attack_impact_usd(&model, &table, &adm, &cap, days, &sched);
        let (plan, residual) = greedy_hardening_plan(&model, &table, &adm, &cap, days, &sched, 3);
        assert!(!plan.is_empty());
        assert!(
            residual <= baseline + 1e-9,
            "residual {residual} vs baseline {baseline}"
        );
    }

    #[test]
    fn zone_hardening_dominates_appliance_hardening() {
        // Paper §VII-D: "the defense mechanism should focus on securing
        // occupancy and IAQ measurements compared to appliances."
        let (model, table, ds, adm, cap) = setup();
        let ranked = rank_hardening(
            &model,
            &table,
            &adm,
            &cap,
            &ds.days[10..12],
            &WindowDpScheduler::default(),
        );
        let best_zone = ranked
            .iter()
            .find(|o| matches!(o.target, HardeningTarget::ZoneSensors(_)))
            .expect("zone option exists");
        let best_appliance = ranked
            .iter()
            .find(|o| matches!(o.target, HardeningTarget::Appliance(_)))
            .expect("appliance option exists");
        assert!(
            best_zone.impact_removed_usd >= best_appliance.impact_removed_usd * 0.5,
            "zone {} vs appliance {}",
            best_zone.impact_removed_usd,
            best_appliance.impact_removed_usd
        );
    }
}
