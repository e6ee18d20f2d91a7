//! The BIoTA baseline attack (Haque et al., SECON 2021), reconstructed as
//! a scheduler: a greedy FDI attack constrained only by *rule-based*
//! verification — zone capacity and occupant-count conservation — with no
//! awareness of learned behavioural clusters.
//!
//! BIoTA's attack vectors achieve the highest raw cost (paper Table V) but
//! are "very naive and maintain a large margin from the benign data
//! distribution" (§VII-A), so a clustering ADM flags 60–100% of them —
//! SHATTER's motivating observation.

use shatter_adm::HullAdm;
use shatter_dataset::DayTrace;
use shatter_smarthome::{Minute, OccupantId, ZoneId, MINUTES_PER_DAY};

use crate::schedule::{AttackSchedule, Scheduler};
use crate::{AttackerCapability, RewardTable};

/// The rule-constrained BIoTA attack scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BiotaScheduler;

impl Scheduler for BiotaScheduler {
    fn schedule_occupant_zones(
        &self,
        o: OccupantId,
        table: &RewardTable,
        _adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> Vec<ZoneId> {
        let n_zones = table.n_zones();
        let mut row = Vec::with_capacity(MINUTES_PER_DAY);
        for t in 0..MINUTES_PER_DAY {
            let actual_zone = actual.minutes[t].occupants[o.index()].zone;
            // Most rewarding zone reachable this minute; no behavioural
            // constraint whatsoever.
            let best = (0..n_zones)
                .map(ZoneId)
                .filter(|&z| cap.can_relocate(o, actual_zone, z, t as Minute))
                .max_by(|&a, &b| {
                    table
                        .rate(o, a, t as Minute)
                        .partial_cmp(&table.rate(o, b, t as Minute))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(actual_zone);
            row.push(best);
        }
        row
    }

    fn name(&self) -> &'static str {
        "BIoTA (rule-based)"
    }
}

/// Fraction of a schedule's *diverging* episodes (those that do not
/// exactly mirror actual behaviour) flagged anomalous by the ADM — the
/// paper's "(60–100)% of BIoTA-identified attack vectors detected".
pub fn detection_rate(adm: &HullAdm, schedule: &AttackSchedule, actual: &DayTrace) -> f64 {
    let mut diverging = 0usize;
    let mut flagged = 0usize;
    for (_, stealthy) in schedule.diverging_episodes(adm, actual) {
        diverging += 1;
        flagged += usize::from(!stealthy);
    }
    if diverging == 0 {
        0.0
    } else {
        flagged as f64 / diverging as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheduler, WindowDpScheduler};
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
    use shatter_hvac::EnergyModel;
    use shatter_smarthome::houses;

    fn setup() -> (
        shatter_dataset::Dataset,
        HullAdm,
        RewardTable,
        AttackerCapability,
    ) {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 51));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_dbscan());
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let cap = AttackerCapability::full(&houses::aras_house_a());
        (ds, adm, table, cap)
    }

    #[test]
    fn biota_reward_exceeds_shatter_reward() {
        // Unconstrained by the ADM, BIoTA claims more reward...
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let biota = BiotaScheduler
            .schedule(&table, &adm, &cap, day)
            .reward(&table);
        let shatter = WindowDpScheduler::default()
            .schedule(&table, &adm, &cap, day)
            .reward(&table);
        assert!(biota >= shatter, "biota {biota} vs shatter {shatter}");
    }

    #[test]
    fn biota_is_heavily_detected() {
        // ...but the ADM flags the majority of its episodes (paper: 60–100%).
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = BiotaScheduler.schedule(&table, &adm, &cap, day);
        let rate = detection_rate(&adm, &sched, day);
        assert!(rate >= 0.6, "detection rate {rate}");
    }

    #[test]
    fn shatter_detection_rate_is_low() {
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let rate = detection_rate(&adm, &sched, day);
        assert!(rate <= 0.05, "SHATTER detection rate {rate}");
    }

    #[test]
    fn biota_parks_occupants_in_kitchen() {
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = BiotaScheduler.schedule(&table, &adm, &cap, day);
        // Kitchen (zone 3) is the highest-rate zone; BIoTA should report it
        // for the large majority of slots.
        let kitchen_slots = sched.zones[0].iter().filter(|&&z| z == ZoneId(3)).count();
        assert!(kitchen_slots > 1200, "kitchen slots {kitchen_slots}");
    }
}
