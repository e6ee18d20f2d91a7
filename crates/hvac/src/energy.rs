use shatter_dataset::{DayTrace, MinuteRecord};
use shatter_smarthome::{
    activity_pollutant_cfm, co2_emission_cfm, heat_radiation_watts, Activity, ApplianceId, Home,
    Minute, OccupantId, ZoneId, MINUTES_PER_DAY,
};

use crate::controller::{
    cooling_cfm, ventilation_cfm, ControlDecision, Controller, CFM_DT_TO_WATTS,
};
use crate::params::{ControllerParams, OutdoorModel, Pricing};

/// Energy drawn during one sampling slot (Eq. 3 split into its two terms).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MinuteEnergy {
    /// AHU thermal-equivalent electrical energy, kWh.
    pub hvac_kwh: f64,
    /// Appliance electrical energy, kWh.
    pub appliance_kwh: f64,
}

impl MinuteEnergy {
    /// Total energy for the slot.
    pub fn total_kwh(&self) -> f64 {
        self.hvac_kwh + self.appliance_kwh
    }
}

/// A day's energy/cost accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DayCost {
    /// Per-minute energy breakdown (1440 entries).
    pub minutes: Vec<MinuteEnergy>,
    /// Total HVAC cost in dollars (after battery peak-shaving).
    pub hvac_usd: f64,
    /// Total appliance cost in dollars.
    pub appliance_usd: f64,
}

impl DayCost {
    /// Total daily cost in dollars.
    pub fn total_usd(&self) -> f64 {
        self.hvac_usd + self.appliance_usd
    }

    /// Total daily energy in kWh.
    pub fn total_kwh(&self) -> f64 {
        self.minutes.iter().map(MinuteEnergy::total_kwh).sum()
    }
}

/// Eq. 3 + Eq. 4 over one day, fed one minute record at a time in minute
/// order: the accumulation behind [`EnergyModel::day_cost`], and the
/// whole pricing loop for callers that build records in a reused buffer
/// instead of materializing a [`DayTrace`].
///
/// Records come in runs: a day of sensor readings changes a few dozen
/// times, not 1,440. A [`ControlDecision`] depends on the record alone
/// (see [`Controller`]), so the pricer keeps the last record and reuses
/// its decision and its appliance watts while the record is unchanged;
/// only a changed record calls the controller. A caller that already
/// knows a minute repeats the last record prices it with
/// [`DayPricer::push_unchanged`], which skips building and comparing the
/// record. Every minute still computes its own HVAC watts, at that
/// minute's outdoor temperature, and its Eq. 4 price, so the result is
/// bit-identical to deciding afresh each minute. Pricing a minute
/// allocates nothing once the first minute has sized the buffers.
pub struct DayPricer<'a> {
    model: &'a EnergyModel,
    controller: &'a dyn Controller,
    /// The record `decision` and `appliance_w` were computed from;
    /// meaningful once `minute > 0`.
    last: MinuteRecord,
    decision: ControlDecision,
    appliance_w: f64,
    minute: Minute,
    peak_kwh: f64,
    hvac_usd: f64,
    appliance_usd: f64,
}

impl<'a> DayPricer<'a> {
    /// Starts pricing a day at minute 0.
    pub fn new(model: &'a EnergyModel, controller: &'a dyn Controller) -> DayPricer<'a> {
        DayPricer {
            model,
            controller,
            last: MinuteRecord {
                occupants: Vec::new(),
                appliances: Vec::new(),
            },
            decision: ControlDecision::default(),
            appliance_w: 0.0,
            minute: 0,
            peak_kwh: 0.0,
            hvac_usd: 0.0,
            appliance_usd: 0.0,
        }
    }

    /// Prices the next minute's record: its energy (Eq. 3), returned, and
    /// its cost at the battery-adjusted price (Eq. 4), accumulated.
    pub fn push(&mut self, record: &MinuteRecord) -> MinuteEnergy {
        if self.minute == 0 || *record != self.last {
            let model = self.model;
            self.controller
                .control_into(&model.home, record, &model.params, &mut self.decision);
            self.appliance_w = model.appliance_watts(record);
            self.last.occupants.clone_from(&record.occupants);
            self.last.appliances.clone_from(&record.appliances);
        }
        self.price_minute()
    }

    /// Prices the next minute as a repeat of the last pushed record: the
    /// kept decision and appliance watts at this minute's outdoor
    /// temperature (Eq. 3) and price (Eq. 4), which is exactly what
    /// [`DayPricer::push`] does when handed that record again.
    ///
    /// # Panics
    ///
    /// Before the first [`DayPricer::push`], when there is no record to
    /// repeat.
    pub fn push_unchanged(&mut self) -> MinuteEnergy {
        assert!(self.minute > 0, "push_unchanged before the first push");
        self.price_minute()
    }

    /// Eq. 3 and Eq. 4 for the next minute under the kept decision.
    fn price_minute(&mut self) -> MinuteEnergy {
        let minute = self.minute;
        let e = self
            .model
            .slot_energy(&self.decision, self.appliance_w, minute);
        if self.model.pricing.is_peak(minute) {
            self.peak_kwh += e.total_kwh();
        }
        let price = self.model.pricing.price_at(minute, self.peak_kwh);
        self.hvac_usd += e.hvac_kwh * price;
        self.appliance_usd += e.appliance_kwh * price;
        self.minute += 1;
        e
    }

    /// Cost of the minutes pushed so far, $ (same sum as
    /// [`DayCost::total_usd`]).
    pub fn total_usd(&self) -> f64 {
        self.hvac_usd + self.appliance_usd
    }
}

/// The home's energy/cost model: combines a [`Home`], controller
/// parameters, outdoor weather, and pricing into Eq. 3 / Eq. 4 evaluations.
///
/// The outdoor temperature of every minute of the day is computed once,
/// when the model is built; the weather model is read-only afterwards
/// ([`EnergyModel::outdoor`]) so that table cannot go stale.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    home: Home,
    /// Control-loop parameters.
    pub params: ControllerParams,
    outdoor: OutdoorModel,
    /// `outdoor.temp_at(t)` for every minute `t` of the day.
    t_out: Box<[f64]>,
    /// Tariff and battery model.
    pub pricing: Pricing,
}

impl EnergyModel {
    /// Builds a model with the standard evaluation parameters.
    pub fn standard(home: Home) -> Self {
        EnergyModel::new(
            home,
            ControllerParams::default(),
            OutdoorModel::default(),
            Pricing::default(),
        )
    }

    /// Builds a model with explicit parameters.
    pub fn new(
        home: Home,
        params: ControllerParams,
        outdoor: OutdoorModel,
        pricing: Pricing,
    ) -> Self {
        let t_out = (0..MINUTES_PER_DAY as Minute)
            .map(|t| outdoor.temp_at(t))
            .collect();
        EnergyModel {
            home,
            params,
            outdoor,
            t_out,
            pricing,
        }
    }

    /// The modelled home.
    pub fn home(&self) -> &Home {
        &self.home
    }

    /// Outdoor weather model.
    pub fn outdoor(&self) -> &OutdoorModel {
        &self.outdoor
    }

    /// Outdoor temperature at `minute`: the precomputed value within the
    /// day, the weather model's beyond it.
    fn temp_at(&self, minute: Minute) -> f64 {
        match self.t_out.get(minute as usize) {
            Some(&t) => t,
            None => self.outdoor.temp_at(minute),
        }
    }

    /// Energy drawn during one slot under a controller's decision (Eq. 3).
    ///
    /// The AHU conditions each zone's supply air from the mixed-air
    /// temperature `P^TM` (fresh fraction × outdoor + return fraction ×
    /// zone setpoint) down to the supply temperature.
    pub fn minute_energy(
        &self,
        controller: &dyn Controller,
        record: &MinuteRecord,
        minute: Minute,
    ) -> MinuteEnergy {
        let decision = controller.control(&self.home, record, &self.params);
        self.slot_energy(&decision, self.appliance_watts(record), minute)
    }

    /// Electrical draw of the appliances `record` reports on, watts.
    fn appliance_watts(&self, record: &MinuteRecord) -> f64 {
        record
            .appliances
            .iter()
            .zip(self.home.appliances())
            .filter(|(&on, _)| on)
            .map(|(_, a)| a.power_watts)
            .sum()
    }

    /// Eq. 3 at `minute` for a decided slot: the AHU's draw under
    /// `decision` at the minute's outdoor temperature plus `appliance_w`.
    fn slot_energy(
        &self,
        decision: &ControlDecision,
        appliance_w: f64,
        minute: Minute,
    ) -> MinuteEnergy {
        let t_out = self.temp_at(minute);
        let dt_min = self.params.sample_minutes;
        let mut hvac_w = 0.0;
        for z in self.home.zones() {
            let q = decision.zone_cfm[z.id.index()];
            if q <= 0.0 {
                continue;
            }
            let f = decision.fresh_fraction[z.id.index()];
            let t_mix = f * t_out + (1.0 - f) * self.params.zone_setpoint_f;
            let dt = (t_mix - self.params.supply_temp_f).max(0.0);
            hvac_w += q * dt * CFM_DT_TO_WATTS;
        }
        MinuteEnergy {
            hvac_kwh: hvac_w * dt_min / 60_000.0,
            appliance_kwh: appliance_w * dt_min / 60_000.0,
        }
    }

    /// Full-day energy and cost under a controller (Eq. 3 + Eq. 4).
    pub fn day_cost(&self, controller: &dyn Controller, day: &DayTrace) -> DayCost {
        let mut pricer = DayPricer::new(self, controller);
        let minutes = day.minutes.iter().map(|rec| pricer.push(rec)).collect();
        DayCost {
            minutes,
            hvac_usd: pricer.hvac_usd,
            appliance_usd: pricer.appliance_usd,
        }
    }

    /// Cost of every day in a dataset, in order.
    pub fn dataset_costs(&self, controller: &dyn Controller, days: &[DayTrace]) -> Vec<DayCost> {
        days.iter().map(|d| self.day_cost(controller, d)).collect()
    }

    /// Marginal HVAC cost rate ($/min, battery ignored) of one occupant
    /// performing `activity` in `zone` at `minute` under the
    /// activity-aware controller — the per-slot reward the attack
    /// scheduler maximizes (paper Eq. 17).
    pub fn occupant_cost_rate(
        &self,
        occupant: OccupantId,
        zone: ZoneId,
        activity: Activity,
        minute: Minute,
    ) -> f64 {
        if !self.home.zones()[zone.index()].conditioned {
            return 0.0;
        }
        let profile = self.home.occupants()[occupant.index()].metabolic_profile();
        let co2 = co2_emission_cfm(profile, activity) + activity_pollutant_cfm(activity);
        let heat = heat_radiation_watts(profile, activity);
        let vent = ventilation_cfm(co2, &self.params);
        let cool = cooling_cfm(heat, &self.params);
        let q = vent.max(cool).min(self.params.max_zone_cfm);
        let f = if q > 0.0 { (vent / q).min(1.0) } else { 0.0 };
        let t_out = self.temp_at(minute);
        let t_mix = f * t_out + (1.0 - f) * self.params.zone_setpoint_f;
        let dt = (t_mix - self.params.supply_temp_f).max(0.0);
        let hvac_w = q * dt * CFM_DT_TO_WATTS;
        let kwh = hvac_w * self.params.sample_minutes / 60_000.0;
        kwh * self.pricing.price_at(minute, f64::INFINITY)
    }

    /// Marginal cost rate ($/min, battery ignored) of an appliance being
    /// on at `minute`: electrical draw plus the extra cooling airflow its
    /// heat forces.
    pub fn appliance_cost_rate(&self, appliance: ApplianceId, minute: Minute) -> f64 {
        let a = &self.home.appliances()[appliance.index()];
        let cool = cooling_cfm(a.heat_watts(), &self.params).min(self.params.max_zone_cfm);
        let t_out = self.temp_at(minute);
        // Cooling air for appliance heat is pure return air (no CO₂ demand).
        let t_mix = self.params.zone_setpoint_f.min(t_out);
        let dt = (t_mix - self.params.supply_temp_f).max(0.0);
        let hvac_w = cool * dt * CFM_DT_TO_WATTS;
        let kwh = (hvac_w + a.power_watts) * self.params.sample_minutes / 60_000.0;
        kwh * self.pricing.price_at(minute, f64::INFINITY)
    }

    /// The most expensive activity an occupant can "perform" in a zone at a
    /// minute, with its cost rate — used by attack schedulers to pick the
    /// reported activity.
    pub fn best_activity_for(
        &self,
        occupant: OccupantId,
        zone: ZoneId,
        minute: Minute,
        plausible: &[Activity],
    ) -> Option<(Activity, f64)> {
        plausible
            .iter()
            .map(|&a| (a, self.occupant_cost_rate(occupant, zone, a, minute)))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AshraeController, DchvacController};
    use shatter_dataset::{synthesize, HouseSpec, OccupantState, SynthConfig};
    use shatter_smarthome::houses;

    fn model() -> EnergyModel {
        EnergyModel::standard(houses::aras_house_a())
    }

    #[test]
    fn hand_computed_minute_energy() {
        let m = model();
        // One occupant sleeping in the bedroom, nothing else.
        let rec = MinuteRecord {
            occupants: vec![
                OccupantState {
                    zone: ZoneId(1),
                    activity: Activity::Sleeping,
                },
                OccupantState {
                    zone: ZoneId(0),
                    activity: Activity::GoingOut,
                },
            ],
            appliances: vec![false; 13],
        };
        // Loads: co2 = 0.011 * 0.95 = 0.01045 cfm; heat = 63 * 0.95 = 59.85 W.
        // vent = 0.01045e6 / 380 = 27.5 CFM; cool = 59.85/(0.3167*17) = 11.1 CFM.
        // q = 27.5 (vent-dominated, fully fresh air).
        let e = m.minute_energy(&DchvacController, &rec, 0);
        let t_out = m.outdoor().temp_at(0);
        let expected_w = 27.5 * (t_out - 55.0) * 0.3167;
        assert!(
            (e.hvac_kwh - expected_w / 60_000.0).abs() < 1e-6,
            "got {} expected {}",
            e.hvac_kwh,
            expected_w / 60_000.0
        );
        assert_eq!(e.appliance_kwh, 0.0);
    }

    #[test]
    fn ashrae_costs_roughly_double_dchvac() {
        // Paper Fig. 3: proposed controller is ~48–53% cheaper.
        for (kind, seed) in [(HouseSpec::aras_a(), 3u64), (HouseSpec::aras_b(), 4)] {
            let home = kind.home.build();
            let m = EnergyModel::standard(home);
            let data = synthesize(&SynthConfig::new(kind.clone(), 5, seed));
            let dchvac: f64 = m
                .dataset_costs(&DchvacController, &data.days)
                .iter()
                .map(DayCost::total_usd)
                .sum();
            let ashrae: f64 = m
                .dataset_costs(&AshraeController::default(), &data.days)
                .iter()
                .map(DayCost::total_usd)
                .sum();
            let savings = 1.0 - dchvac / ashrae;
            assert!(
                (0.30..0.70).contains(&savings),
                "{kind:?}: savings {savings} (dchvac {dchvac}, ashrae {ashrae})"
            );
        }
    }

    #[test]
    fn benign_daily_cost_in_paper_range() {
        // Paper Fig. 3/10: single-digit dollars per day for House A.
        let m = model();
        let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 5, 9));
        for d in m.dataset_costs(&DchvacController, &data.days) {
            let usd = d.total_usd();
            assert!((1.0..15.0).contains(&usd), "daily cost {usd}");
        }
    }

    #[test]
    fn kitchen_is_most_rewarding_zone() {
        // The case study quotes the kitchen as the highest-cost zone for
        // both HVAC control and appliance triggering.
        let m = model();
        let busy = Activity::PreparingDinner;
        let kitchen = m.occupant_cost_rate(OccupantId(0), ZoneId(3), busy, 1100);
        for (z, act) in [
            (ZoneId(1), Activity::Sleeping),
            (ZoneId(2), Activity::WatchingTv),
        ] {
            let other = m.occupant_cost_rate(OccupantId(0), z, act, 1100);
            assert!(kitchen > other);
        }
    }

    #[test]
    fn outside_zone_costs_nothing() {
        let m = model();
        assert_eq!(
            m.occupant_cost_rate(OccupantId(0), ZoneId(0), Activity::GoingOut, 600),
            0.0
        );
    }

    #[test]
    fn appliance_rate_scales_with_power() {
        let m = model();
        let home = houses::aras_house_a();
        let dryer = home
            .appliances()
            .iter()
            .position(|a| a.name == "Dryer")
            .unwrap();
        let tv = home
            .appliances()
            .iter()
            .position(|a| a.name == "Television")
            .unwrap();
        assert!(
            m.appliance_cost_rate(ApplianceId(dryer), 600)
                > m.appliance_cost_rate(ApplianceId(tv), 600)
        );
    }

    #[test]
    fn day_cost_consistent_with_minutes() {
        let m = model();
        let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 1, 2));
        let dc = m.day_cost(&DchvacController, &data.days[0]);
        assert_eq!(dc.minutes.len(), 1440);
        // Costs bounded by kWh × max price.
        let max_cost = dc.total_kwh() * m.pricing.peak_usd_per_kwh;
        let min_cost = dc.total_kwh() * m.pricing.offpeak_usd_per_kwh;
        let total = dc.total_usd();
        assert!(total <= max_cost + 1e-9 && total >= min_cost - 1e-9);
    }

    #[test]
    fn battery_reduces_peak_cost() {
        let home = houses::aras_house_a();
        let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 1, 2));
        let mut cheap = EnergyModel::standard(home.clone());
        cheap.pricing.battery_kwh = 5.0;
        let mut none = EnergyModel::standard(home);
        none.pricing.battery_kwh = 0.0;
        let with_batt = cheap.day_cost(&DchvacController, &data.days[0]).total_usd();
        let without = none.day_cost(&DchvacController, &data.days[0]).total_usd();
        assert!(with_batt < without);
    }
}
