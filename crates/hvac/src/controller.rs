use shatter_dataset::MinuteRecord;
use shatter_smarthome::{
    activity_pollutant_cfm, co2_emission_cfm, heat_radiation_watts, Home, ZoneId,
};

use crate::params::ControllerParams;

/// CFM × ΔT(°F) → watts conversion factor (the paper's 0.3167 constant:
/// 1.08 BTU/h per CFM·°F ≈ 0.3167 W).
pub(crate) const CFM_DT_TO_WATTS: f64 = 0.3167;

/// Actuation decided by a controller for one sensor record.
///
/// A decision is a function of `(home, record, params)` only, so it holds
/// for every minute that reports the same record; [`DayPricer`] keeps it
/// across such runs of minutes. Its buffers are reusable too:
/// [`Controller::control_into`] overwrites it in place, keeping them (and
/// the zone-load scratch the controller sizes airflow from).
///
/// [`DayPricer`]: crate::DayPricer
#[derive(Debug, Clone, Default)]
pub struct ControlDecision {
    /// Total supply airflow per zone (CFM), indexed by zone id.
    pub zone_cfm: Vec<f64>,
    /// Fresh (outside) air fraction of each zone's supply airflow in
    /// `[0, 1]`; the rest is recirculated return air.
    pub fresh_fraction: Vec<f64>,
    /// Zone-load scratch of the last [`Controller::control_into`] call.
    loads: Vec<ZoneLoads>,
}

impl PartialEq for ControlDecision {
    /// Decisions compare by actuation; the load scratch is not part of it.
    fn eq(&self, other: &ControlDecision) -> bool {
        self.zone_cfm == other.zone_cfm && self.fresh_fraction == other.fresh_fraction
    }
}

impl ControlDecision {
    /// Airflow for one zone.
    pub fn cfm(&self, zone: ZoneId) -> f64 {
        self.zone_cfm[zone.index()]
    }

    /// Total supply airflow across zones.
    pub fn total_cfm(&self) -> f64 {
        self.zone_cfm.iter().sum()
    }

    /// Fills the load scratch from `record` and zeroes the actuation for
    /// `home`'s zones, reusing every buffer.
    fn reset(&mut self, home: &Home, record: &MinuteRecord) {
        zone_loads_into(home, record, &mut self.loads);
        let n = home.zones().len();
        for v in [&mut self.zone_cfm, &mut self.fresh_fraction] {
            v.clear();
            v.resize(n, 0.0);
        }
    }
}

/// A demand-controlled HVAC controller: maps the current home state to an
/// airflow decision.
///
/// Implementations receive the (possibly attacker-falsified) sensor view of
/// the home: per-occupant zone/activity and appliance on/off states. The
/// decision depends on the home, that record and the control parameters
/// only — never on the minute or the outdoor weather, which enter the
/// energy of a slot (Eq. 3), not its airflow.
pub trait Controller {
    /// Computes the actuation for `record` into `out`, overwriting it and
    /// reusing its buffers (no allocation once `out` has been sized for
    /// the home).
    fn control_into(
        &self,
        home: &Home,
        record: &MinuteRecord,
        params: &ControllerParams,
        out: &mut ControlDecision,
    );

    /// Allocating form of [`Controller::control_into`].
    fn control(
        &self,
        home: &Home,
        record: &MinuteRecord,
        params: &ControllerParams,
    ) -> ControlDecision {
        let mut out = ControlDecision::default();
        self.control_into(home, record, params, &mut out);
        out
    }
}

/// Per-zone thermal and CO₂ loads as seen through the sensors.
#[derive(Debug, Clone, Default)]
struct ZoneLoads {
    /// Occupant CO₂ generation, ft³/min.
    co2_cfm: f64,
    /// Occupant metabolic + appliance sensible heat, watts.
    heat_watts: f64,
    /// Occupant head-count.
    occupancy: usize,
}

/// Overwrites `loads` with one [`ZoneLoads`] per zone of `home`.
fn zone_loads_into(home: &Home, record: &MinuteRecord, loads: &mut Vec<ZoneLoads>) {
    loads.clear();
    loads.resize(home.zones().len(), ZoneLoads::default());
    for (o, os) in record.occupants.iter().enumerate() {
        let zl = &mut loads[os.zone.index()];
        let profile = home.occupants()[o].metabolic_profile();
        zl.co2_cfm += co2_emission_cfm(profile, os.activity) + activity_pollutant_cfm(os.activity);
        zl.heat_watts += heat_radiation_watts(profile, os.activity);
        zl.occupancy += 1;
    }
    for (d, &on) in record.appliances.iter().enumerate() {
        if on {
            let a = &home.appliances()[d];
            loads[a.zone.index()].heat_watts += a.heat_watts();
        }
    }
}

/// Computes the fresh airflow needed to hold the CO₂ setpoint at steady
/// state (Eq. 1): generation is diluted by fresh air at the outdoor
/// concentration, `E × 10⁶ = Q_vent × (C_set − C_out)`.
pub(crate) fn ventilation_cfm(co2_gen_cfm: f64, params: &ControllerParams) -> f64 {
    let delta_ppm = params.co2_setpoint_ppm - params.outdoor_co2_ppm;
    if delta_ppm <= 0.0 {
        return 0.0;
    }
    co2_gen_cfm * 1.0e6 / delta_ppm
}

/// Computes the supply airflow needed to remove a sensible heat load at the
/// zone setpoint (Eq. 2): `Q × (T_set − T_supply) × 0.3167 = heat_watts`.
pub(crate) fn cooling_cfm(heat_watts: f64, params: &ControllerParams) -> f64 {
    let dt = params.zone_setpoint_f - params.supply_temp_f;
    if dt <= 0.0 {
        return 0.0;
    }
    heat_watts / (CFM_DT_TO_WATTS * dt)
}

/// The paper's activity-aware demand-controlled HVAC controller.
///
/// For each zone it sizes airflow as the maximum of the ventilation
/// requirement (Eq. 1) and the cooling requirement (Eq. 2), using the
/// occupants' *actual activities* (metabolic rates) and the *actual
/// appliance states* (dynamic load modelling) — the three efficiency levers
/// of paper §II.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DchvacController;

impl Controller for DchvacController {
    fn control_into(
        &self,
        home: &Home,
        record: &MinuteRecord,
        params: &ControllerParams,
        out: &mut ControlDecision,
    ) {
        out.reset(home, record);
        for z in home.zones() {
            if !z.conditioned {
                continue;
            }
            let zl = &out.loads[z.id.index()];
            let vent = ventilation_cfm(zl.co2_cfm, params);
            let cool = cooling_cfm(zl.heat_watts, params);
            let q = vent.max(cool).min(params.max_zone_cfm);
            out.zone_cfm[z.id.index()] = q;
            out.fresh_fraction[z.id.index()] = if q > 0.0 { (vent / q).min(1.0) } else { 0.0 };
        }
    }
}

/// ASHRAE-style baseline controller (the BIoTA world model).
///
/// Differences from [`DchvacController`], per paper §II:
///
/// 1. occupants are modelled at a fixed average metabolic rate instead of
///    their actual activity,
/// 2. appliance load is a fixed historical average per zone at every
///    control cycle instead of the live appliance states,
/// 3. ventilation never drops below the ASHRAE 62.1 floor
///    (per-person + per-area minimum), even for empty zones.
#[derive(Debug, Clone, PartialEq)]
pub struct AshraeController {
    /// Average metabolic rate assumed for every occupant (MET).
    pub average_met: f64,
    /// Duty factor applied to each zone's installed appliance wattage to
    /// form the fixed average load.
    pub appliance_duty: f64,
    /// Minimum outdoor air per person (CFM).
    pub cfm_per_person: f64,
    /// Minimum outdoor air per square foot of floor area (CFM/ft²),
    /// applied to `volume / ceiling_height`.
    pub cfm_per_ft2: f64,
    /// Assumed ceiling height (ft) for converting volume to floor area.
    pub ceiling_ft: f64,
}

impl Default for AshraeController {
    fn default() -> Self {
        AshraeController {
            average_met: 1.6,
            appliance_duty: 0.15,
            cfm_per_person: 7.5,
            cfm_per_ft2: 0.09,
            ceiling_ft: 8.0,
        }
    }
}

impl Controller for AshraeController {
    fn control_into(
        &self,
        home: &Home,
        record: &MinuteRecord,
        params: &ControllerParams,
        out: &mut ControlDecision,
    ) {
        out.reset(home, record);
        for z in home.zones() {
            if !z.conditioned {
                continue;
            }
            let occupancy = out.loads[z.id.index()].occupancy as f64;
            // (1) average-rate occupant loads.
            let co2 = occupancy * 0.011 * self.average_met;
            let heat_occ = occupancy * 63.0 * self.average_met;
            // (2) fixed average appliance load, on or off.
            let installed: f64 = home.appliances_in(z.id).map(|a| a.heat_watts()).sum();
            let heat = heat_occ + installed * self.appliance_duty;
            // (3) ASHRAE 62.1 ventilation floor.
            let floor_area = z.volume_ft3 / self.ceiling_ft;
            let vent_floor = self.cfm_per_person * occupancy + self.cfm_per_ft2 * floor_area;
            let vent = ventilation_cfm(co2, params).max(vent_floor);
            let cool = cooling_cfm(heat, params);
            let q = vent.max(cool).min(params.max_zone_cfm);
            out.zone_cfm[z.id.index()] = q;
            out.fresh_fraction[z.id.index()] = if q > 0.0 { (vent / q).min(1.0) } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shatter_dataset::OccupantState;
    use shatter_smarthome::{houses, Activity};

    fn record(home: &Home, states: Vec<OccupantState>) -> MinuteRecord {
        MinuteRecord {
            occupants: states,
            appliances: vec![false; home.appliances().len()],
        }
    }

    fn everyone_out(home: &Home) -> MinuteRecord {
        record(
            home,
            vec![
                OccupantState {
                    zone: ZoneId(0),
                    activity: Activity::GoingOut,
                };
                home.occupants().len()
            ],
        )
    }

    #[test]
    fn empty_home_needs_no_airflow_under_dchvac() {
        let home = houses::aras_house_a();
        let d = DchvacController.control(&home, &everyone_out(&home), &ControllerParams::default());
        assert_eq!(d.total_cfm(), 0.0);
    }

    #[test]
    fn ashrae_ventilates_empty_home() {
        let home = houses::aras_house_a();
        let d = AshraeController::default().control(
            &home,
            &everyone_out(&home),
            &ControllerParams::default(),
        );
        assert!(d.total_cfm() > 0.0, "62.1 floor applies to empty zones");
    }

    #[test]
    fn more_intense_activity_needs_more_air() {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        let mk = |act: Activity| {
            record(
                &home,
                vec![
                    OccupantState {
                        zone: ZoneId(2),
                        activity: act,
                    },
                    OccupantState {
                        zone: ZoneId(0),
                        activity: Activity::GoingOut,
                    },
                ],
            )
        };
        let calm = DchvacController.control(&home, &mk(Activity::ReadingBook), &p);
        let busy = DchvacController.control(&home, &mk(Activity::Cleaning), &p);
        assert!(busy.cfm(ZoneId(2)) > calm.cfm(ZoneId(2)));
    }

    #[test]
    fn appliance_heat_raises_cooling_airflow() {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        let mut rec = record(
            &home,
            vec![
                OccupantState {
                    zone: ZoneId(4),
                    activity: Activity::Shaving,
                },
                OccupantState {
                    zone: ZoneId(0),
                    activity: Activity::GoingOut,
                },
            ],
        );
        let base = DchvacController.control(&home, &rec, &p);
        // Turn on the hair dryer (1800 W × 0.6 heat fraction).
        let dryer = home
            .appliances()
            .iter()
            .position(|a| a.name == "Hair Dryer")
            .unwrap();
        rec.appliances[dryer] = true;
        let with_dryer = DchvacController.control(&home, &rec, &p);
        assert!(with_dryer.cfm(ZoneId(4)) > base.cfm(ZoneId(4)));
    }

    #[test]
    fn airflow_clamped_to_vav_limit() {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        // Absurd load: 2 occupants cleaning + all kitchen appliances on.
        let mut rec = record(
            &home,
            vec![
                OccupantState {
                    zone: ZoneId(3),
                    activity: Activity::Cleaning,
                },
                OccupantState {
                    zone: ZoneId(3),
                    activity: Activity::Cleaning,
                },
            ],
        );
        for (i, a) in home.appliances().iter().enumerate() {
            if a.zone == ZoneId(3) {
                rec.appliances[i] = true;
            }
        }
        let d = DchvacController.control(&home, &rec, &p);
        assert!(d.cfm(ZoneId(3)) <= p.max_zone_cfm);
    }

    #[test]
    fn fresh_fraction_bounded() {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        let rec = record(
            &home,
            vec![
                OccupantState {
                    zone: ZoneId(1),
                    activity: Activity::Sleeping,
                },
                OccupantState {
                    zone: ZoneId(1),
                    activity: Activity::Sleeping,
                },
            ],
        );
        for c in [
            &DchvacController as &dyn Controller,
            &AshraeController::default(),
        ] {
            let d = c.control(&home, &rec, &p);
            for f in &d.fresh_fraction {
                assert!((0.0..=1.0).contains(f));
            }
        }
    }
}
