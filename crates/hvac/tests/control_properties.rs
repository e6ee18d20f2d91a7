//! Property-based tests on the control model: monotonicity and physical
//! sanity of the DCHVAC equations under arbitrary occupant states,
//! bit-identity of day pricing that reuses a decision across unchanged
//! minutes with pricing that decides afresh every minute, and bit-identity
//! of the per-minute energy and cost rates with references that evaluate
//! the outdoor model at each minute.

use std::sync::Arc;

use proptest::prelude::*;

use shatter_dataset::{DayTrace, MinuteRecord, OccupantState};
use shatter_hvac::{
    AshraeController, Controller, ControllerParams, DayCost, DayPricer, DchvacController,
    EnergyModel, MinuteEnergy, OutdoorModel, Pricing,
};
use shatter_smarthome::{
    activity_pollutant_cfm, co2_emission_cfm, heat_radiation_watts, houses, Activity, ApplianceId,
    Minute, OccupantId, ZoneId, MINUTES_PER_DAY,
};

fn arb_record() -> impl Strategy<Value = MinuteRecord> {
    let occ = (0usize..5, 0usize..27).prop_map(|(z, a)| OccupantState {
        zone: ZoneId(z),
        activity: Activity::ALL[a],
    });
    (
        prop::collection::vec(occ, 2..=2),
        prop::collection::vec(any::<bool>(), 13..=13),
    )
        .prop_map(|(occupants, appliances)| MinuteRecord {
            occupants,
            appliances,
        })
}

/// One run of a generated day: how its record differs from the previous
/// run's, and how many minutes it lasts.
#[derive(Debug, Clone)]
enum Change {
    /// An unrelated random record.
    Fresh(MinuteRecord),
    /// The previous record with these appliances toggled.
    Appliances(Vec<bool>),
    /// The previous record with one occupant's activity replaced.
    Activity(usize, Activity),
    /// The previous record with one occupant moved.
    Zone(usize, ZoneId),
}

fn arb_run() -> impl Strategy<Value = (Change, usize)> {
    (
        0u8..4,
        arb_record(),
        prop::collection::vec(any::<bool>(), 13..=13),
        (0usize..2, 0usize..27, 0usize..5),
        // Half the runs last a single minute.
        (any::<bool>(), 2usize..=90),
    )
        .prop_map(|(kind, rec, toggles, (o, a, z), (single, len))| {
            let change = match kind {
                0 => Change::Fresh(rec),
                1 => Change::Appliances(toggles),
                2 => Change::Activity(o, Activity::ALL[a]),
                _ => Change::Zone(o, ZoneId(z)),
            };
            (change, if single { 1 } else { len })
        })
}

/// A day built from `runs` in order, cut at 1,440 minutes; a short run
/// list is padded by extending its last record.
fn arb_day() -> impl Strategy<Value = DayTrace> {
    (arb_record(), prop::collection::vec(arb_run(), 20..=90)).prop_map(|(first, runs)| {
        let mut rec = first;
        let mut minutes = Vec::with_capacity(MINUTES_PER_DAY);
        for (change, len) in runs {
            match change {
                Change::Fresh(r) => rec = r,
                Change::Appliances(toggles) => {
                    for (on, flip) in rec.appliances.iter_mut().zip(toggles) {
                        *on ^= flip;
                    }
                }
                Change::Activity(o, a) => rec.occupants[o].activity = a,
                Change::Zone(o, z) => rec.occupants[o].zone = z,
            }
            minutes.extend(std::iter::repeat_n(Arc::new(rec.clone()), len));
        }
        minutes.resize(MINUTES_PER_DAY, Arc::new(rec));
        DayTrace { day: 0, minutes }
    })
}

/// Eq. 3 for one minute with no reuse: the controller's decision, the AHU
/// draw against the mixed-air temperature at `outdoor().temp_at(minute)`,
/// and the appliance draw.
fn reference_minute_energy(
    model: &EnergyModel,
    ctl: &dyn Controller,
    rec: &MinuteRecord,
    minute: Minute,
) -> MinuteEnergy {
    let (home, p) = (model.home(), &model.params);
    let d = ctl.control(home, rec, p);
    let t_out = model.outdoor().temp_at(minute);
    let mut hvac_w = 0.0;
    for z in home.zones() {
        let q = d.zone_cfm[z.id.index()];
        if q <= 0.0 {
            continue;
        }
        let f = d.fresh_fraction[z.id.index()];
        let t_mix = f * t_out + (1.0 - f) * p.zone_setpoint_f;
        // 0.3167 W per CFM·°F, as in Eq. 2.
        hvac_w += q * (t_mix - p.supply_temp_f).max(0.0) * 0.3167;
    }
    let appliance_w: f64 = rec
        .appliances
        .iter()
        .zip(home.appliances())
        .filter(|(&on, _)| on)
        .map(|(_, a)| a.power_watts)
        .sum();
    MinuteEnergy {
        hvac_kwh: hvac_w * p.sample_minutes / 60_000.0,
        appliance_kwh: appliance_w * p.sample_minutes / 60_000.0,
    }
}

/// Prices `day` with no reuse: every minute calls [`Controller::control`]
/// and recomputes Eq. 3 (AHU draw against the mixed-air temperature plus
/// appliance draw) and Eq. 4 (battery-shaved time-of-use price).
fn reference_day_cost(model: &EnergyModel, ctl: &dyn Controller, day: &DayTrace) -> DayCost {
    let mut cost = DayCost::default();
    let mut peak_kwh = 0.0;
    for (t, rec) in day.minutes.iter().enumerate() {
        let minute = t as u32;
        let e = reference_minute_energy(model, ctl, rec, minute);
        if model.pricing.is_peak(minute) {
            peak_kwh += e.total_kwh();
        }
        let price = model.pricing.price_at(minute, peak_kwh);
        cost.hvac_usd += e.hvac_kwh * price;
        cost.appliance_usd += e.appliance_kwh * price;
        cost.minutes.push(e);
    }
    cost
}

/// Airflow (CFM) that removes `heat_w` of sensible heat at the zone
/// setpoint (Eq. 2).
fn cooling_cfm(heat_w: f64, p: &ControllerParams) -> f64 {
    heat_w / (0.3167 * (p.zone_setpoint_f - p.supply_temp_f))
}

/// [`EnergyModel::occupant_cost_rate`] from Eq. 1–2 at
/// `outdoor().temp_at(minute)`, battery ignored. (The default parameters
/// keep both denominators positive.)
fn reference_occupant_rate(
    model: &EnergyModel,
    o: OccupantId,
    z: ZoneId,
    a: Activity,
    minute: Minute,
) -> f64 {
    let (home, p) = (model.home(), &model.params);
    if !home.zones()[z.index()].conditioned {
        return 0.0;
    }
    let profile = home.occupants()[o.index()].metabolic_profile();
    let co2 = co2_emission_cfm(profile, a) + activity_pollutant_cfm(a);
    let vent = co2 * 1.0e6 / (p.co2_setpoint_ppm - p.outdoor_co2_ppm);
    let cool = cooling_cfm(heat_radiation_watts(profile, a), p);
    let q = vent.max(cool).min(p.max_zone_cfm);
    let f = if q > 0.0 { (vent / q).min(1.0) } else { 0.0 };
    let t_mix = f * model.outdoor().temp_at(minute) + (1.0 - f) * p.zone_setpoint_f;
    let hvac_w = q * (t_mix - p.supply_temp_f).max(0.0) * 0.3167;
    hvac_w * p.sample_minutes / 60_000.0 * model.pricing.price_at(minute, f64::INFINITY)
}

/// [`EnergyModel::appliance_cost_rate`] at `outdoor().temp_at(minute)`:
/// the appliance's draw plus return-air cooling of its heat.
fn reference_appliance_rate(model: &EnergyModel, d: ApplianceId, minute: Minute) -> f64 {
    let p = &model.params;
    let a = &model.home().appliances()[d.index()];
    let cool = cooling_cfm(a.heat_watts(), p).min(p.max_zone_cfm);
    let t_mix = p.zone_setpoint_f.min(model.outdoor().temp_at(minute));
    let hvac_w = cool * (t_mix - p.supply_temp_f).max(0.0) * 0.3167;
    (hvac_w + a.power_watts) * p.sample_minutes / 60_000.0
        * model.pricing.price_at(minute, f64::INFINITY)
}

fn arb_outdoor() -> impl Strategy<Value = OutdoorModel> {
    (40.0f64..110.0, 0.0f64..25.0, 0.0f64..1440.0).prop_map(
        |(mean_temp_f, amplitude_f, peak_minute)| OutdoorModel {
            mean_temp_f,
            amplitude_f,
            peak_minute,
        },
    )
}

proptest! {
    /// Pricing a day through `DayPricer`, which reuses the decision and
    /// appliance watts across runs of unchanged records, is bit-identical
    /// to deciding and pricing every minute afresh, under both
    /// controllers, for days mixing single-minute runs, appliance-only
    /// changes and activity-only changes. So is a pricer that is pushed
    /// only the first minute of each run and told the rest are
    /// unchanged (`push_unchanged`).
    #[test]
    fn reused_decisions_price_bit_identically(day in arb_day()) {
        let model = EnergyModel::standard(houses::aras_house_a());
        let changes = day.minutes.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assert!(changes > 0, "a day of one record");
        for ctl in [&DchvacController as &dyn Controller, &AshraeController::default()] {
            let fast = model.day_cost(ctl, &day);
            let slow = reference_day_cost(&model, ctl, &day);
            let mut runs = DayPricer::new(&model, ctl);
            for (t, rec) in day.minutes.iter().enumerate() {
                let e = if t > 0 && Arc::ptr_eq(rec, &day.minutes[t - 1]) {
                    runs.push_unchanged()
                } else {
                    runs.push(rec)
                };
                let r = slow.minutes[t];
                prop_assert_eq!(
                    (e.hvac_kwh.to_bits(), e.appliance_kwh.to_bits()),
                    (r.hvac_kwh.to_bits(), r.appliance_kwh.to_bits()),
                    "run pricing at {}",
                    t
                );
            }
            prop_assert_eq!(runs.total_usd().to_bits(), slow.total_usd().to_bits());
            prop_assert_eq!(fast.minutes.len(), MINUTES_PER_DAY);
            for (t, (a, b)) in fast.minutes.iter().zip(&slow.minutes).enumerate() {
                prop_assert_eq!(a.hvac_kwh.to_bits(), b.hvac_kwh.to_bits(), "hvac at {}", t);
                prop_assert_eq!(
                    a.appliance_kwh.to_bits(),
                    b.appliance_kwh.to_bits(),
                    "appliances at {}",
                    t
                );
            }
            prop_assert_eq!(fast.hvac_usd.to_bits(), slow.hvac_usd.to_bits());
            prop_assert_eq!(fast.appliance_usd.to_bits(), slow.appliance_usd.to_bits());
            prop_assert_eq!(fast.total_usd().to_bits(), slow.total_usd().to_bits());
        }
    }

    /// Per-minute energy and both cost rates equal references that call
    /// `outdoor().temp_at` themselves, bit for bit, at every minute of the
    /// day and past its end, for the standard model and for a model built
    /// with another outdoor model.
    #[test]
    fn minute_costs_match_the_outdoor_model(
        rec in arb_record(),
        outdoor in arb_outdoor(),
        (o, z, a, d) in (0usize..2, 0usize..5, 0usize..27, 0usize..13),
    ) {
        let home = houses::aras_house_a();
        let custom =
            EnergyModel::new(home.clone(), ControllerParams::default(), outdoor, Pricing::default());
        let (o, z, a, d) = (OccupantId(o), ZoneId(z), Activity::ALL[a], ApplianceId(d));
        for model in [EnergyModel::standard(home), custom] {
            for minute in (0..MINUTES_PER_DAY as Minute).chain([1440, 10_000]) {
                let e = model.minute_energy(&DchvacController, &rec, minute);
                let r = reference_minute_energy(&model, &DchvacController, &rec, minute);
                prop_assert_eq!(e.hvac_kwh.to_bits(), r.hvac_kwh.to_bits(), "hvac at {}", minute);
                prop_assert_eq!(
                    e.appliance_kwh.to_bits(),
                    r.appliance_kwh.to_bits(),
                    "appliances at {}",
                    minute
                );
                prop_assert_eq!(
                    model.occupant_cost_rate(o, z, a, minute).to_bits(),
                    reference_occupant_rate(&model, o, z, a, minute).to_bits(),
                    "occupant rate at {}",
                    minute
                );
                prop_assert_eq!(
                    model.appliance_cost_rate(d, minute).to_bits(),
                    reference_appliance_rate(&model, d, minute).to_bits(),
                    "appliance rate at {}",
                    minute
                );
            }
        }
    }

    /// Airflow is always within [0, max_zone_cfm] per zone and zero for
    /// unconditioned zones, for both controllers.
    #[test]
    fn airflow_bounds(rec in arb_record()) {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        for ctl in [&DchvacController as &dyn Controller, &AshraeController::default()] {
            let d = ctl.control(&home, &rec, &p);
            for z in home.zones() {
                let q = d.zone_cfm[z.id.index()];
                prop_assert!((0.0..=p.max_zone_cfm).contains(&q));
                if !z.conditioned {
                    prop_assert_eq!(q, 0.0);
                }
                let f = d.fresh_fraction[z.id.index()];
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    /// Adding an occupant to a conditioned zone never reduces that zone's
    /// airflow under the demand-controlled policy.
    #[test]
    fn extra_occupant_monotonicity(rec in arb_record(), act_i in 0usize..27) {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        // Base: occupant 0 pinned outside (so the variant strictly adds a
        // person to the livingroom).
        let mut base_rec = rec.clone();
        base_rec.occupants[0] = OccupantState {
            zone: ZoneId(0),
            activity: Activity::GoingOut,
        };
        let base = DchvacController.control(&home, &base_rec, &p);
        let mut more = base_rec.clone();
        more.occupants[0] = OccupantState {
            zone: ZoneId(2),
            activity: Activity::ALL[act_i],
        };
        let after = DchvacController.control(&home, &more, &p);
        prop_assert!(after.zone_cfm[2] >= base.zone_cfm[2] - 1e-9);
    }

    /// Energy accounting is non-negative and appliance energy matches the
    /// sum of running appliance wattages exactly.
    #[test]
    fn energy_accounting(rec in arb_record(), minute in 0u32..1440) {
        let home = houses::aras_house_a();
        let model = EnergyModel::standard(home.clone());
        let e = model.minute_energy(&DchvacController, &rec, minute);
        prop_assert!(e.hvac_kwh >= 0.0);
        let expect_w: f64 = rec
            .appliances
            .iter()
            .zip(home.appliances())
            .filter(|(&on, _)| on)
            .map(|(_, a)| a.power_watts)
            .sum();
        prop_assert!((e.appliance_kwh - expect_w / 60_000.0).abs() < 1e-12);
    }

    /// The ASHRAE baseline never ventilates a conditioned zone below its
    /// 62.1 floor.
    #[test]
    fn ashrae_respects_ventilation_floor(rec in arb_record()) {
        let home = houses::aras_house_a();
        let p = ControllerParams::default();
        let ctl = AshraeController::default();
        let d = ctl.control(&home, &rec, &p);
        for z in home.indoor_zones() {
            let occupancy = rec
                .occupants
                .iter()
                .filter(|o| o.zone == z.id)
                .count() as f64;
            let floor = ctl.cfm_per_person * occupancy
                + ctl.cfm_per_ft2 * z.volume_ft3 / ctl.ceiling_ft;
            let q = d.zone_cfm[z.id.index()];
            prop_assert!(
                q >= floor.min(p.max_zone_cfm) - 1e-9,
                "zone {} q {} < floor {}",
                z.name,
                q,
                floor
            );
        }
    }

    /// Marginal occupant cost rates are finite, non-negative, and zero
    /// only outside or for zero-load activity.
    #[test]
    fn cost_rates_sane(z in 0usize..5, a in 0usize..27, minute in 0u32..1440) {
        let model = EnergyModel::standard(houses::aras_house_a());
        let rate = model.occupant_cost_rate(
            shatter_smarthome::OccupantId(0),
            ZoneId(z),
            Activity::ALL[a],
            minute,
        );
        prop_assert!(rate.is_finite() && rate >= 0.0);
        if z == 0 {
            prop_assert_eq!(rate, 0.0);
        }
    }
}
