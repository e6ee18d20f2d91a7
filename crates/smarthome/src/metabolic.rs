use crate::Activity;

/// Per-occupant metabolic scaling relative to a reference adult.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetabolicProfile {
    /// Multiplier on the reference generation rates (1.0 = reference adult).
    pub scale: f64,
}

impl Default for MetabolicProfile {
    fn default() -> Self {
        MetabolicProfile { scale: 1.0 }
    }
}

/// Reference adult CO₂ generation at 1 MET, in ft³/min.
///
/// Persily & de Jonge report ≈ 0.0052 L/s per MET for an average adult;
/// 0.0052 L/s ≈ 0.011 ft³/min.
const CO2_CFM_PER_MET: f64 = 0.011;

/// Reference adult sensible heat emission at 1 MET, in watts.
///
/// An adult at rest dissipates ≈ 105 W total; roughly 60% is sensible heat
/// that loads the cooling system.
const HEAT_W_PER_MET: f64 = 63.0;

/// CO₂ emission per person per minute, `P^CE_{o,z,a}` (ft³/min), for an
/// occupant with the given metabolic profile performing `activity`.
///
/// Away activities ([`Activity::GoingOut`]) emit nothing indoors.
///
/// ```
/// use shatter_smarthome::{co2_emission_cfm, Activity, MetabolicProfile};
/// let p = MetabolicProfile::default();
/// assert!(co2_emission_cfm(p, Activity::Cleaning) > co2_emission_cfm(p, Activity::Sleeping));
/// assert_eq!(co2_emission_cfm(p, Activity::GoingOut), 0.0);
/// ```
pub fn co2_emission_cfm(profile: MetabolicProfile, activity: Activity) -> f64 {
    CO2_CFM_PER_MET * activity.met() * profile.scale
}

/// Sensible heat radiation per person, `P^HR_{o,z,a}` (watts), for an
/// occupant with the given metabolic profile performing `activity`.
pub fn heat_radiation_watts(profile: MetabolicProfile, activity: Activity) -> f64 {
    HEAT_W_PER_MET * activity.met() * profile.scale
}

/// Non-metabolic pollutant generation of an activity, expressed as a
/// CO₂-equivalent source (ft³/min) the ventilation controller must dilute.
///
/// Cooking dominates: combustion products, moisture and VOCs drive kitchen
/// ventilation demand well beyond occupant CO₂ — the reason the paper's
/// case study prices the Kitchen zone an order of magnitude above the
/// other zones (§V).
pub fn activity_pollutant_cfm(activity: Activity) -> f64 {
    use Activity::*;
    match activity {
        PreparingBreakfast => 0.045,
        PreparingLunch | PreparingDinner => 0.060,
        WashingDishes => 0.020,
        HavingShower => 0.015, // moisture load
        Laundry => 0.010,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resting_rates_in_literature_range() {
        let p = MetabolicProfile::default();
        let co2 = co2_emission_cfm(p, Activity::Sleeping);
        // Persily: sleeping adult ≈ 0.004–0.006 L/s ≈ 0.008–0.013 ft³/min.
        assert!(co2 > 0.008 && co2 < 0.013, "co2 = {co2}");
        let heat = heat_radiation_watts(p, Activity::Sleeping);
        assert!(heat > 40.0 && heat < 80.0, "heat = {heat}");
    }

    #[test]
    fn rates_scale_with_profile() {
        let half = MetabolicProfile { scale: 0.5 };
        let full = MetabolicProfile { scale: 1.0 };
        let a = Activity::WatchingTv;
        assert!((co2_emission_cfm(half, a) * 2.0 - co2_emission_cfm(full, a)).abs() < 1e-12);
        assert!(
            (heat_radiation_watts(half, a) * 2.0 - heat_radiation_watts(full, a)).abs() < 1e-12
        );
    }

    #[test]
    fn away_activity_emits_nothing() {
        let p = MetabolicProfile::default();
        assert_eq!(co2_emission_cfm(p, Activity::GoingOut), 0.0);
        assert_eq!(heat_radiation_watts(p, Activity::GoingOut), 0.0);
    }
}
