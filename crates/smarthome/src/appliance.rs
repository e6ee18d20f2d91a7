use crate::{Activity, ApplianceId, ZoneId};

/// A smart appliance `d ∈ D` installed in a zone.
///
/// Every appliance in the considered home is an IoT device that can be
/// triggered by (possibly inaudible) voice commands, making it part of the
/// attack surface (paper §III-B). The dynamic-load HVAC model (Eq. 2–3)
/// charges an appliance's power draw and heat radiation to the zone while
/// the appliance is on.
#[derive(Debug, Clone, PartialEq)]
pub struct Appliance {
    /// Appliance identifier (index into [`crate::Home::appliances`]).
    pub id: ApplianceId,
    /// Display name, e.g. `"Microwave"`.
    pub name: String,
    /// Zone where the appliance is installed.
    pub zone: ZoneId,
    /// Power consumption `P^PC_d` in watts while on.
    pub power_watts: f64,
    /// Heat-radiation factor `P^HRF_d`: fraction of the power draw that
    /// becomes sensible heat load (e.g. LED lights radiate ~12% heat).
    pub heat_fraction: f64,
    /// Activities during which the occupant legitimately uses this
    /// appliance; adversarial activation during any *other* activity in the
    /// same zone would be noticed by the occupant.
    pub linked_activities: Vec<Activity>,
    /// Whether the appliance is noisy enough that an *aware* occupant in the
    /// same zone notices an adversarial activation.
    pub audible: bool,
}

impl Appliance {
    /// Creates an appliance; see field docs for parameter meanings.
    pub fn new(
        id: ApplianceId,
        name: impl Into<String>,
        zone: ZoneId,
        power_watts: f64,
        heat_fraction: f64,
        linked_activities: Vec<Activity>,
        audible: bool,
    ) -> Self {
        Appliance {
            id,
            name: name.into(),
            zone,
            power_watts,
            heat_fraction,
            linked_activities,
            audible,
        }
    }

    /// Sensible heat contributed while on, in watts (`P^PC_d × P^HRF_d`).
    pub fn heat_watts(&self) -> f64 {
        self.power_watts * self.heat_fraction
    }

    /// Whether `activity` is a legitimate use of this appliance.
    pub fn linked_to(&self, activity: Activity) -> bool {
        self.linked_activities.contains(&activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn microwave() -> Appliance {
        Appliance::new(
            ApplianceId(0),
            "Microwave",
            ZoneId(3),
            1100.0,
            0.3,
            vec![Activity::PreparingBreakfast, Activity::PreparingDinner],
            true,
        )
    }

    #[test]
    fn heat_watts_is_power_times_fraction() {
        assert!((microwave().heat_watts() - 330.0).abs() < 1e-9);
    }

    #[test]
    fn linkage() {
        let m = microwave();
        assert!(m.linked_to(Activity::PreparingDinner));
        assert!(!m.linked_to(Activity::Sleeping));
    }
}
