use crate::ZoneId;

/// A zone (room) of the smart home.
///
/// The paper's evaluation homes have four indoor zones — Bedroom,
/// Livingroom, Kitchen, Bathroom — plus the *Outside* pseudo-zone `Z-0`
/// where occupants reside when away. Outside is never conditioned.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// Zone identifier (index into [`crate::Home::zones`]).
    pub id: ZoneId,
    /// Human-readable name, e.g. `"Kitchen"`.
    pub name: String,
    /// Zone air volume `P^V_z` in cubic feet. Zero for the Outside zone.
    pub volume_ft3: f64,
    /// Maximum occupancy the zone can physically hold.
    pub capacity: usize,
    /// Whether the HVAC system conditions this zone (false for Outside).
    pub conditioned: bool,
}

impl Zone {
    /// Creates a conditioned indoor zone.
    pub fn indoor(id: ZoneId, name: impl Into<String>, volume_ft3: f64, capacity: usize) -> Self {
        Zone {
            id,
            name: name.into(),
            volume_ft3,
            capacity,
            conditioned: true,
        }
    }

    /// Creates the unconditioned Outside pseudo-zone.
    pub fn outside(id: ZoneId) -> Self {
        Zone {
            id,
            name: "Outside".to_owned(),
            volume_ft3: 0.0,
            capacity: usize::MAX,
            conditioned: false,
        }
    }

    /// Returns `true` when this is the Outside pseudo-zone.
    pub fn is_outside(&self) -> bool {
        !self.conditioned && self.volume_ft3 == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indoor_zone_is_conditioned() {
        let z = Zone::indoor(ZoneId(1), "Bedroom", 1200.0, 4);
        assert!(z.conditioned);
        assert!(!z.is_outside());
        assert_eq!(z.name, "Bedroom");
    }

    #[test]
    fn outside_zone() {
        let z = Zone::outside(ZoneId(0));
        assert!(z.is_outside());
        assert!(!z.conditioned);
        assert_eq!(z.capacity, usize::MAX);
    }
}
