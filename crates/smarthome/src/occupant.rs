use crate::{MetabolicProfile, OccupantId};

/// Demographic age group of an occupant.
///
/// Persily & de Jonge (cited by the paper, §II) show occupant demographics
/// strongly influence CO₂/heat generation — "a middle-aged man generates
/// twice as much air pollutants compared to an infant".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeGroup {
    /// Under ~3 years.
    Infant,
    /// ~3–16 years.
    Child,
    /// ~17–59 years.
    Adult,
    /// 60+ years.
    Senior,
}

impl AgeGroup {
    /// Multiplier applied to the reference adult generation rates.
    pub fn generation_factor(self) -> f64 {
        match self {
            AgeGroup::Infant => 0.5,
            AgeGroup::Child => 0.75,
            AgeGroup::Adult => 1.0,
            AgeGroup::Senior => 0.9,
        }
    }
}

/// An occupant `o ∈ O` of the smart home, tracked zone-by-zone through RFID
/// sensing (paper §II, "Occupants tracking").
#[derive(Debug, Clone, PartialEq)]
pub struct Occupant {
    /// Occupant identifier (index into [`crate::Home::occupants`]).
    pub id: OccupantId,
    /// Display name ("Alice", "Bob" in the paper's case study).
    pub name: String,
    /// Demographic group controlling metabolic scaling.
    pub age_group: AgeGroup,
    /// Body-mass scaling relative to the reference adult (1.0 = reference).
    pub body_factor: f64,
}

impl Occupant {
    /// Creates an adult occupant with reference body factor.
    pub fn adult(id: OccupantId, name: impl Into<String>) -> Self {
        Occupant {
            id,
            name: name.into(),
            age_group: AgeGroup::Adult,
            body_factor: 1.0,
        }
    }

    /// The occupant's metabolic profile used to derive `P^CE_{o,z,a}` and
    /// `P^HR_{o,z,a}`.
    pub fn metabolic_profile(&self) -> MetabolicProfile {
        MetabolicProfile {
            scale: self.age_group.generation_factor() * self.body_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adult_reference_profile() {
        let o = Occupant::adult(OccupantId(0), "Alice");
        assert_eq!(o.metabolic_profile().scale, 1.0);
    }

    #[test]
    fn infant_generates_half_of_adult() {
        let mut o = Occupant::adult(OccupantId(1), "Baby");
        o.age_group = AgeGroup::Infant;
        assert_eq!(o.metabolic_profile().scale, 0.5);
    }

    #[test]
    fn body_factor_scales_profile() {
        let mut o = Occupant::adult(OccupantId(0), "Big Bob");
        o.body_factor = 1.2;
        assert!((o.metabolic_profile().scale - 1.2).abs() < 1e-12);
    }
}
