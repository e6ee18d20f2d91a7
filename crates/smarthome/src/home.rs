use std::fmt;

use crate::{Appliance, ApplianceId, Occupant, OccupantId, Zone, ZoneId};

/// Validation error produced by [`HomeBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomeError {
    /// A home needs the Outside pseudo-zone plus at least one indoor zone.
    NoZones,
    /// Zone 0 must be the Outside pseudo-zone.
    MissingOutsideZone,
    /// An entity's stored id does not match its index.
    IdMismatch {
        /// Which collection the mismatch is in.
        kind: &'static str,
        /// The offending index.
        index: usize,
    },
    /// An appliance references a zone that does not exist.
    DanglingApplianceZone {
        /// The appliance with the bad reference.
        appliance: ApplianceId,
        /// The missing zone.
        zone: ZoneId,
    },
    /// The home must house at least one occupant.
    NoOccupants,
    /// A zone has a non-positive volume but is marked conditioned.
    InvalidVolume {
        /// The offending zone.
        zone: ZoneId,
    },
}

impl fmt::Display for HomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomeError::NoZones => write!(f, "home needs Outside plus at least one indoor zone"),
            HomeError::MissingOutsideZone => write!(f, "zone 0 must be the Outside pseudo-zone"),
            HomeError::IdMismatch { kind, index } => {
                write!(f, "{kind} at index {index} has a mismatched id")
            }
            HomeError::DanglingApplianceZone { appliance, zone } => {
                write!(f, "appliance {appliance} references missing zone {zone}")
            }
            HomeError::NoOccupants => write!(f, "home must house at least one occupant"),
            HomeError::InvalidVolume { zone } => {
                write!(f, "conditioned zone {zone} must have positive volume")
            }
        }
    }
}

impl std::error::Error for HomeError {}

/// The smart home `H`: zones, occupants and appliances, validated so that
/// all cross-references hold.
///
/// Construct with [`Home::builder`]:
///
/// ```
/// use shatter_smarthome::{Home, Occupant, OccupantId, Zone, ZoneId};
///
/// let home = Home::builder("Tiny home")
///     .zone(Zone::outside(ZoneId(0)))
///     .zone(Zone::indoor(ZoneId(1), "Studio", 1800.0, 2))
///     .occupant(Occupant::adult(OccupantId(0), "Alice"))
///     .build()
///     .unwrap();
/// assert_eq!(home.indoor_zones().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Home {
    name: String,
    zones: Vec<Zone>,
    occupants: Vec<Occupant>,
    appliances: Vec<Appliance>,
}

impl Home {
    /// Starts building a home with the given display name.
    pub fn builder(name: impl Into<String>) -> HomeBuilder {
        HomeBuilder {
            name: name.into(),
            zones: Vec::new(),
            occupants: Vec::new(),
            appliances: Vec::new(),
        }
    }

    /// The home's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All zones; index 0 is the Outside pseudo-zone.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// All occupants.
    pub fn occupants(&self) -> &[Occupant] {
        &self.occupants
    }

    /// All smart appliances.
    pub fn appliances(&self) -> &[Appliance] {
        &self.appliances
    }

    /// Looks up a zone.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range (ids come from this home, so an
    /// out-of-range id is a logic error).
    pub fn zone(&self, id: ZoneId) -> &Zone {
        &self.zones[id.index()]
    }

    /// Looks up an occupant.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn occupant(&self, id: OccupantId) -> &Occupant {
        &self.occupants[id.index()]
    }

    /// Looks up an appliance.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn appliance(&self, id: ApplianceId) -> &Appliance {
        &self.appliances[id.index()]
    }

    /// Iterates over conditioned indoor zones.
    pub fn indoor_zones(&self) -> impl Iterator<Item = &Zone> {
        self.zones.iter().filter(|z| z.conditioned)
    }

    /// Appliances installed in a given zone.
    pub fn appliances_in(&self, zone: ZoneId) -> impl Iterator<Item = &Appliance> {
        self.appliances.iter().filter(move |a| a.zone == zone)
    }

    /// The `ZoneId` of the Outside pseudo-zone (always zone 0).
    pub fn outside(&self) -> ZoneId {
        ZoneId(0)
    }
}

/// Builder for [`Home`] (see [`Home::builder`]).
#[derive(Debug, Clone)]
pub struct HomeBuilder {
    name: String,
    zones: Vec<Zone>,
    occupants: Vec<Occupant>,
    appliances: Vec<Appliance>,
}

impl HomeBuilder {
    /// Adds a zone. Zones must be added in id order starting with Outside.
    pub fn zone(mut self, zone: Zone) -> Self {
        self.zones.push(zone);
        self
    }

    /// Adds an occupant.
    pub fn occupant(mut self, occupant: Occupant) -> Self {
        self.occupants.push(occupant);
        self
    }

    /// Adds an appliance.
    pub fn appliance(mut self, appliance: Appliance) -> Self {
        self.appliances.push(appliance);
        self
    }

    /// Validates cross-references and produces the home.
    ///
    /// # Errors
    ///
    /// Returns a [`HomeError`] describing the first violated invariant.
    pub fn build(self) -> Result<Home, HomeError> {
        if self.zones.len() < 2 {
            return Err(HomeError::NoZones);
        }
        if !self.zones[0].is_outside() {
            return Err(HomeError::MissingOutsideZone);
        }
        for (i, z) in self.zones.iter().enumerate() {
            if z.id.index() != i {
                return Err(HomeError::IdMismatch {
                    kind: "zone",
                    index: i,
                });
            }
            if z.conditioned && z.volume_ft3 <= 0.0 {
                return Err(HomeError::InvalidVolume { zone: z.id });
            }
        }
        if self.occupants.is_empty() {
            return Err(HomeError::NoOccupants);
        }
        for (i, o) in self.occupants.iter().enumerate() {
            if o.id.index() != i {
                return Err(HomeError::IdMismatch {
                    kind: "occupant",
                    index: i,
                });
            }
        }
        for (i, a) in self.appliances.iter().enumerate() {
            if a.id.index() != i {
                return Err(HomeError::IdMismatch {
                    kind: "appliance",
                    index: i,
                });
            }
            if a.zone.index() >= self.zones.len() {
                return Err(HomeError::DanglingApplianceZone {
                    appliance: a.id,
                    zone: a.zone,
                });
            }
        }
        Ok(Home {
            name: self.name,
            zones: self.zones,
            occupants: self.occupants,
            appliances: self.appliances,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activity;

    fn valid_builder() -> HomeBuilder {
        Home::builder("test")
            .zone(Zone::outside(ZoneId(0)))
            .zone(Zone::indoor(ZoneId(1), "Bedroom", 1000.0, 2))
            .occupant(Occupant::adult(OccupantId(0), "Alice"))
    }

    #[test]
    fn valid_home_builds() {
        let home = valid_builder().build().unwrap();
        assert_eq!(home.zones().len(), 2);
        assert_eq!(home.outside(), ZoneId(0));
    }

    #[test]
    fn needs_outside_zone_first() {
        let err = Home::builder("bad")
            .zone(Zone::indoor(ZoneId(0), "Bedroom", 1000.0, 2))
            .zone(Zone::indoor(ZoneId(1), "Kitchen", 800.0, 2))
            .occupant(Occupant::adult(OccupantId(0), "Alice"))
            .build()
            .unwrap_err();
        assert_eq!(err, HomeError::MissingOutsideZone);
    }

    #[test]
    fn needs_occupants() {
        let err = Home::builder("bad")
            .zone(Zone::outside(ZoneId(0)))
            .zone(Zone::indoor(ZoneId(1), "Bedroom", 1000.0, 2))
            .build()
            .unwrap_err();
        assert_eq!(err, HomeError::NoOccupants);
    }

    #[test]
    fn rejects_id_mismatch() {
        let err = Home::builder("bad")
            .zone(Zone::outside(ZoneId(0)))
            .zone(Zone::indoor(ZoneId(5), "Bedroom", 1000.0, 2))
            .occupant(Occupant::adult(OccupantId(0), "Alice"))
            .build()
            .unwrap_err();
        assert!(matches!(err, HomeError::IdMismatch { kind: "zone", .. }));
    }

    #[test]
    fn rejects_dangling_appliance_zone() {
        let err = valid_builder()
            .appliance(Appliance::new(
                ApplianceId(0),
                "TV",
                ZoneId(9),
                100.0,
                0.5,
                vec![Activity::WatchingTv],
                true,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, HomeError::DanglingApplianceZone { .. }));
    }

    #[test]
    fn rejects_zero_volume_conditioned_zone() {
        let err = Home::builder("bad")
            .zone(Zone::outside(ZoneId(0)))
            .zone(Zone::indoor(ZoneId(1), "Bedroom", 0.0, 2))
            .occupant(Occupant::adult(OccupantId(0), "Alice"))
            .build()
            .unwrap_err();
        assert!(matches!(err, HomeError::InvalidVolume { .. }));
    }

    #[test]
    fn appliances_in_filters_by_zone() {
        let home = valid_builder()
            .appliance(Appliance::new(
                ApplianceId(0),
                "TV",
                ZoneId(1),
                100.0,
                0.5,
                vec![Activity::WatchingTv],
                true,
            ))
            .build()
            .unwrap();
        assert_eq!(home.appliances_in(ZoneId(1)).count(), 1);
        assert_eq!(home.appliances_in(ZoneId(0)).count(), 0);
    }
}
