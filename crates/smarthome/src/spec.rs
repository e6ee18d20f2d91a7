//! Declarative home topology specs.
//!
//! A [`HomeSpec`] is pure data — zones, occupant names, appliance wiring —
//! from which [`HomeSpec::build`] constructs a [`Home`]. The preset
//! functions in [`crate::houses`] are thin wrappers over the canonical
//! specs here, so "adding a house" means writing a spec, not editing an
//! enum across crates. Specs hash stably via [`HomeSpec::fold_signature`],
//! which downstream cache keys (dataset fixtures, trained ADMs, memoized
//! schedules) incorporate.

use crate::{Activity, Appliance, ApplianceId, Home, Occupant, OccupantId, Zone, ZoneId};

/// The four indoor room archetypes of the ARAS evaluation homes. Scaled
/// homes cycle through them; synthesis personas anchor their activities
/// to zones by archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoomArchetype {
    /// Sleeping/napping zone.
    Bedroom,
    /// Daytime leisure zone (TV, computer, music).
    Livingroom,
    /// Cooking and eating zone.
    Kitchen,
    /// Hygiene and laundry zone.
    Bathroom,
}

impl RoomArchetype {
    /// All archetypes in the canonical ARAS zone order (`Z-1`..`Z-4`).
    pub const ALL: [RoomArchetype; 4] = [
        RoomArchetype::Bedroom,
        RoomArchetype::Livingroom,
        RoomArchetype::Kitchen,
        RoomArchetype::Bathroom,
    ];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            RoomArchetype::Bedroom => "Bedroom",
            RoomArchetype::Livingroom => "Livingroom",
            RoomArchetype::Kitchen => "Kitchen",
            RoomArchetype::Bathroom => "Bathroom",
        }
    }

    /// Reference volume (ft³) used by scaled homes.
    pub fn reference_volume(self) -> f64 {
        match self {
            RoomArchetype::Bedroom => 1080.0,
            RoomArchetype::Livingroom => 1920.0,
            RoomArchetype::Kitchen => 840.0,
            RoomArchetype::Bathroom => 480.0,
        }
    }

    fn tag(self) -> u64 {
        match self {
            RoomArchetype::Bedroom => 1,
            RoomArchetype::Livingroom => 2,
            RoomArchetype::Kitchen => 3,
            RoomArchetype::Bathroom => 4,
        }
    }
}

/// One indoor zone of a [`HomeSpec`] (Outside is implicit at index 0).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSpec {
    /// Display name (`"Kitchen"`, `"Bedroom-5"`, ...).
    pub name: String,
    /// Room archetype, anchoring activities and appliance remapping.
    pub archetype: RoomArchetype,
    /// Air volume in ft³.
    pub volume_ft3: f64,
    /// Maximum occupancy.
    pub capacity: usize,
}

/// One appliance of a [`HomeSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApplianceSpec {
    /// Display name.
    pub name: String,
    /// Indoor zone the appliance is installed in (1-based [`ZoneId`]).
    pub zone: ZoneId,
    /// Power draw in watts while on.
    pub power_watts: f64,
    /// Fraction of the draw radiated as sensible heat.
    pub heat_fraction: f64,
    /// Activities that legitimately use the appliance.
    pub activities: Vec<Activity>,
    /// Whether adversarial activation is audible to a co-located occupant.
    pub audible: bool,
}

/// Declarative topology of a home: everything [`HomeSpec::build`] needs
/// to produce a [`Home`], as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeSpec {
    /// Home display name (becomes [`Home::name`] and the dataset label).
    pub name: String,
    /// Indoor zones in `Z-1..` order; the Outside pseudo-zone `Z-0` is
    /// always prepended by [`HomeSpec::build`].
    pub zones: Vec<ZoneSpec>,
    /// Adult occupant display names, in [`OccupantId`] order.
    pub occupant_names: Vec<String>,
    /// Appliances in [`ApplianceId`] order.
    pub appliances: Vec<ApplianceSpec>,
}

/// The standard 13-appliance complement of the ARAS homes, wired to the
/// canonical 4-zone layout (paper Table VII "13 Appliances").
pub fn standard_appliances() -> Vec<ApplianceSpec> {
    use Activity::*;
    let def = |name: &str,
               zone: usize,
               power_watts: f64,
               heat_fraction: f64,
               activities: Vec<Activity>,
               audible: bool| ApplianceSpec {
        name: name.to_owned(),
        zone: ZoneId(zone),
        power_watts,
        heat_fraction,
        activities,
        audible,
    };
    vec![
        def("Television", 2, 120.0, 0.9, vec![WatchingTv], true),
        def(
            "Computer",
            2,
            200.0,
            0.9,
            vec![UsingInternet, Studying],
            false,
        ),
        def(
            "Music System",
            2,
            80.0,
            0.9,
            vec![ListeningToMusic, HavingGuest],
            true,
        ),
        def(
            "Microwave",
            3,
            1100.0,
            0.35,
            vec![
                PreparingBreakfast,
                PreparingLunch,
                PreparingDinner,
                HavingSnack,
            ],
            true,
        ),
        def(
            "Oven",
            3,
            2150.0,
            0.45,
            vec![PreparingLunch, PreparingDinner],
            false,
        ),
        def(
            "Kettle",
            3,
            1500.0,
            0.25,
            vec![PreparingBreakfast, HavingSnack],
            true,
        ),
        def("Toaster", 3, 900.0, 0.4, vec![PreparingBreakfast], true),
        def("Dishwasher", 3, 1200.0, 0.3, vec![WashingDishes], true),
        def(
            "Coffee Maker",
            3,
            1000.0,
            0.3,
            vec![PreparingBreakfast, HavingSnack],
            true,
        ),
        def("Washer", 4, 500.0, 0.2, vec![Laundry], true),
        def("Dryer", 4, 3000.0, 0.5, vec![Laundry], true),
        def(
            "Hair Dryer",
            4,
            1800.0,
            0.6,
            vec![HavingShower, Shaving],
            true,
        ),
        def("Bedroom TV", 1, 90.0, 0.9, vec![WatchingTv, Napping], true),
    ]
}

/// Occupant-name pool for generated (scaled) homes.
const NAME_POOL: [&str; 8] = [
    "Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi",
];

impl HomeSpec {
    /// Spec of ARAS House A (four zones, two mostly-home occupants, the
    /// standard 13 appliances).
    pub fn aras_a() -> HomeSpec {
        HomeSpec::aras(
            "ARAS House A",
            [1080.0, 1920.0, 840.0, 480.0],
            ["Alice", "Bob"],
        )
    }

    /// Spec of ARAS House B (slightly smaller zones, occupants away for
    /// longer work blocks).
    pub fn aras_b() -> HomeSpec {
        HomeSpec::aras(
            "ARAS House B",
            [960.0, 1680.0, 720.0, 420.0],
            ["Carol", "Dave"],
        )
    }

    /// An ARAS-layout spec: the four canonical zones with the given
    /// volumes, two adult occupants, standard appliances.
    pub fn aras(name: &str, volumes: [f64; 4], occupant_names: [&str; 2]) -> HomeSpec {
        let capacities = [3usize, 6, 4, 2];
        HomeSpec {
            name: name.to_owned(),
            zones: RoomArchetype::ALL
                .iter()
                .zip(volumes)
                .zip(capacities)
                .map(|((&archetype, volume_ft3), capacity)| ZoneSpec {
                    name: archetype.name().to_owned(),
                    archetype,
                    volume_ft3,
                    capacity,
                })
                .collect(),
            occupant_names: occupant_names.iter().map(|&n| n.to_owned()).collect(),
            appliances: standard_appliances(),
        }
    }

    /// A scaled home with `n_zones` indoor zones cycling the four ARAS
    /// archetypes and `n_occupants` generated occupants
    /// (`crate::houses::scaled_home` is `HomeSpec::scaled(n, 2).build()`).
    /// The 13 standard appliances stay with their room archetype,
    /// cycling across that archetype's zone copies — a 10-zone home's
    /// two kitchens split the six kitchen appliances — so occupants
    /// anchored to replica rooms still meet appliances there. Homes too
    /// small to have an archetype fall back to the positional remap.
    ///
    /// # Panics
    ///
    /// Panics when `n_zones == 0` or `n_occupants == 0`.
    pub fn scaled(n_zones: usize, n_occupants: usize) -> HomeSpec {
        assert!(n_zones > 0, "need at least one indoor zone");
        assert!(n_occupants > 0, "need at least one occupant");
        let zones = (0..n_zones)
            .map(|i| {
                let archetype = RoomArchetype::ALL[i % RoomArchetype::ALL.len()];
                ZoneSpec {
                    name: format!("{}-{}", archetype.name(), i + 1),
                    archetype,
                    volume_ft3: archetype.reference_volume(),
                    capacity: 4,
                }
            })
            .collect();
        let occupant_names = (0..n_occupants)
            .map(|o| {
                if o < NAME_POOL.len() {
                    NAME_POOL[o].to_owned()
                } else {
                    format!("{}-{}", NAME_POOL[o % NAME_POOL.len()], o)
                }
            })
            .collect();
        // Per-archetype round-robin over the archetype's zone copies.
        let mut spread = [0usize; 4];
        let appliances = standard_appliances()
            .into_iter()
            .map(|mut a| {
                let ai = a.zone.index() - 1; // canonical archetype slot
                let copies: Vec<usize> = (ai..n_zones).step_by(RoomArchetype::ALL.len()).collect();
                a.zone = if copies.is_empty() {
                    ZoneId((a.zone.index() - 1) % n_zones + 1)
                } else {
                    let k = spread[ai] % copies.len();
                    spread[ai] += 1;
                    ZoneId(copies[k] + 1)
                };
                a
            })
            .collect();
        HomeSpec {
            name: format!("Scaled home ({n_zones} zones)"),
            zones,
            occupant_names,
            appliances,
        }
    }

    /// Number of indoor zones.
    pub fn n_zones(&self) -> usize {
        self.zones.len()
    }

    /// Number of occupants.
    pub fn n_occupants(&self) -> usize {
        self.occupant_names.len()
    }

    /// Indoor zones of the given archetype, in zone order (1-based ids).
    pub fn zones_of(&self, archetype: RoomArchetype) -> impl Iterator<Item = ZoneId> + '_ {
        self.zones
            .iter()
            .enumerate()
            .filter(move |(_, z)| z.archetype == archetype)
            .map(|(i, _)| ZoneId(i + 1))
    }

    /// Builds the [`Home`]: Outside at `Z-0`, then the indoor zones,
    /// occupants and appliances in spec order.
    ///
    /// # Panics
    ///
    /// Panics when the spec wires an appliance to a missing zone (the
    /// underlying home validation rejects it).
    pub fn build(&self) -> Home {
        let mut b = Home::builder(self.name.clone()).zone(Zone::outside(ZoneId(0)));
        for (i, z) in self.zones.iter().enumerate() {
            b = b.zone(Zone::indoor(
                ZoneId(i + 1),
                z.name.clone(),
                z.volume_ft3,
                z.capacity,
            ));
        }
        for (o, name) in self.occupant_names.iter().enumerate() {
            b = b.occupant(Occupant::adult(OccupantId(o), name.clone()));
        }
        for (i, a) in self.appliances.iter().enumerate() {
            b = b.appliance(Appliance::new(
                ApplianceId(i),
                a.name.clone(),
                a.zone,
                a.power_watts,
                a.heat_fraction,
                a.activities.clone(),
                a.audible,
            ));
        }
        b.build().expect("home spec is valid")
    }

    /// Folds every field of the spec into an FNV-1a style accumulator.
    /// Downstream [`shatter-dataset`]'s `HouseSpec::signature` builds the
    /// cache-key signature on top of this.
    ///
    /// [`shatter-dataset`]: https://example.invalid/shatter
    pub fn fold_signature(&self, h: &mut u64) {
        fold_str(h, &self.name);
        fold(h, self.zones.len() as u64);
        for z in &self.zones {
            fold_str(h, &z.name);
            fold(h, z.archetype.tag());
            fold(h, z.volume_ft3.to_bits());
            fold(h, z.capacity as u64);
        }
        fold(h, self.occupant_names.len() as u64);
        for n in &self.occupant_names {
            fold_str(h, n);
        }
        fold(h, self.appliances.len() as u64);
        for a in &self.appliances {
            fold_str(h, &a.name);
            fold(h, a.zone.index() as u64);
            fold(h, a.power_watts.to_bits());
            fold(h, a.heat_fraction.to_bits());
            fold(h, a.activities.len() as u64);
            for &act in &a.activities {
                fold(h, act as u64);
            }
            fold(h, u64::from(a.audible));
        }
    }
}

/// FNV-1a fold of one word into an accumulator (shared by the spec
/// signatures; same mixing as `AttackerCapability::signature`).
pub fn fold(h: &mut u64, v: u64) {
    *h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    *h = h.wrapping_mul(0x100_0000_01b3);
}

/// Folds a string (length-prefixed bytes) into an accumulator.
pub fn fold_str(h: &mut u64, s: &str) {
    fold(h, s.len() as u64);
    for b in s.bytes() {
        fold(h, u64::from(b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::houses;

    #[test]
    fn aras_specs_build_the_preset_homes() {
        assert_eq!(HomeSpec::aras_a().build(), houses::aras_house_a());
        assert_eq!(HomeSpec::aras_b().build(), houses::aras_house_b());
    }

    #[test]
    fn scaled_spec_matches_scaled_home() {
        for n in [1usize, 4, 6, 16, 24] {
            assert_eq!(HomeSpec::scaled(n, 2).build(), houses::scaled_home(n));
        }
    }

    #[test]
    fn scaled_appliances_follow_their_archetype_and_spread() {
        let spec = HomeSpec::scaled(10, 2);
        let canonical = standard_appliances();
        for (a, c) in spec.appliances.iter().zip(&canonical) {
            // Each appliance stays with its archetype: its placed zone
            // has the same archetype as its canonical ARAS zone.
            let placed = &spec.zones[a.zone.index() - 1];
            let home_archetype = RoomArchetype::ALL[c.zone.index() - 1];
            assert_eq!(placed.archetype, home_archetype, "{}", a.name);
        }
        // Replica rooms get a share: both kitchens (Z-3, Z-7) hold
        // appliances, so occupants anchored to either can use them.
        for kitchen in [3usize, 7] {
            assert!(
                spec.appliances.iter().any(|a| a.zone.index() == kitchen),
                "kitchen Z-{kitchen} has no appliances"
            );
        }
        // Tiny homes without an archetype fall back to the positional
        // remap and stay valid.
        let tiny = HomeSpec::scaled(2, 1);
        assert!(tiny
            .appliances
            .iter()
            .all(|a| a.zone.index() >= 1 && a.zone.index() <= 2));
        tiny.build();
    }

    #[test]
    fn scaled_spec_supports_many_occupants() {
        let spec = HomeSpec::scaled(6, 5);
        let home = spec.build();
        assert_eq!(home.occupants().len(), 5);
        assert_eq!(home.indoor_zones().count(), 6);
        assert_eq!(spec.zones_of(RoomArchetype::Bedroom).count(), 2);
    }

    #[test]
    fn signatures_separate_specs() {
        let sig = |s: &HomeSpec| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            s.fold_signature(&mut h);
            h
        };
        let a = sig(&HomeSpec::aras_a());
        assert_eq!(a, sig(&HomeSpec::aras_a()));
        assert_ne!(a, sig(&HomeSpec::aras_b()));
        assert_ne!(sig(&HomeSpec::scaled(6, 2)), sig(&HomeSpec::scaled(10, 2)));
        assert_ne!(sig(&HomeSpec::scaled(6, 2)), sig(&HomeSpec::scaled(6, 3)));
    }
}
