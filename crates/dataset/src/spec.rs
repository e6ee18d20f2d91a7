//! Declarative house specs: topology + behaviour + cache identity.
//!
//! A [`HouseSpec`] bundles everything the evaluation stack needs to open
//! a new house: the [`HomeSpec`] topology, one [`PersonaSpec`] per
//! occupant driving the synthetic-routine generator, the dataset naming
//! labels, the canonical dataset seed, and a stable FNV [`signature`]
//! that keys fixture caches and schedule memos. The two ARAS evaluation
//! houses are [`HouseSpec::aras_a`] / [`HouseSpec::aras_b`]; scaled
//! homes with generated personas come from [`HouseSpec::scaled`].
//!
//! [`signature`]: HouseSpec::signature

use shatter_smarthome::spec::{fold, fold_str, HomeSpec, RoomArchetype};
use shatter_smarthome::{Activity, ZoneId};

use crate::synth::default_zone_for;

/// Per-occupant anchor zones: where this occupant's activities of each
/// room archetype take place. The synthesizer maps an activity to its
/// canonical ARAS zone class and then through these anchors, so scaled
/// homes with several bedrooms/kitchens spread occupants across them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityAnchors {
    /// Zone for sleep-class activities.
    pub bedroom: ZoneId,
    /// Zone for leisure-class activities.
    pub livingroom: ZoneId,
    /// Zone for cooking/eating-class activities.
    pub kitchen: ZoneId,
    /// Zone for hygiene-class activities.
    pub bathroom: ZoneId,
}

impl ActivityAnchors {
    /// The canonical ARAS layout: bedroom `Z-1` .. bathroom `Z-4`.
    pub const ARAS: ActivityAnchors = ActivityAnchors {
        bedroom: ZoneId(1),
        livingroom: ZoneId(2),
        kitchen: ZoneId(3),
        bathroom: ZoneId(4),
    };

    /// The zone `activity` takes place in for an occupant anchored here.
    /// Outside activities stay at `Z-0`.
    pub fn zone_for(&self, activity: Activity) -> ZoneId {
        match default_zone_for(activity).index() {
            0 => ZoneId(0),
            1 => self.bedroom,
            2 => self.livingroom,
            3 => self.kitchen,
            _ => self.bathroom,
        }
    }

    fn fold_signature(&self, h: &mut u64) {
        for z in [self.bedroom, self.livingroom, self.kitchen, self.bathroom] {
            fold(h, z.index() as u64);
        }
    }
}

/// Behavioural parameters of one occupant, driving the synthetic
/// day-plan generator (wake time, work habits, evening routine) and the
/// per-occupant zone anchoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonaSpec {
    /// Mean wake-up minute of day.
    pub wake_mean: f64,
    /// Probability of a weekday out-of-home work block.
    pub work_prob_weekday: f64,
    /// Mean work-block duration in minutes.
    pub work_duration_mean: f64,
    /// Mean evening-TV duration in minutes.
    pub evening_tv_mean: f64,
    /// Always showers in the morning routine.
    pub shower_in_morning: bool,
    /// Which zones this occupant's activities anchor to.
    pub anchors: ActivityAnchors,
}

impl PersonaSpec {
    fn fold_signature(&self, h: &mut u64) {
        fold(h, self.wake_mean.to_bits());
        fold(h, self.work_prob_weekday.to_bits());
        fold(h, self.work_duration_mean.to_bits());
        fold(h, self.evening_tv_mean.to_bits());
        fold(h, u64::from(self.shower_in_morning));
        self.anchors.fold_signature(h);
    }
}

/// A fully-specified evaluation house: topology, per-occupant behaviour,
/// dataset naming, and the canonical seed its reference month uses.
#[derive(Debug, Clone, PartialEq)]
pub struct HouseSpec {
    /// Home topology (zones, occupant names, appliance wiring).
    pub home: HomeSpec,
    /// Dataset label prefix in the paper's convention (`"HA"`, `"HB"`,
    /// `"S6"`, ...); occupant datasets are `"{label}O{i+1}"`.
    pub label: String,
    /// Short house tag used in exhibit table columns (`"A"`, `"B"`,
    /// `"S6"`, ...).
    pub short: String,
    /// Canonical dataset seed of this house's reference month.
    pub canonical_seed: u64,
    /// One persona per occupant, in [`shatter_smarthome::OccupantId`]
    /// order; must match `home.occupant_names` in length.
    pub personas: Vec<PersonaSpec>,
}

/// Canonical seed of the ARAS House-A reference month.
pub const ARAS_A_SEED: u64 = 11;
/// Canonical seed of the ARAS House-B reference month.
pub const ARAS_B_SEED: u64 = 22;

impl HouseSpec {
    /// ARAS House A: occupant 1 mostly home and studying, occupant 2 an
    /// office worker.
    pub fn aras_a() -> HouseSpec {
        HouseSpec {
            home: HomeSpec::aras_a(),
            label: "HA".to_owned(),
            short: "A".to_owned(),
            canonical_seed: ARAS_A_SEED,
            personas: vec![
                PersonaSpec {
                    wake_mean: 430.0,
                    work_prob_weekday: 0.30,
                    work_duration_mean: 310.0,
                    evening_tv_mean: 100.0,
                    shower_in_morning: false,
                    anchors: ActivityAnchors::ARAS,
                },
                PersonaSpec {
                    wake_mean: 395.0,
                    work_prob_weekday: 0.85,
                    work_duration_mean: 540.0,
                    evening_tv_mean: 80.0,
                    shower_in_morning: true,
                    anchors: ActivityAnchors::ARAS,
                },
            ],
        }
    }

    /// ARAS House B: both occupants away for longer work blocks, giving
    /// the paper's lower House-B control costs.
    pub fn aras_b() -> HouseSpec {
        HouseSpec {
            home: HomeSpec::aras_b(),
            label: "HB".to_owned(),
            short: "B".to_owned(),
            canonical_seed: ARAS_B_SEED,
            personas: vec![
                PersonaSpec {
                    wake_mean: 410.0,
                    work_prob_weekday: 0.80,
                    work_duration_mean: 580.0,
                    evening_tv_mean: 70.0,
                    shower_in_morning: true,
                    anchors: ActivityAnchors::ARAS,
                },
                PersonaSpec {
                    wake_mean: 380.0,
                    work_prob_weekday: 0.90,
                    work_duration_mean: 620.0,
                    evening_tv_mean: 60.0,
                    shower_in_morning: true,
                    anchors: ActivityAnchors::ARAS,
                },
            ],
        }
    }

    /// A scaled house over [`HomeSpec::scaled`]: `n_zones` indoor zones
    /// cycling the ARAS archetypes and `n_occupants` occupants with
    /// deterministically generated personas. Occupants anchor to
    /// distinct bedrooms/kitchens (cycling by occupant index) when the
    /// home has several of an archetype.
    ///
    /// # Panics
    ///
    /// Panics when `n_zones == 0` or `n_occupants == 0`.
    pub fn scaled(n_zones: usize, n_occupants: usize) -> HouseSpec {
        let home = HomeSpec::scaled(n_zones, n_occupants);
        let personas = (0..n_occupants)
            .map(|o| generated_persona(&home, n_zones, o))
            .collect();
        HouseSpec {
            home,
            label: format!("S{n_zones}"),
            short: format!("S{n_zones}"),
            // Distinct per-shape canonical seeds, away from the ARAS ones.
            canonical_seed: 0x5CA1_ED00 ^ ((n_zones as u64) << 8) ^ n_occupants as u64,
            personas,
        }
    }

    /// Number of occupants (personas).
    pub fn n_occupants(&self) -> usize {
        self.personas.len()
    }

    /// Stable FNV-1a signature over every field — topology, personas,
    /// labels and canonical seed. This is the cache identity of the
    /// house: fixture caches, ADM-training keys and schedule memo keys
    /// include it, so two specs differing in any parameter never alias.
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        self.home.fold_signature(&mut h);
        fold_str(&mut h, &self.label);
        fold_str(&mut h, &self.short);
        fold(&mut h, self.canonical_seed);
        fold(&mut h, self.personas.len() as u64);
        for p in &self.personas {
            p.fold_signature(&mut h);
        }
        h
    }

    /// Memo-key fragment identifying this house: `"{label}-{sig:016x}"`.
    /// Every schedule/reward/benign-cost memo prefix embeds this, so
    /// houses sharing `days`/`seed` can never collide.
    pub fn cache_tag(&self) -> String {
        format!("{}-{:016x}", self.label, self.signature())
    }
}

/// Deterministic persona for occupant `o` of a scaled home: splitmix64
/// of `(n_zones, o)` jitters each behavioural parameter inside its
/// plausible band, and anchors cycle the archetype zones by occupant.
fn generated_persona(home: &HomeSpec, n_zones: usize, o: usize) -> PersonaSpec {
    let mut x = (n_zones as u64) << 32 | o as u64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
    let anchor = |archetype: RoomArchetype| -> ZoneId {
        let zones: Vec<ZoneId> = home.zones_of(archetype).collect();
        if zones.is_empty() {
            // Tiny home without this archetype: remap like the appliance
            // wiring does.
            let base = match archetype {
                RoomArchetype::Bedroom => 1usize,
                RoomArchetype::Livingroom => 2,
                RoomArchetype::Kitchen => 3,
                RoomArchetype::Bathroom => 4,
            };
            ZoneId((base - 1) % n_zones + 1)
        } else {
            zones[o % zones.len()]
        }
    };
    PersonaSpec {
        wake_mean: (380.0 + unit(next()) * 60.0).round(),
        work_prob_weekday: 0.30 + unit(next()) * 0.60,
        work_duration_mean: (310.0 + unit(next()) * 310.0).round(),
        evening_tv_mean: (60.0 + unit(next()) * 50.0).round(),
        shower_in_morning: next() & 1 == 1,
        anchors: ActivityAnchors {
            bedroom: anchor(RoomArchetype::Bedroom),
            livingroom: anchor(RoomArchetype::Livingroom),
            kitchen: anchor(RoomArchetype::Kitchen),
            bathroom: anchor(RoomArchetype::Bathroom),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aras_specs_have_expected_identity() {
        let a = HouseSpec::aras_a();
        let b = HouseSpec::aras_b();
        assert_eq!((a.label.as_str(), a.short.as_str()), ("HA", "A"));
        assert_eq!((b.label.as_str(), b.short.as_str()), ("HB", "B"));
        assert_eq!(a.canonical_seed, ARAS_A_SEED);
        assert_eq!(b.canonical_seed, ARAS_B_SEED);
        assert_eq!(a.n_occupants(), 2);
        assert_ne!(a.signature(), b.signature());
        // Signature is a pure function of the spec.
        assert_eq!(a.signature(), HouseSpec::aras_a().signature());
    }

    #[test]
    fn aras_anchors_reproduce_default_zones() {
        use shatter_smarthome::Activity;
        for a in [
            Activity::Sleeping,
            Activity::WatchingTv,
            Activity::PreparingDinner,
            Activity::HavingShower,
            Activity::GoingOut,
        ] {
            assert_eq!(ActivityAnchors::ARAS.zone_for(a), default_zone_for(a));
        }
    }

    #[test]
    fn scaled_personas_are_deterministic_and_in_band() {
        let s1 = HouseSpec::scaled(10, 4);
        let s2 = HouseSpec::scaled(10, 4);
        assert_eq!(s1, s2);
        assert_eq!(s1.signature(), s2.signature());
        for p in &s1.personas {
            assert!((300.0..=600.0).contains(&p.wake_mean));
            assert!((0.0..=1.0).contains(&p.work_prob_weekday));
            assert!((180.0..=700.0).contains(&p.work_duration_mean));
            assert!((30.0..=170.0).contains(&p.evening_tv_mean));
        }
        // Personas differ across occupants.
        assert_ne!(s1.personas[0], s1.personas[1]);
    }

    #[test]
    fn scaled_anchors_spread_occupants_across_archetype_zones() {
        // 10 zones cycle B,L,K,Ba,B,L,K,Ba,B,L: three bedrooms.
        let s = HouseSpec::scaled(10, 3);
        let bedrooms: Vec<ZoneId> = s.personas.iter().map(|p| p.anchors.bedroom).collect();
        assert_eq!(bedrooms, vec![ZoneId(1), ZoneId(5), ZoneId(9)]);
        // Every anchor points at a zone of the right archetype.
        for p in &s.personas {
            assert_eq!(
                s.home.zones[p.anchors.kitchen.index() - 1].archetype.name(),
                "Kitchen"
            );
        }
    }

    #[test]
    fn signatures_and_seeds_separate_scaled_shapes() {
        let shapes = [(6usize, 2usize), (10, 2), (16, 2), (6, 3)];
        let sigs: Vec<u64> = shapes
            .iter()
            .map(|&(z, o)| HouseSpec::scaled(z, o).signature())
            .collect();
        let seeds: Vec<u64> = shapes
            .iter()
            .map(|&(z, o)| HouseSpec::scaled(z, o).canonical_seed)
            .collect();
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                assert_ne!(sigs[i], sigs[j], "{:?} vs {:?}", shapes[i], shapes[j]);
                assert_ne!(seeds[i], seeds[j], "{:?} vs {:?}", shapes[i], shapes[j]);
            }
        }
    }

    #[test]
    fn cache_tag_embeds_label_and_signature() {
        let a = HouseSpec::aras_a();
        let tag = a.cache_tag();
        assert!(tag.starts_with("HA-"));
        assert!(tag.contains(&format!("{:016x}", a.signature())));
    }
}
