use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shatter_smarthome::{Activity, ZoneId, MINUTES_PER_DAY};

use crate::spec::{HouseSpec, PersonaSpec};
use crate::{Dataset, DayTrace, MinuteRecord, OccupantState};

/// Configuration of the synthetic ARAS-schema generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Which house to synthesize: topology and per-occupant personas.
    pub spec: HouseSpec,
    /// Number of days to generate (the paper uses a 30-day month).
    pub days: usize,
    /// RNG seed; identical configs produce identical datasets.
    pub seed: u64,
}

impl SynthConfig {
    /// Creates a config.
    pub fn new(spec: HouseSpec, days: usize, seed: u64) -> Self {
        SynthConfig { spec, days, seed }
    }

    /// The standard month-long configuration used by the evaluation.
    pub fn month(spec: HouseSpec, seed: u64) -> Self {
        SynthConfig::new(spec, 30, seed)
    }
}

/// The canonical zone an activity takes place in, for the ARAS room layout
/// (Outside, Bedroom, Livingroom, Kitchen, Bathroom). Non-ARAS houses
/// route this class through each persona's
/// [`crate::spec::ActivityAnchors`].
pub fn default_zone_for(activity: Activity) -> ZoneId {
    use Activity::*;
    match activity {
        GoingOut => ZoneId(0),
        Sleeping | Napping | ChangingClothes => ZoneId(1),
        WatchingTv | Studying | UsingInternet | ReadingBook | ListeningToMusic | TalkingOnPhone
        | HavingConversation | HavingGuest | HavingSnack | Other | Cleaning => ZoneId(2),
        PreparingBreakfast | HavingBreakfast | PreparingLunch | HavingLunch | PreparingDinner
        | HavingDinner | WashingDishes => ZoneId(3),
        HavingShower | Toileting | Shaving | BrushingTeeth | Laundry => ZoneId(4),
    }
}

/// Box–Muller Gaussian sample clamped to `[min, max]`, rounded to minutes.
fn gauss_minutes(rng: &mut StdRng, mean: f64, sd: f64, min: f64, max: f64) -> u32 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mean + sd * z).clamp(min, max).round() as u32
}

/// One contiguous activity block in a day plan.
#[derive(Debug, Clone, Copy)]
struct Segment {
    activity: Activity,
    duration: u32,
}

/// Idle home activities to fill gaps with (livingroom-centric).
const IDLE: [Activity; 5] = [
    Activity::WatchingTv,
    Activity::UsingInternet,
    Activity::Studying,
    Activity::ReadingBook,
    Activity::ListeningToMusic,
];

fn idle_segment(rng: &mut StdRng) -> Segment {
    let activity = IDLE[rng.random_range(0..IDLE.len())];
    Segment {
        activity,
        duration: gauss_minutes(rng, 55.0, 18.0, 20.0, 120.0),
    }
}

/// Builds one occupant's full-day plan as a sequence of segments summing to
/// exactly [`MINUTES_PER_DAY`] minutes, driven entirely by the occupant's
/// [`PersonaSpec`] parameters.
fn day_plan(rng: &mut StdRng, p: &PersonaSpec, day: u32) -> Vec<Segment> {
    let weekend = matches!(day % 7, 5 | 6);
    let mut plan: Vec<Segment> = Vec::new();
    let mut t: u32 = 0;

    let push = |plan: &mut Vec<Segment>, t: &mut u32, s: Segment| {
        if *t >= MINUTES_PER_DAY as u32 || s.duration == 0 {
            return;
        }
        let dur = s.duration.min(MINUTES_PER_DAY as u32 - *t);
        plan.push(Segment {
            activity: s.activity,
            duration: dur,
        });
        *t += dur;
    };

    // Night sleep carried over from the previous evening.
    let wake_mean = if weekend {
        p.wake_mean + 50.0
    } else {
        p.wake_mean
    };
    let wake = gauss_minutes(rng, wake_mean, 14.0, 300.0, 600.0);
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::Sleeping,
            duration: wake,
        },
    );

    // Morning routine.
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::Toileting,
            duration: gauss_minutes(rng, 7.0, 2.0, 3.0, 14.0),
        },
    );
    if p.shower_in_morning || rng.random::<f64>() < 0.35 {
        push(
            &mut plan,
            &mut t,
            Segment {
                activity: Activity::HavingShower,
                duration: gauss_minutes(rng, 22.0, 4.0, 12.0, 34.0),
            },
        );
    }
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::PreparingBreakfast,
            duration: gauss_minutes(rng, 17.0, 4.0, 8.0, 30.0),
        },
    );
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::HavingBreakfast,
            duration: gauss_minutes(rng, 14.0, 3.0, 7.0, 25.0),
        },
    );

    // Work block.
    let works = !weekend && rng.random::<f64>() < p.work_prob_weekday;
    if works {
        push(
            &mut plan,
            &mut t,
            Segment {
                activity: Activity::GoingOut,
                duration: gauss_minutes(rng, p.work_duration_mean, 35.0, 180.0, 700.0),
            },
        );
    }

    // Daytime at home until dinner prep (~18:20).
    let dinner_prep_start = gauss_minutes(rng, 1100.0, 12.0, 1050.0, 1160.0);
    while t + 20 < dinner_prep_start {
        // Lunch window for occupants who are home around 12:15.
        if !works && (730..790).contains(&t) {
            push(
                &mut plan,
                &mut t,
                Segment {
                    activity: Activity::PreparingLunch,
                    duration: gauss_minutes(rng, 20.0, 4.0, 10.0, 32.0),
                },
            );
            push(
                &mut plan,
                &mut t,
                Segment {
                    activity: Activity::HavingLunch,
                    duration: gauss_minutes(rng, 17.0, 3.0, 9.0, 28.0),
                },
            );
            push(
                &mut plan,
                &mut t,
                Segment {
                    activity: Activity::WashingDishes,
                    duration: gauss_minutes(rng, 8.0, 2.0, 4.0, 14.0),
                },
            );
            continue;
        }
        // Occasional chores.
        let roll: f64 = rng.random();
        if roll < 0.10 {
            push(
                &mut plan,
                &mut t,
                Segment {
                    activity: Activity::Cleaning,
                    duration: gauss_minutes(rng, 32.0, 8.0, 15.0, 55.0),
                },
            );
        } else if roll < 0.17 {
            push(
                &mut plan,
                &mut t,
                Segment {
                    activity: Activity::Laundry,
                    duration: gauss_minutes(rng, 24.0, 5.0, 12.0, 40.0),
                },
            );
        } else if roll < 0.25 && (780..1020).contains(&t) {
            push(
                &mut plan,
                &mut t,
                Segment {
                    activity: Activity::Napping,
                    duration: gauss_minutes(rng, 45.0, 12.0, 20.0, 90.0),
                },
            );
        } else {
            push(&mut plan, &mut t, idle_segment(rng));
        }
    }
    // Align to dinner prep.
    if t < dinner_prep_start {
        let gap = dinner_prep_start - t;
        push(
            &mut plan,
            &mut t,
            Segment {
                activity: IDLE[rng.random_range(0..IDLE.len())],
                duration: gap,
            },
        );
    }

    // Evening routine.
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::PreparingDinner,
            duration: gauss_minutes(rng, 24.0, 5.0, 12.0, 38.0),
        },
    );
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::HavingDinner,
            duration: gauss_minutes(rng, 23.0, 4.0, 12.0, 35.0),
        },
    );
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::WashingDishes,
            duration: gauss_minutes(rng, 9.0, 2.0, 4.0, 15.0),
        },
    );
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::WatchingTv,
            duration: gauss_minutes(rng, p.evening_tv_mean, 20.0, 30.0, 170.0),
        },
    );
    push(
        &mut plan,
        &mut t,
        Segment {
            activity: Activity::BrushingTeeth,
            duration: gauss_minutes(rng, 5.0, 1.5, 2.0, 9.0),
        },
    );
    // Sleep fills the rest of the day.
    if t < MINUTES_PER_DAY as u32 {
        let rest = MINUTES_PER_DAY as u32 - t;
        push(
            &mut plan,
            &mut t,
            Segment {
                activity: Activity::Sleeping,
                duration: rest,
            },
        );
    }
    debug_assert_eq!(
        plan.iter().map(|s| s.duration).sum::<u32>(),
        MINUTES_PER_DAY as u32
    );
    plan
}

/// Generates a synthetic ARAS-schema dataset for the given configuration.
///
/// Appliance states are derived from occupant activity: an appliance is on
/// during a minute iff some occupant in its zone performs one of its linked
/// activities (the paper's activity–appliance relationship, §II reason 2).
/// A minute's record therefore depends on its occupant states alone: it is
/// built, and the appliance rule evaluated, only where some occupant's
/// state changes, and the other minutes of each run share that record
/// (see [`DayTrace`]).
///
/// # Panics
///
/// Panics when the spec's persona count does not match its home's
/// occupant count.
pub fn synthesize(config: &SynthConfig) -> Dataset {
    let home = config.spec.home.build();
    let n_occupants = home.occupants().len();
    assert_eq!(
        n_occupants,
        config.spec.personas.len(),
        "one persona per occupant"
    );
    let n_appliances = home.appliances().len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Each occupant's per-minute state row, refilled every day.
    let mut rows: Vec<Vec<OccupantState>> = vec![Vec::new(); n_occupants];
    let mut days = Vec::with_capacity(config.days);
    for day in 0..config.days as u32 {
        for (row, persona) in rows.iter_mut().zip(&config.spec.personas) {
            row.clear();
            for seg in day_plan(&mut rng, persona, day) {
                let state = OccupantState {
                    zone: persona.anchors.zone_for(seg.activity),
                    activity: seg.activity,
                };
                row.extend(std::iter::repeat_n(state, seg.duration as usize));
            }
            debug_assert_eq!(row.len(), MINUTES_PER_DAY);
        }

        let mut minutes: Vec<Arc<MinuteRecord>> = Vec::with_capacity(MINUTES_PER_DAY);
        for m in 0..MINUTES_PER_DAY {
            let rec = match minutes.last() {
                Some(prev) if rows.iter().all(|row| row[m] == row[m - 1]) => Arc::clone(prev),
                _ => {
                    let occupants: Vec<OccupantState> = rows.iter().map(|row| row[m]).collect();
                    let appliances = home
                        .appliances()
                        .iter()
                        .map(|a| {
                            occupants
                                .iter()
                                .any(|os| os.zone == a.zone && a.linked_to(os.activity))
                        })
                        .collect();
                    Arc::new(MinuteRecord {
                        occupants,
                        appliances,
                    })
                }
            };
            minutes.push(rec);
        }
        days.push(DayTrace { day, minutes });
    }

    let ds = Dataset {
        house: home.name().to_owned(),
        n_occupants,
        n_appliances,
        days,
    };
    debug_assert!(ds.validate().is_ok());
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let c = SynthConfig::new(HouseSpec::aras_a(), 2, 7);
        assert_eq!(synthesize(&c), synthesize(&c));
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 2, 1));
        let b = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 2, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn validates_and_has_shape() {
        let d = synthesize(&SynthConfig::new(HouseSpec::aras_b(), 4, 3));
        d.validate().unwrap();
        assert_eq!(d.days.len(), 4);
        assert_eq!(d.n_occupants, 2);
        assert_eq!(d.n_appliances, 13);
    }

    #[test]
    fn occupants_sleep_at_night() {
        let d = synthesize(&SynthConfig::month(HouseSpec::aras_a(), 5));
        // At 03:00 nearly every occupant-day should be asleep in the bedroom.
        let mut asleep = 0usize;
        let mut total = 0usize;
        for day in &d.days {
            for os in &day.minutes[180].occupants {
                total += 1;
                if os.activity == Activity::Sleeping && os.zone == ZoneId(1) {
                    asleep += 1;
                }
            }
        }
        assert!(asleep as f64 / total as f64 > 0.95, "{asleep}/{total}");
    }

    #[test]
    fn house_b_more_away_time_than_a() {
        let a = synthesize(&SynthConfig::month(HouseSpec::aras_a(), 11));
        let b = synthesize(&SynthConfig::month(HouseSpec::aras_b(), 11));
        let away = |d: &Dataset| -> usize {
            d.days
                .iter()
                .flat_map(|day| day.minutes.iter())
                .flat_map(|m| m.occupants.iter())
                .filter(|os| os.zone == ZoneId(0))
                .count()
        };
        assert!(away(&b) > away(&a));
    }

    #[test]
    fn appliances_track_linked_activities() {
        let d = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 3, 9));
        let home = shatter_smarthome::houses::aras_house_a();
        for day in &d.days {
            for rec in &day.minutes {
                for (ai, on) in rec.appliances.iter().enumerate() {
                    let a = &home.appliances()[ai];
                    let expected = rec
                        .occupants
                        .iter()
                        .any(|os| os.zone == a.zone && a.linked_to(os.activity));
                    assert_eq!(*on, expected);
                }
            }
        }
    }

    #[test]
    fn cooking_happens_in_kitchen_in_evening() {
        let d = synthesize(&SynthConfig::month(HouseSpec::aras_a(), 13));
        let mut dinner_minutes = 0usize;
        for day in &d.days {
            for m in 1050..1250 {
                for os in &day.minutes[m].occupants {
                    if os.activity == Activity::PreparingDinner {
                        assert_eq!(os.zone, ZoneId(3));
                        dinner_minutes += 1;
                    }
                }
            }
        }
        assert!(dinner_minutes > 100, "dinner minutes = {dinner_minutes}");
    }

    #[test]
    fn scaled_house_synthesizes_n_occupants_across_anchor_zones() {
        let spec = HouseSpec::scaled(10, 3);
        let d = synthesize(&SynthConfig::new(spec.clone(), 3, 4));
        d.validate().unwrap();
        assert_eq!(d.n_occupants, 3);
        // Each occupant sleeps in their own anchored bedroom at 03:00.
        for day in &d.days {
            for (o, os) in day.minutes[180].occupants.iter().enumerate() {
                if os.activity == Activity::Sleeping {
                    assert_eq!(os.zone, spec.personas[o].anchors.bedroom);
                }
            }
        }
        // Occupants use distinct bedrooms (10-zone home has 3 bedrooms).
        let bedrooms: std::collections::BTreeSet<ZoneId> =
            spec.personas.iter().map(|p| p.anchors.bedroom).collect();
        assert_eq!(bedrooms.len(), 3);
    }
}
