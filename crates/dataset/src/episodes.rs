//! Stay-episode extraction: the ADM's feature space.
//!
//! SHATTER's anomaly-detection model operates on (arrival-time,
//! stay-duration) pairs per occupant and zone (paper Eq. 5–7): an *arrival
//! event* `E^A` starts an episode when the occupant enters a zone, an *exit
//! event* `E^E` ends it, and the *stay* `E^S` is the difference.

use shatter_smarthome::{OccupantId, ZoneId};

use crate::Dataset;

/// One contiguous stay of an occupant in a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Which occupant stayed.
    pub occupant: OccupantId,
    /// Which zone they stayed in.
    pub zone: ZoneId,
    /// Day index the episode started on.
    pub day: u32,
    /// Arrival minute-of-day (`t1` in the paper).
    pub arrival: u32,
    /// Stay duration in minutes (`t2 - t1`).
    pub stay: u32,
}

impl Episode {
    /// The episode as an (arrival, stay) feature pair.
    pub fn feature(&self) -> (f64, f64) {
        (self.arrival as f64, self.stay as f64)
    }

    /// Exit minute (may equal 1440 when the stay runs to midnight).
    pub fn exit(&self) -> u32 {
        self.arrival + self.stay
    }
}

/// Extracts every stay episode from a dataset, day by day.
///
/// A stay that spans midnight is split at the day boundary (the ADM's
/// feature space is minute-of-day, so this matches the paper's treatment of
/// the 1440-slot horizon).
///
/// ```
/// use shatter_dataset::{episodes::extract_episodes, synthesize, HouseSpec, SynthConfig};
/// let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 2, 1));
/// let eps = extract_episodes(&ds);
/// assert!(!eps.is_empty());
/// // Episodes within a day tile the full 1440 minutes per occupant.
/// let day0_occ0: u32 = eps
///     .iter()
///     .filter(|e| e.day == 0 && e.occupant.index() == 0)
///     .map(|e| e.stay)
///     .sum();
/// assert_eq!(day0_occ0, 1440);
/// ```
pub fn extract_episodes(ds: &Dataset) -> Vec<Episode> {
    let mut out = Vec::new();
    for day in &ds.days {
        for o in 0..ds.n_occupants {
            let mut start = 0usize;
            let mut cur = day.minutes[0].occupants[o].zone;
            for m in 1..day.minutes.len() {
                let z = day.minutes[m].occupants[o].zone;
                if z != cur {
                    out.push(Episode {
                        occupant: OccupantId(o),
                        zone: cur,
                        day: day.day,
                        arrival: start as u32,
                        stay: (m - start) as u32,
                    });
                    start = m;
                    cur = z;
                }
            }
            out.push(Episode {
                occupant: OccupantId(o),
                zone: cur,
                day: day.day,
                arrival: start as u32,
                stay: (day.minutes.len() - start) as u32,
            });
        }
    }
    out
}

/// Filters episodes down to one occupant and zone, as (arrival, stay)
/// feature pairs — the input to one per-(occupant, zone) ADM cluster model.
pub fn features_for(episodes: &[Episode], occupant: OccupantId, zone: ZoneId) -> Vec<(f64, f64)> {
    episodes
        .iter()
        .filter(|e| e.occupant == occupant && e.zone == zone)
        .map(Episode::feature)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, HouseSpec, SynthConfig};
    use shatter_smarthome::MINUTES_PER_DAY;

    #[test]
    fn episodes_tile_each_day() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 3, 21));
        let eps = extract_episodes(&ds);
        for day in 0..3u32 {
            for o in 0..ds.n_occupants {
                let sel: Vec<&Episode> = eps
                    .iter()
                    .filter(|e| e.day == day && e.occupant.index() == o)
                    .collect();
                let total: u32 = sel.iter().map(|e| e.stay).sum();
                assert_eq!(total, MINUTES_PER_DAY as u32);
                // Episodes are contiguous and ordered.
                let mut cursor = 0;
                for e in sel {
                    assert_eq!(e.arrival, cursor);
                    cursor = e.exit();
                }
                assert_eq!(cursor, MINUTES_PER_DAY as u32);
            }
        }
    }

    #[test]
    fn consecutive_episodes_change_zone() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_b(), 2, 33));
        let eps = extract_episodes(&ds);
        for w in eps.windows(2) {
            if w[0].day == w[1].day && w[0].occupant == w[1].occupant {
                assert_ne!(w[0].zone, w[1].zone, "adjacent episodes must differ");
            }
        }
    }

    #[test]
    fn features_for_filters() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 2, 5));
        let eps = extract_episodes(&ds);
        let f = features_for(&eps, OccupantId(0), ZoneId(1));
        assert!(!f.is_empty());
        let count = eps
            .iter()
            .filter(|e| e.occupant == OccupantId(0) && e.zone == ZoneId(1))
            .count();
        assert_eq!(f.len(), count);
    }
}
