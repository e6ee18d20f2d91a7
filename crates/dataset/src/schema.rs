use std::sync::Arc;

use shatter_smarthome::{Activity, ZoneId, MINUTES_PER_DAY};

/// The state of one occupant during one minute: where they are and what
/// they are doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupantState {
    /// Zone the occupant resides in (RFID tracking, `S^OT` in the paper).
    pub zone: ZoneId,
    /// Activity label (ARAS activity codes).
    pub activity: Activity,
}

/// One sampling slot (one minute) of the whole home.
///
/// `Eq` lets `Arc<MinuteRecord>`'s `==` return early when both sides are
/// the same allocation, which is how [`DayTrace`] shares a record run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinuteRecord {
    /// Per-occupant states, indexed by `OccupantId`.
    pub occupants: Vec<OccupantState>,
    /// Appliance on/off states (`S^D`), indexed by `ApplianceId`.
    pub appliances: Vec<bool>,
}

/// A full day of per-minute records (always [`MINUTES_PER_DAY`] slots).
///
/// A day's records change a few dozen times, not 1,440, so the minutes of
/// a record run share one allocation:
///
/// - minutes with equal records may point at the same `Arc`;
/// - [`crate::synthesize`] and the blob decoder share every run, so a
///   minute points at the same record as the minute before exactly when
///   the two are equal;
/// - an edit goes through [`Arc::make_mut`], which copies a shared
///   record first, so editing one minute never changes the other minutes
///   of its run.
///
/// Readers need none of this: `day.minutes[t].occupants[o]` derefs
/// through the `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayTrace {
    /// Day index within the dataset (0-based).
    pub day: u32,
    /// Exactly [`MINUTES_PER_DAY`] records.
    pub minutes: Vec<Arc<MinuteRecord>>,
}

impl DayTrace {
    /// The record at a given minute of day.
    ///
    /// # Panics
    ///
    /// Panics if `minute >= MINUTES_PER_DAY`.
    pub fn at(&self, minute: usize) -> &MinuteRecord {
        &self.minutes[minute]
    }
}

/// An ARAS-schema dataset: a sequence of day traces for one house.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// House label, e.g. `"ARAS House A"`.
    pub house: String,
    /// Number of occupants per record.
    pub n_occupants: usize,
    /// Number of appliances per record.
    pub n_appliances: usize,
    /// The day traces, in chronological order.
    pub days: Vec<DayTrace>,
}

impl Dataset {
    /// Validates structural invariants: every day has 1440 slots and every
    /// record has the declared occupant/appliance counts.
    pub fn validate(&self) -> Result<(), String> {
        for d in &self.days {
            if d.minutes.len() != MINUTES_PER_DAY {
                return Err(format!(
                    "day {} has {} slots, expected {MINUTES_PER_DAY}",
                    d.day,
                    d.minutes.len()
                ));
            }
            for (m, rec) in d.minutes.iter().enumerate() {
                if rec.occupants.len() != self.n_occupants {
                    return Err(format!("day {} minute {m}: bad occupant count", d.day));
                }
                if rec.appliances.len() != self.n_appliances {
                    return Err(format!("day {} minute {m}: bad appliance count", d.day));
                }
            }
        }
        Ok(())
    }

    /// Returns the sub-dataset containing only days `[0, n_days)` — the
    /// paper's progressive-training splits use day prefixes.
    pub fn prefix_days(&self, n_days: usize) -> Dataset {
        Dataset {
            house: self.house.clone(),
            n_occupants: self.n_occupants,
            n_appliances: self.n_appliances,
            days: self.days.iter().take(n_days).cloned().collect(),
        }
    }

    /// Returns the sub-dataset containing days `[from, ..)`.
    pub fn suffix_days(&self, from: usize) -> Dataset {
        Dataset {
            house: self.house.clone(),
            n_occupants: self.n_occupants,
            n_appliances: self.n_appliances,
            days: self.days.iter().skip(from).cloned().collect(),
        }
    }

    /// Splits into `(train, test)` at the given day boundary.
    pub fn split_at_day(&self, day: usize) -> (Dataset, Dataset) {
        (self.prefix_days(day), self.suffix_days(day))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n_days: usize) -> Dataset {
        let rec = Arc::new(MinuteRecord {
            occupants: vec![OccupantState {
                zone: ZoneId(0),
                activity: Activity::GoingOut,
            }],
            appliances: vec![false, true],
        });
        Dataset {
            house: "T".into(),
            n_occupants: 1,
            n_appliances: 2,
            days: (0..n_days as u32)
                .map(|day| DayTrace {
                    day,
                    minutes: vec![Arc::clone(&rec); MINUTES_PER_DAY],
                })
                .collect(),
        }
    }

    #[test]
    fn validate_accepts_consistent_data() {
        assert!(tiny(2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_short_day() {
        let mut d = tiny(1);
        d.days[0].minutes.pop();
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_occupant_count() {
        let mut d = tiny(1);
        Arc::make_mut(&mut d.days[0].minutes[5]).occupants.clear();
        assert!(d.validate().is_err());
        assert_eq!(d.days[0].minutes[4].occupants.len(), 1, "copy on write");
    }

    #[test]
    fn split_preserves_days() {
        let d = tiny(10);
        let (tr, te) = d.split_at_day(7);
        assert_eq!(tr.days.len(), 7);
        assert_eq!(te.days.len(), 3);
        assert_eq!(te.days[0].day, 7);
    }
}
