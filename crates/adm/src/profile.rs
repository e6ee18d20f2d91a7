//! Precomputed stay-bound lookup tables ([`StayProfile`]).
//!
//! The schedule synthesizers interrogate the ADM from their innermost
//! loops — `minStay`/`maxStay`/`inRangeStay`/"any stealthy stay from this
//! arrival?" — and every one of those primitives walks cluster hull
//! geometry. A [`StayProfile`] evaluates the hull sweep once per integer
//! arrival minute for one (occupant, zone) pair and answers every
//! subsequent query from flat arrays, so the hot kernels stop issuing
//! repeated hull queries.

use shatter_smarthome::MINUTES_PER_DAY;

use crate::hullmodel::HullAdm;
use shatter_smarthome::{OccupantId, ZoneId};

/// Stay-bound lookup table for one (occupant, zone) pair over integer
/// arrival minutes `0..minutes`.
///
/// Built from (and answer-equivalent to) [`HullAdm::stay_ranges`],
/// [`HullAdm::min_stay`], [`HullAdm::max_stay`] and
/// [`HullAdm::in_range_stay`] at integer arrivals; out-of-range arrivals
/// report "no stealthy stay" exactly like an untrained (occupant, zone)
/// pair.
///
/// The intervals are stored compressed-sparse-row style: every arrival's
/// intervals lie back to back in one flat array, and `starts` holds each
/// arrival's offset into it, so a profile is four allocations however
/// many arrivals it covers.
#[derive(Debug, Clone, Default)]
pub struct StayProfile {
    /// Every arrival's stealthy `[min, max]` stay intervals, arrival by
    /// arrival, each arrival's run sorted by lower edge (one interval per
    /// cluster hull crossing the arrival line).
    ranges: Vec<(f64, f64)>,
    /// `ranges[starts[a]..starts[a + 1]]` are arrival `a`'s intervals
    /// (`minutes + 1` offsets; empty for a default profile).
    starts: Vec<u32>,
    /// Per-arrival minimum stealthy stay; `NAN` encodes "none".
    min_stay: Vec<f64>,
    /// Per-arrival maximum stealthy stay; `NAN` encodes "none".
    max_stay: Vec<f64>,
}

impl StayProfile {
    /// Sweeps `adm`'s hulls for `(occupant, zone)` at every integer
    /// arrival in `0..minutes` (typically [`MINUTES_PER_DAY`]).
    pub fn build(adm: &HullAdm, occupant: OccupantId, zone: ZoneId, minutes: usize) -> StayProfile {
        let mut ranges = Vec::new();
        let mut starts = Vec::with_capacity(minutes + 1);
        let mut min_stay = Vec::with_capacity(minutes);
        let mut max_stay = Vec::with_capacity(minutes);
        starts.push(0);
        for arrival in 0..minutes {
            let r = adm.stay_ranges(occupant, zone, arrival as f64);
            min_stay.push(r.iter().fold(f64::NAN, |acc, &(lo, _)| acc.min(lo)));
            max_stay.push(r.iter().fold(f64::NAN, |acc, &(_, hi)| acc.max(hi)));
            ranges.extend_from_slice(&r);
            starts.push(u32::try_from(ranges.len()).expect("stay profile fits u32 offsets"));
        }
        ranges.shrink_to_fit();
        StayProfile {
            ranges,
            starts,
            min_stay,
            max_stay,
        }
    }

    /// Builds a full-day profile (arrivals `0..MINUTES_PER_DAY`).
    pub fn build_day(adm: &HullAdm, occupant: OccupantId, zone: ZoneId) -> StayProfile {
        StayProfile::build(adm, occupant, zone, MINUTES_PER_DAY)
    }

    /// Number of arrival minutes covered.
    pub fn minutes(&self) -> usize {
        self.min_stay.len()
    }

    /// Whether no arrival minute has a stealthy stay (untrained pair).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The stealthy stay intervals at an arrival minute
    /// ([`HullAdm::stay_ranges`]).
    pub fn stay_ranges(&self, arrival: usize) -> &[(f64, f64)] {
        match (self.starts.get(arrival), self.starts.get(arrival + 1)) {
            (Some(&lo), Some(&hi)) => &self.ranges[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Whether any stealthy stay exists from this arrival minute.
    pub fn has_future(&self, arrival: usize) -> bool {
        !self.stay_ranges(arrival).is_empty()
    }

    /// Minimum stealthy stay at an arrival minute ([`HullAdm::min_stay`]).
    pub fn min_stay(&self, arrival: usize) -> Option<f64> {
        match self.min_stay.get(arrival) {
            Some(v) if !v.is_nan() => Some(*v),
            _ => None,
        }
    }

    /// Maximum stealthy stay at an arrival minute ([`HullAdm::max_stay`]).
    pub fn max_stay(&self, arrival: usize) -> Option<f64> {
        match self.max_stay.get(arrival) {
            Some(v) if !v.is_nan() => Some(*v),
            _ => None,
        }
    }

    /// Whether leaving after `stay` minutes is stealthy
    /// ([`HullAdm::in_range_stay`]): the stay falls inside one of the
    /// arrival's intervals.
    pub fn in_range_stay(&self, arrival: usize, stay: f64) -> bool {
        self.stay_ranges(arrival)
            .iter()
            .any(|&(lo, hi)| lo <= stay && stay <= hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};

    #[test]
    fn out_of_range_arrival_has_no_stay() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 8, 3));
        let adm = HullAdm::train(&ds, AdmKind::default_kmeans());
        let p = StayProfile::build(&adm, OccupantId(0), ZoneId(1), 10);
        assert_eq!(p.minutes(), 10);
        assert!(p.stay_ranges(10).is_empty());
        assert!(p.min_stay(99).is_none());
        assert!(!p.in_range_stay(99, 5.0));
    }

    #[test]
    fn untrained_pair_profile_is_empty() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 5, 3));
        let adm = HullAdm::train(&ds, AdmKind::default_kmeans());
        // Occupant 7 does not exist in the data.
        let p = StayProfile::build_day(&adm, OccupantId(7), ZoneId(1));
        assert!(p.is_empty());
        assert!(!p.has_future(600));
    }
}
