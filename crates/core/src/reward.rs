use shatter_dataset::default_zone_for;
use shatter_hvac::EnergyModel;
use shatter_smarthome::{Activity, Minute, OccupantId, ZoneId, MINUTES_PER_DAY};

/// Activities an occupant can plausibly be *reported* to perform in a
/// zone — the attacker must report a (zone, activity) pair the activity
/// recognizer would accept (paper §II "Activity-Appliance Relationship").
pub fn plausible_activities(zone: ZoneId) -> Vec<Activity> {
    Activity::ALL
        .iter()
        .copied()
        .filter(|&a| default_zone_for(a) == zone)
        .collect()
}

/// Precomputed attack rewards: for every (occupant, zone, minute), the
/// marginal HVAC cost ($/slot) of *reporting* that occupant in that zone
/// doing the most expensive plausible activity — the coefficients of the
/// paper's objective (Eq. 17).
///
/// Prefix sums make any stay's reward an O(1) lookup, which the schedulers
/// rely on.
#[derive(Debug, Clone)]
pub struct RewardTable {
    n_zones: usize,
    /// `rate[o][z][t]` in dollars per minute.
    rate: Vec<Vec<Vec<f64>>>,
    /// `prefix[o][z][t]` = Σ_{u<t} rate[o][z][u].
    prefix: Vec<Vec<Vec<f64>>>,
    /// Best (most expensive) reported activity per zone and minute,
    /// shared across occupants of equal profile but stored per occupant
    /// for generality.
    best_activity: Vec<Vec<Vec<Activity>>>,
    /// `appliance_rate[d][t]`: marginal cost ($/min) of appliance `d`
    /// running at minute `t` (power draw + induced cooling).
    appliance_rate: Vec<Vec<f64>>,
    /// Home zone of each appliance.
    appliance_zone: Vec<ZoneId>,
    /// Linked activities of each appliance (legitimate-use set).
    appliance_linked: Vec<Vec<Activity>>,
}

impl RewardTable {
    /// Builds the table from the energy model for `n_occupants` occupants
    /// and all zones of the model's home.
    pub fn build(model: &EnergyModel) -> RewardTable {
        let n_occupants = model.home().occupants().len();
        let n_zones = model.home().zones().len();
        let mut rate = vec![vec![vec![0.0; MINUTES_PER_DAY]; n_zones]; n_occupants];
        let mut best_activity =
            vec![vec![vec![Activity::Other; MINUTES_PER_DAY]; n_zones]; n_occupants];
        for o in 0..n_occupants {
            for z in 0..n_zones {
                let plausible = plausible_activities(ZoneId(z));
                if plausible.is_empty() {
                    continue;
                }
                for t in 0..MINUTES_PER_DAY {
                    if let Some((act, r)) =
                        model.best_activity_for(OccupantId(o), ZoneId(z), t as Minute, &plausible)
                    {
                        rate[o][z][t] = r;
                        best_activity[o][z][t] = act;
                    }
                }
            }
        }
        let prefix = rate
            .iter()
            .map(|per_zone| {
                per_zone
                    .iter()
                    .map(|r| {
                        let mut p = vec![0.0; MINUTES_PER_DAY + 1];
                        for t in 0..MINUTES_PER_DAY {
                            p[t + 1] = p[t] + r[t];
                        }
                        p
                    })
                    .collect()
            })
            .collect();
        let appliance_rate = model
            .home()
            .appliances()
            .iter()
            .map(|a| {
                (0..MINUTES_PER_DAY)
                    .map(|t| model.appliance_cost_rate(a.id, t as Minute))
                    .collect()
            })
            .collect();
        let appliance_zone = model.home().appliances().iter().map(|a| a.zone).collect();
        let appliance_linked = model
            .home()
            .appliances()
            .iter()
            .map(|a| a.linked_activities.clone())
            .collect();
        RewardTable {
            n_zones,
            rate,
            prefix,
            best_activity,
            appliance_rate,
            appliance_zone,
            appliance_linked,
        }
    }

    /// [`RewardTable::rate`] of `o` in `z` for every minute of the day.
    pub(crate) fn rate_row(&self, o: OccupantId, z: ZoneId) -> &[f64] {
        &self.rate[o.index()][z.index()]
    }

    /// [`RewardTable::best_activity`] of `o` in `z` for every minute of
    /// the day.
    pub(crate) fn best_activity_row(&self, o: OccupantId, z: ZoneId) -> &[Activity] {
        &self.best_activity[o.index()][z.index()]
    }

    /// [`RewardTable::appliance_rate`] of `d` for every minute of the day.
    pub(crate) fn appliance_rate_row(&self, d: shatter_smarthome::ApplianceId) -> &[f64] {
        &self.appliance_rate[d.index()]
    }

    /// Number of appliances covered.
    pub fn n_appliances(&self) -> usize {
        self.appliance_zone.len()
    }

    /// Marginal cost rate ($/min) of appliance `d` running at minute `t`.
    pub fn appliance_rate(&self, d: shatter_smarthome::ApplianceId, t: Minute) -> f64 {
        self.appliance_rate[d.index()][t as usize]
    }

    /// Zone an appliance is installed in.
    pub fn appliance_zone(&self, d: shatter_smarthome::ApplianceId) -> ZoneId {
        self.appliance_zone[d.index()]
    }

    /// Whether `activity` is a legitimate use of appliance `d`.
    pub fn appliance_linked_to(
        &self,
        d: shatter_smarthome::ApplianceId,
        activity: Activity,
    ) -> bool {
        self.appliance_linked[d.index()].contains(&activity)
    }

    /// Number of zones covered.
    pub fn n_zones(&self) -> usize {
        self.n_zones
    }

    /// Reward rate ($/min) for reporting `o` in `z` at minute `t`.
    pub fn rate(&self, o: OccupantId, z: ZoneId, t: Minute) -> f64 {
        self.rate[o.index()][z.index()][t as usize]
    }

    /// Total reward of reporting `o` in `z` for minutes `[from, to)`.
    pub fn stay_reward(&self, o: OccupantId, z: ZoneId, from: Minute, to: Minute) -> f64 {
        let p = &self.prefix[o.index()][z.index()];
        p[(to as usize).min(MINUTES_PER_DAY)] - p[(from as usize).min(MINUTES_PER_DAY)]
    }

    /// The most expensive plausible activity to report for `o` in `z` at
    /// minute `t`.
    pub fn best_activity(&self, o: OccupantId, z: ZoneId, t: Minute) -> Activity {
        self.best_activity[o.index()][z.index()][t as usize]
    }
}

/// Blob-store serialization (the disk tier under the engine's memo).
/// Rates travel as exact `f64` bit patterns; the prefix-sum table is a
/// derivative and is recomputed on decode with the same summation
/// order as [`RewardTable::build`], so a deserialized table is
/// field-for-field bit-identical to a rebuilt one.
impl shatter_store::Blob for RewardTable {
    const TAG: &'static str = "reward-table/1";

    fn encode(&self, w: &mut shatter_store::wire::Writer) {
        w.usize(self.n_zones);
        w.usize(self.rate.len());
        for per_zone in &self.rate {
            w.usize(per_zone.len());
            for row in per_zone {
                w.usize(row.len());
                for &v in row {
                    w.f64(v);
                }
            }
        }
        for per_zone in &self.best_activity {
            for row in per_zone {
                for &a in row {
                    w.u8(a.code());
                }
            }
        }
        w.usize(self.appliance_rate.len());
        for row in &self.appliance_rate {
            w.usize(row.len());
            for &v in row {
                w.f64(v);
            }
        }
        for &z in &self.appliance_zone {
            w.u32(z.0 as u32);
        }
        for linked in &self.appliance_linked {
            w.usize(linked.len());
            for &a in linked {
                w.u8(a.code());
            }
        }
    }

    fn decode(r: &mut shatter_store::wire::Reader<'_>) -> Option<Self> {
        let n_zones = r.usize()?;
        let n_occupants = r.seq_len()?;
        let mut rate = Vec::with_capacity(n_occupants);
        let mut dims = Vec::with_capacity(n_occupants);
        for _ in 0..n_occupants {
            let nz = r.seq_len()?;
            let mut per_zone = Vec::with_capacity(nz);
            let mut zdims = Vec::with_capacity(nz);
            for _ in 0..nz {
                let nt = r.seq_len()?;
                if nt != MINUTES_PER_DAY {
                    return None;
                }
                let mut row = Vec::with_capacity(nt);
                for _ in 0..nt {
                    row.push(r.f64()?);
                }
                zdims.push(nt);
                per_zone.push(row);
            }
            dims.push(zdims);
            per_zone_len_check(&per_zone, n_zones)?;
            rate.push(per_zone);
        }
        let mut best_activity = Vec::with_capacity(n_occupants);
        for zdims in &dims {
            let mut per_zone = Vec::with_capacity(zdims.len());
            for &nt in zdims {
                let mut row = Vec::with_capacity(nt);
                for _ in 0..nt {
                    row.push(Activity::from_code(r.u8()?)?);
                }
                per_zone.push(row);
            }
            best_activity.push(per_zone);
        }
        let n_appliances = r.seq_len()?;
        let mut appliance_rate = Vec::with_capacity(n_appliances);
        for _ in 0..n_appliances {
            let nt = r.seq_len()?;
            if nt != MINUTES_PER_DAY {
                return None;
            }
            let mut row = Vec::with_capacity(nt);
            for _ in 0..nt {
                row.push(r.f64()?);
            }
            appliance_rate.push(row);
        }
        let mut appliance_zone = Vec::with_capacity(n_appliances);
        for _ in 0..n_appliances {
            appliance_zone.push(ZoneId(r.u32()? as usize));
        }
        let mut appliance_linked = Vec::with_capacity(n_appliances);
        for _ in 0..n_appliances {
            let n = r.seq_len()?;
            let mut linked = Vec::with_capacity(n);
            for _ in 0..n {
                linked.push(Activity::from_code(r.u8()?)?);
            }
            appliance_linked.push(linked);
        }
        // Recompute the prefix sums exactly as `build` does (same
        // operation order ⇒ same bits).
        let prefix = rate
            .iter()
            .map(|per_zone| {
                per_zone
                    .iter()
                    .map(|r| {
                        let mut p = vec![0.0; MINUTES_PER_DAY + 1];
                        for t in 0..MINUTES_PER_DAY {
                            p[t + 1] = p[t] + r[t];
                        }
                        p
                    })
                    .collect()
            })
            .collect();
        Some(RewardTable {
            n_zones,
            rate,
            prefix,
            best_activity,
            appliance_rate,
            appliance_zone,
            appliance_linked,
        })
    }
}

/// Rejects a decoded per-occupant rate block whose zone count differs
/// from the declared `n_zones` (shape damage).
fn per_zone_len_check(per_zone: &[Vec<f64>], n_zones: usize) -> Option<()> {
    (per_zone.len() == n_zones).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shatter_smarthome::houses;

    #[test]
    fn plausible_activity_zones_are_consistent() {
        for z in 0..5 {
            for a in plausible_activities(ZoneId(z)) {
                assert_eq!(default_zone_for(a), ZoneId(z));
            }
        }
        // Kitchen includes cooking.
        assert!(plausible_activities(ZoneId(3)).contains(&Activity::PreparingDinner));
        // Outside only contains GoingOut.
        assert_eq!(plausible_activities(ZoneId(0)), vec![Activity::GoingOut]);
    }

    #[test]
    fn prefix_sums_match_direct_sums() {
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let o = OccupantId(0);
        let z = ZoneId(3);
        let direct: f64 = (100..200).map(|t| table.rate(o, z, t)).sum();
        let fast = table.stay_reward(o, z, 100, 200);
        assert!((direct - fast).abs() < 1e-9);
    }

    #[test]
    fn kitchen_beats_bedroom() {
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let o = OccupantId(0);
        assert!(
            table.stay_reward(o, ZoneId(3), 0, 1440) > table.stay_reward(o, ZoneId(1), 0, 1440)
        );
    }

    #[test]
    fn outside_has_zero_reward() {
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        assert_eq!(table.stay_reward(OccupantId(0), ZoneId(0), 0, 1440), 0.0);
    }

    #[test]
    fn blob_roundtrip_is_bit_identical() {
        use shatter_store::Blob;
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let bytes = table.to_blob();
        let back = RewardTable::from_blob(&bytes).expect("decode");
        assert_eq!(back.to_blob(), bytes, "canonical re-encode");
        assert_eq!(back.n_zones(), table.n_zones());
        assert_eq!(back.n_appliances(), table.n_appliances());
        for z in 0..table.n_zones() {
            for t in (0..1440).step_by(97) {
                let (o, z) = (OccupantId(0), ZoneId(z));
                assert_eq!(back.rate(o, z, t).to_bits(), table.rate(o, z, t).to_bits());
                assert_eq!(back.best_activity(o, z, t), table.best_activity(o, z, t));
            }
            // Prefix sums were recomputed, not stored — still bit-equal.
            let (o, z) = (OccupantId(0), ZoneId(z));
            assert_eq!(
                back.stay_reward(o, z, 13, 1201).to_bits(),
                table.stay_reward(o, z, 13, 1201).to_bits()
            );
        }
        assert_eq!(
            RewardTable::from_blob(&bytes[..bytes.len() - 2]).map(|_| ()),
            None
        );
    }

    #[test]
    fn best_activity_is_plausible() {
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        for z in 1..5usize {
            let a = table.best_activity(OccupantId(0), ZoneId(z), 700);
            assert_eq!(default_zone_for(a), ZoneId(z));
        }
    }
}
