use std::cmp::Ordering;
use std::sync::Arc;

use shatter_adm::{HullAdm, StayProfile};
use shatter_dataset::DayTrace;
use shatter_smarthome::{
    Activity, ApplianceId, Minute, OccupantId, ZoneId, ACTIVITY_COUNT, MINUTES_PER_DAY,
};

use crate::schedule::Scheduler;
use crate::{AttackerCapability, RewardTable};

/// The window-horizon dynamic attack-schedule optimizer.
///
/// The paper's schedule synthesis (Eq. 17–20) is NP-hard over the full
/// 1440-slot day, so SHATTER optimizes over a sliding time horizon `I`
/// (§IV-C). This scheduler runs one forward dynamic program over the
/// whole day, one layer of (zone, arrival-minute) states per minute, and
/// keeps the best-valued path into each state. A state stays in its zone
/// while the stay is no longer than the ADM's maximum for its arrival,
/// and leaves only after a stay the ADM accepts, for a zone where an
/// arrival at that minute has some stealthy stay. The horizon enters only
/// at window boundaries (`t % horizon == 0`), where the layer is pruned to
/// its best state per zone plus the shadow. At day end the best state
/// whose last stay the ADM accepts is picked and its path backtracked; no
/// window is committed before that.
///
/// The result is therefore neither an exact per-window solution nor the
/// day's optimum: the boundary prune can drop a state a later window
/// needed, so a longer horizon can find a better schedule and a
/// capability subset can beat its superset. Its objective also differs
/// from the SMT scheduler's: this one sums `f64` reward rates plus, when
/// `trigger_aware`, Algorithm 1's expected appliance-trigger bonus, while
/// the SMT maximizes rates rounded to integer µUSD without the bonus.
///
/// A *shadow* state that mirrors the occupant's actual behaviour is kept
/// alongside the optimized states (at most one per layer), so the attack
/// degrades gracefully to "do nothing" whenever capability or ADM
/// constraints leave no stealthy alternative. The shadow can defect to an
/// optimized state when the actual stay it mirrors could end stealthily,
/// and an optimized state can rejoin it at an actual arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDpScheduler {
    /// Optimization window `I` in slots (paper: 10).
    pub horizon: usize,
    /// Whether the schedule objective includes expected appliance-trigger
    /// rewards (the paper's combined zone+activity+appliance objective).
    /// When false, only the occupant HVAC reward is optimized.
    pub trigger_aware: bool,
}

impl Default for WindowDpScheduler {
    fn default() -> Self {
        WindowDpScheduler {
            horizon: 10,
            trigger_aware: true,
        }
    }
}

/// A zone a state can enter at the current slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    zone: ZoneId,
    /// `slot_reward(zone, t, t)`: the rate plus any trigger bonus.
    reward: f64,
    /// The plain rate `rates[zone][t]`.
    rate: f64,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    zone: ZoneId,
    arrival: u32,
    value: f64,
    parent: usize,
    shadow: bool,
}

impl WindowDpScheduler {
    fn schedule_occupant(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> Vec<ZoneId> {
        let n_zones = table.n_zones();
        let t_end = MINUTES_PER_DAY;
        // Actual zone and arrival per slot.
        let mut act_zone = Vec::with_capacity(t_end);
        let mut act_arrival = Vec::with_capacity(t_end);
        for (t, rec) in actual.minutes.iter().enumerate() {
            let z = rec.occupants[o.index()].zone;
            let arr = if t == 0 || act_zone[t - 1] != z {
                t as u32
            } else {
                act_arrival[t - 1]
            };
            act_zone.push(z);
            act_arrival.push(arr);
        }

        // Capability membership resolved once per call, so the loops
        // below answer `can_relocate` without set probes.
        let zone_ok: Vec<bool> = (0..n_zones)
            .map(|z| cap.zones.contains(&ZoneId(z)))
            .collect();
        let occupant_ok = cap.occupants.contains(&o);
        let can_relocate = |actual: ZoneId, reported: ZoneId, t: usize| -> bool {
            actual == reported
                || (occupant_ok
                    && zone_ok[actual.index()]
                    && zone_ok[reported.index()]
                    && cap.can_attack_at(t as Minute))
        };

        // The occupant's reward rows, fetched once: `rates[z][t]` is
        // `table.rate(o, z, t)`.
        let rates: Vec<&[f64]> = (0..n_zones).map(|z| table.rate_row(o, ZoneId(z))).collect();

        // Expected appliance-trigger reward, `bonus[t * n_zones + z]`.
        let bonus = if self.trigger_aware {
            trigger_bonus(o, table, cap, actual)
        } else {
            vec![0.0; t_end * n_zones]
        };
        // Per-zone stay-bound profiles: every ADM primitive the loops
        // below consult answers from these flat tables instead of walking
        // hull geometry per query.
        let profiles: Vec<Arc<StayProfile>> = (0..n_zones)
            .map(|z| adm.stay_profile(o, ZoneId(z)))
            .collect();
        let slot_reward = |z: ZoneId, arrival: u32, t: usize| -> f64 {
            let base = rates[z.index()][t];
            let b = bonus[t * n_zones + z.index()];
            if b <= 0.0 {
                return base;
            }
            match profiles[z.index()].min_stay(arrival as usize) {
                Some(thresh) if (t as u32 - arrival) as f64 <= thresh => base + b,
                _ => base,
            }
        };

        let has_future = |z: ZoneId, t: usize| -> bool { profiles[z.index()].has_future(t) };
        let can_extend = |z: ZoneId, arrival: u32, t_next_len: u32| -> bool {
            profiles[z.index()]
                .max_stay(arrival as usize)
                .is_some_and(|m| (t_next_len as f64) <= m + 1e-9)
        };
        let can_exit = |z: ZoneId, arrival: u32, stay: u32| -> bool {
            profiles[z.index()].in_range_stay(arrival as usize, stay as f64)
        };

        // Every layer lives in one node arena: layer `t` is
        // `nodes[starts[t]..starts[t + 1]]` (the last one runs to the
        // end), and `parent` indexes into the previous layer. Each layer
        // is built in the reused `next` buffer and appended once pruned.
        // A few live states per slot is typical, so four per slot rarely
        // regrows the arena.
        let mut nodes: Vec<Node> = Vec::with_capacity(4 * t_end);
        let mut starts: Vec<usize> = Vec::with_capacity(t_end);
        let mut next: Vec<Node> = Vec::new();
        let mut keep: Vec<usize> = Vec::new();
        // Best non-shadow node per zone at a window boundary.
        let mut best_in_zone: Vec<usize> = vec![usize::MAX; n_zones];
        // The zones a state can enter at slot `t`, in zone order, shared
        // by every exit-capable parent of the layer and built on first use.
        let mut entries: Vec<Entry> = Vec::with_capacity(n_zones);

        // Layer 0: choices for slot 0.
        for z in 0..n_zones {
            let z = ZoneId(z);
            if !can_relocate(act_zone[0], z, 0) {
                continue;
            }
            if !has_future(z, 0) {
                continue;
            }
            next.push(Node {
                zone: z,
                arrival: 0,
                value: slot_reward(z, 0, 0),
                parent: usize::MAX,
                shadow: false,
            });
        }
        // Shadow mirrors actual regardless of ADM coverage.
        next.push(Node {
            zone: act_zone[0],
            arrival: 0,
            value: rates[act_zone[0].index()][0],
            parent: usize::MAX,
            shadow: true,
        });
        starts.push(0);
        nodes.extend_from_slice(&next);

        // (zone, arrival) dedup for each layer on flat stamped arrays:
        // `dedup_stamp[key] == t` marks `dedup_pos[key]` as live for the
        // layer being built, so no per-slot clearing (or hashing) is
        // needed. Arrivals never exceed the current slot, so `t_end`
        // bounds the arrival axis.
        let mut dedup_stamp = vec![0u32; n_zones * t_end];
        let mut dedup_pos = vec![0u32; n_zones * t_end];

        for t in 1..t_end {
            let prev = &nodes[starts[t - 1]..];
            next.clear();
            let mut shadows = 0usize;
            // Dedup non-shadow nodes by (zone, arrival); shadow nodes are
            // kept separately (at most one survives below).
            let mut push = |next: &mut Vec<Node>, n: Node| {
                if n.shadow {
                    shadows += 1;
                    next.push(n);
                    return;
                }
                let key = n.zone.index() * t_end + n.arrival as usize;
                if dedup_stamp[key] == t as u32 {
                    let i = dedup_pos[key] as usize;
                    if n.value > next[i].value {
                        next[i] = n;
                    }
                } else {
                    dedup_stamp[key] = t as u32;
                    dedup_pos[key] = next.len() as u32;
                    next.push(n);
                }
            };
            let mut entries_built = false;
            let mut enterable = |entries: &mut Vec<Entry>| {
                if !entries_built {
                    entries_built = true;
                    entries.clear();
                    for z in (0..n_zones).map(ZoneId) {
                        if can_relocate(act_zone[t], z, t) && has_future(z, t) {
                            entries.push(Entry {
                                zone: z,
                                reward: slot_reward(z, t as u32, t),
                                rate: rates[z.index()][t],
                            });
                        }
                    }
                }
            };

            for (pi, p) in prev.iter().enumerate() {
                if p.shadow {
                    // Shadow continues along actual.
                    push(
                        &mut next,
                        Node {
                            zone: act_zone[t],
                            arrival: act_arrival[t],
                            value: p.value + rates[act_zone[t].index()][t],
                            parent: pi,
                            shadow: true,
                        },
                    );
                    // Shadow may defect to an optimized state when the
                    // running actual stay can exit stealthily.
                    let stay = t as u32 - act_arrival[t - 1];
                    if can_exit(act_zone[t - 1], act_arrival[t - 1], stay) {
                        enterable(&mut entries);
                        for e in entries.iter().filter(|e| e.zone != act_zone[t - 1]) {
                            push(
                                &mut next,
                                Node {
                                    zone: e.zone,
                                    arrival: t as u32,
                                    // Plain rate: a move into (z, t) also earns the bonus.
                                    value: p.value + e.rate,
                                    parent: pi,
                                    shadow: false,
                                },
                            );
                        }
                    }
                    continue;
                }

                // Optimized state: stay put.
                if can_relocate(act_zone[t], p.zone, t)
                    && can_extend(p.zone, p.arrival, t as u32 + 1 - p.arrival)
                {
                    push(
                        &mut next,
                        Node {
                            zone: p.zone,
                            arrival: p.arrival,
                            value: p.value + slot_reward(p.zone, p.arrival, t),
                            parent: pi,
                            shadow: false,
                        },
                    );
                }
                // Optimized state: move to another zone.
                let stay = t as u32 - p.arrival;
                if can_exit(p.zone, p.arrival, stay) {
                    enterable(&mut entries);
                    for e in entries.iter().filter(|e| e.zone != p.zone) {
                        push(
                            &mut next,
                            Node {
                                zone: e.zone,
                                arrival: t as u32,
                                value: p.value + e.reward,
                                parent: pi,
                                shadow: false,
                            },
                        );
                    }
                    // Rejoin the actual track at an actual arrival event —
                    // but never into the zone just left, which would splice
                    // two stays into one over-long reported episode.
                    if act_arrival[t] == t as u32 && act_zone[t] != p.zone {
                        push(
                            &mut next,
                            Node {
                                zone: act_zone[t],
                                arrival: t as u32,
                                value: p.value + rates[act_zone[t].index()][t],
                                parent: pi,
                                shadow: true,
                            },
                        );
                    }
                }
            }

            // Keep at most one shadow (the first of the best value);
            // parent indices point into the previous layer, so dropping
            // the extras needs no index remapping.
            if shadows > 1 {
                let mut best_shadow: Option<usize> = None;
                for (i, n) in next.iter().enumerate() {
                    if n.shadow && best_shadow.is_none_or(|b| n.value > next[b].value) {
                        best_shadow = Some(i);
                    }
                }
                let b = best_shadow.expect("a shadow node");
                let mut i = 0usize;
                next.retain(|n| {
                    let keep = !n.shadow || i == b;
                    i += 1;
                    keep
                });
            }

            // Degenerate dead end: fall back to mirroring actual.
            if next.is_empty() {
                next.push(Node {
                    zone: act_zone[t],
                    arrival: act_arrival[t],
                    value: prev
                        .iter()
                        .map(|n| n.value)
                        .fold(f64::NEG_INFINITY, f64::max)
                        + rates[act_zone[t].index()][t],
                    parent: prev
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.value.partial_cmp(&b.1.value).unwrap_or(Ordering::Equal))
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                    shadow: true,
                });
            }

            // Append the layer. At a window boundary, prune it to the best
            // state per zone (plus the shadow), reproducing the paper's
            // horizon-limited optimization while keeping long profitable
            // stays alive.
            starts.push(nodes.len());
            if t % self.horizon == 0 {
                // One pass: a zone's best is the last node no earlier
                // node of that zone beats (`max_by`'s last-of-equals).
                best_in_zone.fill(usize::MAX);
                let mut shadow = None;
                for (i, n) in next.iter().enumerate() {
                    if n.shadow {
                        shadow = shadow.or(Some(i));
                        continue;
                    }
                    let b = &mut best_in_zone[n.zone.index()];
                    if *b == usize::MAX
                        || next[*b].value.partial_cmp(&n.value) != Some(Ordering::Greater)
                    {
                        *b = i;
                    }
                }
                keep.clear();
                keep.extend(best_in_zone.iter().copied().filter(|&i| i != usize::MAX));
                keep.extend(shadow);
                if keep.is_empty() {
                    keep.push(0);
                }
                nodes.extend(keep.iter().map(|&i| next[i]));
            } else {
                nodes.extend_from_slice(&next);
            }
        }

        // Final selection: prefer states whose last stay is ADM-consistent
        // at the day boundary (or shadow states).
        let last = &nodes[starts[t_end - 1]..];
        let valid_final = |n: &Node| -> bool {
            n.shadow || can_exit(n.zone, n.arrival, MINUTES_PER_DAY as u32 - n.arrival)
        };
        let pick = last
            .iter()
            .enumerate()
            .filter(|(_, n)| valid_final(n))
            .max_by(|a, b| a.1.value.partial_cmp(&b.1.value).unwrap_or(Ordering::Equal))
            .map(|(i, _)| i)
            .or_else(|| {
                last.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.value.partial_cmp(&b.1.value).unwrap_or(Ordering::Equal))
                    .map(|(i, _)| i)
            })
            .expect("non-empty final layer");

        // Backtrack.
        let mut zones = vec![ZoneId(0); t_end];
        let mut idx = pick;
        for t in (0..t_end).rev() {
            let n = &nodes[starts[t] + idx];
            zones[t] = n.zone;
            idx = n.parent;
            if t == 0 {
                break;
            }
        }
        zones
    }
}

/// Expected appliance-trigger reward for *reporting* `o` in zone z at
/// minute t, as `bonus[t * n_zones + z]`: the Algorithm 1 preconditions
/// that do not depend on the schedule (attacker reach, appliance off,
/// zone actually safe, occupant actually elsewhere). The minStay window
/// is state-dependent and applied at transition time.
///
/// Only cells the DP can read with a nonzero value are filled; the rest
/// stay zero. The DP reads a cell only for a report `can_relocate`
/// allows, and a report equal to the actual zone earns no bonus, so a
/// cell needs `o` in `cap.occupants`, t in the timeslot window, and both
/// the actual zone and z in `cap.zones`. Of those zones, only the ones
/// holding an appliance the attacker can trigger are evaluated.
///
/// The window is walked one record run at a time (a run ends where the
/// next minute's record is another allocation, so a deep-copied trace has
/// runs of one minute). What depends on the record alone — the
/// occupant's actual zone, which zones are unsafe (an aware occupant is
/// actually there) and each zone's mask of off appliances — is derived
/// once per run. Each zone's appliances linked to an activity are a
/// bitmask built once, so a cell ANDs it with the zone's off mask and
/// sums the rates of the set bits in id order.
fn trigger_bonus(
    o: OccupantId,
    table: &RewardTable,
    cap: &AttackerCapability,
    actual: &DayTrace,
) -> Vec<f64> {
    let n_zones = table.n_zones();
    let mut bonus = vec![0.0; MINUTES_PER_DAY * n_zones];
    if !cap.occupants.contains(&o) {
        return bonus;
    }
    let zone_ok: Vec<bool> = (0..n_zones)
        .map(|z| cap.zones.contains(&ZoneId(z)))
        .collect();
    let mut zone_apps: Vec<Vec<ApplianceId>> = vec![Vec::new(); n_zones];
    for d in (0..table.n_appliances()).map(ApplianceId) {
        if cap.appliances.contains(&d) {
            zone_apps[table.appliance_zone(d).index()].push(d);
        }
    }
    let mut zones: Vec<BonusZone> = zone_apps
        .into_iter()
        .enumerate()
        .filter(|(z, apps)| zone_ok[*z] && !apps.is_empty())
        .map(|(z, apps)| BonusZone::new(o, ZoneId(z), apps, table))
        .collect();
    if zones.is_empty() {
        return bonus;
    }
    let (start, end) = cap.timeslots.map_or((0, MINUTES_PER_DAY), |(s, e)| {
        (s as usize, (e as usize).min(MINUTES_PER_DAY))
    });
    let mut unsafe_zone = vec![false; n_zones];
    let mut run_start = start;
    while run_start < end {
        let rec = &actual.minutes[run_start];
        let run_end = (run_start + 1..end)
            .find(|&t| !Arc::ptr_eq(&actual.minutes[t], rec))
            .unwrap_or(end);
        let run = run_start..run_end;
        run_start = run_end;
        let act = rec.occupants[o.index()].zone.index();
        if !zone_ok[act] {
            continue;
        }
        unsafe_zone.fill(false);
        for os in &rec.occupants {
            if !os.activity.is_unaware() {
                unsafe_zone[os.zone.index()] = true;
            }
        }
        for bz in &mut zones {
            let z = bz.zone.index();
            if unsafe_zone[z] || act == z {
                continue;
            }
            bz.refresh_off(&rec.appliances);
            let words = bz.off.len();
            for t in run.clone() {
                let linked = &bz.linked[bz.best[t] as usize * words..][..words];
                if linked.iter().zip(&bz.off).all(|(l, off)| l & off == 0) {
                    continue;
                }
                bonus[t * n_zones + z] = linked
                    .iter()
                    .zip(&bz.off)
                    .enumerate()
                    .flat_map(|(w, (l, off))| set_bits(l & off).map(move |b| w * 64 + b))
                    .map(|j| bz.rates[j][t])
                    .sum();
            }
        }
    }
    bonus
}

/// The positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// One zone's triggerable appliances for [`trigger_bonus`], in id order,
/// as bit positions of multi-word masks.
struct BonusZone<'a> {
    zone: ZoneId,
    apps: Vec<ApplianceId>,
    /// Each appliance's rate row.
    rates: Vec<&'a [f64]>,
    /// The occupant's best reported activity in the zone, per minute.
    best: &'a [Activity],
    /// `linked[a * words..][..words]`: the appliances linked to the
    /// activity `a` (as `usize`).
    linked: Vec<u64>,
    /// The appliances the current record reports off.
    off: Vec<u64>,
}

impl<'a> BonusZone<'a> {
    fn new(
        o: OccupantId,
        zone: ZoneId,
        apps: Vec<ApplianceId>,
        table: &'a RewardTable,
    ) -> BonusZone<'a> {
        let words = apps.len().div_ceil(64);
        let mut linked = vec![0u64; ACTIVITY_COUNT * words];
        for a in Activity::ALL {
            for (j, &d) in apps.iter().enumerate() {
                if table.appliance_linked_to(d, a) {
                    linked[a as usize * words + j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        BonusZone {
            zone,
            rates: apps.iter().map(|&d| table.appliance_rate_row(d)).collect(),
            best: table.best_activity_row(o, zone),
            apps,
            linked,
            off: vec![0; words],
        }
    }

    fn refresh_off(&mut self, appliances: &[bool]) {
        self.off.fill(0);
        for (j, d) in self.apps.iter().enumerate() {
            if !appliances[d.index()] {
                self.off[j / 64] |= 1u64 << (j % 64);
            }
        }
    }
}

impl Scheduler for WindowDpScheduler {
    fn schedule_occupant_zones(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> Vec<ZoneId> {
        self.schedule_occupant(o, table, adm, cap, actual)
    }

    fn name(&self) -> &'static str {
        "SHATTER (window DP)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackSchedule;
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, MinuteRecord, OccupantState, SynthConfig};
    use shatter_hvac::EnergyModel;
    use shatter_smarthome::houses;

    fn setup() -> (
        shatter_dataset::Dataset,
        HullAdm,
        RewardTable,
        AttackerCapability,
    ) {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 21));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let cap = AttackerCapability::full(&houses::aras_house_a());
        (ds, adm, table, cap)
    }

    #[test]
    fn dp_schedule_is_stealthy_and_feasible() {
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        sched.validate(&adm, &cap, day).unwrap();
    }

    #[test]
    fn dp_beats_identity_schedule() {
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let identity = AttackSchedule::from_actual(day);
        assert!(
            sched.reward(&table) >= identity.reward(&table) - 1e-9,
            "DP {} < identity {}",
            sched.reward(&table),
            identity.reward(&table)
        );
    }

    #[test]
    fn longer_horizon_never_hurts_much() {
        // The window collapse makes longer horizons usually better; allow
        // small non-monotonicity from boundary effects.
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[11];
        let short = WindowDpScheduler {
            horizon: 5,
            ..Default::default()
        }
        .schedule(&table, &adm, &cap, day)
        .reward(&table);
        let long = WindowDpScheduler {
            horizon: 60,
            ..Default::default()
        }
        .schedule(&table, &adm, &cap, day)
        .reward(&table);
        assert!(long >= short * 0.9, "long {long} vs short {short}");
    }

    #[test]
    fn restricted_zone_access_reduces_reward() {
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let full = WindowDpScheduler::default()
            .schedule(&table, &adm, &cap, day)
            .reward(&table);
        let restricted_cap = cap.clone().with_zone_access([ZoneId(1), ZoneId(2)]);
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &restricted_cap, day);
        sched.validate(&adm, &restricted_cap, day).unwrap();
        let restricted = sched.reward(&table);
        assert!(
            restricted <= full + 1e-9,
            "restricted {restricted} vs full {full}"
        );
    }

    /// `day` with equal consecutive records sharing one allocation, as
    /// synthesis and decode lay them out (`shared`), or with every minute
    /// deep-copied into its own.
    fn relayout(day: &DayTrace, shared: bool) -> DayTrace {
        let mut minutes: Vec<Arc<MinuteRecord>> = Vec::with_capacity(day.minutes.len());
        for rec in &day.minutes {
            let rec = match minutes.last() {
                Some(last) if shared && **last == **rec => Arc::clone(last),
                _ => Arc::new(MinuteRecord::clone(rec)),
            };
            minutes.push(rec);
        }
        DayTrace {
            day: day.day,
            minutes,
        }
    }

    /// The run-aware bonus pass equals a per-zone scan through the table's
    /// public lookups, summed in the same order (`==` on the sums: an
    /// empty one may be -0.0), whether the day's records are shared per
    /// run (the pass reuses a run's unsafe zones and off masks) or each
    /// minute has its own (the pass recomputes them every minute).
    ///
    /// The pass fills only cells the DP can read with a nonzero value,
    /// so the reference expects 0 wherever `can_relocate` forbids moving
    /// the occupant's report from the actual zone to z: the occupant is
    /// not in `cap.occupants`, the minute is outside the timeslot window,
    /// or the actual zone or z is outside `cap.zones` (a report equal to
    /// the actual zone earns nothing either). The capabilities cover
    /// every kind of skip: full, an appliance subset with a timeslot
    /// window, the Table VI zone subset {1, 2}, and full without
    /// occupant 1.
    ///
    /// Synthesized days never leave a rewarded zone to an unaware
    /// occupant (the one linked case, a shower, runs the hair dryer), so
    /// two hours of each day are rewritten: occupant 1 showers in the
    /// bathroom (unaware, zone safe), then uses the toilet there (aware,
    /// zone unsafe), with every appliance off.
    #[test]
    fn trigger_bonus_matches_per_zone_scan() {
        let (ds, _, table, full) = setup();
        let bathroom = ZoneId(4);
        let subset = full
            .clone()
            .with_appliance_access([ApplianceId(0), ApplianceId(4), ApplianceId(11)])
            .with_timeslots(300, 1300);
        let rooms = full.clone().with_zone_access([ZoneId(1), ZoneId(2)]);
        let mut no_occupant = full.clone();
        no_occupant.occupants.remove(&OccupantId(1));
        let (mut unaware_rewarded, mut aware_blocked, mut unreadable) = (0, 0, 0);
        for cap in [full, subset, rooms, no_occupant] {
            for day in &ds.days[10..12] {
                let mut day = day.clone();
                for (t, rec) in day.minutes.iter_mut().enumerate().skip(600).take(120) {
                    let rec = Arc::make_mut(rec);
                    rec.occupants[1] = OccupantState {
                        zone: bathroom,
                        activity: if t < 660 {
                            Activity::HavingShower
                        } else {
                            Activity::Toileting
                        },
                    };
                    rec.appliances.fill(false);
                }
                let runs = 1 + day.minutes.windows(2).filter(|w| w[0] != w[1]).count();
                for shared in [true, false] {
                    let day = relayout(&day, shared);
                    let allocations = 1
                        + (1..MINUTES_PER_DAY)
                            .filter(|&t| !Arc::ptr_eq(&day.minutes[t - 1], &day.minutes[t]))
                            .count();
                    let expect = if shared { runs } else { MINUTES_PER_DAY };
                    assert_eq!(allocations, expect, "shared {shared}");
                    for o in (0..day.minutes[0].occupants.len()).map(OccupantId) {
                        let bonus = trigger_bonus(o, &table, &cap, &day);
                        for (t, rec) in day.minutes.iter().enumerate() {
                            let minute = t as Minute;
                            let act = rec.occupants[o.index()].zone;
                            for z in (0..table.n_zones()).map(ZoneId) {
                                let safe = rec
                                    .occupants
                                    .iter()
                                    .all(|os| os.zone != z || os.activity.is_unaware());
                                let activity = table.best_activity(o, z, minute);
                                let reward: f64 = (0..table.n_appliances())
                                    .map(ApplianceId)
                                    .filter(|&d| {
                                        table.appliance_zone(d) == z
                                            && cap.appliances.contains(&d)
                                            && !rec.appliances[d.index()]
                                            && table.appliance_linked_to(d, activity)
                                    })
                                    .map(|d| table.appliance_rate(d, minute))
                                    .sum();
                                let readable = act != z && cap.can_relocate(o, act, z, minute);
                                let expect = if readable && safe { reward } else { 0.0 };
                                let got = bonus[t * table.n_zones() + z.index()];
                                assert_eq!(
                                    got, expect,
                                    "shared {shared} occupant {o:?} minute {t} zone {z:?}"
                                );
                                let occupied = rec.occupants.iter().any(|os| os.zone == z);
                                if occupied && got > 0.0 {
                                    unaware_rewarded += 1;
                                }
                                if occupied && readable && !safe && reward > 0.0 {
                                    aware_blocked += 1;
                                }
                                if !readable && act != z && safe && reward > 0.0 {
                                    unreadable += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            unaware_rewarded > 0 && aware_blocked > 0 && unreadable > 0,
            "vacuous days: {unaware_rewarded} unaware rewarded, {aware_blocked} aware blocked, \
             {unreadable} unreadable"
        );
    }

    #[test]
    fn no_occupant_access_mirrors_actual() {
        let (ds, adm, table, mut cap) = setup();
        cap.occupants.clear();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        assert_eq!(sched.divergence(day), 0);
    }
}
