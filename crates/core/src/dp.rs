use std::sync::Arc;

use shatter_adm::{HullAdm, StayProfile};
use shatter_dataset::DayTrace;
use shatter_smarthome::{Activity, ApplianceId, Minute, OccupantId, ZoneId, MINUTES_PER_DAY};

use crate::schedule::Scheduler;
use crate::{AttackerCapability, RewardTable};

/// The window-horizon dynamic attack-schedule optimizer.
///
/// The paper's schedule synthesis (Eq. 17–20) is NP-hard over the full
/// 1440-slot day, so SHATTER optimizes over a sliding time horizon `I`
/// and merges the per-window solutions (§IV-C). This scheduler solves each
/// window *exactly* by dynamic programming over (zone, arrival-time)
/// states — the same solution the SMT encoding finds, at polynomial cost —
/// and commits the best state at every window boundary, reproducing the
/// horizon-limited sub-optimality the paper reports (Table V, §VII-B).
///
/// A *shadow* state that mirrors the occupant's actual behaviour is kept
/// alongside the optimized states, so the attack degrades gracefully to
/// "do nothing" whenever capability or ADM constraints leave no stealthy
/// alternative.
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
            trigger_bonus(o, table, cap, actual, &act_zone)
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
            // Dedup non-shadow nodes by (zone, arrival); shadow nodes are
            // kept separately (at most one survives below).
            let push = |next: &mut Vec<Node>, stamp: &mut Vec<u32>, pos: &mut Vec<u32>, n: Node| {
                if n.shadow {
                    next.push(n);
                    return;
                }
                let key = n.zone.index() * t_end + n.arrival as usize;
                if stamp[key] == t as u32 {
                    let i = pos[key] as usize;
                    if n.value > next[i].value {
                        next[i] = n;
                    }
                } else {
                    stamp[key] = t as u32;
                    pos[key] = next.len() as u32;
                    next.push(n);
                }
            };

            for (pi, p) in prev.iter().enumerate() {
                if p.shadow {
                    // Shadow continues along actual.
                    push(
                        &mut next,
                        &mut dedup_stamp,
                        &mut dedup_pos,
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
                        for z in 0..n_zones {
                            let z = ZoneId(z);
                            if z == act_zone[t - 1]
                                || !can_relocate(act_zone[t], z, t)
                                || !has_future(z, t)
                            {
                                continue;
                            }
                            push(
                                &mut next,
                                &mut dedup_stamp,
                                &mut dedup_pos,
                                Node {
                                    zone: z,
                                    arrival: t as u32,
                                    value: p.value + rates[z.index()][t],
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
                        &mut dedup_stamp,
                        &mut dedup_pos,
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
                    for z in 0..n_zones {
                        let z = ZoneId(z);
                        if z == p.zone || !can_relocate(act_zone[t], z, t) || !has_future(z, t) {
                            continue;
                        }
                        push(
                            &mut next,
                            &mut dedup_stamp,
                            &mut dedup_pos,
                            Node {
                                zone: z,
                                arrival: t as u32,
                                value: p.value + slot_reward(z, t as u32, t),
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
                            &mut dedup_stamp,
                            &mut dedup_pos,
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

            // Keep at most one shadow (best value); parent indices point
            // into the previous layer, so dropping the extras needs no
            // index remapping.
            let mut best_shadow: Option<usize> = None;
            for (i, n) in next.iter().enumerate() {
                if n.shadow && best_shadow.is_none_or(|b| n.value > next[b].value) {
                    best_shadow = Some(i);
                }
            }
            if let Some(b) = best_shadow {
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
                        .max_by(|a, b| {
                            a.1.value
                                .partial_cmp(&b.1.value)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
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
                keep.clear();
                for z in 0..n_zones {
                    if let Some((i, _)) = next
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| !n.shadow && n.zone.index() == z)
                        .max_by(|a, b| {
                            a.1.value
                                .partial_cmp(&b.1.value)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                    {
                        keep.push(i);
                    }
                }
                if let Some(s) = next.iter().position(|n| n.shadow) {
                    keep.push(s);
                }
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
            .max_by(|a, b| {
                a.1.value
                    .partial_cmp(&b.1.value)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .or_else(|| {
                last.iter()
                    .enumerate()
                    .max_by(|a, b| {
                        a.1.value
                            .partial_cmp(&b.1.value)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
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
/// zone actually safe, occupant actually elsewhere — `act_zone[t]`). The
/// minStay window is state-dependent and applied at transition time.
///
/// Only zones holding an appliance the attacker can trigger are
/// evaluated (the rest stay zero), in one pass over the day's records.
/// Each minute marks its unsafe zones (an aware occupant is actually
/// there) once, and every row the pass reads — best activities,
/// appliance rates — is fetched once before it. A cell sums its zone's
/// appliances in id order.
fn trigger_bonus(
    o: OccupantId,
    table: &RewardTable,
    cap: &AttackerCapability,
    actual: &DayTrace,
    act_zone: &[ZoneId],
) -> Vec<f64> {
    let n_zones = table.n_zones();
    let mut bonus = vec![0.0; MINUTES_PER_DAY * n_zones];
    let mut zone_apps: Vec<Vec<(ApplianceId, &[f64])>> = vec![Vec::new(); n_zones];
    for d in (0..table.n_appliances()).map(ApplianceId) {
        if cap.appliances.contains(&d) {
            zone_apps[table.appliance_zone(d).index()].push((d, table.appliance_rate_row(d)));
        }
    }
    let best: Vec<&[Activity]> = (0..n_zones)
        .map(|z| table.best_activity_row(o, ZoneId(z)))
        .collect();
    let mut unsafe_zone = vec![false; n_zones];
    for (t, rec) in actual.minutes.iter().enumerate() {
        if !cap.can_attack_at(t as Minute) {
            continue;
        }
        unsafe_zone.fill(false);
        for os in &rec.occupants {
            if !os.activity.is_unaware() {
                unsafe_zone[os.zone.index()] = true;
            }
        }
        let row = &mut bonus[t * n_zones..(t + 1) * n_zones];
        for (z, apps) in zone_apps.iter().enumerate() {
            if apps.is_empty() || unsafe_zone[z] || act_zone[t].index() == z {
                continue;
            }
            let activity = best[z][t];
            row[z] = apps
                .iter()
                .filter(|&&(d, _)| {
                    !rec.appliances[d.index()] && table.appliance_linked_to(d, activity)
                })
                .map(|&(_, r)| r[t])
                .sum();
        }
    }
    bonus
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
    use shatter_dataset::{synthesize, HouseSpec, OccupantState, SynthConfig};
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

    /// The flat bonus pass equals a per-zone scan through the table's
    /// public lookups, summed in the same order (`==` on the sums: an
    /// empty one may be -0.0). Synthesized days never leave a rewarded
    /// zone to an unaware occupant (the one linked case, a shower, runs
    /// the hair dryer), so two hours of each day are rewritten: occupant
    /// 1 showers in the bathroom (unaware, zone safe), then uses the
    /// toilet there (aware, zone unsafe), with every appliance off.
    #[test]
    fn trigger_bonus_matches_per_zone_scan() {
        let (ds, _, table, full) = setup();
        let bathroom = ZoneId(4);
        let subset = full
            .clone()
            .with_appliance_access([ApplianceId(0), ApplianceId(4), ApplianceId(11)])
            .with_timeslots(300, 1300);
        let (mut unaware_rewarded, mut aware_blocked) = (0, 0);
        for cap in [full, subset] {
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
                for o in (0..day.minutes[0].occupants.len()).map(OccupantId) {
                    let act_zone: Vec<ZoneId> = day
                        .minutes
                        .iter()
                        .map(|r| r.occupants[o.index()].zone)
                        .collect();
                    let bonus = trigger_bonus(o, &table, &cap, &day, &act_zone);
                    for (t, rec) in day.minutes.iter().enumerate() {
                        let minute = t as Minute;
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
                            let reachable = cap.can_attack_at(minute) && act_zone[t] != z;
                            let expect = if reachable && safe { reward } else { 0.0 };
                            let got = bonus[t * table.n_zones() + z.index()];
                            assert_eq!(got, expect, "occupant {o:?} minute {t} zone {z:?}");
                            let occupied = rec.occupants.iter().any(|os| os.zone == z);
                            if occupied && got > 0.0 {
                                unaware_rewarded += 1;
                            }
                            if occupied && reachable && !safe && reward > 0.0 {
                                aware_blocked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(unaware_rewarded > 0 && aware_blocked > 0, "vacuous days");
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
