//! Output pins for the per-day attack kernels: the window DP, schedule
//! validation, Algorithm 1 trigger planning, Eq. 3–4 pricing and the
//! detection rate. The pinned hash was computed before the kernels were
//! rewritten onto flat per-call data (CSR stay profiles, precomputed
//! capability membership, allocation-free pricing); if it fails, a
//! kernel changed an output bit.
//!
//! The capability shapes are ones the Table VI sweep never exercises —
//! a timeslot window, an appliance subset, a single attackable
//! occupant, a zone subset, a trigger-blind objective and a short
//! horizon — because those are where per-call capability masks and
//! per-zone appliance lists could diverge from the `BTreeSet` queries
//! they replace. A second day-kernel pin runs a generated 12-zone,
//! 3-occupant home under full capability and the appliance subset; its
//! hash was computed before pricing reused the controller decision
//! across unchanged minutes and the DP's trigger bonus read flat rows.
//!
//! The reward tables themselves are pinned as bytes: every rate reads
//! the outdoor temperature, so a change to how the energy model derives
//! it shows here before it reaches a schedule or a cost.
//!
//! Three more pins cover the formal scheduler: its zone rows at the
//! paper's 10-slot horizon and at 26 and 30 slots, and apart from them
//! every live `SmtStats` counter, so a change to the SAT core or the
//! objective theory that alters the search fails the effort pin even
//! when the schedules hold.

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::{
    impact, AttackerCapability, RewardTable, Scheduler, SmtScheduler, SmtStats, WindowDpScheduler,
};
use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
use shatter_hvac::EnergyModel;
use shatter_smarthome::{ApplianceId, OccupantId, ZoneId, MINUTES_PER_DAY};
use shatter_store::{fnv1a_bytes, Blob};

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.word(u64::from(b));
        }
    }
}

/// The six capability/scheduler shapes, each applied to both houses and
/// both evaluation days.
fn shapes(full: &AttackerCapability) -> Vec<(WindowDpScheduler, AttackerCapability)> {
    let dp = WindowDpScheduler::default();
    let mut one_occupant = full.clone();
    one_occupant.occupants = [OccupantId(0)].into_iter().collect();
    vec![
        (dp, full.clone().with_timeslots(600, 1200)),
        (dp, appliance_subset(full)),
        (dp, one_occupant),
        (dp, full.clone().with_zone_access([ZoneId(1), ZoneId(3)])),
        (
            WindowDpScheduler {
                trigger_aware: false,
                ..dp
            },
            full.clone(),
        ),
        (WindowDpScheduler { horizon: 5, ..dp }, full.clone()),
    ]
}

/// The appliance-subset shape: appliances {0, 1, 2} only.
fn appliance_subset(full: &AttackerCapability) -> AttackerCapability {
    full.clone()
        .with_appliance_access([ApplianceId(0), ApplianceId(1), ApplianceId(2)])
}

/// The scaled home's shapes: full capability and the appliance subset.
fn scaled_shapes(full: &AttackerCapability) -> Vec<(WindowDpScheduler, AttackerCapability)> {
    let dp = WindowDpScheduler::default();
    vec![(dp, full.clone()), (dp, appliance_subset(full))]
}

/// Run count and summed trigger minutes and divergence of a hashed
/// batch of runs (non-vacuity).
#[derive(Default)]
struct Tally {
    runs: usize,
    triggered: usize,
    divergence: usize,
}

/// Hashes every run of `spec` (12-day canonical month, K-Means ADM on
/// the first 10 days, days 10–11) under each of `shapes`: DP zone rows,
/// `validate` verdict, both pricing legs, trigger minutes, detection
/// rate and divergence.
fn hash_house(
    h: &mut Fnv,
    tally: &mut Tally,
    spec: &HouseSpec,
    shapes: fn(&AttackerCapability) -> Vec<(WindowDpScheduler, AttackerCapability)>,
) {
    let month = synthesize(&SynthConfig::new(spec.clone(), 12, spec.canonical_seed));
    let adm = HullAdm::train(&month.prefix_days(10), AdmKind::default_kmeans());
    let model = EnergyModel::standard(spec.home.build());
    let table = RewardTable::build(&model);
    let full = AttackerCapability::full(model.home());
    for (sched, cap) in shapes(&full) {
        for day in &month.days[10..12] {
            let s = sched.schedule(&table, &adm, &cap, day);
            for row in &s.zones {
                for z in row {
                    h.word(z.index() as u64);
                }
            }
            h.bytes(format!("{:?}", s.validate(&adm, &cap, day)).as_bytes());
            for triggering in [false, true] {
                let out = impact::evaluate_day_with_schedule(
                    &model, &adm, &cap, day, &s, triggering, None,
                );
                h.word(out.benign_cost_usd.to_bits());
                h.word(out.attacked_cost_usd.to_bits());
                h.word(out.triggered_minutes as u64);
                h.word(out.detection_rate.to_bits());
                h.word(out.divergence as u64);
                tally.triggered += out.triggered_minutes;
                tally.divergence += out.divergence;
            }
            tally.runs += 1;
        }
    }
}

/// Hash of every ARAS A/B run under the six [`shapes`], with its tally.
fn kernel_hash() -> (u64, Tally) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tally = Tally::default();
    for spec in [HouseSpec::aras_a(), HouseSpec::aras_b()] {
        hash_house(&mut h, &mut tally, &spec, shapes);
    }
    (h.0, tally)
}

/// Pinned before the flat-kernel rewrite (same inputs, same hash order).
const KERNEL_OUTPUTS: u64 = 0x695d_3760_09d8_86bb;

#[test]
fn day_kernel_outputs_match_pin() {
    let (hash, tally) = kernel_hash();
    assert_eq!(tally.runs, 24);
    assert!(tally.triggered > 0 && tally.divergence > 0, "vacuous runs");
    assert_eq!(
        hash, KERNEL_OUTPUTS,
        "a day kernel changed its output: {hash:#018x}"
    );
}

/// Pinned before the controller decision was reused across unchanged
/// minutes and the trigger-bonus pass read flat rows (same inputs, same
/// hash order).
const SCALED_KERNEL_OUTPUTS: u64 = 0x5bd8_c3d5_93dd_2df1;

/// A generated 12-zone, 3-occupant home: more appliance zones for the
/// DP's bonus pass to visit and more occupants per priced record than
/// either ARAS house. (Zones past the four ARAS room archetypes report
/// `Activity::Other`, which no appliance links to, so only zones 1–4
/// can earn a bonus.)
#[test]
fn scaled_home_kernel_outputs_match_pin() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tally = Tally::default();
    hash_house(&mut h, &mut tally, &HouseSpec::scaled(12, 3), scaled_shapes);
    assert_eq!(tally.runs, 4);
    assert!(tally.triggered > 0 && tally.divergence > 0, "vacuous runs");
    assert_eq!(
        h.0, SCALED_KERNEL_OUTPUTS,
        "a day kernel changed its output on the scaled home: {:#018x}",
        h.0
    );
}

/// FNV-1a and size of `RewardTable::build(..).to_blob()` for the two
/// ARAS homes and the generated 12-zone, 3-occupant home under the
/// standard energy model. Recorded before the energy model read its
/// outdoor temperatures from a per-minute table. (The ARAS homes share
/// zones, appliances and occupant profiles, so their tables are equal.)
#[test]
fn reward_table_bytes_match_pin() {
    let pins = [
        (
            "ARAS A",
            HouseSpec::aras_a(),
            0x4cb0_7704_1430_cb09_u64,
            279_785_usize,
        ),
        (
            "ARAS B",
            HouseSpec::aras_b(),
            0x4cb0_7704_1430_cb09,
            279_785,
        ),
        (
            "scaled(12, 3)",
            HouseSpec::scaled(12, 3),
            0x7cdc_1f73_8654_01c3,
            655_865,
        ),
    ];
    for (name, spec, fnv, size) in pins {
        let blob = RewardTable::build(&EnergyModel::standard(spec.home.build())).to_blob();
        assert_eq!(blob.len(), size, "{name} size");
        assert_eq!(fnv1a_bytes(&blob), fnv, "{name} FNV-1a");
    }
}

/// The formal scheduler's zone rows and [`SmtStats`] over the whole of
/// day 10, for each occupant of both houses, under full capability and
/// under a zone subset, with `horizon`-slot windows.
fn smt_runs(horizon: usize) -> Vec<(Vec<ZoneId>, SmtStats)> {
    let smt = SmtScheduler {
        horizon,
        ..SmtScheduler::default()
    };
    let mut runs = Vec::new();
    for spec in [HouseSpec::aras_a(), HouseSpec::aras_b()] {
        let month = synthesize(&SynthConfig::new(spec.clone(), 12, spec.canonical_seed));
        let adm = HullAdm::train(&month.prefix_days(10), AdmKind::default_kmeans());
        let model = EnergyModel::standard(spec.home.build());
        let table = RewardTable::build(&model);
        let full = AttackerCapability::full(model.home());
        let day = &month.days[10];
        for cap in [full.clone(), full.with_zone_access([ZoneId(1), ZoneId(3)])] {
            for o in 0..day.minutes[0].occupants.len() {
                runs.push(smt.schedule_occupant(
                    OccupantId(o),
                    &table,
                    &adm,
                    &cap,
                    day,
                    MINUTES_PER_DAY,
                ));
            }
        }
    }
    runs
}

/// Hash of the zone rows of [`smt_runs`]: the schedules alone, which a
/// change to how the solver searches must leave as they are.
fn smt_rows_hash(runs: &[(Vec<ZoneId>, SmtStats)]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (row, _) in runs {
        for z in row {
            h.word(z.index() as u64);
        }
    }
    h.0
}

/// Hash of every live [`SmtStats`] counter of [`smt_runs`]: the search
/// itself. A solver change that keeps schedules but takes a different
/// path through the CDCL core or the objective theory moves it. The two
/// retired simplex counters always read 0 and are left out.
fn smt_effort_hash(runs: &[(Vec<ZoneId>, SmtStats)]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (_, stats) in runs {
        let SmtStats {
            windows,
            fallbacks,
            theory_conflicts,
            sat_decisions,
            sat_propagations,
            sat_learned,
            sat_learnt_live,
            float_pivots: _,
            exact_fallbacks: _,
            degraded_windows,
        } = *stats;
        for v in [
            windows,
            fallbacks,
            theory_conflicts,
            sat_decisions,
            sat_propagations,
            sat_learned,
            sat_learnt_live,
            degraded_windows,
        ] {
            h.word(v);
        }
    }
    h.0
}

/// Pinned over full days before window constraints reached the CDCL core
/// as plain clauses (same inputs, same hash order).
const SMT_ROWS: u64 = 0x8bac_8ae9_52d5_24a6;

#[test]
fn smt_schedules_match_pin() {
    let runs = smt_runs(SmtScheduler::default().horizon);
    assert_eq!(runs.len(), 8);
    let hash = smt_rows_hash(&runs);
    assert_eq!(
        hash, SMT_ROWS,
        "the formal scheduler changed its schedule: {hash:#018x}"
    );
}

/// The rows of [`smt_runs`] at horizons 26 and 30, hashed in that order.
/// Recorded while the CDCL core still garbage-collected learnt clauses,
/// which it did at these horizons (237 and 583 clauses removed), so the
/// pin shows that the windows kept their schedules without it.
const SMT_ROWS_LONG_WINDOWS: u64 = 0x657d_97a9_eea8_ece9;

#[test]
fn smt_long_window_schedules_match_pin() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for horizon in [26, 30] {
        let runs = smt_runs(horizon);
        assert_eq!(runs.len(), 8);
        h.word(smt_rows_hash(&runs));
    }
    assert_eq!(
        h.0, SMT_ROWS_LONG_WINDOWS,
        "the formal scheduler changed its long-window schedule: {:#018x}",
        h.0
    );
}

/// Recorded when the CDCL core began deciding variables in index order
/// and lost its restarts, learnt-clause GC, clause minimization and
/// binary-clause layer. Per-counter totals over the eight runs moved from
/// 431 to 506 decisions, 1,107 to 1,097 theory conflicts, 167,015 to
/// 166,869 propagations and 1,195 to 1,173 learned clauses, and the
/// peak learnt clauses of one window from 40 to 33; the 1,152 windows,
/// 111 fallbacks and 0 degraded windows held.
const SMT_EFFORT: u64 = 0xa3ee_2156_5d5e_5262;

#[test]
fn smt_effort_matches_pin() {
    let runs = smt_runs(SmtScheduler::default().horizon);
    // Full days include the active hours, where windows branch and the
    // objective theory refutes probes; night-time windows alone would
    // propagate to their rows without a single decision.
    let total = |f: fn(&SmtStats) -> u64| -> u64 { runs.iter().map(|(_, s)| f(s)).sum() };
    assert!(
        total(|s| s.sat_propagations) > 0
            && total(|s| s.theory_conflicts) > 0
            && total(|s| s.sat_decisions) > 0,
        "vacuous runs"
    );
    let hash = smt_effort_hash(&runs);
    assert_eq!(
        hash, SMT_EFFORT,
        "the formal scheduler changed its search effort: {hash:#018x}"
    );
}
