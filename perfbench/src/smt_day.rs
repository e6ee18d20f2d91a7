//! `smt_day`: the formal scheduler against its DP oracle. ARAS A and B,
//! 14-day months, a K-Means ADM trained on the first 10 days, full
//! capability, days 10–13. One op is one house-day: the SMT scheduler
//! over the full day for every occupant, the assembled schedule's
//! `validate`, then the DP schedule on the same inputs as reference.

use shatter_adm::AdmKind;
use shatter_core::{
    AttackSchedule, AttackerCapability, Scheduler, SmtScheduler, WindowDpScheduler,
};
use shatter_dataset::HouseSpec;
use shatter_smarthome::{OccupantId, MINUTES_PER_DAY};

use crate::fixture::{self, Fixture};
use crate::harness::{fingerprint, Metric, Outcome, PassTiming, Workload};
use crate::layers;
use crate::trace::Tracer;

const DAYS: usize = 14;
const TRAIN_DAYS: usize = 10;
const EVAL_DAYS: std::ops::Range<usize> = 10..14;

pub struct House {
    fx: Fixture,
    cap: AttackerCapability,
}

pub struct State {
    houses: Vec<House>,
    smt: SmtScheduler,
}

/// One house-day's outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayOut {
    smt_valid: bool,
    degraded_windows: u64,
    smt_reward: f64,
    dp_reward: f64,
    smt_print: u64,
    dp_print: u64,
}

pub struct SmtDay;

impl Workload for SmtDay {
    type State = State;
    type Pass = Vec<Option<DayOut>>;
    const SETUP_REPEATS: usize = 15;
    const TRACE_PASSES: usize = 2;

    fn setup(&self, seed: u64, tr: &Tracer) -> State {
        let houses = [HouseSpec::aras_a(), HouseSpec::aras_b()]
            .iter()
            .map(|spec| {
                let kind = AdmKind::default_kmeans();
                let fx =
                    fixture::build(spec, DAYS, spec.canonical_seed ^ seed, kind, TRAIN_DAYS, tr);
                let cap = AttackerCapability::full(fx.model.home());
                House { fx, cap }
            })
            .collect();
        State {
            houses,
            smt: SmtScheduler::default(),
        }
    }

    fn pass(&self, st: &mut State, tr: &Tracer, t: &mut PassTiming) -> Self::Pass {
        let dp = WindowDpScheduler::default();
        let mut outs = Vec::new();
        t.main.timed(|leg| {
            for h in &st.houses {
                let (fx, cap) = (&h.fx, &h.cap);
                for day in &fx.month.days[EVAL_DAYS] {
                    outs.push(leg.op(tr, || {
                        let n_occupants = day.minutes[0].occupants.len();
                        let mut rows = Vec::with_capacity(n_occupants);
                        let mut degraded_windows = 0;
                        for o in 0..n_occupants {
                            let (row, stats) = tr.span(layers::SMT_OCCUPANT, || {
                                st.smt.schedule_occupant(
                                    OccupantId(o),
                                    &fx.table,
                                    &fx.adm,
                                    cap,
                                    day,
                                    MINUTES_PER_DAY,
                                )
                            });
                            layers::count_smt(tr, &stats);
                            degraded_windows += stats.degraded_windows;
                            rows.push(row);
                        }
                        let smt = tr.span(layers::FROM_ZONE_ROWS, || {
                            AttackSchedule::from_zone_rows(rows, &fx.table)
                        });
                        let smt_valid = tr
                            .span(layers::VALIDATE, || smt.validate(&fx.adm, cap, day))
                            .is_ok();
                        tr.count(layers::VALIDATE_FAILURES, u64::from(!smt_valid));
                        let reference = tr.span(layers::DP_SCHEDULE, || {
                            dp.schedule(&fx.table, &fx.adm, cap, day)
                        });
                        DayOut {
                            smt_valid,
                            degraded_windows,
                            smt_reward: smt.reward(&fx.table),
                            dp_reward: reference.reward(&fx.table),
                            smt_print: fingerprint(&smt),
                            dp_print: fingerprint(&reference),
                        }
                    }));
                }
            }
        });
        outs
    }

    fn finish(&self, st: &mut State, passes: &[Self::Pass], _tr: &Tracer, out: &mut Outcome) {
        let first = &passes[0];
        let (mut panicked, mut drifted, mut rejected) = (0u64, 0u64, 0u64);
        for pass in passes {
            for (o, r) in pass.iter().zip(first) {
                match o {
                    None => panicked += 1,
                    Some(day) => {
                        drifted += u64::from(o != r);
                        rejected += u64::from(!day.smt_valid || day.degraded_windows > 0);
                    }
                }
            }
        }
        // The DP reference must validate; recompute it outside timing
        // and check it is the schedule the timed ops produced.
        let dp = WindowDpScheduler::default();
        let mut dp_bad = 0u64;
        let mut i = 0;
        for h in &st.houses {
            for day in &h.fx.month.days[EVAL_DAYS] {
                let s = dp.schedule(&h.fx.table, &h.fx.adm, &h.cap, day);
                let same = first[i].is_some_and(|o| o.dp_print == fingerprint(&s));
                dp_bad += u64::from(s.validate(&h.fx.adm, &h.cap, day).is_err() || !same);
                i += 1;
            }
        }
        out.failed = panicked + drifted + dp_bad * passes.len() as u64;
        out.failed_ops = panicked + rejected;
        out.check(
            "dp_schedules_validate",
            dp_bad == 0,
            format!("{dp_bad} of {i} DP reference schedules invalid or not reproduced"),
        );
        out.check(
            "passes_repeat_first_pass",
            drifted == 0 && panicked == 0,
            format!("{drifted} op outputs differ from pass 1, {panicked} panicked"),
        );
        let gaps: Vec<f64> = first
            .iter()
            .flatten()
            .map(|d| (d.smt_reward - d.dp_reward).abs() / d.dp_reward)
            .collect();
        out.extra.push(Metric {
            name: "reward_gap_pct",
            value: 100.0 * gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
            unit: "%",
        });
    }
}
