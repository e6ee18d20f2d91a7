//! `month_sweep`: the Table VI capability sweep. ARAS A and B, 30-day
//! months, a DBSCAN ADM trained on all 30 days, and the 11 zone subsets
//! of sizes 4/3/2 of zones 1–4 per house, each over every day. One op is
//! one attack-day: DP schedule, `validate`, and the impact without and
//! with appliance triggering (benign day cost precomputed).

use shatter_adm::AdmKind;
use shatter_core::{impact, AttackerCapability, Scheduler, WindowDpScheduler};
use shatter_dataset::HouseSpec;
use shatter_engine::{FixtureCache, HealthSink, RunParams, ScenarioCtx, Table, WorkPool};
use shatter_smarthome::ZoneId;

use crate::fixture::{self, Fixture};
use crate::harness::{percentile, Metric, Outcome, PassTiming, Workload};
use crate::layers;
use crate::trace::Tracer;

const DAYS: usize = 30;
const SIZES: [usize; 3] = [4, 3, 2];
const ZONES: [ZoneId; 4] = [ZoneId(1), ZoneId(2), ZoneId(3), ZoneId(4)];

pub struct House {
    fx: Fixture,
    benign: Vec<f64>,
    /// `(subset size, capability)` in `tab6`'s cell order.
    caps: Vec<(usize, AttackerCapability)>,
}

/// One attack-day's outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayOut {
    valid: bool,
    without_usd: f64,
    with_usd: f64,
    triggered: usize,
}

pub struct State {
    seed: u64,
    houses: Vec<House>,
}

pub struct MonthSweep;

impl Workload for MonthSweep {
    type State = State;
    type Pass = Vec<Option<DayOut>>;
    const SETUP_REPEATS: usize = 15;
    const TRACE_PASSES: usize = 2;

    fn setup(&self, seed: u64, tr: &Tracer) -> State {
        let houses = [HouseSpec::aras_a(), HouseSpec::aras_b()]
            .iter()
            .map(|spec| {
                let kind = AdmKind::default_dbscan();
                let fx = fixture::build(spec, DAYS, spec.canonical_seed ^ seed, kind, DAYS, tr);
                let benign = fixture::benign_costs(&fx.model, &fx.month.days, tr);
                let mut caps = Vec::new();
                for size in SIZES {
                    for mask in 0u32..16 {
                        if mask.count_ones() as usize == size {
                            let zones = (0..4).filter(|i| mask >> i & 1 == 1).map(|i| ZONES[i]);
                            let cap =
                                AttackerCapability::full(fx.model.home()).with_zone_access(zones);
                            caps.push((size, cap));
                        }
                    }
                }
                House { fx, benign, caps }
            })
            .collect();
        State { seed, houses }
    }

    fn pass(&self, st: &mut State, tr: &Tracer, t: &mut PassTiming) -> Self::Pass {
        let sched = WindowDpScheduler::default();
        let mut outs = Vec::with_capacity(st.houses.len() * 11 * DAYS);
        t.main.timed(|leg| {
            for h in &st.houses {
                let fx = &h.fx;
                for (_, cap) in &h.caps {
                    for (d, day) in fx.month.days.iter().enumerate() {
                        outs.push(leg.op(tr, || {
                            let s = tr.span(layers::DP_SCHEDULE, || {
                                sched.schedule(&fx.table, &fx.adm, cap, day)
                            });
                            let valid = tr
                                .span(layers::VALIDATE, || s.validate(&fx.adm, cap, day))
                                .is_ok();
                            let without = tr.span(layers::IMPACT_NO_TRIGGER, || {
                                impact::evaluate_day_with_schedule(
                                    &fx.model,
                                    &fx.adm,
                                    cap,
                                    day,
                                    &s,
                                    false,
                                    Some(h.benign[d]),
                                )
                            });
                            let with = tr.span(layers::IMPACT_WITH_TRIGGER, || {
                                impact::evaluate_day_with_schedule(
                                    &fx.model,
                                    &fx.adm,
                                    cap,
                                    day,
                                    &s,
                                    true,
                                    Some(h.benign[d]),
                                )
                            });
                            tr.count(layers::VALIDATE_FAILURES, u64::from(!valid));
                            tr.count(layers::TRIGGERED_MINUTES, with.triggered_minutes as u64);
                            DayOut {
                                valid,
                                without_usd: without.attacked_cost_usd,
                                with_usd: with.attacked_cost_usd,
                                triggered: with.triggered_minutes,
                            }
                        }));
                    }
                }
            }
        });
        outs
    }

    fn finish(&self, st: &mut State, passes: &[Self::Pass], _tr: &Tracer, out: &mut Outcome) {
        let first = &passes[0];
        let mut invalid = 0u64;
        let mut panicked = 0u64;
        let mut drifted = 0u64;
        for pass in passes {
            for (o, r) in pass.iter().zip(first) {
                match o {
                    None => panicked += 1,
                    Some(day) => {
                        invalid += u64::from(!day.valid);
                        drifted += u64::from(o != r);
                    }
                }
            }
        }
        out.failed = panicked + invalid + drifted;
        out.failed_ops = panicked + invalid;
        out.check(
            "dp_schedules_validate",
            invalid == 0 && panicked == 0,
            format!("{invalid} invalid, {panicked} panicked"),
        );
        out.check(
            "passes_repeat_first_pass",
            drifted == 0,
            format!("{drifted} op outputs differ from pass 1"),
        );
        let ours = fold_tab6(&st.houses, first);
        let theirs = registry_tab6(st.seed);
        out.check(
            "tab6_fold_matches_registry",
            ours.as_ref() == Some(&theirs.rows),
            format!("fold {ours:?} vs registry {:?}", theirs.rows),
        );
        out.extra.push(Metric {
            name: "op_ms_p95",
            value: percentile(&out.main.best_op_ms(), 95.0),
            unit: "ms",
        });
    }
}

/// Folds one pass into `tab6`'s rows: per cell, the month's summed
/// triggering impact (with − without, in day order); per subset size,
/// the best cell of each house.
fn fold_tab6(houses: &[House], pass: &[Option<DayOut>]) -> Option<Vec<Vec<String>>> {
    let mut impacts: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut ops = pass.iter();
    for h in houses {
        let mut per_cell = Vec::new();
        for (size, _) in &h.caps {
            let days: Vec<DayOut> = ops
                .by_ref()
                .take(DAYS)
                .map(|o| o.ok_or(()))
                .collect::<Result<_, _>>()
                .ok()?;
            let impact: f64 = days.iter().map(|d| d.with_usd - d.without_usd).sum();
            per_cell.push((*size, impact));
        }
        impacts.push(per_cell);
    }
    let rows = SIZES
        .iter()
        .map(|&size| {
            let best = |h: usize| {
                impacts[h]
                    .iter()
                    .filter(|(s, _)| *s == size)
                    .fold(f64::NEG_INFINITY, |b, (_, v)| b.max(*v))
            };
            vec![
                size.to_string(),
                format!("{:.2}", best(0)),
                format!("{:.2}", best(1)),
            ]
        })
        .collect();
    Some(rows)
}

/// `tab6` as the engine registry renders it for the same days and seed.
fn registry_tab6(seed: u64) -> Table {
    let registry = shatter_bench::builtin_registry();
    let scenario = registry.get("tab6").expect("tab6 is registered");
    let cache = FixtureCache::new();
    let params = RunParams {
        days: DAYS,
        base_seed: seed,
        ..RunParams::default()
    };
    let cx = ScenarioCtx {
        cache: &cache,
        params,
        seed: shatter_engine::scenario::scenario_seed("tab6", seed),
        pool: WorkPool::serial(),
        health: HealthSink::new(),
    };
    scenario.run(&cx)
}
