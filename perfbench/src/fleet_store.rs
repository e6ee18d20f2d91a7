//! `fleet_store`: set-up layers and store I/O on generated homes. Houses
//! `derive_house(i, seed)` for `i` in `0..HOUSES` (5–16 zones, 2–4
//! occupants), 30-day months. Each pass runs two legs over a fresh
//! store directory; one op is one house.
//!
//! - Cold leg: synthesize, train a DBSCAN ADM, warm every stay profile,
//!   build the reward table and benign day costs, `put_blob` the
//!   dataset, ADM and table, then DP + `validate` + the with-trigger
//!   impact on the last 3 days.
//! - Warm leg: reopen the store, `get_blob` the same three items, and
//!   rerun the same 3 days.

use std::path::PathBuf;

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::{
    impact, AttackSchedule, AttackerCapability, RewardTable, Scheduler, WindowDpScheduler,
};
use shatter_dataset::{Dataset, HouseSpec};
use shatter_hvac::EnergyModel;
use shatter_store::{Blob, BlobStore};

use crate::fixture;
use crate::harness::{percentile, Metric, Outcome, PassTiming, Workload};
use crate::layers;
use crate::trace::Tracer;

const HOUSES: usize = 8;
const DAYS: usize = 30;
const EVAL_DAYS: std::ops::Range<usize> = 27..30;

/// Directory (relative to the working directory) holding the run's
/// store directories; removed when the run ends.
const OUT_DIR: &str = ".bench_out";

/// One evaluated day of one house.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    valid: bool,
    benign_usd: f64,
    attacked_usd: f64,
    triggered: usize,
    detection: f64,
}

/// The three stored items of one house.
struct Items {
    month: Dataset,
    adm: HullAdm,
    table: RewardTable,
}

pub struct State {
    root: PathBuf,
    dir: PathBuf,
    store: BlobStore,
    /// Whether a pass has written to `store` yet.
    used: bool,
    houses: Vec<(HouseSpec, u64)>,
}

impl Drop for State {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

impl State {
    /// Empties the store directory and opens a fresh store over it.
    fn fresh_store(&mut self, tr: &Tracer) {
        std::fs::remove_dir_all(&self.dir).ok();
        self.store = open_store(&self.dir, tr);
        self.used = false;
    }
}

fn open_store(dir: &std::path::Path, tr: &Tracer) -> BlobStore {
    tr.span(layers::STORE_OPEN, || {
        BlobStore::open(dir, shatter_engine::disk_schema_sig())
    })
    .unwrap_or_else(|e| panic!("opening store {}: {e}", dir.display()))
}

fn key(i: usize, spec: &HouseSpec, seed: u64, item: &str) -> String {
    format!("h{i}/{}/{DAYS}/{seed}/{item}", spec.cache_tag())
}

/// DP schedule, `validate` and the with-trigger impact on the last days.
fn eval_days(items: &Items, model: &EnergyModel, benign: &[f64], tr: &Tracer) -> Vec<Row> {
    let cap = AttackerCapability::full(model.home());
    let dp = WindowDpScheduler::default();
    items.month.days[EVAL_DAYS]
        .iter()
        .zip(benign)
        .map(|(day, &benign_usd)| {
            let s = tr.span(layers::DP_SCHEDULE, || {
                dp.schedule(&items.table, &items.adm, &cap, day)
            });
            let valid = tr
                .span(layers::VALIDATE, || s.validate(&items.adm, &cap, day))
                .is_ok();
            tr.count(layers::VALIDATE_FAILURES, u64::from(!valid));
            let out = tr.span(layers::IMPACT_WITH_TRIGGER, || {
                impact::evaluate_day_with_schedule(
                    model,
                    &items.adm,
                    &cap,
                    day,
                    &s,
                    true,
                    Some(benign_usd),
                )
            });
            tr.count(layers::TRIGGERED_MINUTES, out.triggered_minutes as u64);
            Row {
                valid,
                benign_usd: out.benign_cost_usd,
                attacked_usd: out.attacked_cost_usd,
                triggered: out.triggered_minutes,
                detection: out.detection_rate,
            }
        })
        .collect()
}

fn put<T: Blob>(store: &BlobStore, key: &str, value: &T, tr: &Tracer) {
    let bytes = tr.span(layers::PUT_BLOB, || store.put_blob(key, value));
    tr.count(layers::PUT_BYTES, bytes as u64);
}

fn get<T: Blob>(store: &BlobStore, key: &str, tr: &Tracer) -> T {
    let (value, bytes) = tr
        .span(layers::GET_BLOB, || store.get_blob_sized::<T>(key))
        .unwrap_or_else(|| panic!("warm store lost {key}"));
    tr.count(layers::GET_BYTES, bytes as u64);
    value
}

/// The cold leg of house `i`: build, store, evaluate.
fn cold_house(st: &State, store: &BlobStore, i: usize, tr: &Tracer) -> (Items, Vec<Row>) {
    let (spec, seed) = &st.houses[i];
    let fx = fixture::build(spec, DAYS, *seed, AdmKind::default_dbscan(), DAYS, tr);
    let benign = fixture::benign_costs(&fx.model, &fx.month.days, tr);
    put(store, &key(i, spec, *seed, "dataset"), &fx.month, tr);
    put(store, &key(i, spec, *seed, "adm"), &fx.adm, tr);
    put(store, &key(i, spec, *seed, "table"), &fx.table, tr);
    let items = Items {
        month: fx.month,
        adm: fx.adm,
        table: fx.table,
    };
    let rows = eval_days(&items, &fx.model, &benign[EVAL_DAYS], tr);
    (items, rows)
}

/// The warm leg of house `i`: read back, evaluate.
fn warm_house(st: &State, store: &BlobStore, i: usize, tr: &Tracer) -> (Items, Vec<Row>) {
    let (spec, seed) = &st.houses[i];
    let items = Items {
        month: get(store, &key(i, spec, *seed, "dataset"), tr),
        adm: get(store, &key(i, spec, *seed, "adm"), tr),
        table: get(store, &key(i, spec, *seed, "table"), tr),
    };
    let model = EnergyModel::standard(spec.home.build());
    let benign = fixture::benign_costs(&model, &items.month.days[EVAL_DAYS], tr);
    let rows = eval_days(&items, &model, &benign, tr);
    (items, rows)
}

/// One pass's rows per house: `(cold, warm)`, `None` where the op
/// panicked.
pub type Pass = Vec<(Option<Vec<Row>>, Option<Vec<Row>>)>;

pub struct FleetStore;

impl Workload for FleetStore {
    type State = State;
    type Pass = Pass;
    const SETUP_REPEATS: usize = 25;
    const TRACE_PASSES: usize = 4;

    fn setup(&self, seed: u64, tr: &Tracer) -> State {
        let root = PathBuf::from(OUT_DIR).join(format!("fleet-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let dir = root.join("store");
        let store = open_store(&dir, tr);
        State {
            root,
            dir,
            store,
            used: false,
            houses: (0..HOUSES)
                .map(|i| shatter_bench::fleet::derive_house(i, seed))
                .collect(),
        }
    }

    fn pass(&self, st: &mut State, tr: &Tracer, t: &mut PassTiming) -> Pass {
        if st.used {
            st.fresh_store(tr);
        }
        st.used = true;
        let st = &*st;
        let cold: Vec<Option<Vec<Row>>> = t.main.timed(|leg| {
            (0..HOUSES)
                .map(|i| leg.op(tr, || cold_house(st, &st.store, i, tr).1))
                .collect()
        });
        let (warm, stats) = t.warm.timed(|leg| {
            let store = open_store(&st.dir, tr);
            let rows: Vec<Option<Vec<Row>>> = (0..HOUSES)
                .map(|i| leg.op(tr, || warm_house(st, &store, i, tr).1))
                .collect();
            (rows, store.stats())
        });
        tr.count(layers::GET_HITS, stats.hits);
        tr.count(layers::DISCARDED, stats.discarded);
        cold.into_iter().zip(warm).collect()
    }

    fn finish(&self, st: &mut State, passes: &[Pass], tr: &Tracer, out: &mut Outcome) {
        // Untimed check pass: the warm leg's decoded items must
        // re-encode to exactly the bytes the cold leg stored.
        st.fresh_store(tr);
        let cold_items: Vec<Items> = (0..HOUSES)
            .map(|i| cold_house(st, &st.store, i, tr).0)
            .collect();
        let reopened = open_store(&st.dir, tr);
        let mismatched: Vec<usize> = (0..HOUSES)
            .filter(|&i| {
                let (warm, cold) = (warm_house(st, &reopened, i, tr).0, &cold_items[i]);
                warm.month.to_blob() != cold.month.to_blob()
                    || warm.adm.to_blob() != cold.adm.to_blob()
                    || warm.table.to_blob() != cold.table.to_blob()
            })
            .collect();
        out.check(
            "warm_payloads_reencode_identically",
            mismatched.is_empty(),
            format!("houses with differing payloads: {mismatched:?}"),
        );
        // `validate` also rejects the *actual* trace of generated homes
        // (its zone-for-activity rule knows only the ARAS zones 0-4), so
        // a DP schedule counts as wrong only where the actual trace
        // passes.
        let actual_ok: Vec<Vec<bool>> = cold_items
            .iter()
            .zip(&st.houses)
            .map(|(items, (spec, _))| {
                let cap = AttackerCapability::full(&spec.home.build());
                items.month.days[EVAL_DAYS]
                    .iter()
                    .map(|day| {
                        AttackSchedule::from_actual(day)
                            .validate(&items.adm, &cap, day)
                            .is_ok()
                    })
                    .collect()
            })
            .collect();
        let first = &passes[0];
        let (mut panicked, mut rejected, mut wrong, mut drifted) = (0u64, 0u64, 0u64, 0u64);
        for pass in passes {
            for (i, (cold, warm)) in pass.iter().enumerate() {
                for leg in [cold, warm] {
                    let Some(rows) = leg else {
                        panicked += 1;
                        continue;
                    };
                    rejected += u64::from(rows.iter().any(|r| !r.valid));
                    wrong += rows
                        .iter()
                        .zip(&actual_ok[i])
                        .filter(|(r, ok)| !r.valid && **ok)
                        .count() as u64;
                    drifted += u64::from(Some(rows) != first[i].0.as_ref());
                }
            }
        }
        let n_actual_rejected = actual_ok.iter().flatten().filter(|ok| !**ok).count();
        out.failed = panicked + wrong + drifted;
        out.failed_ops = panicked + rejected;
        out.check(
            "dp_schedules_validate",
            wrong == 0,
            format!(
                "{wrong} DP schedules rejected where the actual trace validates; \
                 {rejected} house legs rejected in all, the actual trace itself is \
                 rejected on {n_actual_rejected} of {} house-days",
                HOUSES * EVAL_DAYS.len()
            ),
        );
        out.check(
            "warm_rows_equal_cold_rows",
            drifted == 0 && panicked == 0,
            format!("{drifted} legs differ from pass 1's cold leg, {panicked} panicked"),
        );
        out.extra.push(Metric {
            name: "warm_ops_per_s",
            value: out.warm.ops_per_s(),
            unit: "1/s",
        });
        out.extra.push(Metric {
            name: "warm_op_ms_p50",
            value: percentile(&out.warm.best_op_ms(), 50.0),
            unit: "ms",
        });
    }
}
