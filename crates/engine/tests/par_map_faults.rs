//! Fault-injection scoping across [`ScenarioCtx::par_map`]: pool helpers
//! are fresh OS threads with empty fault TLS, so the map must re-arm the
//! submitting thread's fault scenario inside every worker, and an
//! injected `smt.window` fault must degrade the same window as in a
//! serial run.

use std::sync::{mpsc, Mutex};
use std::time::Duration;

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::{AttackerCapability, RewardTable, SmtScheduler};
use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
use shatter_engine::{FixtureCache, HealthSink, RunParams, ScenarioCtx, WorkPool};
use shatter_hvac::EnergyModel;
use shatter_smarthome::{houses, OccupantId, MINUTES_PER_DAY};

fn ctx(cache: &FixtureCache, extra_slots: usize) -> ScenarioCtx<'_> {
    ScenarioCtx {
        cache,
        params: RunParams {
            days: 2,
            span: 20,
            ..RunParams::default()
        },
        seed: 0,
        pool: WorkPool::new(extra_slots),
        health: HealthSink::new(),
    }
}

/// Maps 8 items over the pool and reports, per item, whether a fault
/// scenario was armed on the thread that ran it. Item 0 blocks until
/// another item has run, which can only happen on a pool helper while
/// item 0 holds its thread, so the map cannot pass by running inline.
fn armed_per_item(cx: &ScenarioCtx<'_>) -> Vec<bool> {
    let (tx, rx) = mpsc::channel();
    let rx = Mutex::new(rx);
    let items: Vec<usize> = (0..8).collect();
    cx.par_map(&items, |i, _| {
        if i == 0 {
            rx.lock()
                .expect("receiver lock")
                .recv_timeout(Duration::from_secs(30))
                .expect("no item ran on a pool helper");
        } else {
            tx.send(()).expect("receiver outlives the map");
        }
        shatter_faults::scenario_armed()
    })
}

#[test]
fn par_map_helpers_keep_fault_scenario_armed() {
    // A rule that can never fire still arms its scenario, which is all
    // `scenario_armed` needs; the huge hit index keeps this inert for
    // every other test in the process.
    shatter_faults::install_str("tlsprobe/smt.window/panic@9999999999").unwrap();
    let cache = FixtureCache::new();
    let cx = ctx(&cache, 7);
    let inside = shatter_faults::with_scenario("tlsprobe", || armed_per_item(&cx));
    assert!(
        inside.iter().all(|&armed| armed),
        "a pool worker lost the fault scenario scope"
    );
    // Outside the scenario the same pool sees no armed scope.
    assert!(armed_per_item(&cx).iter().all(|&armed| !armed));
}

#[test]
fn injected_window_fault_under_par_map_matches_serial() {
    // Separate scenario names per run: hit counters are shared per
    // (scenario, site) across the process, so each run needs its own
    // counter stream for the fault to land on the same window.
    shatter_faults::install_str("pfault/smt.window/budget@5,sfault/smt.window/budget@5").unwrap();
    let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 6, 9));
    let adm = HullAdm::train(&ds.prefix_days(5), AdmKind::default_kmeans());
    let table = RewardTable::build(&EnergyModel::standard(houses::aras_house_a()));
    let cap = AttackerCapability::full(&houses::aras_house_a());
    let day = &ds.days[5];
    let sched = SmtScheduler::default();
    let occupants: Vec<usize> = (0..day.minutes[0].occupants.len()).collect();
    let row =
        |o: usize| sched.schedule_occupant(OccupantId(o), &table, &adm, &cap, day, MINUTES_PER_DAY);

    let cache = FixtureCache::new();
    let cx = ctx(&cache, 7);
    let pooled = shatter_faults::with_scenario("pfault", || cx.par_map(&occupants, |_, &o| row(o)));
    let serial: Vec<_> =
        shatter_faults::with_scenario("sfault", || occupants.iter().map(|&o| row(o)).collect());
    assert!(
        pooled.iter().map(|(_, s)| s.fallbacks).sum::<u64>() >= 1,
        "injected budget fault never degraded a window"
    );
    assert_eq!(pooled, serial, "faulted par_map schedule diverged");
}
