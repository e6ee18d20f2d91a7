//! Criterion bench behind paper Fig. 3: daily control-cost evaluation of
//! the ASHRAE baseline vs the activity-aware DCHVAC controller.
//!
//! `attacked_no_trigger` / `attacked_with_trigger` price the same day
//! under a window-DP attack schedule through both `price_attacked_day`
//! legs, as the month sweeps do (the with-trigger leg includes its
//! trigger plan). The
//! falsified records change a few dozen times a day, so these cases time
//! the pricer's reuse of one decision across each run of unchanged
//! records, next to the benign days it prices the same way.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use shatter_adm::AdmKind;
use shatter_bench::common::HouseFixture;
use shatter_core::{impact, AttackerCapability, RewardTable, Scheduler, WindowDpScheduler};
use shatter_dataset::HouseSpec;
use shatter_hvac::{AshraeController, DchvacController};

fn bench_controllers(c: &mut Criterion) {
    let fx = HouseFixture::new(&HouseSpec::aras_a(), 12);
    let day = &fx.month.days[10];
    let mut group = c.benchmark_group("controller_day_cost");
    group.sample_size(10);
    group.bench_function("dchvac", |b| {
        b.iter(|| black_box(fx.model.day_cost(&DchvacController, black_box(day))))
    });
    group.bench_function("ashrae", |b| {
        let ctl = AshraeController::default();
        b.iter(|| black_box(fx.model.day_cost(&ctl, black_box(day))))
    });

    let adm = fx.adm(AdmKind::default_kmeans(), 10);
    let table = RewardTable::build(&fx.model);
    let cap = AttackerCapability::full(&fx.home);
    let schedule = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
    for (id, triggering) in [
        ("attacked_no_trigger", false),
        ("attacked_with_trigger", true),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                black_box(impact::price_attacked_day(
                    &fx.model,
                    &adm,
                    &cap,
                    black_box(day),
                    &schedule,
                    triggering,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_controllers);
criterion_main!(benches);
