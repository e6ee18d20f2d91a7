//! Criterion microbench of the per-day attack kernels — the hot path of
//! every month-scale exhibit (tab5/tab6/tab7/fig10/ablation): the window
//! DP, Algorithm 1 trigger planning and Eq. 3–4 pricing of the attacked
//! day.
//!
//! `full_day` measures `WindowDpScheduler::schedule` end to end (both
//! occupants, stay profiles warm after the first iteration, exactly like
//! a suite run); `single_occupant` isolates one DP sweep; `cold_profiles`
//! retrains nothing but clones the ADM each iteration so the per-zone
//! [`StayProfile`] build cost is included — the difference between the
//! two quantifies what the lookup tables save.
//!
//! `full_day_scaled16` runs `full_day` on a generated 16-zone,
//! 4-occupant home, where each DP layer has the most zones to enter and
//! the per-layer entry list saves the most; `reward_table_build` times
//! `RewardTable::build` for ARAS A (every rate reads the energy model's
//! outdoor temperatures).
//!
//! `plan_triggers` times one day's trigger plan for the DP schedule
//! (stay profiles warm), and `price_no_trigger` / `price_with_trigger`
//! time the two `price_attacked_day` legs every Table VI cell prices
//! per day; the with-trigger leg includes its trigger plan.
//!
//! The `_rooms12` cells repeat `full_day` and both pricing legs under
//! the Table VI capability that reaches only zones 1 and 2. There the
//! trigger-bonus pass skips every cell the DP cannot read (an actual or
//! reported zone outside the capability), which the full capability
//! never exercises.
//!
//! [`StayProfile`]: shatter_adm::StayProfile

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use shatter_adm::AdmKind;
use shatter_bench::common::HouseFixture;
use shatter_core::{
    impact, trigger, AttackerCapability, RewardTable, Scheduler, WindowDpScheduler,
};
use shatter_dataset::HouseSpec;
use shatter_smarthome::{OccupantId, ZoneId};

fn bench_dp_kernel(c: &mut Criterion) {
    let fx = HouseFixture::new(&HouseSpec::aras_a(), 12);
    let adm = fx.adm(AdmKind::default_kmeans(), 10);
    let table = RewardTable::build(&fx.model);
    let cap = AttackerCapability::full(&fx.home);
    let day = &fx.month.days[10];
    let sched = WindowDpScheduler::default();

    let mut group = c.benchmark_group("dp_kernel");
    group.sample_size(20);
    group.bench_function("full_day", |b| {
        b.iter(|| black_box(sched.schedule(&table, &adm, &cap, day)))
    });
    group.bench_function("single_occupant", |b| {
        b.iter(|| black_box(sched.schedule_occupant_zones(OccupantId(0), &table, &adm, &cap, day)))
    });
    group.bench_function("cold_profiles", |b| {
        b.iter(|| {
            let cold = adm.clone();
            black_box(sched.schedule_occupant_zones(OccupantId(0), &table, &cold, &cap, day))
        })
    });
    group.bench_function("reward_table_build", |b| {
        b.iter(|| black_box(RewardTable::build(&fx.model)))
    });

    let big = HouseFixture::new(&HouseSpec::scaled(16, 4), 12);
    let big_adm = big.adm(AdmKind::default_kmeans(), 10);
    let big_table = RewardTable::build(&big.model);
    let big_cap = AttackerCapability::full(&big.home);
    let big_day = &big.month.days[10];
    group.bench_function("full_day_scaled16", |b| {
        b.iter(|| black_box(sched.schedule(&big_table, &big_adm, &big_cap, big_day)))
    });

    let s = sched.schedule(&table, &adm, &cap, day);
    group.bench_function("plan_triggers", |b| {
        b.iter(|| black_box(trigger::plan_triggers(&fx.home, &adm, &cap, day, &s)))
    });
    let rooms = cap.clone().with_zone_access([ZoneId(1), ZoneId(2)]);
    group.bench_function("full_day_rooms12", |b| {
        b.iter(|| black_box(sched.schedule(&table, &adm, &rooms, day)))
    });
    let s_rooms = sched.schedule(&table, &adm, &rooms, day);
    for (suffix, cap, s) in [("", &cap, &s), ("_rooms12", &rooms, &s_rooms)] {
        for (leg, triggering) in [("price_no_trigger", false), ("price_with_trigger", true)] {
            group.bench_function(format!("{leg}{suffix}").as_str(), |b| {
                b.iter(|| {
                    black_box(impact::price_attacked_day(
                        &fx.model, &adm, cap, day, s, triggering,
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dp_kernel);
criterion_main!(benches);
