//! Criterion microbench of single-window OMT latency: each window copies
//! its span's template into a kept solver, asserts its clauses and runs
//! every probe of its search inside that copy.
//!
//! `single_window/N` solves exactly one window of span `N` minutes;
//! `window_chain` solves six consecutive 10-minute windows, each on its
//! own copy of the shared template, which is the shape
//! `strategies`/`fig11` pay per day.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_adm::AdmKind;
use shatter_bench::common::HouseFixture;
use shatter_core::{AttackerCapability, RewardTable, SmtScheduler};
use shatter_dataset::HouseSpec;
use shatter_smarthome::OccupantId;

fn bench_omt_window(c: &mut Criterion) {
    let fx = HouseFixture::new(&HouseSpec::aras_a(), 12);
    let adm = fx.adm(AdmKind::default_kmeans(), 10);
    let table = RewardTable::build(&fx.model);
    let cap = AttackerCapability::full(&fx.home);
    let day = &fx.month.days[10];

    let mut group = c.benchmark_group("omt_window");
    group.sample_size(10);
    for span in [10usize, 14] {
        group.bench_with_input(BenchmarkId::new("single_window", span), &span, |b, &n| {
            let sched = SmtScheduler {
                horizon: n,
                ..SmtScheduler::default()
            };
            b.iter(|| black_box(sched.schedule_occupant(OccupantId(0), &table, &adm, &cap, day, n)))
        });
    }
    group.bench_function("window_chain", |b| {
        let sched = SmtScheduler::default();
        b.iter(|| black_box(sched.schedule_occupant(OccupantId(0), &table, &adm, &cap, day, 60)))
    });
    group.finish();
}

criterion_group!(benches, bench_omt_window);
criterion_main!(benches);
