//! Criterion microbench of the persistent blob store — the disk tier
//! under the fixture cache.
//!
//! `codec/*` isolates the wire codec: serialize/deserialize of a
//! realistic [`WindowSolution`] and of a full 1440-row [`RewardTable`]
//! (the largest blob the memo tier persists per fixture). `checksum/*`
//! hashes the ARAS-A reward-table blob and a 30-day ARAS-A dataset blob
//! with the record checksum (XXH64) and with byte-serial FNV-1a, the
//! checksum of the previous record format. `blob_io/*` measures the
//! store round trip itself — `put` is a checksummed tmp+rename write,
//! `get` a lazy-validated read — at both payload scales, so regressions
//! in either the codec or the record format show up as $/op, not as a
//! mystery warm-run slowdown.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_core::{RewardTable, SmtStats, WindowSolution};
use shatter_dataset::HouseSpec;
use shatter_engine::{disk_schema_sig, HouseFixture};
use shatter_hvac::EnergyModel;
use shatter_smarthome::ZoneId;
use shatter_store::{fnv1a_bytes, xxh64, Blob, BlobStore};

fn sample_window_solution() -> WindowSolution {
    WindowSolution {
        zones: Some((0..8).map(ZoneId).collect()),
        effort: SmtStats {
            theory_conflicts: 421,
            sat_decisions: 9_310,
            sat_propagations: 88_412,
            sat_learned: 512,
            sat_learnt_live: 512,
            ..SmtStats::default()
        },
        objective: Some(123_456),
    }
}

fn sample_reward_table() -> RewardTable {
    let spec = HouseSpec::aras_a();
    let model = EnergyModel::standard(spec.home.build());
    RewardTable::build(&model)
}

fn bench_codec(c: &mut Criterion) {
    let sol = sample_window_solution();
    let table = sample_reward_table();
    let sol_bytes = sol.to_blob();
    let table_bytes = table.to_blob();

    let mut g = c.benchmark_group("codec");
    g.bench_function("window_solution/encode", |b| {
        b.iter(|| black_box(&sol).to_blob())
    });
    g.bench_function("window_solution/decode", |b| {
        b.iter(|| WindowSolution::from_blob(black_box(&sol_bytes)).expect("valid blob"))
    });
    g.bench_function("reward_table/encode", |b| {
        b.iter(|| black_box(&table).to_blob())
    });
    g.bench_function("reward_table/decode", |b| {
        b.iter(|| RewardTable::from_blob(black_box(&table_bytes)).expect("valid blob"))
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let table_bytes = sample_reward_table().to_blob();
    let month_bytes = HouseFixture::new(&HouseSpec::aras_a(), 30).month.to_blob();

    let mut g = c.benchmark_group("checksum");
    for (label, payload) in [
        ("reward_table", &table_bytes),
        ("dataset_30d", &month_bytes),
    ] {
        g.bench_with_input(BenchmarkId::new("fnv1a", label), payload, |b, payload| {
            b.iter(|| fnv1a_bytes(black_box(payload)))
        });
        g.bench_with_input(BenchmarkId::new("xxh64", label), payload, |b, payload| {
            b.iter(|| xxh64(black_box(payload)))
        });
    }
    g.finish();
}

fn bench_blob_io(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("shatter-bench-store-io-{}", std::process::id()));
    let store = BlobStore::open(&dir, disk_schema_sig()).expect("open bench store");
    let sol_bytes = sample_window_solution().to_blob();
    let table_bytes = sample_reward_table().to_blob();

    let mut g = c.benchmark_group("blob_io");
    for (label, payload) in [
        ("window_solution", &sol_bytes),
        ("reward_table", &table_bytes),
    ] {
        g.bench_with_input(BenchmarkId::new("put", label), payload, |b, payload| {
            let mut n = 0u64;
            b.iter(|| {
                // A fresh key per iteration keeps this a write, not an
                // overwrite of a hot inode.
                n += 1;
                store.put(&format!("bench/{label}/{n}"), payload).unwrap();
            });
        });
        let key = format!("bench/{label}/warm");
        store.put(&key, payload).unwrap();
        g.bench_with_input(BenchmarkId::new("get", label), &key, |b, key| {
            b.iter(|| store.get(black_box(key)).expect("warm blob present"));
        });
    }
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_codec, bench_checksum, bench_blob_io);
criterion_main!(benches);
