//! Cross-run amortization contract of the persistent fixture/memo
//! store: a warm run over a populated blob store must produce tables
//! byte-identical to the cold run that filled it, memory-budget
//! eviction must change counters but never bytes (evicted entries
//! refault through the disk tier), and a damaged or fault-injected
//! cached blob must be discarded and recomputed, never trusted.
//!
//! Fault-injection rules are process-global but scoped by scenario id,
//! so every test here runs under its own unique id.

mod common;

use std::path::{Path, PathBuf};

use shatter_bench::fleet::{run_fleet, FleetConfig, FleetPolicy};
use shatter_core::{SmtStats, WindowSolution};
use shatter_engine::scenario::scenario_seed;
use shatter_engine::{disk_schema_sig, FixtureCache, HealthSink, RunParams, ScenarioCtx, WorkPool};
use shatter_smarthome::ZoneId;
use shatter_store::wire::Writer;
use shatter_store::BlobStore;

const N_HOUSES: usize = 4;

fn params() -> RunParams {
    RunParams {
        days: 2,
        span: 20,
        ..RunParams::default()
    }
}

fn cfg() -> FleetConfig {
    FleetConfig {
        n_houses: N_HOUSES,
        sample: None,
        policy: FleetPolicy::default(),
    }
}

fn ctx<'a>(id: &str, cache: &'a FixtureCache, extra_threads: usize) -> ScenarioCtx<'a> {
    ScenarioCtx {
        cache,
        params: params(),
        seed: scenario_seed(id, params().base_seed),
        pool: if extra_threads == 0 {
            WorkPool::serial()
        } else {
            WorkPool::new(extra_threads)
        },
        health: HealthSink::new(),
    }
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shatter-store-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> BlobStore {
    BlobStore::open(dir, disk_schema_sig()).unwrap()
}

/// The in-RAM-only run every persistent variant must reproduce.
fn reference_table(id: &str) -> String {
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    run_fleet(&cx, &cfg(), None).0.render()
}

#[test]
fn warm_run_replays_from_disk_and_is_byte_identical() {
    let id = "store-warm-test";
    let reference = reference_table(id);
    let dir = store_dir("warm");

    // Cold: fills the store. Everything is a compute miss.
    {
        let cache = FixtureCache::new().with_disk(open_store(&dir));
        let cx = ctx(id, &cache, 0);
        let (table, _) = run_fleet(&cx, &cfg(), None);
        assert_eq!(table.render(), reference, "disk tier must not change bytes");
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "an empty store cannot hit");
        assert!(stats.misses > 0);
        assert!(cache.disk().unwrap().stats().writes > 0);
    }

    // Warm: a fresh RAM cache over the populated store replays every
    // fixture, model and memo from disk — zero recomputation.
    let cache = FixtureCache::new().with_disk(open_store(&dir));
    let cx = ctx(id, &cache, 0);
    let (table, _) = run_fleet(&cx, &cfg(), None);
    assert_eq!(table.render(), reference);
    let stats = cache.stats();
    assert!(stats.disk_hits > 0, "warm run must replay from disk");
    assert_eq!(stats.misses, 0, "warm run must not recompute anything");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_changes_counters_but_never_bytes_across_threads() {
    let id = "store-evict-test";
    let reference = reference_table(id);
    // 64 KiB cannot hold even one synthesized month, so the budget
    // evicts continuously in insertion order.
    for extra_threads in [0, 3] {
        let cache = FixtureCache::new().with_memory_budget(64 * 1024);
        let cx = ctx(id, &cache, extra_threads);
        let (table, _) = run_fleet(&cx, &cfg(), None);
        assert_eq!(
            table.render(),
            reference,
            "eviction is a perf knob, not a correctness event ({} extra threads)",
            extra_threads
        );
        assert!(
            cache.stats().evictions > 0,
            "a 64 KiB budget must evict at exhibit scale"
        );
    }
}

#[test]
fn evicted_entries_refault_through_the_disk_tier() {
    let id = "store-refault-test";
    let reference = reference_table(id);
    let dir = store_dir("refault");

    // Populate the store once, unconstrained.
    {
        let cache = FixtureCache::new().with_disk(open_store(&dir));
        let cx = ctx(id, &cache, 0);
        run_fleet(&cx, &cfg(), None);
    }

    // Warm run under a starved RAM budget: entries are evicted and
    // refault from disk instead of recomputing.
    let cache = FixtureCache::new()
        .with_disk(open_store(&dir))
        .with_memory_budget(64 * 1024);
    let cx = ctx(id, &cache, 0);
    let (table, _) = run_fleet(&cx, &cfg(), None);
    assert_eq!(table.render(), reference);
    let stats = cache.stats();
    assert!(stats.evictions > 0, "starved budget must evict");
    assert_eq!(
        stats.misses, 0,
        "every refault must land in the disk tier, not recompute"
    );
    assert!(stats.disk_hits > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cached_blob_is_discarded_and_recomputed() {
    let id = "store-corrupt-test";
    let reference = reference_table(id);
    let dir = store_dir("corrupt");

    {
        let cache = FixtureCache::new().with_disk(open_store(&dir));
        let cx = ctx(id, &cache, 0);
        run_fleet(&cx, &cfg(), None);
    }

    // Silent media corruption: flip one payload byte in every third
    // blob, breaking their FNV checksums.
    let mut blobs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "blob"))
        .collect();
    blobs.sort();
    assert!(!blobs.is_empty());
    for path in blobs.iter().step_by(3) {
        let mut bytes = std::fs::read(path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    let cache = FixtureCache::new().with_disk(open_store(&dir));
    let cx = ctx(id, &cache, 0);
    let (table, _) = run_fleet(&cx, &cfg(), None);
    assert_eq!(
        table.render(),
        reference,
        "a corrupt blob must be recomputed, never trusted"
    );
    let disk = cache.disk().unwrap().stats();
    assert!(disk.discarded > 0, "corrupt blobs must be discarded");
    assert!(
        cache.stats().misses > 0,
        "discarded blobs must fall through to recompute"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_record_format_is_discarded_and_recomputed() {
    let id = "store-retired-format-test";
    let reference = reference_table(id);
    let dir = store_dir("retired");

    let cold_misses = {
        let cache = FixtureCache::new().with_disk(open_store(&dir));
        let cx = ctx(id, &cache, 0);
        run_fleet(&cx, &cfg(), None);
        cache.stats().misses
    };

    // The store as a build that checksummed payloads with FNV-1a left
    // it: every record in the `SHATTERB1` format.
    let records: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "blob"))
        .collect();
    assert!(!records.is_empty());
    for path in &records {
        common::retire_record(path);
    }

    let cache = FixtureCache::new().with_disk(open_store(&dir));
    let cx = ctx(id, &cache, 0);
    let (table, _) = run_fleet(&cx, &cfg(), None);
    assert_eq!(
        table.render(),
        reference,
        "recomputed tables must equal the cold run's"
    );
    let stats = cache.stats();
    assert_eq!(stats.disk_hits, 0, "no retired record may be replayed");
    assert_eq!(stats.misses, cold_misses, "every retired record recomputes");
    let disk = cache.disk().unwrap().stats();
    assert_eq!(disk.discarded, records.len() as u64);
    assert_eq!(disk.writes, records.len() as u64, "recomputes re-persist");

    // Re-persisted in the current format: the next run replays them.
    let warm = FixtureCache::new().with_disk(open_store(&dir));
    let cx = ctx(id, &warm, 0);
    let (table, _) = run_fleet(&cx, &cfg(), None);
    assert_eq!(table.render(), reference);
    assert_eq!(warm.stats().misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_read_fault_discards_and_recomputes() {
    let id = "store-readfault-test";
    let reference = reference_table(id);
    let dir = store_dir("readfault");

    {
        let cache = FixtureCache::new().with_disk(open_store(&dir));
        let cx = ctx(id, &cache, 0);
        shatter_faults::with_scenario(id, || run_fleet(&cx, &cfg(), None));
    }

    // The first two warm reads hit an injected I/O fault: the store
    // must treat the blob as damaged (delete + discard + miss), and the
    // cache must recompute and re-persist it.
    shatter_faults::install_str(&format!("{id}/store.read/io@0,{id}/store.read/io@1")).unwrap();
    let cache = FixtureCache::new().with_disk(open_store(&dir));
    let cx = ctx(id, &cache, 0);
    let (table, _) = shatter_faults::with_scenario(id, || run_fleet(&cx, &cfg(), None));
    assert_eq!(table.render(), reference);
    let disk = cache.disk().unwrap().stats();
    assert_eq!(disk.discarded, 2, "each injected read fault discards once");
    assert_eq!(cache.stats().misses, 2, "each discarded blob recomputes");
    assert!(disk.writes >= 2, "recomputed blobs are re-persisted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_window_solution_tags_are_discarded_and_recomputed() {
    // Payloads persisted by older builds under a live window memo key,
    // all with zones, effort counters and an objective:
    // `window-solution/1` (14 counters, then degraded/retried/overflow
    // flags), `window-solution/2` (14 counters and an overflow flag; the
    // effort of the search before the first OMT probe became an
    // optimality check), `window-solution/3` (the `/2` layout, with the
    // simplex's pivot counters before the window objective became
    // pseudo-Boolean) and `window-solution/4` (the current field layout: 11
    // counters and no flag, with the propagation counts of window clauses
    // that still went through a constant-true variable). The current
    // build must never decode any of them, only discard it and recompute.
    for (tag, counters, flags) in [
        ("window-solution/1", 14, 3),
        ("window-solution/2", 14, 1),
        ("window-solution/3", 14, 1),
        ("window-solution/4", 11, 0),
    ] {
        let dir = store_dir(&tag.replace('/', "-"));
        let key = "window-retired-test/o0/w0+10/b-";
        {
            let mut w = Writer::new();
            w.str(tag);
            w.bool(true);
            w.usize(2);
            w.u32(1);
            w.u32(3);
            for v in 1..=counters {
                w.u64(v);
            }
            w.opt_i64(Some(-7));
            for _ in 0..flags {
                w.bool(false);
            }
            open_store(&dir).put(key, &w.into_bytes()).unwrap();
        }
        let fresh = WindowSolution {
            zones: Some(vec![ZoneId(2); 10]),
            effort: SmtStats {
                theory_conflicts: 5,
                sat_decisions: 40,
                ..SmtStats::default()
            },
            objective: Some(123),
        };

        let cache = FixtureCache::new().with_disk(open_store(&dir));
        let got = cache.memo_blob(key, || fresh.clone());
        assert_eq!(*got, fresh, "the stale {tag} payload must not be decoded");
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.misses), (0, 1));
        let disk = cache.disk().unwrap().stats();
        assert_eq!(
            disk.discarded, 1,
            "the stale {tag} payload must be discarded"
        );
        assert_eq!(disk.writes, 1, "the recompute is re-persisted");

        // The re-persisted blob is in the current layout: a fresh cache
        // over the same store replays it from disk.
        let warm = FixtureCache::new().with_disk(open_store(&dir));
        let replayed =
            warm.memo_blob::<WindowSolution, _>(key, || unreachable!("must replay from disk"));
        assert_eq!(*replayed, fresh);
        assert_eq!(warm.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
