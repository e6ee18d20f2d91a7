//! Crash-recovery contract of the fleet + journal stack: kill the run
//! anywhere (torn record, flipped byte, mid-fleet panic), resume, and
//! the final table must be byte-identical to an uninterrupted run —
//! across thread counts — with completed houses replayed, never
//! recomputed.
//!
//! Fault-injection rules are process-global but scoped by scenario id,
//! so every test here runs under its own unique id.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use shatter_bench::fleet::{config_signature, run_fleet, FleetConfig, FleetPolicy};
use shatter_engine::scenario::scenario_seed;
use shatter_engine::{FixtureCache, HealthSink, RunParams, ScenarioCtx, WorkPool};
use shatter_store::BlobStore;

const N_HOUSES: usize = 8;

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

/// A standalone scenario context over a fresh cache; `extra_threads`
/// mirrors `--threads (extra_threads + 1)`.
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

/// The uninterrupted, un-journaled run every recovery path must match.
fn reference_table(id: &str) -> String {
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    run_fleet(&cx, &cfg(), None).0.render()
}

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shatter-fleet-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "blob"))
        .collect();
    files.sort();
    files
}

#[test]
fn damaged_records_are_discarded_and_resume_is_byte_identical() {
    let id = "fleet-damage-test";
    let reference = reference_table(id);
    let dir = journal_dir("damage");
    let sig = config_signature(&cfg(), &params());

    {
        let cache = FixtureCache::new();
        let cx = ctx(id, &cache, 0);
        let journal = BlobStore::open(&dir, sig).unwrap();
        let (_, out) = run_fleet(&cx, &cfg(), Some(&journal));
        assert_eq!(out.computed, N_HOUSES as u64);
        assert_eq!(journal.stats().writes, N_HOUSES as u64);
    }

    // Simulate a kill -9 mid-write (torn tail) plus silent media
    // corruption (one flipped payload byte, which breaks the record's
    // FNV checksum).
    let files = record_files(&dir);
    assert_eq!(files.len(), N_HOUSES);
    let torn = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &torn[..torn.len() - 5]).unwrap();
    let mut flipped = std::fs::read(&files[1]).unwrap();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    std::fs::write(&files[1], &flipped).unwrap();

    // Resume on a fresh cache: exactly the two damaged records are
    // discarded (when read) and recomputed; the six intact ones replay.
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    let journal = BlobStore::open(&dir, sig).unwrap();
    let (table, out) = run_fleet(&cx, &cfg(), Some(&journal));
    assert_eq!(out.journal_hits, N_HOUSES as u64 - 2);
    assert_eq!(out.computed, 2);
    let stats = journal.stats();
    assert_eq!((stats.hits, stats.discarded), (N_HOUSES as u64 - 2, 2));
    assert_eq!(stats.writes, 2, "recomputed houses are re-journaled");
    assert_eq!(table.render(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_recomputes_houses_journaled_in_the_retired_format() {
    let id = "fleet-retired-test";
    let reference = reference_table(id);
    let dir = journal_dir("retired");
    let sig = config_signature(&cfg(), &params());

    {
        let cache = FixtureCache::new();
        let cx = ctx(id, &cache, 0);
        let journal = BlobStore::open(&dir, sig).unwrap();
        run_fleet(&cx, &cfg(), Some(&journal));
    }

    // Three houses journaled by a build that checksummed payloads with
    // FNV-1a (`SHATTERB1` records): foreign to this build, so the resume
    // recomputes them instead of replaying them.
    let files = record_files(&dir);
    for path in &files[..3] {
        common::retire_record(path);
    }
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    let journal = BlobStore::open(&dir, sig).unwrap();
    let (table, out) = run_fleet(&cx, &cfg(), Some(&journal));
    assert_eq!(out.journal_hits, N_HOUSES as u64 - 3);
    assert_eq!(out.computed, 3);
    let stats = journal.stats();
    assert_eq!((stats.hits, stats.discarded), (N_HOUSES as u64 - 3, 3));
    assert_eq!(stats.writes, 3, "recomputed houses are re-journaled");
    assert_eq!(table.render(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_byte_identical_across_thread_counts() {
    let id = "fleet-threads-test";
    let reference = reference_table(id);
    let dir = journal_dir("threads");
    let sig = config_signature(&cfg(), &params());

    // Populate the journal on 7 threads...
    {
        let cache = FixtureCache::new();
        let cx = ctx(id, &cache, 6);
        let journal = BlobStore::open(&dir, sig).unwrap();
        let (table, _) = run_fleet(&cx, &cfg(), Some(&journal));
        assert_eq!(
            table.render(),
            reference,
            "parallel fresh run must match serial"
        );
    }
    // ...and replay it serially: same bytes, zero recomputation.
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    let journal = BlobStore::open(&dir, sig).unwrap();
    let (table, out) = run_fleet(&cx, &cfg(), Some(&journal));
    assert_eq!(out.journal_hits, N_HOUSES as u64);
    assert_eq!(out.computed, 0);
    assert_eq!(table.render(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_fleet_crash_resumes_without_recomputing_completed_houses() {
    let id = "fleet-crash-test";
    let reference = reference_table(id);
    let dir = journal_dir("crash");
    let sig = config_signature(&cfg(), &params());

    // The 5th journal write panics — a reproducible mid-fleet crash.
    // The write sits outside the per-house retry guard, so the panic
    // escapes run_fleet (in repro this surfaces as a Failed scenario
    // and a nonzero exit).
    shatter_faults::install_str(&format!("{id}/store.write/panic@4")).unwrap();
    {
        let cache = FixtureCache::new();
        let cx = ctx(id, &cache, 0);
        let journal = BlobStore::open(&dir, sig).unwrap();
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            shatter_faults::with_scenario(id, || run_fleet(&cx, &cfg(), Some(&journal)))
        }));
        assert!(crashed.is_err(), "injected store.write panic must escape");
    }

    // Resume on a fresh cache: every record that made it to disk
    // replays (the fault rule has already fired and stays quiet).
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    let journal = BlobStore::open(&dir, sig).unwrap();
    let persisted = record_files(&dir).len() as u64;
    assert!(
        persisted >= 4 && persisted < N_HOUSES as u64,
        "crash must leave a partial journal, got {persisted}"
    );
    let (table, out) = shatter_faults::with_scenario(id, || run_fleet(&cx, &cfg(), Some(&journal)));
    assert_eq!(out.journal_hits, persisted);
    assert_eq!(out.computed, N_HOUSES as u64 - persisted);
    assert_eq!(table.render(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_house_is_retried_and_completes() {
    let id = "fleet-retry-test";
    let reference = reference_table(id);
    shatter_faults::install_str(&format!("{id}/fleet.house/panic@0")).unwrap();
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    let (table, out) = shatter_faults::with_scenario(id, || run_fleet(&cx, &cfg(), None));
    assert_eq!(out.retried, 1);
    assert_eq!(out.quarantined, 0);
    assert_eq!(cx.health.retried(), 1);
    // House 0 completed on attempt 1 with the same result bytes apart
    // from the attempts column.
    let row = &table.rows[0];
    assert_eq!(row[row.len() - 2], "ok");
    assert_eq!(row[row.len() - 1], "1");
    let mut expected: Vec<Vec<String>> = reference
        .lines()
        .skip(3)
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    expected[0][10] = "1".to_string();
    let got: Vec<Vec<String>> = table
        .render()
        .lines()
        .skip(3)
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn house_exhausting_retries_is_quarantined() {
    let id = "fleet-quarantine-test";
    shatter_faults::install_str(&format!(
        "{id}/fleet.house/panic@0,{id}/fleet.house/panic@1"
    ))
    .unwrap();
    let cache = FixtureCache::new();
    let cx = ctx(id, &cache, 0);
    let (table, out) = shatter_faults::with_scenario(id, || run_fleet(&cx, &cfg(), None));
    assert_eq!(out.quarantined, 1);
    assert_eq!(
        out.retried, 0,
        "a quarantined house counts once, not as a retry"
    );
    assert_eq!(cx.health.quarantined(), 1);
    assert!(
        cx.health.is_degraded(),
        "quarantine must degrade the scenario"
    );
    let row = &table.rows[0];
    assert_eq!(row[row.len() - 2], "quarantined");
    assert!(
        row[3].is_empty(),
        "quarantined rows carry no fabricated numbers"
    );
    // The rest of the fleet is unaffected.
    assert!(table.rows[1..].iter().all(|r| r[r.len() - 2] == "ok"));
}
