//! The parallel scenario runner.
//!
//! Scenarios are pure functions of their [`ScenarioCtx`], so the runner
//! executes them on a fixed-size pool of scoped threads pulling from an
//! atomic work queue. Results are reported in *submission* order
//! regardless of thread interleaving, and every scenario receives the
//! same deterministic seed it would get in a serial run — output is
//! therefore byte-identical across `--threads` settings.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shatter_faults::FaultKind;

use crate::fixtures::{CacheStats, FixtureCache};
use crate::pool::WorkPool;
use crate::scenario::{scenario_seed, HealthSink, RunParams, Scenario, ScenarioCtx};
use crate::table::Table;

/// Runner configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Parameters forwarded to every scenario.
    pub params: RunParams,
    /// Stop submitting new scenarios after the first failure. The
    /// default (`false`, "keep going") runs the whole suite and reports
    /// every failure at the end — a crashing scenario never takes the
    /// rest of the evaluation down with it.
    pub fail_fast: bool,
}

impl RunConfig {
    /// Resolves `threads == 0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// How one scenario finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Ran to completion with exact results.
    Ok,
    /// Ran to completion, but parts of the result are best-effort
    /// (e.g. solver windows that exhausted their deterministic budget).
    Degraded {
        /// Deduplicated degradation notes from the scenario's
        /// [`HealthSink`], in first-report order.
        notes: Vec<String>,
    },
    /// The scenario panicked; its table is a placeholder and the run's
    /// exit code must be nonzero.
    Failed {
        /// The panic message (or a marker for non-string payloads).
        cause: String,
    },
}

impl ScenarioStatus {
    /// Lowercase status word used by the reporters (`ok` / `degraded` /
    /// `failed`).
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioStatus::Ok => "ok",
            ScenarioStatus::Degraded { .. } => "degraded",
            ScenarioStatus::Failed { .. } => "failed",
        }
    }

    /// Whether the scenario failed outright.
    pub fn is_failed(&self) -> bool {
        matches!(self, ScenarioStatus::Failed { .. })
    }

    /// Whether the scenario completed with exact results.
    pub fn is_ok(&self) -> bool {
        matches!(self, ScenarioStatus::Ok)
    }
}

/// One executed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario id.
    pub id: String,
    /// Scenario title.
    pub title: String,
    /// Whether the scenario declares byte-stable output.
    pub deterministic: bool,
    /// Wall-clock of this scenario's `run`.
    pub wall: Duration,
    /// The produced exhibit (a one-row placeholder when `status` is
    /// [`ScenarioStatus::Failed`]).
    pub table: Table,
    /// How the scenario finished.
    pub status: ScenarioStatus,
    /// Work items (fleet houses) that completed only after a retry,
    /// from the scenario's [`HealthSink`].
    pub retried: u64,
    /// Work items quarantined after exhausting their retry budget.
    pub quarantined: u64,
}

/// Result of a full runner invocation.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-scenario reports in submission order. With
    /// [`RunConfig::fail_fast`], scenarios skipped after the first
    /// failure are simply absent.
    pub reports: Vec<ScenarioReport>,
    /// Wall-clock of the whole run (parallel section).
    pub total_wall: Duration,
    /// Cache counters accumulated on the shared cache during the run.
    pub cache: CacheStats,
    /// Worker threads actually used.
    pub threads: usize,
}

impl RunOutcome {
    /// Sum of per-scenario wall-clocks (the serial-equivalent cost).
    pub fn scenario_wall_sum(&self) -> Duration {
        self.reports.iter().map(|r| r.wall).sum()
    }

    /// Reports whose scenario failed.
    pub fn failures(&self) -> Vec<&ScenarioReport> {
        self.reports
            .iter()
            .filter(|r| r.status.is_failed())
            .collect()
    }

    /// Whether any scenario failed (drives the `repro` exit code).
    pub fn any_failed(&self) -> bool {
        self.reports.iter().any(|r| r.status.is_failed())
    }
}

/// Human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_one(
    scenario: &dyn Scenario,
    cache: &FixtureCache,
    params: RunParams,
    pool: &WorkPool,
) -> ScenarioReport {
    let id = scenario.id().to_string();
    let health = HealthSink::new();
    let cx = ScenarioCtx {
        cache,
        params,
        seed: scenario_seed(scenario.id(), params.base_seed),
        pool: pool.clone(),
        health: health.clone(),
    };
    let start = Instant::now();
    // Fault isolation: the scenario runs inside its fault scope (so
    // per-scenario injection rules match) and under `catch_unwind` — a
    // panicking scenario becomes a Failed report instead of tearing the
    // worker (and the whole suite) down.
    let result = catch_unwind(AssertUnwindSafe(|| {
        shatter_faults::with_scenario(&id, || {
            if let Some(kind) = shatter_faults::hit("scenario.run") {
                match kind {
                    FaultKind::Panic => shatter_faults::panic_now("scenario.run"),
                    // The runner has no solver to exhaust or I/O to
                    // tear: the non-panic kinds degrade the scenario.
                    FaultKind::Budget | FaultKind::Io => cx
                        .health
                        .note_degraded(format!("injected {} at scenario.run", kind.name())),
                }
            }
            scenario.run(&cx)
        })
    }));
    let wall = start.elapsed();
    let (table, status) = match result {
        Ok(table) => {
            let status = if health.is_degraded() {
                ScenarioStatus::Degraded {
                    notes: health.notes(),
                }
            } else {
                ScenarioStatus::Ok
            };
            (table, status)
        }
        Err(payload) => {
            let cause = panic_message(payload.as_ref());
            let mut placeholder = Table::new(&id, scenario.title(), &["error"]);
            placeholder.push(vec![cause.clone()]);
            (placeholder, ScenarioStatus::Failed { cause })
        }
    };
    ScenarioReport {
        id,
        title: scenario.title().to_string(),
        deterministic: scenario.deterministic(),
        wall,
        table,
        status,
        retried: health.retried(),
        quarantined: health.quarantined(),
    }
}

/// Runs `scenarios` against a shared `cache`, in parallel when the
/// config allows, returning reports in submission order.
pub fn run_scenarios(
    scenarios: &[Arc<dyn Scenario>],
    cache: &FixtureCache,
    cfg: &RunConfig,
) -> RunOutcome {
    let before = cache.stats();
    let start = Instant::now();
    let total = cfg.effective_threads();
    let threads = total.min(scenarios.len()).max(1);
    // One global slot budget: each runner worker holds a slot implicitly,
    // the surplus is lendable to scenarios via `ScenarioCtx::par_map`,
    // and retiring workers hand their slot back — so a heavy scenario
    // outliving the queue widens without ever oversubscribing `total`.
    let pool = WorkPool::new(total.saturating_sub(threads));

    let mut slots: Vec<Option<ScenarioReport>> = Vec::new();
    slots.resize_with(scenarios.len(), || None);
    // Set by the first failure under fail-fast: already-running
    // scenarios finish, queued ones are skipped (their slots stay empty).
    let stop = AtomicBool::new(false);

    if threads <= 1 {
        for (i, s) in scenarios.iter().enumerate() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let report = run_one(s.as_ref(), cache, cfg.params, &pool);
            if cfg.fail_fast && report.status.is_failed() {
                stop.store(true, Ordering::Relaxed);
            }
            slots[i] = Some(report);
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots_shared = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        pool.release(1);
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(s) = scenarios.get(i) else {
                        pool.release(1);
                        break;
                    };
                    let report = run_one(s.as_ref(), cache, cfg.params, &pool);
                    if cfg.fail_fast && report.status.is_failed() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    slots_shared.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(report);
                });
            }
        });
    }

    let after = cache.stats();
    RunOutcome {
        reports: slots.into_iter().flatten().collect(),
        total_wall: start.elapsed(),
        cache: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            disk_hits: after.disk_hits - before.disk_hits,
            evictions: after.evictions - before.evictions,
        },
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FnScenario, Registry};
    use shatter_dataset::HouseSpec;

    fn registry() -> Registry {
        let mut reg = Registry::new();
        for (i, id) in ["s1", "s2", "s3", "s4", "s5"].iter().enumerate() {
            reg.register(FnScenario::new(id, "probe", move |cx| {
                let fx = cx.fixture(&HouseSpec::aras_a(), 2);
                let mut t = Table::new(id, "probe", &["seed", "days", "idx"]);
                t.push(vec![
                    cx.seed.to_string(),
                    fx.month.days.len().to_string(),
                    i.to_string(),
                ]);
                t
            }));
        }
        reg
    }

    fn rendered(out: &RunOutcome) -> Vec<String> {
        out.reports.iter().map(|r| r.table.render()).collect()
    }

    #[test]
    fn parallel_output_matches_serial_and_orders_reports() {
        let reg = registry();
        let cache_a = crate::FixtureCache::new();
        let cache_b = crate::FixtureCache::new();
        let serial = run_scenarios(
            &reg.all(),
            &cache_a,
            &RunConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = run_scenarios(
            &reg.all(),
            &cache_b,
            &RunConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(rendered(&serial), rendered(&parallel));
        let ids: Vec<&str> = parallel.reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["s1", "s2", "s3", "s4", "s5"]);
        // Five fixture lookups total; racing workers may each miss the
        // first lookup (compute-outside-lock), but at least one hit must
        // land once the entry is published.
        assert_eq!(parallel.cache.hits + parallel.cache.misses, 5);
        assert!(parallel.cache.misses >= 1);
        assert_eq!(serial.cache.misses, 1);
        assert_eq!(serial.cache.hits, 4);
    }

    fn panicking(id: &'static str) -> FnScenario {
        FnScenario::new(id, "chaos probe", move |_cx| -> Table {
            panic!("chaos boom in {id}")
        })
    }

    #[test]
    fn panicking_scenario_is_isolated_and_suite_completes() {
        // Keep-going default: the panic becomes one Failed report and
        // every other scenario still runs — serially and in parallel.
        for threads in [1, 3] {
            let mut reg = registry();
            reg.register(panicking("boom"));
            let cache = crate::FixtureCache::new();
            let out = run_scenarios(
                &reg.all(),
                &cache,
                &RunConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(out.reports.len(), 6);
            assert!(out.any_failed());
            let failures = out.failures();
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].id, "boom");
            match &failures[0].status {
                ScenarioStatus::Failed { cause } => {
                    assert_eq!(cause, "chaos boom in boom");
                }
                other => panic!("expected Failed, got {other:?}"),
            }
            // The placeholder table carries the cause for the reporters.
            assert_eq!(failures[0].table.rows, vec![vec!["chaos boom in boom"]]);
            assert!(out.reports.iter().filter(|r| r.status.is_ok()).count() >= 5);
        }
    }

    #[test]
    fn fail_fast_skips_scenarios_after_the_first_failure() {
        let mut reg = Registry::new();
        reg.register(panicking("first"));
        for id in ["second", "third"] {
            reg.register(FnScenario::new(id, "probe", move |_cx| {
                Table::new(id, "probe", &["v"])
            }));
        }
        let cache = crate::FixtureCache::new();
        let out = run_scenarios(
            &reg.all(),
            &cache,
            &RunConfig {
                threads: 1,
                fail_fast: true,
                ..Default::default()
            },
        );
        assert_eq!(out.reports.len(), 1);
        assert!(out.reports[0].status.is_failed());
    }

    #[test]
    fn health_notes_surface_as_deduplicated_degraded_status() {
        let mut reg = Registry::new();
        reg.register(FnScenario::new("soft", "probe", |cx| {
            cx.health.note_degraded("window budget exhausted");
            cx.health.note_degraded("window budget exhausted");
            cx.health.note_degraded("probe budget exhausted");
            Table::new("soft", "probe", &["v"])
        }));
        let cache = crate::FixtureCache::new();
        let out = run_scenarios(&reg.all(), &cache, &RunConfig::default());
        assert!(!out.any_failed());
        match &out.reports[0].status {
            ScenarioStatus::Degraded { notes } => {
                assert_eq!(
                    notes,
                    &["window budget exhausted", "probe budget exhausted"]
                );
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn injected_scenario_fault_hits_only_its_target() {
        // The plan is keyed to the "chaos-target" scenario id, so the
        // sibling scenario (and every other test in this process) is
        // untouched; the rule fires exactly once.
        shatter_faults::install_str("chaos-target/scenario.run/panic").unwrap();
        let mut reg = Registry::new();
        reg.register(FnScenario::new("chaos-target", "probe", |_cx| {
            Table::new("chaos-target", "probe", &["v"])
        }));
        reg.register(FnScenario::new("chaos-bystander", "probe", |_cx| {
            Table::new("chaos-bystander", "probe", &["v"])
        }));
        let cache = crate::FixtureCache::new();
        let out = run_scenarios(&reg.all(), &cache, &RunConfig::default());
        assert_eq!(out.reports.len(), 2);
        match &out.reports[0].status {
            ScenarioStatus::Failed { cause } => {
                assert_eq!(cause, "injected fault: panic at scenario.run");
            }
            other => panic!("expected injected failure, got {other:?}"),
        }
        assert!(out.reports[1].status.is_ok());
    }

    #[test]
    fn effective_threads_bounds() {
        let cfg = RunConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(cfg.effective_threads(), 3);
        let auto = RunConfig::default();
        assert!(auto.effective_threads() >= 1);
    }
}
