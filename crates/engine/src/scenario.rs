//! The [`Scenario`] abstraction and the scenario [`Registry`].
//!
//! A scenario is a named, self-describing evaluation workload producing
//! a [`Table`]. Scenarios receive a [`ScenarioCtx`] carrying the shared
//! [`FixtureCache`], the run parameters (days/span), and a deterministic
//! per-scenario RNG seed, so the same registry run with any thread count
//! yields identical tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::SmtScheduler;
use shatter_dataset::episodes::Episode;
use shatter_dataset::{Dataset, HouseSpec};

use crate::fixtures::{FixtureCache, HouseFixture};
use crate::pool::WorkPool;
use crate::table::Table;

/// Shared run parameters every scenario sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Dataset length in days for month-scale exhibits.
    pub days: usize,
    /// Minutes-long window for the scalability exhibits.
    pub span: usize,
    /// Base seed mixed into each scenario's deterministic seed.
    pub base_seed: u64,
    /// The formal scheduler every SMT-running scenario starts from
    /// (its per-window budget: `repro --budget`). Scenarios override only
    /// the fields they sweep.
    pub smt: SmtScheduler,
}

impl Default for RunParams {
    fn default() -> RunParams {
        RunParams {
            days: 30,
            span: 60,
            base_seed: 0,
            smt: SmtScheduler::default(),
        }
    }
}

/// Thread-safe collector of degradation notes for one scenario run.
///
/// Scenario code calls [`HealthSink::note_degraded`] when a result is
/// best-effort rather than exact — e.g. solver windows that exhausted
/// their deterministic budget — and the runner turns a non-empty sink
/// into `ScenarioStatus::Degraded` on the scenario's report. Cloning is
/// cheap; clones share the note list (so `par_map` workers can report).
#[derive(Clone, Debug, Default)]
pub struct HealthSink {
    notes: Arc<Mutex<Vec<String>>>,
    retried: Arc<AtomicU64>,
    quarantined: Arc<AtomicU64>,
}

impl HealthSink {
    /// An empty sink.
    pub fn new() -> HealthSink {
        HealthSink::default()
    }

    /// Counts work items (fleet houses) that needed at least one retry
    /// before completing. Surfaces in `run_status.csv`'s `retried`
    /// column.
    pub fn add_retried(&self, n: u64) {
        self.retried.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts work items quarantined after exhausting their retry
    /// budget. Surfaces in `run_status.csv`'s `quarantined` column.
    pub fn add_quarantined(&self, n: u64) {
        self.quarantined.fetch_add(n, Ordering::Relaxed);
    }

    /// Items retried so far.
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// Items quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Records one degradation note (deduplicated exact-match, so
    /// per-cell loops can report the same condition without flooding).
    pub fn note_degraded(&self, note: impl Into<String>) {
        let note = note.into();
        let mut notes = self.notes.lock().unwrap_or_else(|e| e.into_inner());
        if !notes.contains(&note) {
            notes.push(note);
        }
    }

    /// All notes recorded so far, in first-report order.
    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Whether any degradation was reported.
    pub fn is_degraded(&self) -> bool {
        !self
            .notes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }
}

/// Execution context handed to [`Scenario::run`].
pub struct ScenarioCtx<'a> {
    /// The shared fixture cache.
    pub cache: &'a FixtureCache,
    /// Run parameters.
    pub params: RunParams,
    /// Deterministic per-scenario seed (`fnv1a(id) ^ base_seed`).
    pub seed: u64,
    /// Slot budget shared with the runner for intra-scenario parallelism
    /// (see [`ScenarioCtx::par_map`]).
    pub pool: WorkPool,
    /// Degradation reporting channel: notes recorded here surface as the
    /// scenario's `Degraded` status in the run report.
    pub health: HealthSink,
}

impl ScenarioCtx<'_> {
    /// Maps `f` over independent work items (capability cells, days,
    /// sweep points...) on the caller plus however many helper threads
    /// the run's shared slot budget can lend right now. Results come
    /// back in submission order and per-item work must derive any
    /// randomness from [`ScenarioCtx::item_seed`], so the produced table
    /// is byte-identical across `--threads` settings.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Helper threads are fresh OS threads with empty fault TLS:
        // re-establish the submitting thread's scenario scope inside
        // each worker so per-scenario fault rules keep matching (and
        // their hit counters stay deterministic in serial runs).
        let scope = shatter_faults::current_scenario();
        self.pool.par_map(items, |i, t| {
            shatter_faults::scoped(scope.as_deref(), || f(i, t))
        })
    }

    /// Deterministic seed for parallel work item `index`: a splitmix64
    /// mix of the scenario seed and the index, stable across thread
    /// counts and sibling items.
    pub fn item_seed(&self, index: usize) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Convenience: `days` from the run parameters.
    pub fn days(&self) -> usize {
        self.params.days
    }

    /// Convenience: `span` from the run parameters.
    pub fn span(&self) -> usize {
        self.params.span
    }

    /// Dataset seed for a house in this run: the spec's canonical seed
    /// XORed with the run's `base_seed`, so `--seed` regenerates every
    /// fixture while `base_seed == 0` keeps the canonical months
    /// byte-stable.
    pub fn dataset_seed(&self, spec: &HouseSpec) -> u64 {
        spec.canonical_seed ^ self.params.base_seed
    }

    /// Cached fixture for `(spec, days)` under this run's dataset seed.
    pub fn fixture(&self, spec: &HouseSpec, days: usize) -> Arc<HouseFixture> {
        self.cache
            .fixture_with_seed(spec, days, self.dataset_seed(spec))
    }

    /// Cached dataset for `(spec, days)` under this run's dataset seed.
    pub fn dataset(&self, spec: &HouseSpec, days: usize) -> Arc<Dataset> {
        Arc::clone(&self.fixture(spec, days).month)
    }

    /// Cached episode extraction for this run's `(spec, days)` dataset.
    pub fn episodes(&self, spec: &HouseSpec, days: usize) -> Arc<Vec<Episode>> {
        self.cache
            .episodes_with_seed(spec, days, self.dataset_seed(spec))
    }

    /// Cached ADM trained on the first `train_days` days of this run's
    /// `(spec, days)` dataset.
    pub fn adm(
        &self,
        spec: &HouseSpec,
        days: usize,
        adm_kind: AdmKind,
        train_days: usize,
    ) -> Arc<HullAdm> {
        self.cache
            .adm_with_seed(spec, days, self.dataset_seed(spec), adm_kind, train_days)
    }
}

/// A named evaluation workload.
pub trait Scenario: Send + Sync {
    /// Stable identifier (`"fig11"`, `"tab5"`, ...).
    fn id(&self) -> &str;

    /// One-line human title.
    fn title(&self) -> &str;

    /// Longer description for `--list` output.
    fn description(&self) -> &str {
        ""
    }

    /// Whether the produced table is byte-identical across runs and
    /// thread counts. Timing-measuring scenarios return `false`.
    fn deterministic(&self) -> bool {
        true
    }

    /// Produces the exhibit table.
    fn run(&self, cx: &ScenarioCtx<'_>) -> Table;
}

type ScenarioFn = Box<dyn Fn(&ScenarioCtx<'_>) -> Table + Send + Sync>;

/// Adapter building a [`Scenario`] from a closure — the ~5-line path for
/// registering a new workload.
pub struct FnScenario {
    id: &'static str,
    title: &'static str,
    description: &'static str,
    deterministic: bool,
    f: ScenarioFn,
}

impl FnScenario {
    /// Builds a deterministic scenario from a closure.
    pub fn new(
        id: &'static str,
        title: &'static str,
        f: impl Fn(&ScenarioCtx<'_>) -> Table + Send + Sync + 'static,
    ) -> FnScenario {
        FnScenario {
            id,
            title,
            description: "",
            deterministic: true,
            f: Box::new(f),
        }
    }

    /// Sets the long description.
    pub fn describe(mut self, description: &'static str) -> FnScenario {
        self.description = description;
        self
    }

    /// Marks the scenario output as timing-dependent (not byte-stable).
    pub fn nondeterministic(mut self) -> FnScenario {
        self.deterministic = false;
        self
    }
}

impl Scenario for FnScenario {
    fn id(&self) -> &str {
        self.id
    }

    fn title(&self) -> &str {
        self.title
    }

    fn description(&self) -> &str {
        self.description
    }

    fn deterministic(&self) -> bool {
        self.deterministic
    }

    fn run(&self, cx: &ScenarioCtx<'_>) -> Table {
        (self.f)(cx)
    }
}

/// Ordered collection of registered scenarios.
#[derive(Default, Clone)]
pub struct Registry {
    items: Vec<Arc<dyn Scenario>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a scenario at the end of the order.
    ///
    /// # Panics
    ///
    /// Panics when another scenario with the same id is already present.
    pub fn register(&mut self, scenario: impl Scenario + 'static) {
        self.register_arc(Arc::new(scenario));
    }

    /// Registers an already-shared scenario.
    ///
    /// # Panics
    ///
    /// Panics when another scenario with the same id is already present.
    pub fn register_arc(&mut self, scenario: Arc<dyn Scenario>) {
        assert!(
            self.get(scenario.id()).is_none(),
            "duplicate scenario id {:?}",
            scenario.id()
        );
        self.items.push(scenario);
    }

    /// Looks up a scenario by id.
    pub fn get(&self, id: &str) -> Option<Arc<dyn Scenario>> {
        self.items.iter().find(|s| s.id() == id).cloned()
    }

    /// All scenarios in registration order.
    pub fn all(&self) -> Vec<Arc<dyn Scenario>> {
        self.items.clone()
    }

    /// Scenarios selected by id, in registration order.
    ///
    /// # Errors
    ///
    /// Returns *every* unknown id (in request order, deduplicated), so a
    /// caller with several typos sees them all in one round trip.
    pub fn select(&self, ids: &[String]) -> Result<Vec<Arc<dyn Scenario>>, Vec<String>> {
        let mut unknown: Vec<String> = Vec::new();
        for id in ids {
            if self.get(id).is_none() && !unknown.contains(id) {
                unknown.push(id.clone());
            }
        }
        if !unknown.is_empty() {
            return Err(unknown);
        }
        Ok(self
            .items
            .iter()
            .filter(|s| ids.iter().any(|id| id == s.id()))
            .cloned()
            .collect())
    }

    /// Registered ids in order.
    pub fn ids(&self) -> Vec<String> {
        self.items.iter().map(|s| s.id().to_string()).collect()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// FNV-1a hash of a string (also shards the fixture cache's entry map).
/// Delegates to the workspace's single pinned implementation in
/// `shatter-store` — scenario seeds are content addresses too.
pub(crate) fn fnv1a(s: &str) -> u64 {
    shatter_store::fnv::fnv1a_str(s)
}

/// FNV-1a hash of a scenario id, mixed with the base seed to give each
/// scenario an independent deterministic RNG stream.
pub fn scenario_seed(id: &str, base_seed: u64) -> u64 {
    fnv1a(id) ^ base_seed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(id: &'static str) -> FnScenario {
        FnScenario::new(id, "t", |_cx| Table::new(id, "t", &["c"]))
    }

    #[test]
    fn register_select_preserves_order() {
        let mut reg = Registry::new();
        reg.register(trivial("a"));
        reg.register(trivial("b"));
        reg.register(trivial("c"));
        let sel = reg
            .select(&["c".to_string(), "a".to_string()])
            .expect("known ids");
        let ids: Vec<&str> = sel.iter().map(|s| s.id()).collect();
        assert_eq!(ids, ["a", "c"]);
        match reg.select(&["zzz".to_string(), "a".to_string(), "yyy".to_string()]) {
            Err(bad) => assert_eq!(bad, ["zzz", "yyy"], "every unknown id is reported"),
            Ok(_) => panic!("unknown id accepted"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scenario id")]
    fn duplicate_id_rejected() {
        let mut reg = Registry::new();
        reg.register(trivial("a"));
        reg.register(trivial("a"));
    }

    #[test]
    fn seeds_differ_by_id_and_base() {
        assert_ne!(scenario_seed("fig3", 0), scenario_seed("fig4", 0));
        assert_ne!(scenario_seed("fig3", 0), scenario_seed("fig3", 1));
        assert_eq!(scenario_seed("fig3", 7), scenario_seed("fig3", 7));
    }
}
