//! `shatter-engine` — the evaluation substrate for the SHATTER
//! reproduction: a registry of [`Scenario`]s, a [`FixtureCache`] that
//! memoizes the dominant costs (dataset synthesis, episode extraction,
//! ADM training), a deterministic parallel [`runner`], and pluggable
//! [`report`]ers (text, CSV, JSON lines).
//!
//! Every paper exhibit (and every future workload) is a [`Scenario`]: a
//! named computation from a [`ScenarioCtx`] to a [`Table`]. Scenarios
//! pull shared fixtures through the cache instead of re-synthesizing
//! them, so a full-suite run pays each `(house, days, seed)` dataset and
//! each `(dataset, AdmKind, train_days)` model once, and the runner can
//! execute independent scenarios on parallel threads with per-scenario
//! deterministic RNG seeds.
//!
//! # Examples
//!
//! ```
//! use shatter_engine::{FixtureCache, FnScenario, Registry, RunConfig, Table};
//!
//! let mut reg = Registry::new();
//! reg.register(FnScenario::new("hello", "Trivial scenario", |cx| {
//!     let fx = cx.fixture(&shatter_dataset::HouseSpec::aras_a(), 2);
//!     let mut t = Table::new("hello", "Trivial scenario", &["days"]);
//!     t.push(vec![fx.month.days.len().to_string()]);
//!     t
//! }));
//! let cache = FixtureCache::new();
//! let out = shatter_engine::runner::run_scenarios(
//!     &reg.all(),
//!     &cache,
//!     &RunConfig::default(),
//! );
//! assert_eq!(out.reports.len(), 1);
//! assert_eq!(out.reports[0].table.rows[0][0], "2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod fixtures;
pub mod pool;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table;

pub use fixtures::{
    disk_schema_sig, CacheStats, FixtureCache, HouseFixture, DISK_SCHEMA, HOUSE_A_SEED,
    HOUSE_B_SEED,
};
pub use pool::WorkPool;
pub use report::{CsvReporter, JsonLinesReporter, Reporter, TextReporter};
pub use runner::{RunConfig, RunOutcome, ScenarioReport, ScenarioStatus};
pub use scenario::{FnScenario, HealthSink, Registry, RunParams, Scenario, ScenarioCtx};
pub use table::{write_csv, Table};
