//! Reproduction harness for every table and figure in the SHATTER
//! paper's evaluation (§V–§VII), built on the `shatter-engine` scenario
//! substrate.
//!
//! Each exhibit lives in [`exhibits`] as a `fn(&ScenarioCtx) -> Table`
//! and is registered as a [`shatter_engine::Scenario`] by
//! [`scenarios::builtin_registry`]; the `repro` binary is a thin CLI
//! over that registry (`--list`, `--only`, `--threads`, `--json`,
//! `--baseline`).

#![forbid(unsafe_code)]

pub mod common;
pub mod exhibits;
pub mod fleet;
pub mod scenarios;

pub use common::{write_csv, Table};
pub use scenarios::{builtin_registry, run_exhibit, run_exhibit_with};
