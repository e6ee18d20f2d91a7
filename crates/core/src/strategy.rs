//! A small registry over the object-safe [`Scheduler`] trait, so
//! evaluation scenarios can *enumerate* attack strategies instead of
//! hard-coding each one.
//!
//! Every entry pairs a stable key (CLI/table-friendly) with a shared,
//! thread-safe scheduler instance. The builtin set covers the paper's
//! four schedule generators.

use std::sync::Arc;

use crate::{BiotaScheduler, GreedyScheduler, Scheduler, SmtScheduler, WindowDpScheduler};

/// A shared, thread-safe scheduler usable from parallel scenario runs.
pub type SharedScheduler = Arc<dyn Scheduler + Send + Sync>;

/// One registered attack strategy.
#[derive(Clone)]
pub struct StrategyEntry {
    /// Stable lookup key, e.g. `"greedy"` or `"dp"`.
    pub key: &'static str,
    /// Whether the strategy consults the ADM (BIoTA does not).
    pub adm_aware: bool,
    /// The scheduler instance.
    pub scheduler: SharedScheduler,
}

/// Ordered registry of attack strategies.
#[derive(Clone)]
pub struct StrategyRegistry {
    entries: Vec<StrategyEntry>,
}

impl StrategyRegistry {
    /// The paper's four schedule generators: `biota`, `greedy`, `dp`
    /// (the SHATTER window optimizer), and `smt` (the formal encoding,
    /// configured by `smt`).
    pub fn builtin(smt: SmtScheduler) -> StrategyRegistry {
        let entry = |key, adm_aware, scheduler: SharedScheduler| StrategyEntry {
            key,
            adm_aware,
            scheduler,
        };
        StrategyRegistry {
            entries: vec![
                entry("biota", false, Arc::new(BiotaScheduler)),
                entry("greedy", true, Arc::new(GreedyScheduler)),
                entry("dp", true, Arc::new(WindowDpScheduler::default())),
                entry("smt", true, Arc::new(smt)),
            ],
        }
    }

    /// Looks up a strategy by key.
    pub fn get(&self, key: &str) -> Option<&StrategyEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// All entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &StrategyEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_the_papers_generators() {
        let reg = StrategyRegistry::builtin(SmtScheduler::default());
        let keys: Vec<&str> = reg.iter().map(|e| e.key).collect();
        assert_eq!(keys, ["biota", "greedy", "dp", "smt"]);
        assert!(!reg.get("biota").expect("biota registered").adm_aware);
        assert!(reg.get("dp").expect("dp registered").adm_aware);
        assert_eq!(
            reg.get("greedy")
                .expect("greedy registered")
                .scheduler
                .name(),
            "Greedy (Algorithm 2)"
        );
        assert!(reg.get("nope").is_none());
    }
}
