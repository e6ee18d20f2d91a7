//! Registry wiring: every paper exhibit as an engine
//! [`Scenario`](shatter_engine::Scenario).
//!
//! Adding a workload is ~5 lines: write a `fn my_exhibit(cx:
//! &ScenarioCtx) -> Table` in [`crate::exhibits`] and register it here
//! with [`FnScenario::new`].

use shatter_engine::{FixtureCache, FnScenario, Registry, RunParams, ScenarioCtx, Table};

use crate::exhibits;

/// Builds the registry of all paper exhibits (plus the ablation, the
/// strategy shootout, and the testbed validation), in presentation
/// order.
pub fn builtin_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(
        FnScenario::new("fig3", "ASHRAE vs SHATTER control cost", exhibits::fig3)
            .describe("Daily control cost of both controllers on both houses (paper Fig. 3)"),
    );
    reg.register(
        FnScenario::new("fig4", "ADM hyperparameter tuning", exhibits::fig4)
            .describe("Cluster-validity indices vs DBSCAN minPts and K-Means k (paper Fig. 4)"),
    );
    reg.register(
        FnScenario::new("fig5", "Progressive F1 vs training days", exhibits::fig5)
            .describe("Detection F1 as the defender trains on more days (paper Fig. 5)"),
    );
    reg.register(
        FnScenario::new("fig6", "ADM cluster hull geometry", exhibits::fig6)
            .describe("Hull vertices and coverage areas for both ADMs (paper Fig. 6)"),
    );
    reg.register(
        FnScenario::new("tab3", "Case-study schedules", exhibits::tab3)
            .describe("Actual vs greedy vs SHATTER over ten evening slots (paper Table III)"),
    );
    reg.register(
        FnScenario::new("tab4", "ADM detection quality", exhibits::tab4)
            .describe("Accuracy/precision/recall/F1 vs attacker knowledge (paper Table IV)"),
    );
    reg.register(
        FnScenario::new("tab5", "Attack impact comparison", exhibits::tab5)
            .describe("Monthly cost of registry-enumerated attack strategies (paper Table V)"),
    );
    reg.register(
        FnScenario::new(
            "strategies",
            "Attack-strategy shootout",
            exhibits::strategies,
        )
        .describe("All registered strategies (incl. SMT) on one day: reward/stealth/detection"),
    );
    reg.register(
        FnScenario::new("fig10", "Appliance-triggering impact", exhibits::fig10)
            .describe("Daily cost without/with appliance triggering (paper Fig. 10)"),
    );
    reg.register(
        FnScenario::new("tab6", "Impact vs accessible zones", exhibits::tab6)
            .describe("Triggering impact as zone access shrinks (paper Table VI)"),
    );
    reg.register(
        FnScenario::new("tab7", "Impact vs accessible appliances", exhibits::tab7)
            .describe("Triggering impact as appliance access shrinks (paper Table VII)"),
    );
    reg.register(
        FnScenario::new("fig11", "SMT scheduler scalability", exhibits::fig11)
            .describe("Solve time vs horizon and vs zone count (paper Fig. 11; timing output)")
            .nondeterministic(),
    );
    reg.register(
        FnScenario::new("testbed", "Prototype-testbed validation", exhibits::testbed)
            .describe("Replay through the simulated testbed with MITM rewriting (paper §VI)"),
    );
    reg.register(
        FnScenario::new("ablation", "Design-choice ablations", exhibits::ablation)
            .describe("Horizon, trigger-awareness, ADM radius and battery sweeps (README: Reproducing the paper)"),
    );
    reg.register(
        FnScenario::new("scaled_homes", "House-size sweep", exhibits::scaled_homes)
            .describe("DP attack impact on generated scaled homes (6/10/16 zones, 2-4 occupants)"),
    );
    reg.register(
        FnScenario::new(
            "capability_grid",
            "Attacker-capability grid",
            exhibits::capability_grid,
        )
        .describe("Zone-subset x timeslot-window capability profiles on House A"),
    );
    reg.register(
        FnScenario::new(
            "defense_sweep",
            "Defense hardening sweep",
            exhibits::defense_sweep,
        )
        .describe("Ranked sensor/appliance hardening and a greedy plan (paper §VII-D)"),
    );
    // Small un-journaled fleet so the crash-safe evaluation path is
    // exercised by every full-suite run; `repro --fleet N` registers
    // the journaled, arbitrarily-sized variant on top of this.
    reg.register(crate::fleet::FleetScenario::new("fleet_smoke", 6));
    reg.register(
        FnScenario::new(
            "fleet_scaling",
            "Fleet throughput vs size (cold vs warm store)",
            crate::fleet::fleet_scaling,
        )
        .describe(
            "Measured homes/sec per fleet size, cold vs disk-warm fixture store (timing output)",
        )
        .nondeterministic(),
    );
    reg
}

/// Runs a single exhibit by id against a fresh cache — the convenience
/// path for tests and programmatic use.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_exhibit(id: &str, days: usize, span: usize) -> Table {
    run_exhibit_with(
        id,
        RunParams {
            days,
            span,
            ..RunParams::default()
        },
    )
}

/// [`run_exhibit`] under arbitrary run parameters (seed, SMT settings).
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_exhibit_with(id: &str, params: RunParams) -> Table {
    let reg = builtin_registry();
    let scenario = reg
        .get(id)
        .unwrap_or_else(|| panic!("unknown exhibit {id:?}"));
    let cache = FixtureCache::new();
    let cx = ScenarioCtx {
        cache: &cache,
        params,
        seed: shatter_engine::scenario::scenario_seed(id, params.base_seed),
        pool: shatter_engine::WorkPool::serial(),
        health: shatter_engine::HealthSink::new(),
    };
    scenario.run(&cx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_paper_exhibits() {
        let reg = builtin_registry();
        for id in [
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "tab3",
            "tab4",
            "tab5",
            "strategies",
            "fig10",
            "tab6",
            "tab7",
            "fig11",
            "testbed",
            "ablation",
            "scaled_homes",
            "capability_grid",
            "defense_sweep",
            "fleet_smoke",
            "fleet_scaling",
        ] {
            let s = reg.get(id).unwrap_or_else(|| panic!("missing {id}"));
            assert!(!s.title().is_empty());
            assert!(!s.description().is_empty());
        }
        assert_eq!(reg.len(), 19);
        // Only the timing exhibits are non-deterministic.
        let nondet: Vec<String> = reg
            .all()
            .iter()
            .filter(|s| !s.deterministic())
            .map(|s| s.id().to_string())
            .collect();
        assert_eq!(nondet, ["fig11", "fleet_scaling"]);
    }
}
