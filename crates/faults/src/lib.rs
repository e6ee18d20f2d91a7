//! Deterministic fault injection for the SHATTER dependability layer.
//!
//! A *fault plan* is a set of rules keyed by `(scenario id, site,
//! hit-counter)`. Instrumented code names its sites (`scenario.run`,
//! `smt.window`, `simplex.pivot`, …) and consults [`hit`] at each one;
//! the harness counts consults per `(scenario, site)` pair and fires a
//! rule exactly once — on the consult whose counter matches the rule's
//! `hit` index (default 0, the first consult). Counters are advanced by
//! solver events (pivots, window solves), never by wall time, so a
//! serial chaos run fires the same fault at the same point every time.
//!
//! Plans are installed by the embedding program through [`install`] or
//! [`install_str`] (`repro --inject PLAN`); the library reads no
//! environment variables. The syntax is a comma-separated list of
//! `scenario/site/kind[@hit]` rules, e.g.
//!
//! ```text
//! repro --inject 'fig3/scenario.run/panic,strategies/smt.window/budget@2'
//! ```
//!
//! `kind` is one of `panic`, `overflow`, `budget`, `io`; `scenario` may
//! be `*` to match any scenario (including code running outside a
//! scenario scope). With no plan installed every entry point is a single
//! relaxed atomic load, so clean runs pay nothing and stay
//! byte-identical.
//!
//! Site catalog: `scenario.run` (runner, before the scenario body),
//! `smt.window` (per SMT window solve), `simplex.pivot` (per simplex
//! pivot), `fleet.house` (per-house fleet evaluation, inside the retry
//! loop), `store.write` (journal record / blob write; `io` tears the
//! write, `panic` crashes mid-fleet), `store.read` (blob-store read;
//! `io` treats the cached blob as damaged — deleted, counted as
//! discarded, and recomputed by the caller).
//!
//! The current scenario travels in thread-local state: the runner wraps
//! each scenario in [`with_scenario`], and `ScenarioCtx::par_map`
//! re-establishes the scope on pool worker threads via
//! [`current_scenario`] + [`scoped`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What an armed fault rule does when it fires. The *site* decides the
/// mechanics: `panic` unwinds (isolation path), `overflow` forces the
/// site's rational-overflow degradation (poisoned tableau → `ExactOnly`
/// retry), `budget` forces the site's budget-exhaustion degradation
/// (anytime best-so-far / fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a panic at the site.
    Panic,
    /// Behave as if the site hit an `i128` rational overflow.
    Overflow,
    /// Behave as if the site exhausted its deterministic budget.
    Budget,
    /// Behave as if the site's I/O went wrong: `store.write` produces a
    /// torn (truncated, checksum-failing) record; sites without real
    /// I/O degrade like `budget`.
    Io,
}

impl FaultKind {
    /// Lowercase plan-syntax name of the kind (`panic` / `overflow` /
    /// `budget` / `io`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Overflow => "overflow",
            FaultKind::Budget => "budget",
            FaultKind::Io => "io",
        }
    }

    fn parse(s: &str) -> Result<FaultKind, String> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "overflow" => Ok(FaultKind::Overflow),
            "budget" => Ok(FaultKind::Budget),
            "io" => Ok(FaultKind::Io),
            other => Err(format!(
                "unknown fault kind {other:?} (expected panic|overflow|budget|io)"
            )),
        }
    }
}

/// One parsed fault rule: fire `kind` at `site` in `scenario`, on the
/// `hit`-th consult of that site within that scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Scenario id the rule targets; `*` matches any scope.
    pub scenario: String,
    /// Instrumented site name (see the crate docs for the catalog).
    pub site: String,
    /// What to do when the rule fires.
    pub kind: FaultKind,
    /// Zero-based consult index at which the rule fires (then never again).
    pub hit: u64,
}

/// Parses a comma-separated `scenario/site/kind[@hit]` plan.
pub fn parse_plan(plan: &str) -> Result<Vec<FaultSpec>, String> {
    let mut specs = Vec::new();
    for rule in plan.split(',') {
        let rule = rule.trim();
        if rule.is_empty() {
            continue;
        }
        let (head, hit) = match rule.rsplit_once('@') {
            Some((head, idx)) => {
                let hit = idx
                    .parse::<u64>()
                    .map_err(|_| format!("bad hit index in rule {rule:?}"))?;
                (head, hit)
            }
            None => (rule, 0),
        };
        let parts: Vec<&str> = head.split('/').collect();
        let [scenario, site, kind] = parts[..] else {
            return Err(format!(
                "bad rule {rule:?} (expected scenario/site/kind[@hit])"
            ));
        };
        if scenario.is_empty() || site.is_empty() {
            return Err(format!("empty scenario or site in rule {rule:?}"));
        }
        specs.push(FaultSpec {
            scenario: scenario.to_string(),
            site: site.to_string(),
            kind: FaultKind::parse(kind)?,
            hit,
        });
    }
    Ok(specs)
}

struct PlanState {
    specs: Vec<FaultSpec>,
    /// Consults so far per (scenario-or-empty, site).
    counters: HashMap<(String, String), u64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<Mutex<PlanState>> = OnceLock::new();

thread_local! {
    static SCENARIO: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn state() -> &'static Mutex<PlanState> {
    STATE.get_or_init(|| {
        Mutex::new(PlanState {
            specs: Vec::new(),
            counters: HashMap::new(),
        })
    })
}

/// Installs (appends) fault rules and arms the harness. Rules are
/// additive; per-`(scenario, site)` hit counters are shared across all
/// installed rules, so tests running in one process should target
/// unique scenario names.
pub fn install(specs: Vec<FaultSpec>) {
    if specs.is_empty() {
        return;
    }
    let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
    st.specs.extend(specs);
    ARMED.store(true, Ordering::SeqCst);
}

/// Parses and installs a plan string (the `repro --inject` path).
pub fn install_str(plan: &str) -> Result<(), String> {
    install(parse_plan(plan)?);
    Ok(())
}

/// Runs `f` with the thread-local scenario scope set to `id`, restoring
/// the previous scope afterwards (also on unwind, so an injected panic
/// leaves no stale scope behind). A no-op wrapper while unarmed.
pub fn with_scenario<R>(id: &str, f: impl FnOnce() -> R) -> R {
    if !ARMED.load(Ordering::Relaxed) {
        return f();
    }
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCENARIO.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = SCENARIO.with(|s| s.borrow_mut().replace(id.to_string()));
    let _restore = Restore(prev);
    f()
}

/// The scenario scope of the current thread (`None` while unarmed or
/// outside any [`with_scenario`]). Pool fan-out captures this on the
/// submitting thread and re-establishes it on workers via [`scoped`].
pub fn current_scenario() -> Option<String> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    SCENARIO.with(|s| s.borrow().clone())
}

/// [`with_scenario`] for a captured scope: re-enters `id` when `Some`,
/// otherwise just runs `f`.
pub fn scoped<R>(id: Option<&str>, f: impl FnOnce() -> R) -> R {
    match id {
        Some(id) => with_scenario(id, f),
        None => f(),
    }
}

fn spec_matches_scope(spec_scenario: &str, scope: Option<&str>) -> bool {
    spec_scenario == "*" || scope == Some(spec_scenario)
}

/// Whether any installed rule targets the current scenario scope. The
/// scheduler uses this to bypass the shared window memo under injection
/// so faulted fragments never leak into clean scenarios.
pub fn scenario_armed() -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let scope = SCENARIO.with(|s| s.borrow().clone());
    let st = state().lock().unwrap_or_else(|e| e.into_inner());
    st.specs
        .iter()
        .any(|spec| spec_matches_scope(&spec.scenario, scope.as_deref()))
}

/// Consults an instrumented site: advances the `(scenario, site)` hit
/// counter and returns the kind of the rule (if any) armed for exactly
/// this consult. Each rule fires at most once — its `hit` index is
/// passed exactly once by the monotone counter.
pub fn hit(site: &str) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let scope = SCENARIO.with(|s| s.borrow().clone());
    let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
    let key = (scope.clone().unwrap_or_default(), site.to_string());
    let counter = st.counters.entry(key).or_insert(0);
    let n = *counter;
    *counter += 1;
    st.specs
        .iter()
        .find(|spec| {
            spec.site == site
                && spec.hit == n
                && spec_matches_scope(&spec.scenario, scope.as_deref())
        })
        .map(|spec| spec.kind)
}

/// Panics with the canonical injected-fault message for `site`.
pub fn panic_now(site: &str) -> ! {
    panic!("injected fault: panic at {site}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_plan() {
        let specs = parse_plan("fig3/scenario.run/panic, s2/simplex.pivot/overflow@7").unwrap();
        assert_eq!(
            specs,
            vec![
                FaultSpec {
                    scenario: "fig3".into(),
                    site: "scenario.run".into(),
                    kind: FaultKind::Panic,
                    hit: 0,
                },
                FaultSpec {
                    scenario: "s2".into(),
                    site: "simplex.pivot".into(),
                    kind: FaultKind::Overflow,
                    hit: 7,
                },
            ]
        );
    }

    #[test]
    fn parse_io_kind() {
        let specs = parse_plan("fleet/store.write/io@4").unwrap();
        assert_eq!(specs[0].kind, FaultKind::Io);
        assert_eq!(specs[0].hit, 4);
        assert_eq!(FaultKind::Io.name(), "io");
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        assert!(parse_plan("no-slashes").is_err());
        assert!(parse_plan("a/b/notakind").is_err());
        assert!(parse_plan("a/b/panic@x").is_err());
        assert!(parse_plan("/b/panic").is_err());
        assert!(parse_plan("").unwrap().is_empty());
        assert!(parse_plan(" , ").unwrap().is_empty());
    }

    #[test]
    fn rule_fires_once_at_its_hit_index() {
        install(vec![FaultSpec {
            scenario: "faults-test-once".into(),
            site: "site.x".into(),
            kind: FaultKind::Budget,
            hit: 2,
        }]);
        with_scenario("faults-test-once", || {
            assert_eq!(hit("site.x"), None);
            assert_eq!(hit("site.x"), None);
            assert_eq!(hit("site.x"), Some(FaultKind::Budget));
            assert_eq!(hit("site.x"), None, "a rule fires exactly once");
            assert_eq!(hit("site.other"), None, "sites count independently");
        });
    }

    #[test]
    fn scope_is_respected_and_restored() {
        install(vec![FaultSpec {
            scenario: "faults-test-scope".into(),
            site: "site.y".into(),
            kind: FaultKind::Panic,
            hit: 0,
        }]);
        // Outside the scope nothing matches (but counters still advance
        // under the anonymous scope).
        assert_eq!(hit("site.y"), None);
        with_scenario("faults-test-scope", || {
            assert!(scenario_armed());
            assert_eq!(current_scenario().as_deref(), Some("faults-test-scope"));
            assert_eq!(hit("site.y"), Some(FaultKind::Panic));
        });
        assert_eq!(current_scenario(), None);
    }

    #[test]
    fn scope_survives_injected_unwind() {
        install(vec![FaultSpec {
            scenario: "faults-test-unwind".into(),
            site: "site.z".into(),
            kind: FaultKind::Panic,
            hit: 0,
        }]);
        let r = std::panic::catch_unwind(|| {
            with_scenario("faults-test-unwind", || {
                if hit("site.z").is_some() {
                    panic_now("site.z");
                }
            })
        });
        assert!(r.is_err());
        assert_eq!(current_scenario(), None, "unwind must restore the scope");
    }

    #[test]
    fn wildcard_matches_any_scope() {
        install(vec![FaultSpec {
            scenario: "*".into(),
            site: "site.wild-faults-test".into(),
            kind: FaultKind::Overflow,
            hit: 0,
        }]);
        with_scenario("faults-test-wild", || {
            assert_eq!(hit("site.wild-faults-test"), Some(FaultKind::Overflow));
        });
    }
}
