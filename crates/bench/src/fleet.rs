//! Crash-safe fleet evaluation: N deterministic generated homes under
//! one `WorkPool` budget, with an optional durable result journal (a
//! `shatter-store` [`BlobStore`] bound to the run's configuration
//! signature) for checkpoint/resume and a per-house robustness
//! policy (effort watchdog, bounded retry with deterministic budget
//! escalation, quarantine).
//!
//! # Determinism contract
//!
//! A fleet's houses are a pure function of `(n_houses, days, span,
//! base_seed)`: house `i` derives its shape and dataset seed from a
//! splitmix64 mix of the index, never from wall time or thread
//! interleaving. The per-house watchdog is the deterministic
//! [`Budget`] (conflicts / probes — never wall time), and
//! retry attempt `k` re-runs under `budget.escalated(2^k)`, so a house
//! either completes identically everywhere or degrades/quarantines
//! identically everywhere. Journal replay returns the recorded row
//! bytes verbatim; an interrupted-then-resumed run is therefore
//! byte-identical to an uninterrupted one, across thread counts.
//!
//! Throughput (homes/sec), fixture-cache and journal counters stream to
//! stderr only — they never enter the table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use shatter_adm::AdmKind;
use shatter_core::{AttackerCapability, SmtScheduler, WindowDpScheduler};
use shatter_dataset::HouseSpec;
use shatter_engine::{FixtureCache, RunParams, Scenario, ScenarioCtx, Table};
use shatter_faults::FaultKind;
use shatter_smarthome::OccupantId;
use shatter_smt::Budget;
use shatter_store::BlobStore;

use crate::common::EngineWindowMemo;
use crate::exhibits::{adm_tag, fmt2, monthly_attack, reward_table, smt_prefix, Attack};

/// Columns of the fleet table; journal payloads are these cells joined
/// with `'\t'`, so a replayed row is the recorded row, byte for byte.
pub const FLEET_COLUMNS: [&str; 11] = [
    "house",
    "zones",
    "occupants",
    "benign_usd",
    "attacked_usd",
    "lift_pct",
    "detect",
    "smt_decisions",
    "smt_degraded",
    "status",
    "attempts",
];

/// Per-house robustness policy: the deterministic effort watchdog and
/// the bounded-retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPolicy {
    /// Watchdog budget installed on every SMT window a house solves: a
    /// runaway house exhausts it and degrades (best-so-far / fallback
    /// rows) instead of hanging the fleet. Effort units only, never
    /// wall time.
    pub house_budget: Budget,
    /// Retries granted to a panicking house before quarantine; attempt
    /// `k` runs under `house_budget.escalated(2^k)`.
    pub max_retries: u32,
}

impl Default for FleetPolicy {
    fn default() -> FleetPolicy {
        FleetPolicy {
            // Generous enough that healthy houses never degrade at
            // exhibit scale, tight enough that a pathological spec is
            // bounded fleet-wide.
            house_budget: Budget {
                max_conflicts: Some(200_000),
                max_probes: None,
            },
            max_retries: 1,
        }
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of generated houses to evaluate.
    pub n_houses: usize,
    /// Evaluate only a deterministic strided sample of `K` houses out
    /// of `n_houses` (`None` = exhaustive). Sampled houses keep their
    /// fleet index, so their journal keys — and the config signature —
    /// are identical to the exhaustive run's: a sampled pass pre-warms
    /// the journal the full run later replays.
    pub sample: Option<usize>,
    /// Per-house robustness policy.
    pub policy: FleetPolicy,
}

/// The house indices a fleet run evaluates: all of `0..n_houses`, or a
/// deterministic strided sample of `k` of them (`j * n / k` for `j` in
/// `0..k` — distinct and strictly increasing whenever `k <= n`).
pub fn sampled_indices(n_houses: usize, sample: Option<usize>) -> Vec<usize> {
    match sample {
        Some(k) if k < n_houses => {
            let k = k.max(1);
            (0..k).map(|j| j * n_houses / k).collect()
        }
        _ => (0..n_houses).collect(),
    }
}

/// Counters of one fleet run (stderr/summary only — never table
/// content, so journaled and fresh runs render identically).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetOutcome {
    /// Houses replayed from the journal (completed work not recomputed).
    pub journal_hits: u64,
    /// Houses actually evaluated this run.
    pub computed: u64,
    /// Houses that completed only after at least one retry.
    pub retried: u64,
    /// Houses quarantined after exhausting their retry budget.
    pub quarantined: u64,
    /// Wall-clock homes/sec of this run.
    pub homes_per_sec: f64,
}

/// splitmix64 — the same mixer `ScenarioCtx::item_seed` uses.
fn splitmix64(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic house `i` of a fleet: shape in 5–16 zones / 2–4
/// occupants and a per-index dataset seed, both pure functions of
/// `(i, base_seed)` — independent of scenario id, thread count and
/// journal state.
pub fn derive_house(i: usize, base_seed: u64) -> (HouseSpec, u64) {
    let mix = splitmix64(0xF1EE7 ^ (i as u64).wrapping_mul(0x6A09_E667_F3BC_C909));
    let n_zones = 5 + (mix % 12) as usize;
    let n_occupants = 2 + ((mix >> 32) % 3) as usize;
    let spec = HouseSpec::scaled(n_zones, n_occupants);
    let seed = splitmix64(mix ^ 0xD00D_F00D_CAFE_F00D) ^ base_seed;
    (spec, seed)
}

/// Journal key of house `i`: the fleet index plus the fixture's full
/// content address (`HouseFixture::cache_key()` = spec cache tag +
/// days + seed), so a record can never replay into a house with a
/// different spec, horizon or seed.
pub fn house_key(i: usize, params: &RunParams) -> String {
    let (spec, seed) = derive_house(i, params.base_seed);
    format!("h{i:06}/{}/{}/{}", spec.cache_tag(), params.days, seed)
}

/// Configuration signature binding journal records and the manifest to
/// the exact run parameters that produced them.
pub fn config_signature(cfg: &FleetConfig, params: &RunParams) -> u64 {
    shatter_store::fnv1a_bytes(
        format!(
            "fleet-v1|n={}|days={}|span={}|base_seed={}|budget={}|retries={}",
            cfg.n_houses,
            params.days,
            params.span,
            params.base_seed,
            cfg.policy.house_budget.to_spec(),
            cfg.policy.max_retries,
        )
        .as_bytes(),
    )
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

/// One attempt at house `i`: full-month DP impact plus a budgeted SMT
/// slice of day 0 (the watchdog surface). Returns the row cells up to
/// (excluding) `status`/`attempts`, and the degradation notes this
/// attempt earned — the caller commits notes only for the attempt that
/// actually lands in the table.
fn eval_house(cx: &ScenarioCtx<'_>, i: usize, budget: &Budget) -> (Vec<String>, Vec<String>) {
    let (spec, seed) = derive_house(i, cx.params.base_seed);
    let label = format!("{}#{i}", spec.short);
    let mut notes = Vec::new();
    // Fault site "fleet.house": fires inside the retry loop's
    // catch_unwind, so an injected panic exercises retry/quarantine and
    // the other kinds force a degraded row.
    if let Some(kind) = shatter_faults::hit("fleet.house") {
        match kind {
            FaultKind::Panic => shatter_faults::panic_now("fleet.house"),
            FaultKind::Budget | FaultKind::Io => {
                notes.push(format!(
                    "house {label}: injected {} at fleet.house",
                    kind.name()
                ));
            }
        }
    }
    let days = cx.days();
    let fx = cx.cache.fixture_with_seed(&spec, days, seed);
    let adm_kind = AdmKind::default_dbscan();
    let adm = cx.cache.adm_with_seed(&spec, days, seed, adm_kind, days);
    let tag = adm_tag(&adm_kind, days);
    let table = reward_table(cx, &fx);
    let cap = AttackerCapability::full(&fx.home);
    let attack = Attack {
        adm: &adm,
        adm_tag: &tag,
        strategy_key: "dp",
        scheduler: &WindowDpScheduler::default(),
        cap: &cap,
    };
    let (attacked, benign, detect) = monthly_attack(cx, &fx, &attack, None, true);
    // The SMT slice runs under the watchdog budget: a runaway window
    // degrades deterministically instead of hanging the house. The
    // window memo keys the exact budget values, so escalated retries
    // never replay a lower budget's best-so-far fragments.
    let smt = SmtScheduler {
        budget: Some(*budget),
        ..cx.params.smt
    };
    let memo = EngineWindowMemo(cx.cache);
    let prefix = smt_prefix(&fx, &tag, "fleet", 0);
    let (_, stats) = smt.schedule_occupant_memo(
        OccupantId(0),
        &table,
        &adm,
        &cap,
        &fx.month.days[0],
        cx.span(),
        Some((&memo, &prefix)),
    );
    if stats.degraded_windows > 0 {
        notes.push(format!(
            "house {label}: {} budget-degraded SMT window(s) under {}",
            stats.degraded_windows,
            budget.to_spec()
        ));
    }
    let cells = vec![
        label,
        fx.home.zones().len().to_string(),
        fx.home.occupants().len().to_string(),
        fmt2(benign),
        fmt2(attacked),
        fmt2(100.0 * (attacked - benign) / benign),
        fmt2(detect),
        stats.sat_decisions.to_string(),
        stats.degraded_windows.to_string(),
    ];
    (cells, notes)
}

/// Outcome of the retry loop around one house.
struct HouseResult {
    cells: Vec<String>,
    attempts: u32,
    quarantined: bool,
}

/// Runs house `i` under the policy: attempt `k` gets the watchdog
/// budget escalated by `2^k`; a panicking attempt is caught and
/// retried; after `max_retries` failures the house is quarantined as a
/// placeholder row so one pathological spec cannot stall the fleet.
fn run_house(cx: &ScenarioCtx<'_>, i: usize, policy: &FleetPolicy) -> HouseResult {
    let mut last_cause = String::new();
    for attempt in 0..=policy.max_retries {
        let budget = policy.house_budget.escalated(1u64 << attempt.min(32));
        match catch_unwind(AssertUnwindSafe(|| eval_house(cx, i, &budget))) {
            Ok((mut cells, notes)) => {
                // Notes of the attempt that lands in the table are the
                // ones the scenario's health reflects; a failed earlier
                // attempt's partial notes never leak.
                let status = if notes.is_empty() { "ok" } else { "degraded" };
                for note in notes {
                    cx.health.note_degraded(note);
                }
                cells.push(status.to_string());
                cells.push(attempt.to_string());
                return HouseResult {
                    cells,
                    attempts: attempt,
                    quarantined: false,
                };
            }
            Err(payload) => last_cause = panic_message(payload.as_ref()),
        }
    }
    let (spec, _) = derive_house(i, cx.params.base_seed);
    let label = format!("{}#{i}", spec.short);
    cx.health.note_degraded(format!(
        "house {label}: quarantined after {} attempt(s): {last_cause}",
        policy.max_retries + 1
    ));
    let mut cells = vec![label, String::new(), String::new()];
    cells.resize(FLEET_COLUMNS.len() - 2, String::new());
    cells.push("quarantined".to_string());
    cells.push(policy.max_retries.to_string());
    HouseResult {
        cells,
        attempts: policy.max_retries,
        quarantined: true,
    }
}

/// Decodes a journal payload back into row cells; `None` on any shape
/// mismatch (the store then discards the record and the house is
/// recomputed).
fn decode_row(payload: &[u8]) -> Option<Vec<String>> {
    let text = std::str::from_utf8(payload).ok()?;
    let cells: Vec<String> = text.split('\t').map(str::to_string).collect();
    if cells.len() == FLEET_COLUMNS.len() {
        Some(cells)
    } else {
        None
    }
}

/// Evaluates the fleet: houses fan out over the run's shared slot
/// budget, completed houses stream to the journal (when present) and to
/// the stderr progress line, and journaled houses are replayed verbatim
/// instead of recomputed.
pub fn run_fleet(
    cx: &ScenarioCtx<'_>,
    cfg: &FleetConfig,
    journal: Option<&BlobStore>,
) -> (Table, FleetOutcome) {
    let start = Instant::now();
    let cache_before = cx.cache.stats();
    let done = AtomicU64::new(0);
    let replayed = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let quarantined = AtomicU64::new(0);
    let indices = sampled_indices(cfg.n_houses, cfg.sample);
    let total = indices.len();
    let rows = cx.par_map(&indices, |_, &i| {
        let key = house_key(i, &cx.params);
        let cells = match journal.and_then(|j| j.get_with(&key, decode_row)) {
            Some(cells) => {
                replayed.fetch_add(1, Ordering::Relaxed);
                cells
            }
            None => {
                let result = run_house(cx, i, &cfg.policy);
                if result.quarantined {
                    quarantined.fetch_add(1, Ordering::Relaxed);
                } else if result.attempts > 0 {
                    retried.fetch_add(1, Ordering::Relaxed);
                }
                // Completed (ok/degraded) houses are durable; a
                // quarantined house stays out of the journal so a
                // resume re-runs it instead of trusting a placeholder.
                if !result.quarantined {
                    if let Some(j) = journal {
                        // The write sits outside the per-house
                        // catch_unwind: an injected store.write panic
                        // is a genuine mid-fleet crash (Failed
                        // scenario, nonzero exit), which is exactly
                        // what the chaos-resume smoke rehearses.
                        if let Err(e) = j.put(&key, result.cells.join("\t").as_bytes()) {
                            cx.health
                                .note_degraded(format!("journal write failed for {key}: {e}"));
                        }
                    }
                }
                result.cells
            }
        };
        let n_done = done.fetch_add(1, Ordering::Relaxed) + 1;
        let stride = (total / 16).max(1) as u64;
        if n_done.is_multiple_of(stride) || n_done == total as u64 {
            let dt = start.elapsed().as_secs_f64().max(1e-9);
            let cs = cx.cache.stats();
            eprintln!(
                "fleet: {n_done}/{} homes ({:.1} homes/s) cache {}h/{}m journal {} replayed, {} retried, {} quarantined",
                total,
                n_done as f64 / dt,
                cs.hits - cache_before.hits,
                cs.misses - cache_before.misses,
                replayed.load(Ordering::Relaxed),
                retried.load(Ordering::Relaxed),
                quarantined.load(Ordering::Relaxed),
            );
        }
        cells
    });
    let mut t = Table::new(
        "fleet",
        "Fleet evaluation: DP impact + budgeted SMT slice per generated home",
        &FLEET_COLUMNS,
    );
    for row in rows {
        t.push(row);
    }
    let n_retried = retried.load(Ordering::Relaxed);
    let n_quarantined = quarantined.load(Ordering::Relaxed);
    cx.health.add_retried(n_retried);
    cx.health.add_quarantined(n_quarantined);
    let n_replayed = replayed.load(Ordering::Relaxed);
    (
        t,
        FleetOutcome {
            journal_hits: n_replayed,
            computed: total as u64 - n_replayed,
            retried: n_retried,
            quarantined: n_quarantined,
            homes_per_sec: total as f64 / start.elapsed().as_secs_f64().max(1e-9),
        },
    )
}

/// The fleet as an engine [`Scenario`], optionally journaled. The table
/// id stays `"fleet"` whatever the registry id is, so resumed and clean
/// runs render identically.
pub struct FleetScenario {
    id: String,
    description: String,
    cfg: FleetConfig,
    journal_dir: Option<PathBuf>,
}

impl FleetScenario {
    /// A fleet of `n_houses` homes under the default policy, no journal.
    pub fn new(id: &str, n_houses: usize) -> FleetScenario {
        FleetScenario {
            id: id.to_string(),
            description: format!(
                "Crash-safe evaluation of {n_houses} generated homes (watchdog + retry/quarantine)"
            ),
            cfg: FleetConfig {
                n_houses,
                sample: None,
                policy: FleetPolicy::default(),
            },
            journal_dir: None,
        }
    }

    /// Evaluates only a deterministic strided sample of `k` houses (see
    /// [`sampled_indices`]); journal keys stay those of the exhaustive
    /// run.
    pub fn with_sample(mut self, k: usize) -> FleetScenario {
        self.cfg.sample = Some(k);
        self
    }

    /// Overrides the per-house policy.
    pub fn with_policy(mut self, policy: FleetPolicy) -> FleetScenario {
        self.cfg.policy = policy;
        self
    }

    /// Journals every completed house under `dir` and replays whatever
    /// valid records are already there — the `--fleet`/`--resume` path.
    pub fn with_journal(mut self, dir: PathBuf) -> FleetScenario {
        self.journal_dir = Some(dir);
        self
    }

    /// This scenario's fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }
}

impl Scenario for FleetScenario {
    fn id(&self) -> &str {
        &self.id
    }

    fn title(&self) -> &str {
        "Fleet evaluation (crash-safe)"
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn run(&self, cx: &ScenarioCtx<'_>) -> Table {
        let journal = self.journal_dir.as_ref().map(|dir| {
            let sig = config_signature(&self.cfg, &cx.params);
            let j = BlobStore::open(dir, sig)
                .unwrap_or_else(|e| panic!("opening fleet journal {}: {e}", dir.display()));
            shatter_store::write_manifest(dir, &manifest_entries(&self.cfg, &cx.params, sig))
                .unwrap_or_else(|e| panic!("writing fleet manifest {}: {e}", dir.display()));
            j
        });
        let (table, out) = run_fleet(cx, &self.cfg, journal.as_ref());
        let js = journal.as_ref().map(BlobStore::stats).unwrap_or_default();
        eprintln!(
            "fleet: {} homes at {:.1} homes/s ({} replayed from journal, {} computed, \
             {} retried, {} quarantined, {} journal record(s) written, \
             {} damaged/stale discarded)",
            sampled_indices(self.cfg.n_houses, self.cfg.sample).len(),
            out.homes_per_sec,
            out.journal_hits,
            out.computed,
            out.retried,
            out.quarantined,
            js.writes,
            js.discarded,
        );
        table
    }
}

/// The pinned fleet-scaling exhibit: measured homes/sec at several
/// fleet sizes, cold (empty blob store) versus warm (a second run over
/// the store the cold leg just filled). Each leg gets a private
/// [`FixtureCache`] over the same on-disk store and a fresh
/// [`HealthSink`](shatter_engine::HealthSink), so the warm leg's speedup
/// comes purely from the disk tier — exactly what a second
/// `repro --fleet N --store DIR` pays.
/// Timing columns make this exhibit nondeterministic by construction;
/// the `disk_hits` column is the deterministic witness that the warm
/// leg actually replayed fixtures instead of recomputing them.
pub fn fleet_scaling(cx: &ScenarioCtx<'_>) -> Table {
    let sizes = [2usize, 4, 8];
    // Clamp the horizon so the largest fleet stays exhibit-scale.
    let params = RunParams {
        days: cx.params.days.min(4),
        ..cx.params
    };
    let root = std::env::temp_dir().join(format!(
        "shatter-fleet-scaling-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut t = Table::new(
        "fleet_scaling",
        "Fleet throughput vs size: cold vs disk-warm fixture store",
        &[
            "fleet",
            "cold_s",
            "cold_homes_s",
            "warm_s",
            "warm_homes_s",
            "warmup_x",
            "disk_hits",
        ],
    );
    for &n in &sizes {
        let store_dir = root.join(format!("n{n}"));
        let cfg = FleetConfig {
            n_houses: n,
            sample: None,
            policy: FleetPolicy::default(),
        };
        let mut wall = [0.0f64; 2];
        let mut disk_hits = 0;
        for (leg, slot) in wall.iter_mut().enumerate() {
            let store = BlobStore::open(&store_dir, shatter_engine::disk_schema_sig())
                .unwrap_or_else(|e| panic!("opening scaling store {}: {e}", store_dir.display()));
            let cache = FixtureCache::new().with_disk(store);
            // Both legs run serially on a private context: the curve
            // measures the disk tier, not thread-count luck.
            let inner = ScenarioCtx {
                cache: &cache,
                params,
                seed: cx.seed,
                pool: shatter_engine::WorkPool::serial(),
                health: shatter_engine::HealthSink::new(),
            };
            let start = Instant::now();
            let _ = run_fleet(&inner, &cfg, None);
            *slot = start.elapsed().as_secs_f64().max(1e-9);
            if leg == 1 {
                disk_hits = cache.stats().disk_hits;
            }
        }
        t.push(vec![
            n.to_string(),
            format!("{:.3}", wall[0]),
            format!("{:.1}", n as f64 / wall[0]),
            format!("{:.3}", wall[1]),
            format!("{:.1}", n as f64 / wall[1]),
            format!("{:.2}", wall[0] / wall[1]),
            disk_hits.to_string(),
        ]);
    }
    std::fs::remove_dir_all(&root).ok();
    t
}

/// Manifest entries persisted next to the journal records so `repro
/// --resume <dir>` reconstructs the exact run configuration.
pub fn manifest_entries(
    cfg: &FleetConfig,
    params: &RunParams,
    config_sig: u64,
) -> Vec<(String, String)> {
    let mut entries = vec![
        ("version".into(), "1".into()),
        ("fleet".into(), cfg.n_houses.to_string()),
        ("days".into(), params.days.to_string()),
        ("span".into(), params.span.to_string()),
        ("seed".into(), params.base_seed.to_string()),
        ("house_budget".into(), cfg.policy.house_budget.to_spec()),
        ("retries".into(), cfg.policy.max_retries.to_string()),
        ("config_sig".into(), format!("{config_sig:016x}")),
    ];
    // A sampled run records its stride so a later `--resume` can
    // reproduce it; the entry is absent on exhaustive runs, keeping
    // their manifests byte-identical to pre-sampling versions.
    if let Some(k) = cfg.sample {
        entries.push(("sample".into(), k.to_string()));
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn house_derivation_is_deterministic_and_in_range() {
        for i in 0..64 {
            let (spec_a, seed_a) = derive_house(i, 0);
            let (spec_b, seed_b) = derive_house(i, 0);
            assert_eq!(spec_a.signature(), spec_b.signature());
            assert_eq!(seed_a, seed_b);
            let n_zones = spec_a.home.n_zones();
            assert!((5..=16).contains(&n_zones), "zones {n_zones} out of range");
            // base_seed regenerates the month, not the shape.
            let (spec_c, seed_c) = derive_house(i, 7);
            assert_eq!(spec_a.signature(), spec_c.signature());
            assert_ne!(seed_a, seed_c);
        }
        // Neighbouring indices land on distinct seeds.
        assert_ne!(derive_house(0, 0).1, derive_house(1, 0).1);
    }

    #[test]
    fn house_keys_are_unique_and_stable() {
        let params = RunParams {
            days: 3,
            span: 20,
            ..RunParams::default()
        };
        let keys: Vec<String> = (0..32).map(|i| house_key(i, &params)).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "journal keys must not collide");
        assert_eq!(keys[0], house_key(0, &params));
        // The key embeds days and seed: changing either re-addresses.
        let other = RunParams { days: 4, ..params };
        assert_ne!(house_key(0, &params), house_key(0, &other));
    }

    #[test]
    fn config_signature_covers_every_knob() {
        let params = RunParams {
            days: 3,
            span: 20,
            ..RunParams::default()
        };
        let cfg = FleetConfig {
            n_houses: 8,
            sample: None,
            policy: FleetPolicy::default(),
        };
        let base = config_signature(&cfg, &params);
        let mut other = cfg;
        other.n_houses = 9;
        assert_ne!(base, config_signature(&other, &params));
        let mut other = cfg;
        other.policy.max_retries = 2;
        assert_ne!(base, config_signature(&other, &params));
        let mut other = cfg;
        other.policy.house_budget = other.policy.house_budget.escalated(2);
        assert_ne!(base, config_signature(&other, &params));
        let days = RunParams { days: 4, ..params };
        assert_ne!(base, config_signature(&cfg, &days));
        let span = RunParams { span: 30, ..params };
        assert_ne!(base, config_signature(&cfg, &span));
        let seed = RunParams {
            base_seed: 1,
            ..params
        };
        assert_ne!(base, config_signature(&cfg, &seed));
        assert_eq!(base, config_signature(&cfg, &params));
    }

    #[test]
    fn sampled_indices_are_strided_distinct_and_journal_compatible() {
        // Exhaustive when sample is absent or covers the fleet.
        assert_eq!(sampled_indices(4, None), vec![0, 1, 2, 3]);
        assert_eq!(sampled_indices(4, Some(4)), vec![0, 1, 2, 3]);
        assert_eq!(sampled_indices(4, Some(99)), vec![0, 1, 2, 3]);
        // Strided: k evenly spread indices, always including house 0.
        assert_eq!(sampled_indices(24, Some(3)), vec![0, 8, 16]);
        assert_eq!(sampled_indices(10, Some(4)), vec![0, 2, 5, 7]);
        for n in [1usize, 7, 24, 100] {
            for k in 1..=n {
                let idx = sampled_indices(n, Some(k));
                assert_eq!(idx.len(), k);
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                assert!(idx.iter().all(|&i| i < n));
            }
        }
        // The sample never changes the config signature: sampled and
        // exhaustive runs share one journal.
        let params = RunParams {
            days: 3,
            span: 20,
            ..RunParams::default()
        };
        let full = FleetConfig {
            n_houses: 24,
            sample: None,
            policy: FleetPolicy::default(),
        };
        let sampled = FleetConfig {
            sample: Some(6),
            ..full
        };
        assert_eq!(
            config_signature(&full, &params),
            config_signature(&sampled, &params)
        );
        // But the manifest records the stride for `--resume`.
        let sig = config_signature(&sampled, &params);
        let entries = manifest_entries(&sampled, &params, sig);
        assert!(entries.contains(&("sample".into(), "6".into())));
        let entries = manifest_entries(&full, &params, sig);
        assert!(!entries.iter().any(|(k, _)| k == "sample"));
    }

    #[test]
    fn decode_rejects_wrong_shapes() {
        assert_eq!(decode_row(b"only\tthree\tcells"), None);
        let good: Vec<u8> = vec!["c"; FLEET_COLUMNS.len()].join("\t").into_bytes();
        assert_eq!(
            decode_row(&good).map(|c| c.len()),
            Some(FLEET_COLUMNS.len())
        );
        assert_eq!(decode_row(&[0xFF, 0xFE]), None, "non-UTF8 is damage");
    }
}
