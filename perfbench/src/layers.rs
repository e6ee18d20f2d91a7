//! Layer span names and exact counters, named after the crates and
//! modules they measure. These are the `per_layer` metrics of
//! `BENCHMARK.json`; each layer reports `<layer>.calls` and `<layer>.s`
//! (self seconds: span time minus child spans).

pub const SYNTHESIZE: &str = "dataset.synthesize";
pub const ADM_TRAIN: &str = "adm.train";
pub const STAY_PROFILE: &str = "adm.stay_profile";
pub const REWARD_BUILD: &str = "core.reward.build";
pub const DATASET_COSTS: &str = "hvac.dataset_costs";
pub const DP_SCHEDULE: &str = "core.dp.schedule";
pub const VALIDATE: &str = "core.schedule.validate";
pub const FROM_ZONE_ROWS: &str = "core.schedule.from_zone_rows";
pub const IMPACT_NO_TRIGGER: &str = "core.impact.no_trigger";
pub const IMPACT_WITH_TRIGGER: &str = "core.impact.with_trigger";
pub const SMT_OCCUPANT: &str = "core.smt_sched.schedule_occupant";
pub const STORE_OPEN: &str = "store.open";
pub const PUT_BLOB: &str = "store.put_blob";
pub const GET_BLOB: &str = "store.get_blob";

/// Every span reported in a traced run, in report order. `bench.op`'s
/// self time is the benchmark's own glue between layer calls.
pub const LAYERS: [&str; 16] = [
    SYNTHESIZE,
    ADM_TRAIN,
    STAY_PROFILE,
    REWARD_BUILD,
    DATASET_COSTS,
    DP_SCHEDULE,
    VALIDATE,
    FROM_ZONE_ROWS,
    IMPACT_NO_TRIGGER,
    IMPACT_WITH_TRIGGER,
    SMT_OCCUPANT,
    STORE_OPEN,
    PUT_BLOB,
    GET_BLOB,
    crate::trace::OP,
    crate::trace::SETUP,
];

pub const VALIDATE_FAILURES: &str = "core.schedule.validate.failures";
pub const TRIGGERED_MINUTES: &str = "core.impact.triggered_minutes";
pub const PUT_BYTES: &str = "store.put_blob.bytes";
pub const GET_BYTES: &str = "store.get_blob.bytes";
pub const GET_HITS: &str = "store.get_blob.hits";
pub const DISCARDED: &str = "store.discarded";

/// Exact counters from returned values (`SmtStats`, `AttackOutcome`,
/// `BlobStats`, blob sizes): name and unit.
pub const COUNTERS: [(&str, &str); 15] = [
    (VALIDATE_FAILURES, "count"),
    (TRIGGERED_MINUTES, "min"),
    ("smtlite.windows", "count"),
    ("smtlite.fallbacks", "count"),
    ("smtlite.theory_conflicts", "count"),
    ("smtlite.sat_decisions", "count"),
    ("smtlite.sat_propagations", "count"),
    ("smtlite.sat_learned", "count"),
    ("smtlite.float_pivots", "count"),
    ("smtlite.exact_fallbacks", "count"),
    ("smtlite.degraded_windows", "count"),
    (PUT_BYTES, "bytes"),
    (GET_BYTES, "bytes"),
    (GET_HITS, "count"),
    (DISCARDED, "count"),
];

/// Adds one SMT synthesis's solver statistics to the `smtlite.*`
/// counters.
pub fn count_smt(tr: &crate::trace::Tracer, s: &shatter_core::SmtStats) {
    tr.count("smtlite.windows", s.windows);
    tr.count("smtlite.fallbacks", s.fallbacks);
    tr.count("smtlite.theory_conflicts", s.theory_conflicts);
    tr.count("smtlite.sat_decisions", s.sat_decisions);
    tr.count("smtlite.sat_propagations", s.sat_propagations);
    tr.count("smtlite.sat_learned", s.sat_learned);
    tr.count("smtlite.float_pivots", s.float_pivots);
    tr.count("smtlite.exact_fallbacks", s.exact_fallbacks);
    tr.count("smtlite.degraded_windows", s.degraded_windows);
}
