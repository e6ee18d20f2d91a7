use std::collections::BTreeMap;
use std::sync::Arc;

use shatter_adm::{HullAdm, StayProfile};
use shatter_dataset::DayTrace;
use shatter_faults::FaultKind;
use shatter_smarthome::{Minute, OccupantId, ZoneId, MINUTES_PER_DAY};
use shatter_smt::sat::Lit;
use shatter_smt::{BoolVar, Budget, Objective, OmtOutcome, SatStats, Solver};

use crate::schedule::{Scheduler, WindowMemo, WindowSolution};
use crate::{AttackerCapability, RewardTable};

/// The formal window scheduler: encodes each optimization window
/// (Eq. 17–20) as clauses over slot×zone Booleans and maximizes the
/// energy-cost objective with the `shatter-smt` OMT loop — the role Z3
/// plays in the paper, and the subject of its Fig. 11 scalability study.
///
/// Per occupant and window `[w, w+I)`:
///
/// - Booleans `x[t][z]` — "occupant reported in zone z during slot t" —
///   with an exactly-one row per slot (Eq. 18),
/// - capability pruning: `¬x[t][z]` when the relocation is not in `Z^A`,
/// - run constraints: every maximal run `(z, s..e)` must satisfy
///   `inRangeStay(z, s, e−s)` on exit (Eq. 20) and `maxStay` viability
///   while it continues (Eq. 19), with the cross-window boundary stay
///   carried as `(z0, a0)`,
/// - objective: a pseudo-Boolean sum with one exactly-one group per
///   slot, scoring the chosen zone's reward in integer micro-dollars
///   (Eq. 17).
///
/// Windows are solved left to right and merged, exactly like
/// [`crate::WindowDpScheduler`]; on an infeasible window (over-restricted
/// capability) the scheduler mirrors actual behaviour for that window.
///
/// # One template per span, one copy per window
///
/// Each window is its own OMT problem, as in the paper (§IV-C). The
/// window-shape *template* — the `x` variables and their exactly-one
/// rows, which depend only on the span and the zone count — is built
/// once per span and never solved. Every window starts from a copy of
/// it (`clone_from` into a kept solver, reusing its allocations), adds
/// its own capability/boundary/run clauses and maximizes. Inside a
/// window the first probe asks for one micro-dollar more than the first
/// model, which proves that model optimal in most windows; probes are
/// guarded by fresh assumption literals, and clauses learned by one
/// probe prune the next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtScheduler {
    /// Optimization window `I` in slots (paper: 10).
    pub horizon: usize,
    /// Per-window resource budget in deterministic effort units
    /// (conflicts / OMT probes — never wall time). Re-installed
    /// at the start of every window solve, so each window gets the same
    /// allowance regardless of what earlier windows consumed. A window
    /// that exhausts its budget degrades — it commits the best schedule
    /// verified so far, or falls back to mirroring actual behaviour —
    /// and is counted in [`SmtStats::degraded_windows`]; it never hangs
    /// or panics. Unlimited by default; `repro --budget` sets it for a
    /// whole run. Budgeted runs key their window-memo entries
    /// separately from unbudgeted ones.
    pub budget: Option<Budget>,
}

impl Default for SmtScheduler {
    fn default() -> Self {
        SmtScheduler {
            horizon: 10,
            budget: None,
        }
    }
}

/// Solver effort: the one counters type for a window solve, an occupant
/// chain, or a whole exhibit. A [`WindowSolution`] embeds the effort its
/// solve cost, so cache hits replay the original counters and exhibit
/// tables do not depend on which scenario solved a window first; every
/// aggregate is a fold of [`SmtStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmtStats {
    /// Number of windows solved.
    pub windows: u64,
    /// Infeasible windows that fell back to mirroring actual behaviour.
    pub fallbacks: u64,
    /// Total theory conflicts across all solver invocations.
    pub theory_conflicts: u64,
    /// CDCL branching decisions.
    pub sat_decisions: u64,
    /// CDCL unit propagations.
    pub sat_propagations: u64,
    /// Learned clauses kept by the CDCL core.
    pub sat_learned: u64,
    /// Peak learnt clauses held by one window: a window's learnt clauses
    /// live exactly as long as its copy of the template, so this is the
    /// largest single window's `sat_learned`.
    pub sat_learnt_live: u64,
    /// Always 0: the solver has no simplex since the window objective
    /// became pseudo-Boolean. Kept, outside the persisted layout, only
    /// because the perfbench harness still reports it.
    pub float_pivots: u64,
    /// Always 0, like [`SmtStats::float_pivots`]: there is no exact
    /// rational fallback left to count.
    pub exact_fallbacks: u64,
    /// Windows that stopped early on budget exhaustion and committed a
    /// best-so-far (or fallback) row.
    pub degraded_windows: u64,
}

impl SmtStats {
    /// Converts the solver's native counters for one window solve — the
    /// only place [`SatStats`] become [`SmtStats`]. `windows` and
    /// `fallbacks` stay zero: the scheduler counts those.
    fn of_window(sat: SatStats, theory_conflicts: u64, degraded: bool) -> SmtStats {
        SmtStats {
            theory_conflicts,
            sat_decisions: sat.decisions,
            sat_propagations: sat.propagations,
            sat_learned: sat.learned,
            sat_learnt_live: sat.learned,
            degraded_windows: u64::from(degraded),
            ..SmtStats::default()
        }
    }

    /// Folds `other` into this one: counters add, `sat_learnt_live`
    /// keeps its peak. Callers fold in a fixed order (windows left to
    /// right, occupants by index), so totals never depend on which worker
    /// solved what.
    pub fn merge(&mut self, other: &SmtStats) {
        self.windows += other.windows;
        self.fallbacks += other.fallbacks;
        self.theory_conflicts += other.theory_conflicts;
        self.sat_decisions += other.sat_decisions;
        self.sat_propagations += other.sat_propagations;
        self.sat_learned += other.sat_learned;
        self.sat_learnt_live = self.sat_learnt_live.max(other.sat_learnt_live);
        self.degraded_windows += other.degraded_windows;
    }
}

/// Per-span window encoder. [`WindowEncoder::solve_window`] copies the
/// template into the scratch solver, asserts the window's clauses on the
/// copy and runs the OMT search there.
struct WindowEncoder {
    /// The span's slot×zone choice Booleans and their Eq. 18 exactly-one
    /// rows; never solved.
    template: Solver,
    /// The solver a window runs on, overwritten from `template` at the
    /// start of every window.
    scratch: Solver,
    /// `x[t][z]`: choice Booleans, window-relative slot index.
    x: Vec<Vec<BoolVar>>,
}

/// Everything a single window solve needs besides the encoder itself —
/// bundled so the memoized and direct paths share one call shape.
struct WindowProblem<'a> {
    o: OccupantId,
    table: &'a RewardTable,
    cap: &'a AttackerCapability,
    act_zone: &'a [ZoneId],
    /// Window start slot (absolute).
    w: usize,
    /// Window length; equals the encoder's template span.
    horizon: usize,
    boundary: Option<(ZoneId, u32)>,
    day_end: usize,
    /// Per-window resource budget, re-installed before the OMT search.
    budget: Option<Budget>,
    in_range: &'a (dyn Fn(ZoneId, u32, u32) -> bool + Sync),
    can_extend: &'a (dyn Fn(ZoneId, u32, u32) -> bool + Sync),
    has_future: &'a (dyn Fn(ZoneId, usize) -> bool + Sync),
}

impl WindowEncoder {
    fn new(horizon: usize, n_zones: usize) -> WindowEncoder {
        let mut template = Solver::new();
        let x: Vec<Vec<BoolVar>> = (0..horizon)
            .map(|_| (0..n_zones).map(|_| template.new_bool()).collect())
            .collect();
        // Eq. 18: exactly one zone per slot — the template rows shared by
        // every window of this span, and the objective's groups.
        for row in &x {
            template.assert_exactly_one(row);
        }
        WindowEncoder {
            template,
            scratch: Solver::new(),
            x,
        }
    }

    /// Solves one window on a fresh copy of the template: assert the
    /// window's constraints, maximize the reward objective, extract the
    /// zone row. Solver effort (theory conflicts + SAT counters) goes
    /// into the returned [`WindowSolution`] so memo hits can replay it.
    fn solve_window(&mut self, p: &WindowProblem<'_>) -> WindowSolution {
        // Fault-injection site "smt.window": fires before any solver
        // state is touched, so an injected halt degrades this window
        // exactly like a real one.
        if let Some(kind) = shatter_faults::hit("smt.window") {
            match kind {
                FaultKind::Panic => shatter_faults::panic_now("smt.window"),
                FaultKind::Budget | FaultKind::Io => {
                    // A window solve has no real I/O, so `io` degrades
                    // the window like `budget`.
                    return WindowSolution {
                        effort: SmtStats {
                            degraded_windows: 1,
                            ..SmtStats::default()
                        },
                        ..WindowSolution::default()
                    };
                }
            }
        }
        let n_zones = p.table.n_zones();
        debug_assert_eq!(self.x.len(), p.horizon, "encoder span mismatch");
        self.scratch.clone_from(&self.template);
        let solver = &mut self.scratch;

        let x = &self.x;
        let w = p.w;
        let end = w + p.horizon;
        let lit = |t: usize, z: usize| x[t - w][z].lit();
        let micro = |r: f64| -> i64 { (r * 1e6).round() as i64 };
        // Every window constraint is one clause, built in this buffer.
        let mut clause: Vec<Lit> = Vec::new();

        // Capability pruning (template rows already say "exactly one").
        for t in w..end {
            for z in 0..n_zones {
                if !p
                    .cap
                    .can_relocate(p.o, p.act_zone[t], ZoneId(z), t as Minute)
                {
                    solver.add_clause(&[lit(t, z).negated()]);
                }
            }
        }

        // Boundary stay constraints.
        if let Some((z0, a0)) = p.boundary {
            let z0i = z0.index();
            for e in w..end {
                // Run continues through [w, e) then leaves at e.
                if !(p.in_range)(z0, a0, e as u32 - a0) {
                    clause.clear();
                    clause.extend((w..e).map(|t| lit(t, z0i).negated()));
                    clause.push(lit(e, z0i));
                    solver.add_clause(&clause);
                }
            }
            // Run continues to the window end.
            let end_len = end as u32 - a0;
            let ok = if end >= p.day_end {
                (p.in_range)(z0, a0, end_len)
            } else {
                (p.can_extend)(z0, a0, end_len)
            };
            if !ok {
                clause.clear();
                clause.extend((w..end).map(|t| lit(t, z0i).negated()));
                solver.add_clause(&clause);
            }
        }

        // Interior runs: arrival at s in zone z. Each clause below forbids
        // a run shape and opens with the negated arrival condition
        // ¬A(s, z) = ¬x[s][z] ∨ x[s−1][z].
        for s in w..end {
            for z in 0..n_zones {
                // The boundary zone at s == w continues the boundary run:
                // it is no arrival, and has no clause here.
                if s == w && p.boundary.is_some_and(|(z0, _)| z0.index() == z) {
                    continue;
                }
                let zid = ZoneId(z);
                let not_arrival = |clause: &mut Vec<Lit>| {
                    clause.clear();
                    clause.push(lit(s, z).negated());
                    if s > w {
                        clause.push(lit(s - 1, z));
                    }
                };
                // Arrival viability.
                if !(p.has_future)(zid, s) {
                    not_arrival(&mut clause);
                    solver.add_clause(&clause);
                    continue;
                }
                // Exits at e.
                for e in (s + 1)..end {
                    if !(p.in_range)(zid, s as u32, (e - s) as u32) {
                        not_arrival(&mut clause);
                        clause.extend(((s + 1)..e).map(|t| lit(t, z).negated()));
                        clause.push(lit(e, z));
                        solver.add_clause(&clause);
                    }
                }
                // Run to the window end.
                let end_len = (end - s) as u32;
                let ok = if end >= p.day_end {
                    (p.in_range)(zid, s as u32, end_len)
                } else {
                    (p.can_extend)(zid, s as u32, end_len)
                };
                if !ok {
                    not_arrival(&mut clause);
                    clause.extend(((s + 1)..end).map(|t| lit(t, z).negated()));
                    solver.add_clause(&clause);
                }
            }
        }

        // Objective: each slot scores the reward of its chosen zone, in
        // micro-dollars; the slot rows are the template's exactly-one
        // groups.
        let mut objective = Objective::new();
        for t in w..end {
            objective.add_group(
                x[t - w]
                    .iter()
                    .enumerate()
                    .map(|(z, &v)| (v, micro(p.table.rate(p.o, ZoneId(z), t as Minute)))),
            );
        }

        // The caps count from the template's counters, so every window
        // gets the same allowance.
        if let Some(budget) = p.budget {
            solver.set_budget(budget);
        }
        let (model, value, degraded) = match solver.maximize(&objective) {
            OmtOutcome::Optimal { model, value } => (Some(model), Some(value), false),
            OmtOutcome::Degraded { model, .. } => (Some(model), None, true),
            OmtOutcome::Unsat => (None, None, false),
            OmtOutcome::Halted(_) => (None, None, true),
        };
        let zones = model.map(|model| {
            let mut out = Vec::with_capacity(p.horizon);
            for t in w..end {
                let z = (0..n_zones)
                    .find(|&z| model.bool(x[t - w][z]))
                    .expect("exactly-one guarantees a zone");
                out.push(ZoneId(z));
            }
            out
        });
        WindowSolution {
            zones,
            effort: SmtStats::of_window(
                solver.sat_stats().since(self.template.sat_stats()),
                solver.theory_conflicts - self.template.theory_conflicts,
                degraded,
            ),
            objective: value.and_then(|v| i64::try_from(v).ok()),
        }
    }
}

impl SmtScheduler {
    /// Schedules one occupant over `[0, until)` slots, returning the zone
    /// row and solver statistics. `until` defaults to the full day in
    /// [`Scheduler::schedule`]; the scalability bench uses shorter spans.
    pub fn schedule_occupant(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        until: usize,
    ) -> (Vec<ZoneId>, SmtStats) {
        self.schedule_occupant_memo(o, table, adm, cap, actual, until, None)
    }

    /// Like [`SmtScheduler::schedule_occupant`], memoizing each window's
    /// solution through `memo` when given. Keys carry the window span,
    /// boundary stay, capability signature and final-window flag, plus
    /// the budget; `prefix` must identify everything
    /// else the solver sees — the day trace, the reward table contents
    /// and the ADM — or unrelated solves will alias.
    ///
    /// The keys stay valid because every window solves on a fresh copy of
    /// its span's template: a window's solution is a function of the key
    /// inputs alone, never of which windows happened to be solved (or
    /// replayed from cache) before it.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_occupant_memo(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        until: usize,
        memo: Option<(&dyn WindowMemo, &str)>,
    ) -> (Vec<ZoneId>, SmtStats) {
        let until = until.min(MINUTES_PER_DAY);
        let act_zone: Vec<ZoneId> = actual
            .minutes
            .iter()
            .map(|r| r.occupants[o.index()].zone)
            .collect();

        // Stay-bound profiles replace per-query hull walks in the window
        // constraint generation (same flat tables the DP kernel uses).
        let profiles: Vec<Arc<StayProfile>> = (0..table.n_zones())
            .map(|z| adm.stay_profile(o, ZoneId(z)))
            .collect();
        let in_range = |z: ZoneId, s: u32, stay: u32| -> bool {
            profiles[z.index()].in_range_stay(s as usize, stay as f64)
        };
        let can_extend = |z: ZoneId, s: u32, len: u32| -> bool {
            profiles[z.index()]
                .max_stay(s as usize)
                .is_some_and(|m| (len as f64) <= m + 1e-9)
        };
        let has_future = |z: ZoneId, t: usize| -> bool { profiles[z.index()].has_future(t) };

        let n_zones = table.n_zones();
        // Budgeted runs may commit different (best-so-far) rows, so their
        // fragments must never alias the unbudgeted cache entries.
        let budget_key = match self.budget {
            Some(b) if !b.is_unlimited() => {
                let f = |o: Option<u64>| o.map_or_else(|| "-".to_string(), |n| n.to_string());
                format!("/bu{}:{}", f(b.max_conflicts), f(b.max_probes))
            }
            _ => String::new(),
        };
        let mut stats = SmtStats::default();
        let mut zones: Vec<ZoneId> = Vec::with_capacity(until);
        // Boundary stay carried between windows: None before the first slot.
        let mut boundary: Option<(ZoneId, u32)> = None;
        // One encoder (template plus scratch solver) per window span; a
        // day at horizon `I` needs at most two — the interior span and
        // the final partial window.
        let mut encoders: BTreeMap<usize, WindowEncoder> = BTreeMap::new();

        let mut w = 0usize;
        while w < until {
            let horizon = self.horizon.min(until - w);
            stats.windows += 1;
            let encoder = encoders
                .entry(horizon)
                .or_insert_with(|| WindowEncoder::new(horizon, n_zones));
            let problem = WindowProblem {
                o,
                table,
                cap,
                act_zone: &act_zone,
                w,
                horizon,
                boundary,
                day_end: until,
                budget: self.budget.filter(|b| !b.is_unlimited()),
                in_range: &in_range,
                can_extend: &can_extend,
                has_future: &has_future,
            };
            // Fault-targeted scenarios bypass the shared memo outright:
            // injected degradations must neither pollute the cache nor
            // replay fragments a clean scenario stored.
            let memo = if shatter_faults::scenario_armed() {
                None
            } else {
                memo
            };
            let solution = match memo {
                Some((m, prefix)) => {
                    // `until` only reaches the solver through the
                    // final-window distinction, so the flag (not the span)
                    // keys it — shared interior windows hit across spans.
                    let is_final = u8::from(w + horizon >= until);
                    let key = match boundary {
                        Some((bz, ba)) => format!(
                            "{prefix}/o{}/w{w}+{horizon}/b{}:{ba}/c{:016x}/f{is_final}{budget_key}",
                            o.index(),
                            bz.index(),
                            cap.signature(),
                        ),
                        None => format!(
                            "{prefix}/o{}/w{w}+{horizon}/b-/c{:016x}/f{is_final}{budget_key}",
                            o.index(),
                            cap.signature(),
                        ),
                    };
                    // The fragment stores the solver effort alongside the
                    // zones: a cache hit replays the original counters
                    // instead of reporting zero.
                    m.window(&key, &mut || encoder.solve_window(&problem))
                }
                None => encoder.solve_window(&problem),
            };
            stats.merge(&solution.effort);
            match solution.zones {
                Some(window_zones) => {
                    zones.extend_from_slice(&window_zones);
                }
                None => {
                    stats.fallbacks += 1;
                    #[allow(clippy::needless_range_loop)]
                    for t in w..w + horizon {
                        zones.push(act_zone[t]);
                    }
                }
            }
            // Recompute the boundary (zone, arrival) from the committed
            // prefix.
            let last = zones[w + horizon - 1];
            let mut a = (w + horizon - 1) as u32;
            while a > 0 && zones[a as usize - 1] == last {
                a -= 1;
            }
            boundary = Some((last, a));
            w += horizon;
        }
        (zones, stats)
    }
}

impl Scheduler for SmtScheduler {
    fn schedule_occupant_zones(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> Vec<ZoneId> {
        self.schedule_occupant(o, table, adm, cap, actual, MINUTES_PER_DAY)
            .0
    }

    fn schedule_occupant_zones_memo_stats(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        memo: &dyn WindowMemo,
        prefix: &str,
    ) -> (Vec<ZoneId>, SmtStats) {
        self.schedule_occupant_memo(
            o,
            table,
            adm,
            cap,
            actual,
            MINUTES_PER_DAY,
            Some((memo, prefix)),
        )
    }

    fn name(&self) -> &'static str {
        "SHATTER (SMT window)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowDpScheduler;
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
    use shatter_hvac::EnergyModel;
    use shatter_smarthome::houses;

    fn setup() -> (
        shatter_dataset::Dataset,
        HullAdm,
        RewardTable,
        AttackerCapability,
    ) {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 71));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let cap = AttackerCapability::full(&houses::aras_house_a());
        (ds, adm, table, cap)
    }

    #[test]
    fn smt_window_prefix_is_stealthy() {
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        // Schedule the first 2 hours only (SMT is the slow path).
        let (row, stats) =
            SmtScheduler::default().schedule_occupant(OccupantId(0), &table, &adm, &cap, day, 120);
        assert_eq!(row.len(), 120);
        assert_eq!(stats.windows, 12);
        // The solver reports real effort.
        assert!(stats.sat_propagations > 0);
        // Every completed run in the prefix must be ADM-consistent or
        // mirror actual behaviour.
        let mut s = 0usize;
        for t in 1..row.len() {
            if row[t] != row[s] {
                let matches_actual = (s..t).all(|u| row[u] == day.minutes[u].occupants[0].zone);
                assert!(
                    matches_actual || adm.within(OccupantId(0), row[s], s as f64, (t - s) as f64),
                    "run ({s}, {}) in {:?} not stealthy",
                    t - s,
                    row[s]
                );
                s = t;
            }
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_fallback_rows() {
        // A zero budget halts every window before its base model: each
        // one degrades to mirroring actual behaviour — deterministic,
        // no hang, no panic.
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = SmtScheduler {
            budget: Some(Budget {
                max_conflicts: Some(0),
                max_probes: Some(0),
            }),
            ..SmtScheduler::default()
        };
        let (row, stats) = sched.schedule_occupant(OccupantId(0), &table, &adm, &cap, day, 60);
        assert_eq!(row.len(), 60);
        // Every window either degrades on the exhausted budget or (rarely)
        // resolves Unsat during constraint assertion, before the budget
        // gate is ever consulted — a genuine verdict, not a degradation.
        // Both commit the fallback row.
        assert!(
            stats.degraded_windows >= 1,
            "zero budget must degrade windows"
        );
        assert_eq!(stats.fallbacks, stats.windows);
        for (t, &z) in row.iter().enumerate() {
            assert_eq!(z, day.minutes[t].occupants[0].zone);
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_schedule() {
        // Budgets are effort ceilings: one the solver never reaches must
        // leave the schedule byte-identical to the unbudgeted run. Over a
        // full day, because night windows take no decisions.
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let free = SmtScheduler {
            budget: None,
            ..SmtScheduler::default()
        };
        let capped = SmtScheduler {
            budget: Some(Budget {
                max_conflicts: Some(10_000_000),
                max_probes: Some(10_000),
            }),
            ..SmtScheduler::default()
        };
        let o = OccupantId(0);
        let (row_free, free_stats) =
            free.schedule_occupant(o, &table, &adm, &cap, day, MINUTES_PER_DAY);
        let (row_capped, stats) =
            capped.schedule_occupant(o, &table, &adm, &cap, day, MINUTES_PER_DAY);
        assert!(free_stats.sat_decisions > 0, "the day must search");
        assert_eq!(row_free, row_capped);
        assert_eq!(stats, free_stats);
        assert_eq!(stats.degraded_windows, 0);
    }

    #[test]
    fn smt_matches_dp_on_shared_prefix() {
        // Same window semantics => same committed reward (both optimal per
        // window). Allow small slack for tie-breaking differences.
        let (ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let o = OccupantId(0);
        let span = 60usize;
        let (smt_row, _) =
            SmtScheduler::default().schedule_occupant(o, &table, &adm, &cap, day, span);
        let dp = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let reward = |row: &[ZoneId]| -> f64 {
            row.iter()
                .enumerate()
                .map(|(t, &z)| table.rate(o, z, t as Minute))
                .sum()
        };
        let smt_r = reward(&smt_row);
        let dp_r = reward(&dp.zones[0][..span]);
        assert!(
            (smt_r - dp_r).abs() <= 0.30 * dp_r.max(1e-6) + 1e-6,
            "smt {smt_r} vs dp {dp_r}"
        );
    }
}
