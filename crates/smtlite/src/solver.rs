//! The solver facade: clauses go straight to the CDCL core, and
//! [`Solver::maximize`] searches a pseudo-Boolean [`Objective`] through
//! probes that the objective theory enforces.

use std::collections::HashSet;

use crate::budget::Budget;
use crate::objective::{Objective, ObjectiveTheory};
use crate::sat::{Lit, SatSolver, SatStats, SatVerdict, Theory};
use crate::BoolVar;

/// A satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    /// Value per CDCL-core variable, indexed by [`BoolVar::index`].
    bools: Vec<bool>,
}

impl Model {
    /// Value of a Boolean variable (false for a variable the model's
    /// solver did not have).
    pub fn bool(&self, b: BoolVar) -> bool {
        self.bools.get(b.index()).copied().unwrap_or(false)
    }
}

/// Why a solve stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// The CDCL conflict budget ([`Budget::max_conflicts`]) ran out.
    Conflicts,
    /// The OMT probe budget ([`Budget::max_probes`]) ran out.
    Probes,
}

/// Outcome of [`Solver::check`]: satisfiability, with budget exhaustion
/// kept apart from unsatisfiability.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Undecided: the search halted early for the given cause. The
    /// solver remains usable.
    Halted(HaltCause),
}

/// Outcome of [`Solver::maximize`] — the anytime OMT contract:
/// exhaustion degrades to the best model found instead of hanging.
#[derive(Debug, Clone)]
pub enum OmtOutcome {
    /// The search proved the model optimal.
    Optimal {
        /// Objective value of the returned model.
        value: i128,
        /// The optimal model.
        model: Model,
    },
    /// A budget ran out mid-search: the best model found *before* the
    /// halt, marked with the cause.
    Degraded {
        /// Objective value of the best-so-far model.
        value: i128,
        /// The best model found before the halt.
        model: Model,
        /// Why the search stopped early.
        cause: HaltCause,
    },
    /// The assertions are unsatisfiable (no budget involved).
    Unsat,
    /// The search halted before finding any model.
    Halted(HaltCause),
}

/// The solver: clauses over a CDCL core, plus the pseudo-Boolean
/// optimizer [`Solver::maximize`]. A [`BoolVar`] is a variable of the
/// core, and [`Solver::add_clause`] hands a clause of its literals
/// ([`BoolVar::lit`]) to the core as is.
///
/// The solver is incremental: every check retains everything the CDCL
/// core learns for later calls, and [`Solver::maximize`] runs its whole
/// objective search inside this one solver, guarding each probe with a
/// fresh assumption literal. Asserted clauses are never retracted; to
/// solve from a saved state, copy it. `clone_from` copies the whole
/// solver into the destination's allocations, and the copy continues
/// exactly like its source: the attack scheduler solves each window on a
/// copy of its span's template.
#[derive(Debug, Default)]
pub struct Solver {
    sat: SatSolver,
    /// Exactly-one groups asserted through [`Solver::assert_exactly_one`],
    /// keyed by their sorted variables.
    exactly_one: HashSet<Vec<BoolVar>>,
    /// OMT probe cap from the active [`Budget`] (`None` = unlimited).
    probe_limit: Option<u64>,
    /// Statistics: theory conflicts encountered across `maximize` calls.
    pub theory_conflicts: u64,
}

impl Clone for Solver {
    fn clone(&self) -> Solver {
        let mut copy = Solver::default();
        copy.clone_from(self);
        copy
    }

    /// Copies `source` into this solver's allocations (see the CDCL
    /// core's `clone_from`), destructured without `..` so that a new
    /// field does not compile until it is copied.
    fn clone_from(&mut self, source: &Solver) {
        let Solver {
            sat,
            exactly_one,
            probe_limit,
            theory_conflicts,
        } = source;
        self.sat.clone_from(sat);
        self.exactly_one.clone_from(exactly_one);
        self.probe_limit = *probe_limit;
        self.theory_conflicts = *theory_conflicts;
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Allocates a propositional variable: a fresh variable of the CDCL
    /// core.
    pub fn new_bool(&mut self) -> BoolVar {
        BoolVar(self.sat.new_var())
    }

    /// Asserts the clause `lits[0] ∨ lits[1] ∨ …`; an empty clause makes
    /// the solver unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.sat.add_clause(lits);
    }

    /// Asserts that exactly one of `vars` is true (paper Eq. 18) and
    /// records the group, so [`Solver::maximize`] does not assert it
    /// again for an objective group over the same variables. Asserting a
    /// recorded group again is a no-op.
    ///
    /// The encoding is pairwise: the at-least-one clause, then `¬vᵢ ∨ ¬vⱼ`
    /// for each pair `i < j` in order.
    pub fn assert_exactly_one(&mut self, vars: &[BoolVar]) {
        let mut key = vars.to_vec();
        key.sort();
        if self.exactly_one.contains(&key) {
            return;
        }
        let lits: Vec<Lit> = vars.iter().map(|v| v.lit()).collect();
        self.sat.add_clause(&lits);
        for (i, &a) in lits.iter().enumerate() {
            for &b in &lits[i + 1..] {
                self.sat.add_clause(&[a.negated(), b.negated()]);
            }
        }
        self.exactly_one.insert(key);
    }

    /// Cumulative CDCL effort counters (decisions, propagations,
    /// conflicts, learned clauses, restarts, GC'd clauses).
    /// Like [`Solver::theory_conflicts`] they measure work done, and a
    /// copy starts from its source's counts.
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats
    }

    /// Learnt clauses currently stored in the CDCL core (gauge).
    pub fn live_learnts(&self) -> usize {
        self.sat.live_learnts()
    }

    /// Installs `budget` for subsequent solves. Limits are counted in
    /// deterministic effort units *from this point*: the conflict cap is
    /// applied as an absolute ceiling of `current cumulative counter +
    /// max`, so calling `set_budget` per window gives every window the
    /// same allowance regardless of how much earlier windows consumed.
    /// Exhaustion surfaces through [`Solver::check`] /
    /// [`Solver::maximize`] as [`CheckOutcome::Halted`] /
    /// [`OmtOutcome::Degraded`]. [`Budget::UNLIMITED`] lifts all limits.
    pub fn set_budget(&mut self, budget: Budget) {
        let conflicts = self.sat.stats.conflicts;
        self.sat
            .set_conflict_limit(budget.max_conflicts.map(|m| conflicts.saturating_add(m)));
        self.probe_limit = budget.max_probes;
    }

    /// Decides the asserted conjunction. A conflict-budget halt comes
    /// back as [`CheckOutcome::Halted`], leaving the solver usable (the
    /// CDCL core backtracks to level zero).
    pub fn check(&mut self) -> CheckOutcome {
        self.solve(&[], None)
    }

    /// Decides the clauses under `assumptions` (SAT-level literals: the
    /// probe guards of [`Solver::maximize`]), without asserting them.
    fn solve(&mut self, assumptions: &[Lit], theory: Option<&mut dyn Theory>) -> CheckOutcome {
        match self.sat.solve(assumptions, theory) {
            SatVerdict::Sat(bools) => CheckOutcome::Sat(Model { bools }),
            SatVerdict::Unsat => CheckOutcome::Unsat,
            // The objective theory never halts, so Unknown means the
            // CDCL conflict budget ran out.
            SatVerdict::Unknown => CheckOutcome::Halted(HaltCause::Conflicts),
        }
    }

    /// Maximizes a pseudo-Boolean objective subject to the asserted
    /// clauses — the OMT loop SHATTER runs per attack window (paper
    /// Eq. 17). Each objective group's exactly-one is asserted first,
    /// unless [`Solver::assert_exactly_one`] already asserted it.
    ///
    /// The search brackets the optimum in integers: `lo` is the best
    /// value found, `hi` the least value proven out of reach (at first,
    /// one more than the sum of each group's largest weight). The first
    /// probe after the base model asks for `objective ≥ lo + 1`: an
    /// Unsat answer proves the base model optimal at once, which is the
    /// common case when the first model found is already the best one.
    /// Only a Sat answer goes on to bisect the bracket.
    ///
    /// The whole search runs inside this one solver: each probe solves
    /// under a fresh guard literal as its assumption, and the objective
    /// theory enforces `guard → objective ≥ target` (see
    /// [`crate::objective`]). Every theory lemma names its probe's guard,
    /// so clauses learned by one probe carry to the next. A Sat probe's
    /// guard is then asserted (later targets are higher); a failed one is
    /// disabled.
    ///
    /// Each probe counts against [`Budget::max_probes`], and halts are
    /// values: when a limit runs out mid-search, the best model found
    /// *so far* is returned as [`OmtOutcome::Degraded`] with the cause,
    /// rather than the search hanging or panicking. A halt before the
    /// base model is [`OmtOutcome::Halted`].
    ///
    /// On return the probe guards and their lemmas remain: callers that
    /// need the original assertion set afterwards should maximize on a
    /// copy.
    pub fn maximize(&mut self, objective: &Objective) -> OmtOutcome {
        for group in objective.groups() {
            let vars: Vec<BoolVar> = group.iter().map(|&(b, _)| b).collect();
            self.assert_exactly_one(&vars);
        }
        let mut best_model = match self.check() {
            CheckOutcome::Sat(m) => m,
            CheckOutcome::Unsat => return OmtOutcome::Unsat,
            CheckOutcome::Halted(cause) => return OmtOutcome::Halted(cause),
        };
        let mut lo = objective.value(&best_model);
        let mut hi = objective.upper_bound() + 1;
        let groups = objective
            .groups()
            .iter()
            .map(|g| g.iter().map(|&(b, w)| (b.index(), w)).collect())
            .collect();
        let mut theory = ObjectiveTheory::new(groups);
        let mut probes = 0u64;
        let mut halt = None;
        while hi - lo > 1 {
            if self.probe_limit.is_some_and(|limit| probes >= limit) {
                halt = Some(HaltCause::Probes);
                break;
            }
            // The first probe checks the base model for optimality; the
            // rest bisect.
            let target = if probes == 0 {
                lo + 1
            } else {
                lo + (hi - lo) / 2
            };
            probes += 1;
            let guard = self.new_bool().lit();
            theory.probe(guard, target);
            let outcome = self.solve(&[guard], Some(&mut theory as &mut dyn Theory));
            match outcome {
                CheckOutcome::Sat(m) => {
                    lo = objective.value(&m);
                    debug_assert!(lo >= target, "the theory enforces the probe");
                    best_model = m;
                    self.sat.add_clause(&[guard]);
                }
                CheckOutcome::Unsat => {
                    hi = target;
                    self.sat.add_clause(&[guard.negated()]);
                }
                CheckOutcome::Halted(cause) => {
                    self.sat.add_clause(&[guard.negated()]);
                    halt = Some(cause);
                    break;
                }
            }
        }
        self.theory_conflicts += theory.conflicts;
        match halt {
            Some(cause) => OmtOutcome::Degraded {
                value: lo,
                model: best_model,
                cause,
            },
            None => OmtOutcome::Optimal {
                value: lo,
                model: best_model,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(s: &mut Solver) -> Model {
        match s.check() {
            CheckOutcome::Sat(m) => m,
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn optimal(outcome: OmtOutcome) -> (i128, Model) {
        match outcome {
            OmtOutcome::Optimal { value, model } => (value, model),
            other => panic!("expected an optimum, got {other:?}"),
        }
    }

    /// One group over `vars` with `weights`.
    fn group(vars: &[BoolVar], weights: &[i64]) -> Objective {
        let mut o = Objective::new();
        o.add_group(vars.iter().copied().zip(weights.iter().copied()));
        o
    }

    #[test]
    fn pure_boolean_sat() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        s.add_clause(&[a.lit(), b.lit()]);
        s.add_clause(&[a.lit().negated()]);
        let m = sat(&mut s);
        assert!(!m.bool(a));
        assert!(m.bool(b));
    }

    #[test]
    fn maximize_picks_the_heaviest_feasible_literal() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        // The heaviest literal is excluded.
        s.add_clause(&[v[2].lit().negated()]);
        let (value, m) = optimal(s.maximize(&group(&v, &[4, 7, 9])));
        assert_eq!(value, 7);
        assert!(m.bool(v[1]) && !m.bool(v[0]) && !m.bool(v[2]));
    }

    #[test]
    fn maximize_asserts_each_groups_exactly_one() {
        // Nothing but the objective constrains the variables: the model
        // must still pick exactly one literal, never all of them.
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        let (value, m) = optimal(s.maximize(&group(&v, &[5, 6, 7])));
        assert_eq!(value, 7);
        assert_eq!(v.iter().filter(|&&b| m.bool(b)).count(), 1);
        // Negative weights: the least negative literal, not an empty pick.
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..2).map(|_| s.new_bool()).collect();
        let (value, _) = optimal(s.maximize(&group(&v, &[-3, -8])));
        assert_eq!(value, -3);
    }

    #[test]
    fn exactly_one_structure() {
        // The at-least-one clause, then the pairwise exclusions in
        // (i, j) order: 1 + 3 clauses over three variables.
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        s.assert_exactly_one(&v);
        let mut reference = SatSolver::new();
        let l: Vec<Lit> = (0..3).map(|_| Lit::pos(reference.new_var())).collect();
        reference.add_clause(&l);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            reference.add_clause(&[l[a].negated(), l[b].negated()]);
        }
        assert_eq!(format!("{:?}", s.sat), format!("{reference:?}"));
    }

    #[test]
    fn exactly_one_enforced() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        s.assert_exactly_one(&v);
        let m = sat(&mut s);
        assert_eq!(v.iter().filter(|&&b| m.bool(b)).count(), 1);
        // Forcing two of them on is a contradiction.
        s.add_clause(&[v[0].lit()]);
        s.add_clause(&[v[2].lit()]);
        assert!(matches!(s.check(), CheckOutcome::Unsat));
    }

    #[test]
    fn recorded_groups_are_not_asserted_twice() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        s.assert_exactly_one(&v);
        let clauses = s.sat.clone();
        // Same variables in another order: already recorded.
        s.assert_exactly_one(&[v[2], v[0], v[1]]);
        assert_eq!(format!("{:?}", s.sat), format!("{clauses:?}"));
    }

    #[test]
    fn maximize_infeasible_returns_unsat() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..2).map(|_| s.new_bool()).collect();
        s.add_clause(&[v[0].lit().negated()]);
        s.add_clause(&[v[1].lit().negated()]);
        assert!(matches!(s.maximize(&group(&v, &[1, 2])), OmtOutcome::Unsat));
    }

    #[test]
    fn conflict_budget_halts_and_lifting_it_resumes() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        s.add_clause(&[a.lit(), b.lit()]);
        s.set_budget(Budget {
            max_conflicts: Some(0),
            ..Budget::UNLIMITED
        });
        assert!(matches!(
            s.check(),
            CheckOutcome::Halted(HaltCause::Conflicts)
        ));
        s.set_budget(Budget::UNLIMITED);
        assert!(matches!(s.check(), CheckOutcome::Sat(_)));
    }

    #[test]
    fn probe_budget_degrades_to_base_model() {
        let mut template = Solver::new();
        let v: Vec<BoolVar> = (0..4).map(|_| template.new_bool()).collect();
        // The search's default phase picks the last literal first, so
        // the base model is not the optimum.
        let objective = group(&v, &[4, 3, 2, 1]);
        let mut s = template.clone();
        s.set_budget(Budget {
            max_probes: Some(0),
            ..Budget::UNLIMITED
        });
        match s.maximize(&objective) {
            OmtOutcome::Degraded {
                value,
                model,
                cause,
            } => {
                assert_eq!(cause, HaltCause::Probes);
                assert_eq!(value, objective.value(&model));
                assert!(value < 4, "the base model is returned as is");
            }
            other => panic!("expected degraded best-so-far, got {other:?}"),
        }
        // A copy of the template has the template's (unlimited) budget.
        s.clone_from(&template);
        let (value, _) = optimal(s.maximize(&objective));
        assert_eq!(value, 4);
    }

    #[test]
    fn maximize_twice_on_template_copies() {
        // A copy of the template answers a second objective like a fresh
        // solver would, whatever the first maximize left in the copy.
        let mut template = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| template.new_bool()).collect();
        template.assert_exactly_one(&v);
        template.add_clause(&[v[1].lit().negated()]);
        let mut s = template.clone();
        let (up, _) = optimal(s.maximize(&group(&v, &[1, 5, 3])));
        s.clone_from(&template);
        assert_eq!(format!("{:?}", s.sat), format!("{:?}", template.sat));
        let (down, m) = optimal(s.maximize(&group(&v, &[4, 9, 2])));
        assert_eq!((up, down), (3, 4));
        assert!(m.bool(v[0]));
        // And the template, never solved, still admits the low corner.
        template.add_clause(&[v[0].lit().negated()]);
        assert!(sat(&mut template).bool(v[2]));
    }
}
