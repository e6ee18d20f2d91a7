//! The solver facade: Boolean formulas go to the CDCL core as clauses,
//! and [`Solver::maximize`] searches a pseudo-Boolean [`Objective`]
//! through probes that the objective theory enforces.

use std::collections::HashMap;

use crate::ast::{BoolVar, Formula};
use crate::budget::Budget;
use crate::cnf::Encoder;
use crate::objective::{Objective, ObjectiveTheory};
use crate::sat::{Lit, SatStats, SatVerdict, Theory};

/// A satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    /// Value per [`BoolVar`] index.
    bools: Vec<bool>,
}

impl Model {
    /// Value of a Boolean variable (false when never constrained).
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

/// Checkpoint for [`Solver::pop`].
#[derive(Debug, Clone)]
struct SolverFrame {
    n_bools: usize,
}

/// The solver: Boolean formulas over a CDCL core, plus the
/// pseudo-Boolean optimizer [`Solver::maximize`].
///
/// Asserted formulas become clauses: their top-level conjunctions,
/// disjunctions and implications directly, and only nested subformulas
/// through Tseitin variables.
///
/// The solver is incremental end to end:
///
/// - every check retains everything the CDCL core learns for later
///   calls;
/// - [`Solver::push`]/[`Solver::pop`] checkpoint the whole stack
///   (clauses, variables, exactly-one groups, heuristics), and `pop`
///   restores it *exactly* — a popped solver continues byte-for-byte
///   like a fresh one that never saw the popped assertions, which is what
///   lets the attack scheduler reuse one solver across windows while
///   keeping schedules identical to the fresh-solver path;
/// - [`Solver::maximize`] runs its whole objective search inside this
///   one solver, guarding each probe with a fresh assumption literal
///   instead of cloning.
#[derive(Debug, Default, Clone)]
pub struct Solver {
    enc: Encoder,
    n_bools: usize,
    /// Exactly-one groups asserted through [`Solver::assert_exactly_one`],
    /// keyed by their sorted variables, each with the frame depth it was
    /// asserted at.
    exactly_one: HashMap<Vec<BoolVar>, usize>,
    frames: Vec<SolverFrame>,
    /// OMT probe cap from the active [`Budget`] (`None` = unlimited).
    probe_limit: Option<u64>,
    /// Statistics: theory conflicts encountered across `maximize` calls.
    pub theory_conflicts: u64,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Allocates a propositional variable.
    pub fn new_bool(&mut self) -> BoolVar {
        let v = BoolVar(self.n_bools);
        self.n_bools += 1;
        v
    }

    /// Asserts a formula.
    pub fn assert_formula(&mut self, f: Formula) {
        self.enc.assert_formula(&f);
    }

    /// Asserts that exactly one of `vars` is true (paper Eq. 18) and
    /// records the group, so [`Solver::maximize`] does not assert it
    /// again for an objective group over the same variables. Asserting a
    /// recorded group again is a no-op.
    pub fn assert_exactly_one(&mut self, vars: &[BoolVar]) {
        let mut key = vars.to_vec();
        key.sort();
        if !self.exactly_one.contains_key(&key) {
            self.enc.assert_formula(&Formula::exactly_one(vars));
            self.exactly_one.insert(key, self.frames.len());
        }
    }

    /// Cumulative CDCL effort counters (decisions, propagations,
    /// conflicts, learned clauses, restarts, GC'd clauses).
    /// Like [`Solver::theory_conflicts`] they measure work done and
    /// survive [`Solver::pop`].
    pub fn sat_stats(&self) -> SatStats {
        self.enc.sat.stats
    }

    /// Learnt clauses currently stored in the CDCL core (gauge).
    pub fn live_learnts(&self) -> usize {
        self.enc.sat.live_learnts()
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
        let conflicts = self.enc.sat.stats.conflicts;
        self.enc
            .sat
            .set_conflict_limit(budget.max_conflicts.map(|m| conflicts.saturating_add(m)));
        self.probe_limit = budget.max_probes;
    }

    /// Checkpoints the assertion stack: formulas asserted and variables
    /// created after `push` are removed again by the matching
    /// [`Solver::pop`], which also restores the SAT heuristics to their
    /// checkpointed state.
    pub fn push(&mut self) {
        self.enc.push();
        self.frames.push(SolverFrame {
            n_bools: self.n_bools,
        });
    }

    /// Restores the state of the matching [`Solver::push`]. Statistics
    /// counters are kept (they measure effort, not state).
    ///
    /// # Panics
    ///
    /// Panics when no matching `push` exists.
    pub fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without matching push");
        self.n_bools = f.n_bools;
        let depth = self.frames.len();
        self.exactly_one.retain(|_, d| *d <= depth);
        self.enc.pop();
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
        match self.enc.sat.solve(assumptions, theory) {
            SatVerdict::Sat(assignment) => CheckOutcome::Sat(Model {
                bools: (0..self.n_bools)
                    .map(|b| self.enc.bool_value(BoolVar(b), &assignment) == Some(true))
                    .collect(),
            }),
            SatVerdict::Unsat => CheckOutcome::Unsat,
            // The objective theory never halts, so Unknown means the
            // CDCL conflict budget ran out.
            SatVerdict::Unknown => CheckOutcome::Halted(HaltCause::Conflicts),
        }
    }

    /// Maximizes a pseudo-Boolean objective subject to the asserted
    /// formulas — the OMT loop SHATTER runs per attack window (paper
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
    /// On return the lemmas of the Sat probes remain: callers that need
    /// the original assertion set afterwards should bracket the call in
    /// [`Solver::push`]/[`Solver::pop`].
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
            .map(|g| {
                g.iter()
                    .map(|&(b, w)| (self.enc.bool_sat_var(b), w))
                    .collect()
            })
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
            let guard = Lit::pos(self.enc.sat.new_var());
            theory.probe(guard, target);
            let outcome = self.solve(&[guard], Some(&mut theory as &mut dyn Theory));
            match outcome {
                CheckOutcome::Sat(m) => {
                    lo = objective.value(&m);
                    debug_assert!(lo >= target, "the theory enforces the probe");
                    best_model = m;
                    self.enc.sat.add_clause(&[guard]);
                }
                CheckOutcome::Unsat => {
                    hi = target;
                    self.enc.sat.add_clause(&[guard.negated()]);
                }
                CheckOutcome::Halted(cause) => {
                    self.enc.sat.add_clause(&[guard.negated()]);
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
        s.assert_formula(Formula::or([Formula::Bool(a), Formula::Bool(b)]));
        s.assert_formula(Formula::not(Formula::Bool(a)));
        let m = sat(&mut s);
        assert!(!m.bool(a));
        assert!(m.bool(b));
    }

    #[test]
    fn maximize_picks_the_heaviest_feasible_literal() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        // The heaviest literal is excluded.
        s.assert_formula(Formula::not(Formula::Bool(v[2])));
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
    fn recorded_groups_are_not_asserted_twice() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        s.assert_exactly_one(&v);
        let clauses = s.enc.sat.clone();
        // Same variables in another order: already recorded.
        s.assert_exactly_one(&[v[2], v[0], v[1]]);
        assert_eq!(format!("{:?}", s.enc.sat), format!("{clauses:?}"));
        // A group asserted inside a frame is forgotten by its pop.
        s.push();
        let w: Vec<BoolVar> = (0..2).map(|_| s.new_bool()).collect();
        s.assert_exactly_one(&w);
        assert_eq!(s.exactly_one.len(), 2);
        s.pop();
        assert_eq!(s.exactly_one.len(), 1);
    }

    #[test]
    fn maximize_infeasible_returns_unsat() {
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..2).map(|_| s.new_bool()).collect();
        s.assert_formula(Formula::not(Formula::Bool(v[0])));
        s.assert_formula(Formula::not(Formula::Bool(v[1])));
        assert!(matches!(s.maximize(&group(&v, &[1, 2])), OmtOutcome::Unsat));
    }

    #[test]
    fn conflict_budget_halts_and_lifting_it_resumes() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        s.assert_formula(Formula::or([Formula::Bool(a), Formula::Bool(b)]));
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
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..4).map(|_| s.new_bool()).collect();
        // The search's default phase picks the last literal first, so
        // the base model is not the optimum.
        let objective = group(&v, &[4, 3, 2, 1]);
        s.set_budget(Budget {
            max_probes: Some(0),
            ..Budget::UNLIMITED
        });
        s.push();
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
        s.pop();
        s.set_budget(Budget::UNLIMITED);
        let (value, _) = optimal(s.maximize(&objective));
        assert_eq!(value, 4);
    }

    #[test]
    fn maximize_twice_under_push_pop() {
        // After a push/maximize/pop round-trip the solver must answer a
        // different objective exactly like a fresh solver would.
        let mut s = Solver::new();
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_bool()).collect();
        s.assert_exactly_one(&v);
        s.assert_formula(Formula::not(Formula::Bool(v[1])));
        s.push();
        let (up, _) = optimal(s.maximize(&group(&v, &[1, 5, 3])));
        s.pop();
        s.push();
        let (down, m) = optimal(s.maximize(&group(&v, &[4, 9, 2])));
        s.pop();
        assert_eq!((up, down), (3, 4));
        assert!(m.bool(v[0]));
        // And the un-popped assertions still admit the low corner.
        s.assert_formula(Formula::not(Formula::Bool(v[0])));
        assert!(sat(&mut s).bool(v[2]));
    }

    #[test]
    fn push_pop_restores_assertions_and_variables() {
        let mut s = Solver::new();
        let a = s.new_bool();
        s.assert_formula(Formula::Bool(a));
        s.push();
        let p = s.new_bool();
        s.assert_formula(Formula::implies(
            Formula::Bool(p),
            Formula::not(Formula::Bool(a)),
        ));
        s.assert_formula(Formula::Bool(p));
        assert!(matches!(s.check(), CheckOutcome::Unsat));
        s.pop();
        assert_eq!(s.new_bool(), p, "the popped variable is reused");
        assert!(sat(&mut s).bool(a));
    }
}
