//! The lazy DPLL(T) solver: the CDCL core searches the Boolean skeleton
//! and consults the simplex on partial and complete assignments.
//!
//! Theory atoms arrive compiled from the encoder (linear form sorted by
//! variable, folded right-hand side, strictness), and the solver caches
//! each atom's simplex column the first time a check resolves it. A
//! consult therefore only gathers which atoms are assigned and hands
//! their bounds to the simplex by column. [`Solver::pop`] truncates the
//! cache to the restored atom count and forgets every column the
//! restored tableau does not have, so those atoms resolve afresh, in the
//! order a solver that never saw the popped frame would resolve them.

use std::collections::HashMap;

use crate::ast::{BoolVar, Formula, LinExpr, RealVar};
use crate::budget::Budget;
use crate::cnf::{Encoder, TheoryAtom};
use crate::rational::RatOverflow;
use crate::sat::{Lit, SatStats, SatVerdict, Theory, TheoryResult, TheoryView};
use crate::simplex::{FormBound, NumericMode, Simplex, SimplexHalt, SimplexStats};
use crate::Rat;

/// A satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    bools: HashMap<usize, bool>,
    reals: HashMap<usize, Rat>,
}

impl Model {
    /// Value of a Boolean variable (false when never constrained).
    pub fn bool(&self, b: BoolVar) -> bool {
        self.bools.get(&b.index()).copied().unwrap_or(false)
    }

    /// Value of a real variable as `f64` (0 when never constrained).
    pub fn real(&self, x: RealVar) -> f64 {
        self.real_exact(x).to_f64()
    }

    /// Exact rational value of a real variable.
    pub fn real_exact(&self, x: RealVar) -> Rat {
        self.reals.get(&x.index()).copied().unwrap_or(Rat::ZERO)
    }

    /// Evaluates a linear expression under this model, or
    /// `Err(RatOverflow)` when the value does not fit `i128`.
    pub fn eval(&self, e: &LinExpr) -> Result<Rat, RatOverflow> {
        e.eval(&|v| self.real_exact(v))
    }
}

/// Why a solve stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// The CDCL conflict budget ([`Budget::max_conflicts`]) ran out.
    Conflicts,
    /// The simplex pivot budget ([`Budget::max_pivots`]) ran out.
    Pivots,
    /// The OMT probe budget ([`Budget::max_probes`]) ran out.
    Probes,
    /// The OMT bracket can no longer be split: the next probe target
    /// rounds to an end of the `f64` bracket `(lo, hi)`, which happens
    /// once the float spacing there exceeds the tolerance, so no further
    /// probe could narrow the gap.
    Precision,
    /// `i128` rational arithmetic overflowed; the tableau may be
    /// poisoned until a [`Solver::pop`] restores a pre-overflow
    /// checkpoint.
    Overflow,
}

impl From<SimplexHalt> for HaltCause {
    fn from(halt: SimplexHalt) -> HaltCause {
        match halt {
            SimplexHalt::Overflow => HaltCause::Overflow,
            SimplexHalt::Budget => HaltCause::Pivots,
        }
    }
}

/// Outcome of [`Solver::check`]: satisfiability, with budget exhaustion
/// and numeric degradation kept apart from unsatisfiability.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Undecided: the search halted early for the given cause. The
    /// solver remains usable (after [`HaltCause::Overflow`], once the
    /// enclosing frame is popped).
    Halted(HaltCause),
}

/// Outcome of [`Solver::maximize`] — the anytime OMT contract:
/// exhaustion degrades to the best verified model instead of hanging.
#[derive(Debug, Clone)]
pub enum OmtOutcome {
    /// The search closed the gap to `tol`.
    Optimal {
        /// Objective value of the returned model.
        value: f64,
        /// The optimal model.
        model: Model,
    },
    /// A budget ran out, the tableau degraded or the bracket could no
    /// longer be split mid-search: the best model proven feasible
    /// *before* the halt, marked with the cause.
    Degraded {
        /// Objective value of the best-so-far model.
        value: f64,
        /// The best model found before the halt.
        model: Model,
        /// Why the search stopped early.
        cause: HaltCause,
    },
    /// The assertions are unsatisfiable (no budget involved).
    Unsat,
    /// The search halted before proving any model feasible.
    Halted(HaltCause),
}

/// Entry of [`Solver::atom_cols`] whose column is not resolved yet.
const UNRESOLVED: usize = usize::MAX;

/// Checkpoint for [`Solver::pop`].
#[derive(Debug, Clone)]
struct SolverFrame {
    n_reals: usize,
    n_bools: usize,
    simplex: Simplex,
}

/// The lazy DPLL(T) SMT solver for QF_LRA + Booleans.
///
/// Asserted formulas become clauses: their top-level conjunctions,
/// disjunctions and implications directly, and only nested subformulas
/// through Tseitin variables. The CDCL core enumerates Boolean
/// skeleton models; the simplex theory solver validates the implied
/// conjunction of linear bounds, contributing blocking clauses built from
/// its infeasibility explanations until the loop converges.
///
/// The solver is incremental end to end:
///
/// - every check retains everything the CDCL core learns for later
///   calls;
/// - the simplex tableau persists between checks, warm-starting each
///   theory validation from the previous feasible basis, and so does
///   each registered atom's compiled bound and simplex column, so a
///   theory check only gathers which atoms are assigned;
/// - [`Solver::push`]/[`Solver::pop`] checkpoint the whole stack
///   (clauses, variables, atom registry, tableau, heuristics), and `pop`
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
    n_reals: usize,
    n_bools: usize,
    simplex: Simplex,
    /// Per registered atom (same order as the encoder's atoms): its
    /// simplex column, cached when a theory check first resolves it
    /// ([`UNRESOLVED`] until then).
    atom_cols: Vec<usize>,
    frames: Vec<SolverFrame>,
    /// OMT probe cap from the active [`Budget`] (`None` = unlimited).
    probe_limit: Option<u64>,
    /// Statistics: theory conflicts encountered across `check` calls.
    pub theory_conflicts: u64,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            enc: Encoder::new(),
            ..Solver::default()
        }
    }

    /// Allocates a real-valued theory variable.
    pub fn new_real(&mut self) -> RealVar {
        let v = RealVar(self.n_reals);
        self.n_reals += 1;
        v
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

    /// Cumulative simplex pivot counters (total pivots, float-first
    /// pivots, exact fallbacks). Like [`Solver::sat_stats`] they measure
    /// work done and survive [`Solver::pop`].
    pub fn simplex_stats(&self) -> SimplexStats {
        self.simplex.stats()
    }

    /// Selects the simplex numeric pipeline (see
    /// [`crate::simplex::NumericMode`]): the certified float fast path
    /// (default) or the forced-exact reference path. Both produce
    /// bit-for-bit identical verdicts and models; the knob exists so the
    /// reference path stays runnable end to end. Survives
    /// [`Solver::push`]/[`Solver::pop`].
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        self.simplex.set_numeric_mode(mode);
    }

    /// The currently selected simplex numeric pipeline.
    pub fn numeric_mode(&self) -> NumericMode {
        self.simplex.numeric_mode()
    }

    /// Installs `budget` for subsequent solves. Limits are counted in
    /// deterministic effort units *from this point*: each cap is applied
    /// as an absolute ceiling of `current cumulative counter + max`, so
    /// calling `set_budget` per window gives every window the same
    /// allowance regardless of how much earlier windows consumed.
    /// Exhaustion surfaces through [`Solver::check`] /
    /// [`Solver::maximize`] as [`CheckOutcome::Halted`] /
    /// [`OmtOutcome::Degraded`]. [`Budget::UNLIMITED`] lifts all limits.
    pub fn set_budget(&mut self, budget: Budget) {
        let conflicts = self.enc.sat.stats.conflicts;
        self.enc
            .sat
            .set_conflict_limit(budget.max_conflicts.map(|m| conflicts.saturating_add(m)));
        let pivots = self.simplex.stats().pivots;
        self.simplex
            .set_pivot_limit(budget.max_pivots.map(|m| pivots.saturating_add(m)));
        self.probe_limit = budget.max_probes;
    }

    /// Checkpoints the assertion stack: formulas asserted and variables
    /// created after `push` are removed again by the matching
    /// [`Solver::pop`], which also restores the SAT heuristics and the
    /// simplex basis to their checkpointed state.
    pub fn push(&mut self) {
        self.enc.push();
        self.frames.push(SolverFrame {
            n_reals: self.n_reals,
            n_bools: self.n_bools,
            simplex: self.simplex.clone(),
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
        self.n_reals = f.n_reals;
        self.n_bools = f.n_bools;
        // The checkpointed tableau replaces the live one, but the pivot
        // counters measure effort (not state) and the numeric mode and
        // pivot budget are user knobs — all survive the restore.
        let stats = self.simplex.stats();
        let mode = self.simplex.numeric_mode();
        let pivot_limit = self.simplex.pivot_limit();
        self.simplex = f.simplex;
        self.simplex.set_stats(stats);
        self.simplex.set_numeric_mode(mode);
        self.simplex.set_pivot_limit(pivot_limit);
        self.enc.pop();
        // The restored tableau lacks the columns allocated inside the
        // frame: forget them, and the popped atoms, so they resolve
        // afresh in the order a solver that never saw the frame would.
        self.atom_cols.truncate(self.enc.atoms.len());
        let n_cols = self.simplex.n_cols();
        for col in &mut self.atom_cols {
            if *col >= n_cols {
                *col = UNRESOLVED;
            }
        }
    }

    /// Decides the asserted conjunction.
    ///
    /// The CDCL core consults the simplex *during* the search (DPLL(T)
    /// with early theory propagation) rather than only on complete
    /// Boolean assignments: at decision checkpoints the partial bound
    /// set is validated — an infeasible subset becomes an in-place
    /// conflict instead of a solve-from-scratch blocking clause — and
    /// bound literals implied by the asserted interval of their linear
    /// form are pushed into the Boolean trail through binary lemma
    /// clauses. All lemmas are theory-valid and persist for later calls
    /// (as reducible learnts — the clause-DB GC may age them out).
    ///
    /// Budget exhaustion and rational overflow come back as
    /// [`CheckOutcome::Halted`], leaving the solver usable (the CDCL core
    /// backtracks to level zero; an overflow-poisoned tableau needs the
    /// enclosing [`Solver::pop`] to restore a clean checkpoint).
    pub fn check(&mut self) -> CheckOutcome {
        self.check_assuming(&[])
    }

    /// [`Solver::check`] under `assumptions` (SAT-level literals: the
    /// probe guards of [`Solver::maximize`]), without asserting them.
    fn check_assuming(&mut self, assumptions: &[Lit]) -> CheckOutcome {
        self.atom_cols.resize(self.enc.atoms.len(), UNRESOLVED);
        let mut theory = SimplexTheory {
            atoms: &self.enc.atoms,
            cols: &mut self.atom_cols,
            simplex: &mut self.simplex,
            conflicts: 0,
            model: None,
            halt: None,
            bounds: Vec::new(),
            last_assigned: usize::MAX,
        };
        let verdict = self.enc.sat.solve(assumptions, Some(&mut theory));
        self.theory_conflicts += theory.conflicts;
        let halt = theory.halt;
        let assignment = match verdict {
            SatVerdict::Sat(assignment) => assignment,
            SatVerdict::Unsat => return CheckOutcome::Unsat,
            // Unknown without a theory halt means the CDCL conflict
            // budget ran out.
            SatVerdict::Unknown => {
                return CheckOutcome::Halted(halt.unwrap_or(HaltCause::Conflicts))
            }
        };
        let reals = theory
            .model
            .take()
            .expect("complete theory consult stores the model")
            .into_iter()
            .filter(|(v, _)| *v < self.n_reals)
            .collect();
        let mut bools = HashMap::new();
        for b in 0..self.n_bools {
            if let Some(v) = self.enc.bool_value(BoolVar(b), &assignment) {
                bools.insert(b, v);
            }
        }
        CheckOutcome::Sat(Model { bools, reals })
    }

    /// Maximizes a linear objective subject to the asserted formulas, by
    /// iterative strengthening — the OMT loop SHATTER runs per attack
    /// window (paper Eq. 17).
    ///
    /// `lo`/`hi` bracket the objective; `tol` is the termination gap.
    /// The outcome is [`OmtOutcome::Optimal`] once the gap closes, or
    /// [`OmtOutcome::Unsat`] when the assertions are unsatisfiable.
    ///
    /// The first probe after the base model asks for `objective ≥
    /// best + tol`: an Unsat answer proves the base model tol-optimal at
    /// once, which is the common case when the first model found is
    /// already the best one. Only a Sat answer goes on to a binary
    /// search on the objective bound, from the new best.
    ///
    /// The whole search runs inside this one solver: each probe asserts
    /// `guard → objective ≥ target` for a fresh guard literal and solves
    /// under the assumption `guard`, so clauses learned by one probe
    /// carry to the next and the simplex warm-starts from the previous
    /// feasible basis. Successful probes assert their guard permanently
    /// (monotone strengthening); failed guards are permanently disabled.
    ///
    /// Each probe counts against [`Budget::max_probes`], and halts are
    /// values: when any limit runs out (or the tableau overflows)
    /// mid-search, the best model *proven feasible so far* is returned as
    /// [`OmtOutcome::Degraded`] with the cause, rather than the search
    /// hanging or panicking. A halt before the first feasible model is
    /// [`OmtOutcome::Halted`]. The objective is evaluated with checked
    /// arithmetic: a base model whose objective overflows `i128` halts
    /// with [`HaltCause::Overflow`], and a probe model whose objective
    /// overflows degrades to the best model so far with that cause. A
    /// probe target that is not strictly inside the `f64` bracket
    /// `(lo, hi)` (the spacing of doubles there exceeds `tol`, so the
    /// bracket cannot be split) degrades the same way with
    /// [`HaltCause::Precision`], so the search ends without a budget.
    ///
    /// # Bracket contract
    ///
    /// The bracket is a *search range*, not a constraint. When the first
    /// feasible model's objective already reaches or exceeds `hi` — a
    /// stale caller-supplied bracket — the search space is empty and the
    /// base model is returned as-is; the returned objective may then
    /// exceed `hi`.
    ///
    /// On return the strengthening assertions remain: callers that need
    /// the original assertion set afterwards should bracket the call in
    /// [`Solver::push`]/[`Solver::pop`].
    pub fn maximize(&mut self, objective: &LinExpr, lo: f64, hi: f64, tol: f64) -> OmtOutcome {
        let base_model = match self.check() {
            CheckOutcome::Sat(m) => m,
            CheckOutcome::Unsat => return OmtOutcome::Unsat,
            CheckOutcome::Halted(cause) => return OmtOutcome::Halted(cause),
        };
        let Ok(base_val) = base_model.eval(objective) else {
            return OmtOutcome::Halted(HaltCause::Overflow);
        };
        let mut best_val = base_val.to_f64();
        let mut best_model = base_model;
        let mut lo = best_val.max(lo);
        let mut hi = hi;
        let mut probes = 0u64;
        let mut halt = None;
        while hi - lo > tol {
            if let Some(limit) = self.probe_limit {
                if probes >= limit {
                    halt = Some(HaltCause::Probes);
                    break;
                }
            }
            // The first probe checks the best model for optimality; the
            // rest bisect.
            let target = if probes == 0 {
                lo + tol
            } else {
                lo + (hi - lo) / 2.0
            };
            // A target that rounds onto an end of the bracket can never
            // move it again.
            if !(lo < target && target < hi) {
                halt = Some(HaltCause::Precision);
                break;
            }
            probes += 1;
            // Fresh guard: guard -> objective >= target.
            let guard = Lit::pos(self.enc.sat.new_var());
            let bound_lit = self.enc.encode(&objective.ge(Rat::from_f64_approx(target)));
            self.enc.sat.add_clause(&[guard.negated(), bound_lit]);
            match self.check_assuming(&[guard]) {
                CheckOutcome::Sat(m) => {
                    // An objective that overflows on the probe model
                    // stops the search like a halted probe.
                    let Ok(v) = m.eval(objective) else {
                        self.enc.sat.add_clause(&[guard.negated()]);
                        halt = Some(HaltCause::Overflow);
                        break;
                    };
                    let v = v.to_f64();
                    if v > best_val {
                        best_val = v;
                        best_model = m;
                    }
                    lo = best_val.max(target);
                    // Keep the proven bound: later probes only go higher.
                    self.enc.sat.add_clause(&[guard]);
                }
                CheckOutcome::Unsat => {
                    hi = target;
                    self.enc.sat.add_clause(&[guard.negated()]);
                }
                CheckOutcome::Halted(cause) => {
                    // Anytime degradation: the probe's answer is unknown,
                    // so disable its guard and stop with best-so-far.
                    self.enc.sat.add_clause(&[guard.negated()]);
                    halt = Some(cause);
                    break;
                }
            }
        }
        match halt {
            Some(cause) => OmtOutcome::Degraded {
                value: best_val,
                model: best_model,
                cause,
            },
            None => OmtOutcome::Optimal {
                value: best_val,
                model: best_model,
            },
        }
    }
}

/// The DPLL(T) bridge handed to [`crate::sat::SatSolver::solve`]:
/// owns the warm-started simplex for the duration of one check and maps
/// between atom SAT variables and simplex bounds.
struct SimplexTheory<'a> {
    /// Registered atoms in registration order.
    atoms: &'a [TheoryAtom],
    /// Per atom (same order as `atoms`): its cached simplex column.
    cols: &'a mut [usize],
    simplex: &'a mut Simplex,
    /// Theory conflicts found during this check.
    conflicts: u64,
    /// Feasible rational assignment from the last *complete* consult.
    model: Option<HashMap<usize, Rat>>,
    /// Why the simplex halted this check, when it did ([`TheoryResult::Halt`]).
    halt: Option<HaltCause>,
    /// Reused bound buffer (no per-consult allocation).
    bounds: Vec<FormBound>,
    /// Assigned-atom count at the previous consult: a cheap partial
    /// fingerprint — if unchanged, the bound set is almost surely the
    /// same and the (sound-to-skip) partial re-check is elided.
    last_assigned: usize,
}

/// Column of atom `i`'s form: cached, or resolved (allocating it on
/// first sight) and cached now.
fn atom_column(
    simplex: &mut Simplex,
    atoms: &[TheoryAtom],
    cols: &mut [usize],
    i: usize,
) -> Result<usize, RatOverflow> {
    if cols[i] == UNRESOLVED {
        cols[i] = simplex.try_column_for(&atoms[i].form)?;
    }
    Ok(cols[i])
}

impl Theory for SimplexTheory<'_> {
    fn consult(&mut self, view: TheoryView<'_>, complete: bool) -> TheoryResult {
        // Fingerprint first: skipped consults must not pay for gathering
        // the bounds.
        let assigned = self
            .atoms
            .iter()
            .filter(|atom| view.value(atom.var).is_some())
            .count();
        if !complete && assigned == self.last_assigned {
            return TheoryResult::Ok;
        }
        self.last_assigned = assigned;
        self.bounds.clear();
        for (form, atom) in self.atoms.iter().enumerate() {
            if let Some(positive) = view.value(atom.var) {
                let (kind, bound) = atom.bound(positive);
                self.bounds.push(FormBound {
                    form,
                    bound,
                    kind,
                    id: atom.var,
                });
            }
        }
        let (atoms, cols) = (self.atoms, &mut *self.cols);
        let solved = self
            .simplex
            .try_solve(&self.bounds, |spx, i| atom_column(spx, atoms, cols, i));
        let conflict_ids = match solved {
            Ok(None) if complete => match self.simplex.try_model() {
                Ok(reals) => {
                    self.model = Some(reals);
                    return TheoryResult::Ok;
                }
                Err(RatOverflow) => {
                    self.halt = Some(HaltCause::Overflow);
                    return TheoryResult::Halt;
                }
            },
            Ok(ids) => ids,
            Err(halt) => {
                self.halt = Some(halt.into());
                return TheoryResult::Halt;
            }
        };
        if let Some(ids) = conflict_ids {
            self.conflicts += 1;
            let asserted: Vec<Lit> = ids
                .iter()
                .map(|&v| view.asserted_lit(v).expect("conflict ids are asserted"))
                .collect();
            return TheoryResult::Conflict(asserted);
        }
        // Feasible partial set: propagate bound literals already decided
        // by the asserted interval of their linear form. Any feasible
        // point keeps each form within [l, u], so an unassigned atom
        // `expr ≤ c` is true whenever u ≤ c (premise: the atom asserting
        // u) and false whenever l > c (premise: the atom asserting l).
        let mut implied: Vec<(Lit, Vec<Lit>)> = Vec::new();
        for (i, atom) in self.atoms.iter().enumerate() {
            if view.value(atom.var).is_some() {
                continue;
            }
            let Ok(col) = atom_column(self.simplex, self.atoms, self.cols, i) else {
                // A failed resolution allocates variable columns at most,
                // so the tableau stays consistent: halting is enough.
                self.halt = Some(HaltCause::Overflow);
                return TheoryResult::Halt;
            };
            let (_, atom_bound) = atom.bound(true);
            let (lower, upper) = self.simplex.asserted_bounds_at(col);
            if let Some((u, uid)) = upper {
                if u <= atom_bound {
                    let premise = view.asserted_lit(uid).expect("bound ids are asserted");
                    implied.push((Lit::pos(atom.var), vec![premise]));
                    continue;
                }
            }
            if let Some((l, lid)) = lower {
                if l > atom_bound {
                    let premise = view.asserted_lit(lid).expect("bound ids are asserted");
                    implied.push((Lit::neg(atom.var), vec![premise]));
                }
            }
        }
        if implied.is_empty() {
            TheoryResult::Ok
        } else {
            TheoryResult::Implied(implied)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula;

    fn sat(s: &mut Solver) -> Model {
        match s.check() {
            CheckOutcome::Sat(m) => m,
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn optimal(outcome: OmtOutcome) -> (f64, Model) {
        match outcome {
            OmtOutcome::Optimal { value, model } => (value, model),
            other => panic!("expected an optimum, got {other:?}"),
        }
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
    fn linear_system_solved() {
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).eq(10));
        s.assert_formula(LinExpr::var(x).minus(&LinExpr::var(y)).eq(4));
        let m = sat(&mut s);
        assert!((m.real(x) - 7.0).abs() < 1e-9);
        assert!((m.real(y) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn theory_conflict_forces_boolean_backtrack() {
        let mut s = Solver::new();
        let x = s.new_real();
        let p = s.new_bool();
        // p -> x >= 5;  !p -> x >= 7;  x <= 6. Must pick p.
        s.assert_formula(Formula::implies(Formula::Bool(p), LinExpr::var(x).ge(5)));
        s.assert_formula(Formula::implies(
            Formula::not(Formula::Bool(p)),
            LinExpr::var(x).ge(7),
        ));
        s.assert_formula(LinExpr::var(x).le(6));
        let m = sat(&mut s);
        assert!(m.bool(p));
        assert!(m.real(x) >= 5.0 - 1e-9 && m.real(x) <= 6.0 + 1e-9);
    }

    #[test]
    fn unsat_conjunction() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(5));
        s.assert_formula(LinExpr::var(x).le(4));
        assert!(matches!(s.check(), CheckOutcome::Unsat));
    }

    #[test]
    fn disjunction_of_regions() {
        let mut s = Solver::new();
        let x = s.new_real();
        // (x <= -10 or x >= 10) and -5 <= x <= 15  => x in [10, 15].
        s.assert_formula(Formula::or([
            LinExpr::var(x).le(-10),
            LinExpr::var(x).ge(10),
        ]));
        s.assert_formula(LinExpr::var(x).ge(-5));
        s.assert_formula(LinExpr::var(x).le(15));
        let m = sat(&mut s);
        assert!(m.real(x) >= 10.0 - 1e-9 && m.real(x) <= 15.0 + 1e-9);
    }

    #[test]
    fn strict_inequalities() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).gt(0));
        s.assert_formula(LinExpr::var(x).lt(1));
        let m = sat(&mut s);
        let v = m.real(x);
        assert!(v > 0.0 && v < 1.0, "witness {v}");
    }

    #[test]
    fn strict_contradiction_unsat() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).gt(3));
        s.assert_formula(LinExpr::var(x).le(3));
        assert!(matches!(s.check(), CheckOutcome::Unsat));
    }

    #[test]
    fn negated_equality_splits() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(Formula::not(LinExpr::var(x).eq(5)));
        s.assert_formula(LinExpr::var(x).ge(5));
        s.assert_formula(LinExpr::var(x).le(6));
        let m = sat(&mut s);
        assert!(m.real(x) > 5.0 && m.real(x) <= 6.0 + 1e-9);
    }

    #[test]
    fn maximize_simple_lp() {
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).le(4));
        s.assert_formula(LinExpr::var(y).le(3));
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(y).ge(0));
        let obj = LinExpr::var(x).plus(&LinExpr::var(y));
        let (v, m) = optimal(s.maximize(&obj, 0.0, 100.0, 1e-3));
        assert!((v - 7.0).abs() < 0.01, "max {v}");
        assert!((m.real(x) - 4.0).abs() < 0.01);
    }

    #[test]
    fn maximize_with_boolean_choice() {
        // Choosing p gives reward 10, else 3; p forces cost x >= 8 <= budget.
        let mut s = Solver::new();
        let p = s.new_bool();
        let x = s.new_real();
        let reward = s.new_real();
        s.assert_formula(Formula::implies(
            Formula::Bool(p),
            Formula::and([LinExpr::var(reward).eq(10), LinExpr::var(x).ge(8)]),
        ));
        s.assert_formula(Formula::implies(
            Formula::not(Formula::Bool(p)),
            Formula::and([LinExpr::var(reward).eq(3), LinExpr::var(x).eq(0)]),
        ));
        s.assert_formula(LinExpr::var(x).le(9));
        let (v, m) = optimal(s.maximize(&LinExpr::var(reward), 0.0, 20.0, 1e-3));
        assert!((v - 10.0).abs() < 0.01);
        assert!(m.bool(p));
    }

    #[test]
    fn maximize_infeasible_returns_unsat() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(1));
        s.assert_formula(LinExpr::var(x).le(0));
        assert!(matches!(
            s.maximize(&LinExpr::var(x), 0.0, 10.0, 1e-3),
            OmtOutcome::Unsat
        ));
    }

    #[test]
    fn maximize_stale_hi_returns_base_model() {
        // The caller's bracket tops out below the feasible region: the
        // contract is to return the base model untouched — the reported
        // objective exceeds `hi` rather than being silently clamped.
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(10));
        s.assert_formula(LinExpr::var(x).le(12));
        let (v, m) = optimal(s.maximize(&LinExpr::var(x), 0.0, 5.0, 1e-3));
        assert!(v >= 10.0 - 1e-9, "base objective {v}");
        assert!(v > 5.0, "objective must be allowed to exceed the stale hi");
        assert!(m.real(x) >= 10.0 - 1e-9);
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
    fn pivot_budget_halts_check_without_poisoning() {
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).eq(10));
        s.assert_formula(LinExpr::var(x).minus(&LinExpr::var(y)).eq(4));
        s.set_budget(Budget {
            max_pivots: Some(0),
            ..Budget::UNLIMITED
        });
        assert!(matches!(s.check(), CheckOutcome::Halted(HaltCause::Pivots)));
        // A pivot-budget halt lands between pivots: no poison, and the
        // same solver finishes once the budget is lifted.
        s.set_budget(Budget::UNLIMITED);
        let m = match s.check() {
            CheckOutcome::Sat(m) => m,
            other => panic!("expected sat after lifting the budget, got {other:?}"),
        };
        assert!((m.real(x) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn probe_budget_degrades_to_base_model() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(4));
        s.set_budget(Budget {
            max_probes: Some(0),
            ..Budget::UNLIMITED
        });
        match s.maximize(&LinExpr::var(x), 0.0, 100.0, 1e-3) {
            OmtOutcome::Degraded { value, cause, .. } => {
                assert_eq!(cause, HaltCause::Probes);
                assert!(value <= 4.0 + 1e-9, "best-so-far stays feasible: {value}");
            }
            other => panic!("expected degraded best-so-far, got {other:?}"),
        }
        s.set_budget(Budget::UNLIMITED);
        let (v, _) = optimal(s.maximize(&LinExpr::var(x), 0.0, 100.0, 1e-3));
        assert!((v - 4.0).abs() < 0.01);
    }

    #[test]
    fn maximize_twice_under_push_pop() {
        // After a push/maximize/pop round-trip the solver must answer a
        // different objective exactly like a fresh solver would.
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(4));
        s.assert_formula(LinExpr::var(y).ge(0));
        s.assert_formula(LinExpr::var(y).le(3));

        s.push();
        let (vx, _) = optimal(s.maximize(&LinExpr::var(x), 0.0, 100.0, 1e-3));
        s.pop();
        s.push();
        let (vy, _) = optimal(s.maximize(&LinExpr::var(y), 0.0, 100.0, 1e-3));
        s.pop();
        assert!((vx - 4.0).abs() < 0.01, "x max {vx}");
        assert!((vy - 3.0).abs() < 0.01, "y max {vy}");
        // And the un-popped assertions still admit both corners.
        let m = sat(&mut s);
        assert!(m.real(x) <= 4.0 + 1e-9 && m.real(y) <= 3.0 + 1e-9);
    }

    #[test]
    fn push_pop_restores_assertions_and_variables() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(10));
        s.push();
        let y = s.new_real();
        let p = s.new_bool();
        s.assert_formula(Formula::implies(Formula::Bool(p), LinExpr::var(y).ge(100)));
        s.assert_formula(Formula::Bool(p));
        s.assert_formula(LinExpr::var(x).ge(7));
        let m = sat(&mut s);
        assert!(m.real(x) >= 7.0 - 1e-9);
        assert!(m.real(y) >= 100.0 - 1e-9);
        s.pop();
        // Pushed lower bound is gone; x can sit at 0 again.
        s.assert_formula(LinExpr::var(x).le(3));
        let m = sat(&mut s);
        assert!(m.real(x) <= 3.0 + 1e-9);
    }

    #[test]
    fn check_assuming_guard_literals() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(10));
        let g = Lit::pos(s.enc.sat.new_var());
        let bound = s.enc.encode(&LinExpr::var(x).ge(8));
        s.enc.sat.add_clause(&[g.negated(), bound]);
        let CheckOutcome::Sat(m) = s.check_assuming(&[g]) else {
            panic!("sat under guard")
        };
        assert!(m.real(x) >= 8.0 - 1e-9);
        // Without the guard the bound is not enforced.
        let m = sat(&mut s);
        assert!(m.real(x) >= -1e-9);
    }

    #[test]
    fn numeric_modes_agree_and_mode_survives_pop() {
        // The float fast path must reproduce the exact path bit for bit:
        // same models, same pivot counts; and the mode knob plus the
        // effort counters survive a push/pop round-trip.
        let mut fast = Solver::new();
        let mut exact = Solver::new();
        exact.set_numeric_mode(NumericMode::ExactOnly);
        for s in [&mut fast, &mut exact] {
            let x = s.new_real();
            let y = s.new_real();
            s.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).ge(5));
            s.assert_formula(LinExpr::var(x).le(3));
            s.assert_formula(LinExpr::var(y).le(3));
        }
        let mf = sat(&mut fast);
        let me = sat(&mut exact);
        assert_eq!(mf.real_exact(RealVar(0)), me.real_exact(RealVar(0)));
        assert_eq!(mf.real_exact(RealVar(1)), me.real_exact(RealVar(1)));
        let (sf, se) = (fast.simplex_stats(), exact.simplex_stats());
        assert_eq!(sf.pivots, se.pivots, "modes must pivot identically");
        assert!(sf.pivots > 0, "instance must exercise pivoting");
        assert_eq!(sf.float_pivots, sf.pivots);
        assert_eq!(se.float_pivots, 0);

        let before = exact.simplex_stats();
        exact.push();
        let x = RealVar(0);
        exact.assert_formula(LinExpr::var(x).ge(1));
        sat(&mut exact);
        exact.pop();
        assert_eq!(exact.numeric_mode(), NumericMode::ExactOnly);
        assert!(exact.simplex_stats().pivots >= before.pivots);
    }

    #[test]
    fn hull_membership_style_constraints() {
        // Triangle (0,0)-(4,0)-(2,4) as half-planes over (a, b); point
        // inside must exist with b maximized at 4.
        let mut s = Solver::new();
        let a = s.new_real();
        let b = s.new_real();
        // y >= 0: -b <= 0
        s.assert_formula(LinExpr::var(b).ge(0));
        // right edge: from (4,0) to (2,4): 2x + y <= 8
        s.assert_formula(LinExpr::term(2, a).plus(&LinExpr::var(b)).le(8));
        // left edge: from (2,4) to (0,0): -2x + y <= 0
        s.assert_formula(LinExpr::term(-2, a).plus(&LinExpr::var(b)).le(0));
        let (v, m) = optimal(s.maximize(&LinExpr::var(b), 0.0, 10.0, 1e-4));
        assert!((v - 4.0).abs() < 0.01, "max y = {v}");
        assert!((m.real(a) - 2.0).abs() < 0.1);
    }
}
