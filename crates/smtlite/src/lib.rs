//! `smtlite` — a from-scratch CDCL(T) solver for clauses with a
//! pseudo-Boolean objective, the optimizer behind SHATTER's formal
//! attack synthesis.
//!
//! SHATTER (paper §IV) uses Z3 to find stealthy FDI attack vectors: each
//! attack window is an optimization-modulo-theories problem, the Eq. 17
//! objective over the Eq. 18 exactly-one slot choices under the
//! Eq. 19–20 stay constraints. In this reproduction every ADM constraint
//! reaches the solver as a clause over the slot×zone Booleans compiled
//! from the stay-bound profiles, so the only arithmetic left is the
//! objective: one weight (a reward in integer micro-dollars) per chosen
//! slot literal. This crate decides that end to end:
//!
//! - [`sat`]: an *incremental* CDCL SAT solver (two-watched-literals,
//!   1UIP learning, VSIDS-style activity, Luby restarts) with
//!   assumption-based solving, retained learned clauses, a theory hook
//!   and allocation-reusing copies (`clone_from`),
//! - [`objective`]: the pseudo-Boolean [`Objective`] — exactly-one
//!   groups of weighted literals — and the bound theory that enforces a
//!   probe `objective ≥ target` during the CDCL search,
//! - [`Solver`]: the facade tying them together — [`BoolVar`]s are the
//!   CDCL core's variables and [`Solver::add_clause`] asserts clauses
//!   over their literals — plus [`Solver::maximize`]: objective
//!   maximization by integer bisection run entirely inside one solver via
//!   guard assumptions (the OMT loop the attack scheduler calls).
//!
//! Budget exhaustion is a value, never a hang or a panic:
//! [`sat::SatSolver::solve`] returns [`sat::SatVerdict::Unknown`], and
//! [`Solver::check`] / [`Solver::maximize`] a [`HaltCause`].
//!
//! # Examples
//!
//! ```
//! use shatter_smt::{Objective, OmtOutcome, Solver};
//!
//! let mut solver = Solver::new();
//! // Two slots, each in exactly one of three zones; zone rewards differ
//! // per slot.
//! let slots: Vec<Vec<_>> = (0..2)
//!     .map(|_| (0..3).map(|_| solver.new_bool()).collect())
//!     .collect();
//! // Staying in zone 2 across both slots is not allowed.
//! solver.add_clause(&[slots[0][2].lit().negated(), slots[1][2].lit().negated()]);
//! let mut objective = Objective::new();
//! objective.add_group(slots[0].iter().copied().zip([1, 4, 9]));
//! objective.add_group(slots[1].iter().copied().zip([2, 8, 7]));
//! let OmtOutcome::Optimal { value, model } = solver.maximize(&objective) else {
//!     panic!("satisfiable and unbudgeted")
//! };
//! assert_eq!(value, 9 + 8);
//! assert!(model.bool(slots[0][2]) && model.bool(slots[1][1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
pub mod objective;
pub mod sat;
mod solver;

pub use budget::Budget;
pub use objective::Objective;
pub use sat::SatStats;
pub use solver::{CheckOutcome, HaltCause, Model, OmtOutcome, Solver};

/// A propositional variable: the index of a CDCL-core variable,
/// allocated by [`Solver::new_bool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoolVar(pub(crate) usize);

impl BoolVar {
    /// The variable's index in its solver.
    pub fn index(self) -> usize {
        self.0
    }

    /// The literal asserting this variable true; its
    /// [`sat::Lit::negated`] asserts it false.
    pub fn lit(self) -> sat::Lit {
        sat::Lit::pos(self.0)
    }
}
