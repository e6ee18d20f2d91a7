//! `smtlite` — a from-scratch CDCL(T) solver for Boolean formulas with a
//! pseudo-Boolean objective, the optimizer behind SHATTER's formal
//! attack synthesis.
//!
//! SHATTER (paper §IV) uses Z3 to find stealthy FDI attack vectors: each
//! attack window is an optimization-modulo-theories problem, the Eq. 17
//! objective over the Eq. 18 exactly-one slot choices under the
//! Eq. 19–20 stay constraints. In this reproduction every ADM constraint
//! reaches the solver as Boolean clauses compiled from the stay-bound
//! profiles, so the only arithmetic left is the objective: one weight
//! (a reward in integer micro-dollars) per chosen slot literal. This
//! crate decides that end to end:
//!
//! - [`ast`]: a formula AST over Boolean variables,
//! - [`sat`]: an *incremental* CDCL SAT solver (two-watched-literals,
//!   1UIP learning, VSIDS-style activity, Luby restarts) with
//!   assumption-based solving, retained learned clauses, an
//!   assertion-trail `push`/`pop` and a theory hook,
//! - [`objective`]: the pseudo-Boolean [`Objective`] — exactly-one
//!   groups of weighted literals — and the bound theory that enforces a
//!   probe `objective ≥ target` during the CDCL search,
//! - [`Solver`]: the facade tying them together, plus
//!   [`Solver::maximize`] — objective maximization by integer bisection
//!   run entirely inside one solver via guard assumptions (the OMT loop
//!   the attack scheduler calls).
//!
//! Budget exhaustion is a value, never a hang or a panic:
//! [`sat::SatSolver::solve`] returns [`sat::SatVerdict::Unknown`], and
//! [`Solver::check`] / [`Solver::maximize`] a [`HaltCause`].
//!
//! # Examples
//!
//! ```
//! use shatter_smt::ast::Formula;
//! use shatter_smt::{Objective, OmtOutcome, Solver};
//!
//! let mut solver = Solver::new();
//! // Two slots, each in exactly one of three zones; zone rewards differ
//! // per slot.
//! let slots: Vec<Vec<_>> = (0..2)
//!     .map(|_| (0..3).map(|_| solver.new_bool()).collect())
//!     .collect();
//! // Staying in zone 2 across both slots is not allowed.
//! solver.assert_formula(Formula::or([
//!     Formula::not(Formula::Bool(slots[0][2])),
//!     Formula::not(Formula::Bool(slots[1][2])),
//! ]));
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

pub mod ast;
mod budget;
mod cnf;
pub mod objective;
pub mod sat;
mod solver;

pub use budget::Budget;
pub use objective::Objective;
pub use sat::SatStats;
pub use solver::{CheckOutcome, HaltCause, Model, OmtOutcome, Solver};
