//! `smtlite` — a from-scratch SMT solver for quantifier-free linear real
//! arithmetic (QF_LRA) with Boolean structure, plus a linear-objective
//! optimizer.
//!
//! SHATTER's formal attack synthesis (paper §IV) uses Z3 to find stealthy
//! FDI attack vectors: Boolean occupancy/schedule structure constrained by
//! the convex-hull ADM clusters (conjunctions of linear half-planes,
//! Eq. 9–10) and the control-consistency equations (Eq. 13–15), maximizing
//! the energy-cost objective (Eq. 11/17). All of that is QF_LRA + Bool,
//! which this crate decides end to end:
//!
//! - [`ast`]: formula AST over Boolean variables and linear-rational atoms,
//! - [`Rat`]: exact `i128` rational arithmetic (no float drift in pivots),
//! - [`sat`]: an *incremental* CDCL SAT solver (two-watched-literals,
//!   1UIP learning, VSIDS-style activity, Luby restarts) with
//!   assumption-based solving, retained learned clauses and an
//!   assertion-trail `push`/`pop`,
//! - [`simplex`]: a Dutertre–de Moura general simplex for bound
//!   consistency of linear atoms, with infeasibility explanations and a
//!   persistent warm-started tableau,
//! - [`Solver`]: the lazy DPLL(T) loop tying them together, plus
//!   [`Solver::maximize`] — objective maximization by iterative
//!   strengthening run entirely inside one solver via guard assumptions
//!   (the OMT loop the attack scheduler calls).
//!
//! Each layer has one solve entry, and each reports budget exhaustion
//! and `i128` overflow as a value: [`sat::SatSolver::solve`] returns
//! [`sat::SatVerdict::Unknown`], [`simplex::Simplex::check`] a
//! [`SimplexHalt`], and [`Solver::check`] / [`Solver::maximize`] a
//! [`HaltCause`].
//!
//! # Examples
//!
//! ```
//! use shatter_smt::{ast::LinExpr, CheckOutcome, Solver};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_real();
//! let y = solver.new_real();
//! // x + y <= 4, x >= 1, y >= 2
//! solver.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).le(4));
//! solver.assert_formula(LinExpr::var(x).ge(1));
//! solver.assert_formula(LinExpr::var(y).ge(2));
//! let CheckOutcome::Sat(model) = solver.check() else {
//!     panic!("satisfiable")
//! };
//! let (xv, yv) = (model.real(x), model.real(y));
//! assert!(xv + yv <= 4.000001 && xv >= 0.999999 && yv >= 1.999999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod budget;
mod cnf;
mod hash;
mod rational;
pub mod sat;
pub mod simplex;
mod solver;

pub use budget::Budget;
pub use rational::{Rat, RatOverflow};
pub use sat::SatStats;
pub use simplex::{NumericMode, SimplexHalt, SimplexStats};
pub use solver::{CheckOutcome, HaltCause, Model, OmtOutcome, Solver};
