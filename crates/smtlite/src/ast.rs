//! Formula AST for QF_LRA with Boolean structure.
//!
//! Atoms are linear constraints `Σ cᵢ·xᵢ + k ⋈ 0` with `⋈ ∈ {≤, <, =}`;
//! `≥`, `>` are expressed by negating the expression. Formulas combine
//! atoms and Boolean variables with the usual connectives.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Rat, RatOverflow};

/// A real (rational-valued) theory variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RealVar(pub(crate) usize);

impl RealVar {
    /// The variable's index in its solver.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoolVar(pub(crate) usize);

impl BoolVar {
    /// The variable's index in its solver.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A linear expression `Σ cᵢ·xᵢ + k` over real variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficients per variable (zero coefficients removed).
    pub(crate) coeffs: BTreeMap<RealVar, Rat>,
    /// Constant term `k`.
    pub(crate) constant: Rat,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn constant(k: impl Into<Rat>) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: k.into(),
        }
    }

    /// The expression `x`.
    pub fn var(x: RealVar) -> LinExpr {
        LinExpr::term(Rat::ONE, x)
    }

    /// The expression `c·x`.
    pub fn term(c: impl Into<Rat>, x: RealVar) -> LinExpr {
        let c = c.into();
        let mut coeffs = BTreeMap::new();
        if !c.is_zero() {
            coeffs.insert(x, c);
        }
        LinExpr {
            coeffs,
            constant: Rat::ZERO,
        }
    }

    /// Builds `Σ cᵢ·xᵢ + k` from parts.
    pub fn sum(terms: impl IntoIterator<Item = (Rat, RealVar)>, k: impl Into<Rat>) -> LinExpr {
        let mut e = LinExpr::constant(k);
        for (c, x) in terms {
            e.add_term(c, x);
        }
        e
    }

    /// Adds `c·x` in place.
    pub fn add_term(&mut self, c: impl Into<Rat>, x: RealVar) {
        let c = c.into();
        if c.is_zero() {
            return;
        }
        let entry = self.coeffs.entry(x).or_insert(Rat::ZERO);
        *entry = *entry + c;
        if entry.is_zero() {
            self.coeffs.remove(&x);
        }
    }

    /// Returns `self + other`.
    pub fn plus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = out.constant + other.constant;
        for (&x, &c) in &other.coeffs {
            out.add_term(c, x);
        }
        out
    }

    /// Returns `self - other`.
    pub fn minus(&self, other: &LinExpr) -> LinExpr {
        self.plus(&other.scaled(Rat::int(-1)))
    }

    /// Returns `c · self`.
    pub fn scaled(&self, c: impl Into<Rat>) -> LinExpr {
        let c = c.into();
        if c.is_zero() {
            return LinExpr::constant(Rat::ZERO);
        }
        LinExpr {
            coeffs: self.coeffs.iter().map(|(&x, &v)| (x, v * c)).collect(),
            constant: self.constant * c,
        }
    }

    /// Evaluates under an assignment, or `Err(RatOverflow)` when a term
    /// or partial sum does not fit `i128`.
    pub fn eval(&self, assignment: &dyn Fn(RealVar) -> Rat) -> Result<Rat, RatOverflow> {
        self.coeffs.iter().try_fold(self.constant, |v, (&x, &c)| {
            v.try_add(c.try_mul(assignment(x))?)
        })
    }

    /// True when the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The atom `self ≤ k`.
    pub fn le(&self, k: impl Into<Rat>) -> Formula {
        Formula::Atom(Atom {
            expr: self.minus(&LinExpr::constant(k)),
            op: Rel::Le,
        })
    }

    /// The atom `self < k`.
    pub fn lt(&self, k: impl Into<Rat>) -> Formula {
        Formula::Atom(Atom {
            expr: self.minus(&LinExpr::constant(k)),
            op: Rel::Lt,
        })
    }

    /// The atom `self ≥ k`.
    pub fn ge(&self, k: impl Into<Rat>) -> Formula {
        // e >= k  <=>  -(e - k) <= 0
        Formula::Atom(Atom {
            expr: self.minus(&LinExpr::constant(k)).scaled(Rat::int(-1)),
            op: Rel::Le,
        })
    }

    /// The atom `self > k`.
    pub fn gt(&self, k: impl Into<Rat>) -> Formula {
        Formula::Atom(Atom {
            expr: self.minus(&LinExpr::constant(k)).scaled(Rat::int(-1)),
            op: Rel::Lt,
        })
    }

    /// The atom `self = k`.
    pub fn eq(&self, k: impl Into<Rat>) -> Formula {
        Formula::Atom(Atom {
            expr: self.minus(&LinExpr::constant(k)),
            op: Rel::Eq,
        })
    }
}

/// Relational operator of an atom (`expr ⋈ 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `expr ≤ 0`.
    Le,
    /// `expr < 0`.
    Lt,
    /// `expr = 0`.
    Eq,
}

/// A linear-arithmetic atom `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Relation against zero.
    pub op: Rel,
}

/// A quantifier-free formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A linear-arithmetic atom.
    Atom(Atom),
    /// A propositional variable.
    Bool(BoolVar),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction helper that flattens trivial cases.
    pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let v: Vec<Formula> = fs.into_iter().collect();
        match v.len() {
            0 => Formula::True,
            1 => v.into_iter().next().expect("len checked"),
            _ => Formula::And(v),
        }
    }

    /// Disjunction helper that flattens trivial cases.
    pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let v: Vec<Formula> = fs.into_iter().collect();
        match v.len() {
            0 => Formula::False,
            1 => v.into_iter().next().expect("len checked"),
            _ => Formula::Or(v),
        }
    }

    /// Implication helper.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// "Exactly one of the given Booleans" — the paper's Eq. 18 pattern
    /// (each occupant is in exactly one zone per slot). Pairwise encoding.
    pub fn exactly_one(vars: &[BoolVar]) -> Formula {
        let mut parts = vec![Formula::or(vars.iter().map(|&v| Formula::Bool(v)))];
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                parts.push(Formula::or([
                    Formula::not(Formula::Bool(vars[i])),
                    Formula::not(Formula::Bool(vars[j])),
                ]));
            }
        }
        Formula::and(parts)
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Eq => "=",
        })
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (x, c) in &self.coeffs {
            if first {
                write!(f, "{c}*x{}", x.0)?;
                first = false;
            } else {
                write!(f, " + {c}*x{}", x.0)?;
            }
        }
        if !self.constant.is_zero() || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_algebra() {
        let x = RealVar(0);
        let y = RealVar(1);
        let e = LinExpr::term(2, x).plus(&LinExpr::term(3, y));
        let f = e.minus(&LinExpr::term(2, x));
        assert_eq!(f.coeffs.len(), 1);
        assert_eq!(f.coeffs[&y], Rat::int(3));
    }

    #[test]
    fn zero_coefficients_removed() {
        let x = RealVar(0);
        let mut e = LinExpr::term(5, x);
        e.add_term(-5, x);
        assert!(e.is_constant());
    }

    #[test]
    fn eval_expression() {
        let x = RealVar(0);
        let y = RealVar(1);
        let e = LinExpr::sum([(Rat::int(2), x), (Rat::int(-1), y)], 7);
        let v = e.eval(&|v| if v == x { Rat::int(3) } else { Rat::int(4) });
        assert_eq!(v, Ok(Rat::int(9)));
    }

    #[test]
    fn eval_reports_overflow() {
        let x = RealVar(0);
        let big = Rat::int(10i128.pow(20));
        let e = LinExpr::term(big, x);
        assert_eq!(e.eval(&|_| Rat::int(10i128.pow(19))), Err(RatOverflow));
        // A partial sum that leaves the range overflows too.
        let e = LinExpr::sum([(Rat::int(i128::MAX - 1), x)], 2);
        assert_eq!(e.eval(&|_| Rat::ONE), Err(RatOverflow));
    }

    #[test]
    fn ge_is_negated_le() {
        let x = RealVar(0);
        let f = LinExpr::var(x).ge(5);
        let Formula::Atom(a) = f else { panic!() };
        // -(x - 5) <= 0  =>  -x + 5 <= 0
        assert_eq!(a.op, Rel::Le);
        assert_eq!(a.expr.coeffs[&x], Rat::int(-1));
        assert_eq!(a.expr.constant, Rat::int(5));
    }

    #[test]
    fn connective_helpers_flatten() {
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::or([]), Formula::False);
        let b = BoolVar(0);
        assert_eq!(Formula::and([Formula::Bool(b)]), Formula::Bool(b));
    }

    #[test]
    fn exactly_one_structure() {
        let vars = [BoolVar(0), BoolVar(1), BoolVar(2)];
        let f = Formula::exactly_one(&vars);
        let Formula::And(parts) = f else { panic!() };
        // 1 at-least-one clause + 3 pairwise exclusions.
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn display_smoke() {
        let x = RealVar(0);
        let e = LinExpr::term(2, x);
        assert_eq!(e.to_string(), "2*x0");
        assert_eq!(LinExpr::constant(3).to_string(), "3");
    }
}
