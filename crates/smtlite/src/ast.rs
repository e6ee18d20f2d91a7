//! Formula AST over Boolean variables.
//!
//! Formulas combine Boolean variables with the usual connectives; the
//! only arithmetic the solver knows is the pseudo-Boolean objective of
//! [`crate::Objective`].

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoolVar(pub(crate) usize);

impl BoolVar {
    /// The variable's index in its solver.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A quantifier-free formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
