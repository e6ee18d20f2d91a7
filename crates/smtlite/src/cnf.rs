//! Translation from [`Formula`] to CNF over the CDCL solver's variables.
//!
//! An asserted formula's top-level structure becomes clauses directly
//! ([`Encoder::assert_formula`]): conjunctions split, a disjunction or a
//! negated conjunction is one clause, and `a → b` is `¬a ∨ b`. Only
//! subformulas nested below that get a Tseitin variable.

use crate::ast::{BoolVar, Formula};
use crate::sat::{Lit, SatSolver};

/// Undo record for [`Encoder::pop`]: Boolean variables first encoded
/// since the matching push (the SAT-level state is checkpointed by
/// `SatSolver`'s own frame).
#[derive(Debug, Default, Clone)]
struct EncFrame {
    added_bools: Vec<usize>,
    lit_true: Option<Lit>,
}

/// Incremental CNF encoder: owns the SAT solver and maps user Boolean
/// variables to SAT variables.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    /// The underlying CDCL solver.
    pub sat: SatSolver,
    /// SAT variable per user-facing Boolean variable, indexed by
    /// [`BoolVar`] (`None` until first encoded).
    bool_vars: Vec<Option<usize>>,
    /// Cached constant-true literal.
    lit_true: Option<Lit>,
    /// Assertion-trail checkpoints mirroring `sat`'s frames.
    frames: Vec<EncFrame>,
}

impl Encoder {
    /// Checkpoints the variable map and the underlying SAT solver.
    pub(crate) fn push(&mut self) {
        self.sat.push();
        self.frames.push(EncFrame {
            added_bools: Vec::new(),
            lit_true: self.lit_true,
        });
    }

    /// Restores the variable map and SAT solver to the matching push.
    pub(crate) fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without matching push");
        for b in f.added_bools {
            self.bool_vars[b] = None;
        }
        self.lit_true = f.lit_true;
        self.sat.pop();
    }

    /// The literal fixed to true.
    pub fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.lit_true {
            return l;
        }
        let v = self.sat.new_var();
        let l = Lit::pos(v);
        self.sat.add_clause(&[l]);
        self.lit_true = Some(l);
        l
    }

    /// SAT variable backing a user Boolean variable.
    pub fn bool_sat_var(&mut self, b: BoolVar) -> usize {
        let i = b.index();
        if let Some(&Some(v)) = self.bool_vars.get(i) {
            return v;
        }
        let v = self.sat.new_var();
        if i >= self.bool_vars.len() {
            self.bool_vars.resize(i + 1, None);
        }
        self.bool_vars[i] = Some(v);
        if let Some(f) = self.frames.last_mut() {
            f.added_bools.push(i);
        }
        v
    }

    /// The SAT value of a user Boolean variable in a model, if allocated.
    pub fn bool_value(&self, b: BoolVar, model: &[bool]) -> Option<bool> {
        self.bool_vars
            .get(b.index())
            .copied()
            .flatten()
            .map(|v| model[v])
    }

    /// Encodes a formula to a literal equisatisfiable with it.
    pub fn encode(&mut self, f: &Formula) -> Lit {
        match f {
            Formula::True => self.true_lit(),
            Formula::False => self.true_lit().negated(),
            Formula::Bool(b) => Lit::pos(self.bool_sat_var(*b)),
            Formula::Not(g) => self.encode(g).negated(),
            Formula::And(gs) => {
                let lits: Vec<Lit> = gs.iter().map(|g| self.encode(g)).collect();
                self.tseitin_and(&lits)
            }
            Formula::Or(gs) => {
                let lits: Vec<Lit> = gs.iter().map(|g| self.encode(g)).collect();
                self.tseitin_and(&lits.iter().map(|l| l.negated()).collect::<Vec<_>>())
                    .negated()
            }
            Formula::Implies(a, b) => {
                let la = self.encode(a).negated();
                let lb = self.encode(b);
                self.tseitin_and(&[la.negated(), lb.negated()]).negated()
            }
        }
    }

    /// `y <-> AND(lits)` via fresh `y`.
    fn tseitin_and(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.true_lit(),
            1 => lits[0],
            _ => {
                let y = Lit::pos(self.sat.new_var());
                for &l in lits {
                    self.sat.add_clause(&[y.negated(), l]);
                }
                let mut big: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
                big.push(y);
                self.sat.add_clause(&big);
                y
            }
        }
    }

    /// Asserts a formula, turning its top-level structure into clauses
    /// without Tseitin variables: a conjunction asserts each conjunct, a
    /// disjunction or a negated conjunction is one clause, and `a → b` is
    /// `¬a ∨ b` (asserted like `b`, so a conjunction there gives one
    /// clause per conjunct). Anything nested below that is encoded by
    /// [`Encoder::encode`].
    pub fn assert_formula(&mut self, f: &Formula) {
        self.assert_clause(&mut Vec::new(), f);
    }

    /// Asserts `prefix ∨ f`, where `prefix` holds literals already in
    /// the clause (the negated premises of enclosing implications).
    fn assert_clause(&mut self, prefix: &mut Vec<Lit>, f: &Formula) {
        let lits: Vec<Lit> = match f {
            Formula::And(gs) => {
                for g in gs {
                    self.assert_clause(prefix, g);
                }
                return;
            }
            Formula::Implies(a, b) => {
                let premise = self.encode(a).negated();
                prefix.push(premise);
                self.assert_clause(prefix, b);
                prefix.pop();
                return;
            }
            Formula::Or(gs) => gs.iter().map(|g| self.encode(g)).collect(),
            Formula::Not(g) => match &**g {
                Formula::And(gs) => gs.iter().map(|g| self.encode(g).negated()).collect(),
                g => vec![self.encode(g).negated()],
            },
            f => vec![self.encode(f)],
        };
        let clause: Vec<Lit> = prefix.iter().copied().chain(lits).collect();
        self.sat.add_clause(&clause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatVerdict;

    #[test]
    fn and_of_bools_sat() {
        let mut enc = Encoder::default();
        let a = BoolVar(0);
        let b = BoolVar(1);
        enc.assert_formula(&Formula::and([Formula::Bool(a), Formula::Bool(b)]));
        let SatVerdict::Sat(m) = enc.sat.solve(&[], None) else {
            panic!()
        };
        assert_eq!(enc.bool_value(a, &m), Some(true));
        assert_eq!(enc.bool_value(b, &m), Some(true));
    }

    #[test]
    fn contradiction_unsat() {
        let mut enc = Encoder::default();
        let a = BoolVar(0);
        enc.assert_formula(&Formula::Bool(a));
        enc.assert_formula(&Formula::not(Formula::Bool(a)));
        assert_eq!(enc.sat.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn exactly_one_enforced() {
        let mut enc = Encoder::default();
        let vars = [BoolVar(0), BoolVar(1), BoolVar(2)];
        enc.assert_formula(&Formula::exactly_one(&vars));
        let SatVerdict::Sat(m) = enc.sat.solve(&[], None) else {
            panic!()
        };
        let on = vars
            .iter()
            .filter(|&&v| enc.bool_value(v, &m) == Some(true))
            .count();
        assert_eq!(on, 1);
    }
}
