//! Tseitin transformation from [`Formula`] to CNF over the CDCL solver's
//! variables, with a registry mapping theory atoms to propositional
//! variables (the "Boolean skeleton" of lazy SMT). Each atom is compiled
//! once, at registration, into the form the simplex consumes.

use crate::ast::{Atom, BoolVar, Formula, Rel};
use crate::hash::WordMap;
use crate::sat::{Lit, SatSolver};
use crate::simplex::{BoundKind, DeltaRat};
use crate::Rat;

/// A registered theory atom, compiled once at registration: the linear
/// form `Σ c·x` (constant folded out, sorted by variable) and the
/// right-hand side, so the atom reads `form ≤ rhs`, or `form < rhs` when
/// `strict`.
#[derive(Debug, Clone)]
pub(crate) struct TheoryAtom {
    /// The SAT variable standing for the atom.
    pub(crate) var: usize,
    pub(crate) form: Vec<(Rat, usize)>,
    pub(crate) rhs: Rat,
    pub(crate) strict: bool,
}

impl TheoryAtom {
    /// The simplex bound asserting the atom (`positive`) or its negation.
    pub(crate) fn bound(&self, positive: bool) -> (BoundKind, DeltaRat) {
        match (self.strict, positive) {
            // form <= rhs
            (false, true) => (BoundKind::Upper, DeltaRat::standard(self.rhs)),
            // ¬(form <= rhs)  =>  form > rhs
            (false, false) => (BoundKind::Lower, DeltaRat::plus_eps(self.rhs)),
            // form < rhs
            (true, true) => (BoundKind::Upper, DeltaRat::minus_eps(self.rhs)),
            // ¬(form < rhs)  =>  form >= rhs
            (true, false) => (BoundKind::Lower, DeltaRat::standard(self.rhs)),
        }
    }
}

/// Registry key of an atom: its compiled `(form, rhs, strict)`.
type AtomKey = (Vec<(Rat, usize)>, Rat, bool);

/// Undo record for [`Encoder::pop`]: registry entries added since the
/// matching push (the SAT-level state is checkpointed by `SatSolver`'s
/// own frame).
#[derive(Debug, Default, Clone)]
struct EncFrame {
    n_atoms: usize,
    added_bools: Vec<usize>,
    lit_true: Option<Lit>,
}

/// Incremental Tseitin encoder: owns the SAT solver and the atom registry.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    /// The underlying CDCL solver.
    pub sat: SatSolver,
    /// SAT variable per registered theory atom (Le/Lt only; Eq is split).
    atom_vars: WordMap<AtomKey, usize>,
    /// Registered atoms in registration order — a `Vec` so the
    /// theory-bound gathering in the DPLL(T) loop iterates
    /// deterministically (HashMap order would leak into simplex column
    /// allocation and conflict explanations, i.e. into the models).
    /// Crate-visible so the solver can borrow it alongside `sat` (the
    /// theory hook reads atoms while the CDCL core searches).
    pub(crate) atoms: Vec<TheoryAtom>,
    /// SAT variable per user-facing Boolean variable, indexed by
    /// [`BoolVar`] (`None` until first encoded).
    bool_vars: Vec<Option<usize>>,
    /// Cached constant-true literal.
    lit_true: Option<Lit>,
    /// Assertion-trail checkpoints mirroring `sat`'s frames.
    frames: Vec<EncFrame>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub(crate) fn new() -> Encoder {
        Encoder::default()
    }

    /// Checkpoints the registry and the underlying SAT solver.
    pub(crate) fn push(&mut self) {
        self.sat.push();
        self.frames.push(EncFrame {
            n_atoms: self.atoms.len(),
            added_bools: Vec::new(),
            lit_true: self.lit_true,
        });
    }

    /// Restores the registry and SAT solver to the matching push.
    pub(crate) fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without matching push");
        for a in self.atoms.drain(f.n_atoms..) {
            self.atom_vars.remove(&(a.form, a.rhs, a.strict));
        }
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

    /// SAT variable for a (Le/Lt) atom, compiling and registering it on
    /// first sight.
    fn atom_sat_var(&mut self, a: &Atom) -> usize {
        debug_assert!(a.op != Rel::Eq, "Eq atoms are split before encoding");
        // Σcx + k ⋈ 0  =>  Σcx ⋈ −k.
        let form = a.expr.coeffs.iter().map(|(x, c)| (*c, x.index())).collect();
        let key: AtomKey = (form, -a.expr.constant, a.op == Rel::Lt);
        if let Some(&v) = self.atom_vars.get(&key) {
            return v;
        }
        let v = self.sat.new_var();
        self.atoms.push(TheoryAtom {
            var: v,
            form: key.0.clone(),
            rhs: key.1,
            strict: key.2,
        });
        self.atom_vars.insert(key, v);
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
            Formula::Atom(a) => self.encode_atom(a),
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

    fn encode_atom(&mut self, a: &Atom) -> Lit {
        if a.expr.is_constant() {
            let k = a.expr.constant;
            let truth = match a.op {
                Rel::Le => k <= Rat::ZERO,
                Rel::Lt => k < Rat::ZERO,
                Rel::Eq => k == Rat::ZERO,
            };
            let t = self.true_lit();
            return if truth { t } else { t.negated() };
        }
        match a.op {
            Rel::Eq => {
                // e = 0  <=>  e <= 0  &  -e <= 0
                let le = Atom {
                    expr: a.expr.clone(),
                    op: Rel::Le,
                };
                let ge = Atom {
                    expr: a.expr.scaled(Rat::int(-1)),
                    op: Rel::Le,
                };
                let l1 = Lit::pos(self.atom_sat_var(&le));
                let l2 = Lit::pos(self.atom_sat_var(&ge));
                self.tseitin_and(&[l1, l2])
            }
            _ => Lit::pos(self.atom_sat_var(a)),
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

    /// Asserts a formula (encode + unit clause).
    pub fn assert_formula(&mut self, f: &Formula) {
        let l = self.encode(f);
        self.sat.add_clause(&[l]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LinExpr, RealVar};
    use crate::sat::SatVerdict;

    #[test]
    fn and_of_bools_sat() {
        let mut enc = Encoder::new();
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
        let mut enc = Encoder::new();
        let a = BoolVar(0);
        enc.assert_formula(&Formula::Bool(a));
        enc.assert_formula(&Formula::not(Formula::Bool(a)));
        assert_eq!(enc.sat.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn atoms_deduplicated() {
        let mut enc = Encoder::new();
        let x = RealVar(0);
        let f1 = LinExpr::var(x).le(3);
        let f2 = LinExpr::var(x).le(3);
        enc.assert_formula(&f1);
        enc.assert_formula(&f2);
        assert_eq!(enc.atoms.len(), 1);
    }

    #[test]
    fn eq_atom_splits_into_two_inequalities() {
        let mut enc = Encoder::new();
        let x = RealVar(0);
        enc.assert_formula(&LinExpr::var(x).eq(5));
        assert_eq!(enc.atoms.len(), 2);
    }

    #[test]
    fn constant_atoms_fold() {
        let mut enc = Encoder::new();
        enc.assert_formula(&LinExpr::constant(-1).le(0)); // trivially true
        assert!(matches!(enc.sat.solve(&[], None), SatVerdict::Sat(_)));
        enc.assert_formula(&LinExpr::constant(1).le(0)); // trivially false
        assert_eq!(enc.sat.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn exactly_one_enforced() {
        let mut enc = Encoder::new();
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
