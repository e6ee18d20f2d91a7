//! The pseudo-Boolean objective and the theory that enforces its probe
//! bounds.
//!
//! An [`Objective`] is a list of exactly-one groups of weighted Boolean
//! literals: a model picks one literal per group and scores its weight
//! (paper Eq. 17–18: one zone per slot, scored by the slot's reward).
//! [`crate::Solver::maximize`] asserts each group's exactly-one itself
//! and searches the objective with probes `objective ≥ target`, each
//! guarded by a fresh assumption literal. During a probe, the objective
//! theory (a [`crate::sat::Theory`]) bounds the objective from above by
//! the sum, over groups, of the largest weight among the group's literals
//! that are not false:
//!
//! - a bound below the target is a conflict, explained by the guard and
//!   the false literals that lowered a group's maximum;
//! - otherwise each literal whose weight cannot reach the target, given
//!   the other groups' bounds, is made false with the same kind of
//!   explanation.
//!
//! Every explanation names the guard, so each lemma reads "this probe's
//! bound fails under these literals" and stays valid for later probes.
//! All arithmetic is integer: weights are `i64` and sums `i128`.

use crate::sat::{Lit, Theory, TheoryResult, TheoryView};
use crate::solver::Model;
use crate::BoolVar;

/// A pseudo-Boolean objective: exactly-one groups of `(variable, weight)`
/// literals. A model's value is the sum of the weights of its true
/// literals, which under the groups' exactly-one constraints is one
/// weight per group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Objective {
    groups: Vec<Vec<(BoolVar, i64)>>,
}

impl Objective {
    /// An objective with no groups (value 0).
    pub fn new() -> Objective {
        Objective::default()
    }

    /// Adds an exactly-one group: every model of
    /// [`crate::Solver::maximize`] makes exactly one of its variables
    /// true and scores that literal's weight.
    pub fn add_group(&mut self, lits: impl IntoIterator<Item = (BoolVar, i64)>) {
        self.groups.push(lits.into_iter().collect());
    }

    /// The groups in insertion order.
    pub fn groups(&self) -> &[Vec<(BoolVar, i64)>] {
        &self.groups
    }

    /// The value of `model`: the sum of the weights of its true
    /// literals.
    pub fn value(&self, model: &Model) -> i128 {
        self.groups
            .iter()
            .flatten()
            .filter(|&&(b, _)| model.bool(b))
            .map(|&(_, w)| i128::from(w))
            .sum()
    }

    /// The sum of each group's largest weight: no model scores more.
    pub(crate) fn upper_bound(&self) -> i128 {
        self.groups
            .iter()
            .map(|g| g.iter().map(|&(_, w)| i128::from(w)).max().unwrap_or(0))
            .sum()
    }
}

/// The bound theory of one [`crate::Solver::maximize`] call: the
/// objective's groups over SAT variables, each sorted heaviest first, and
/// the active probe `guard → objective ≥ target`.
pub(crate) struct ObjectiveTheory {
    groups: Vec<Vec<(usize, i64)>>,
    guard: Lit,
    target: i128,
    /// Theory conflicts reported since construction.
    pub(crate) conflicts: u64,
    /// Per group: the index of its heaviest literal that is not false.
    heads: Vec<usize>,
}

impl ObjectiveTheory {
    /// The theory over `groups`, already mapped to SAT variables. The
    /// sort is stable, so equal weights keep the caller's order.
    pub(crate) fn new(mut groups: Vec<Vec<(usize, i64)>>) -> ObjectiveTheory {
        for g in &mut groups {
            g.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        }
        ObjectiveTheory {
            heads: Vec::with_capacity(groups.len()),
            groups,
            guard: Lit::pos(0),
            target: 0,
            conflicts: 0,
        }
    }

    /// Arms the probe `guard → objective ≥ target`; `guard` is a
    /// positive literal.
    pub(crate) fn probe(&mut self, guard: Lit, target: i128) {
        self.guard = guard;
        self.target = target;
    }

    /// The explanation of the bound with group `skip` left out
    /// (`usize::MAX` keeps every group): the guard, then per group the
    /// false literals heavier than its head, which lowered its maximum.
    fn reason(&self, skip: usize) -> Vec<Lit> {
        let mut reason = vec![self.guard];
        for (g, (group, &head)) in self.groups.iter().zip(&self.heads).enumerate() {
            if g != skip {
                reason.extend(group[..head].iter().map(|&(v, _)| Lit::neg(v)));
            }
        }
        reason
    }
}

impl Theory for ObjectiveTheory {
    fn consult(&mut self, view: TheoryView<'_>, complete: bool) -> TheoryResult {
        if view.value(self.guard.var()) != Some(true) {
            return TheoryResult::Ok;
        }
        let mut bound = 0i128;
        self.heads.clear();
        for group in &self.groups {
            // The solver consults only after propagation without a
            // conflict, so the group's asserted at-least-one clause keeps
            // a literal non-false.
            let head = group
                .iter()
                .position(|&(v, _)| view.value(v) != Some(false))
                .expect("every group keeps a non-false literal");
            bound += i128::from(group[head].1);
            self.heads.push(head);
        }
        if bound < self.target {
            self.conflicts += 1;
            return TheoryResult::Conflict(self.reason(usize::MAX));
        }
        if complete {
            return TheoryResult::Ok;
        }
        let mut implied = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            let head = self.heads[g];
            let rest = bound - i128::from(group[head].1);
            // Literals lighter than `floor` cannot reach the target; the
            // head always can, since `bound ≥ target`.
            let floor = self.target - rest;
            let lows: Vec<usize> = group[head + 1..]
                .iter()
                .filter(|&&(v, w)| i128::from(w) < floor && view.value(v).is_none())
                .map(|&(v, _)| v)
                .collect();
            if lows.is_empty() {
                continue;
            }
            let reason = self.reason(g);
            implied.extend(lows.into_iter().map(|v| (Lit::neg(v), reason.clone())));
        }
        if implied.is_empty() {
            TheoryResult::Ok
        } else {
            TheoryResult::Implied(implied)
        }
    }
}
