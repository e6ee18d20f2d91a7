//! Property-based tests for the solver stack: random instances
//! cross-checked against brute force / direct reasoning.

use proptest::prelude::*;
use proptest::TestRng;

use shatter_smt::sat::{Lit, SatSolver, SatVerdict};
use shatter_smt::{BoolVar, Budget, CheckOutcome, HaltCause, Model, Objective, OmtOutcome, Solver};

// ---------- SAT layer -----------------------------------------------------

fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (3usize..9).prop_flat_map(|n| {
        let clause = prop::collection::vec((1..=n as i32, any::<bool>()), 1..4).prop_map(|lits| {
            lits.into_iter()
                .map(|(v, s)| if s { v } else { -v })
                .collect::<Vec<i32>>()
        });
        (Just(n), prop::collection::vec(clause, 1..30))
    })
}

fn brute_force_sat(n: usize, clauses: &[Vec<i32>]) -> bool {
    (0..1u32 << n).any(|mask| {
        clauses.iter().all(|c| {
            c.iter().any(|&l| {
                let v = l.unsigned_abs() - 1;
                ((mask >> v) & 1 == 1) == (l > 0)
            })
        })
    })
}

/// A solver over `n` variables holding `clauses` (DIMACS-style literals).
fn sat_solver(n: usize, clauses: &[Vec<i32>]) -> SatSolver {
    let mut s = SatSolver::new();
    for _ in 0..n {
        s.new_var();
    }
    for c in clauses {
        let lits: Vec<Lit> = c.iter().map(|&l| dimacs_lit(l)).collect();
        s.add_clause(&lits);
    }
    s
}

/// Whether `model` satisfies clause `c`.
fn satisfies(model: &[bool], c: &[i32]) -> bool {
    c.iter()
        .any(|&l| (l > 0) == model[(l.unsigned_abs() - 1) as usize])
}

fn dimacs_lit(l: i32) -> Lit {
    let v = (l.unsigned_abs() - 1) as usize;
    if l > 0 {
        Lit::pos(v)
    } else {
        Lit::neg(v)
    }
}

proptest! {
    #[test]
    fn cdcl_agrees_with_brute_force((n, clauses) in arb_cnf()) {
        let mut s = sat_solver(n, &clauses);
        let expected = brute_force_sat(n, &clauses);
        match s.solve(&[], None) {
            SatVerdict::Sat(model) => {
                prop_assert!(expected, "solver SAT, brute force UNSAT");
                for c in &clauses {
                    prop_assert!(satisfies(&model, c), "model violates clause {c:?}");
                }
            }
            SatVerdict::Unsat => prop_assert!(!expected, "solver UNSAT, brute force SAT"),
            SatVerdict::Unknown => prop_assert!(false, "unbudgeted solve returned Unknown"),
        }
    }

    /// Alternating solves under a probe literal and under its negation,
    /// the way the OMT loop probes one solver: clauses learned under one
    /// assumption carry into the next solve, and every verdict must still
    /// match brute force over the clauses plus that assumption, with any
    /// model satisfying both.
    #[test]
    fn alternating_probe_solves_agree_with_brute_force(
        (n, clauses) in arb_cnf(),
        probe_var in 1i32..9,
        polarity in any::<bool>(),
    ) {
        let probe_var = (probe_var - 1) % n as i32 + 1;
        let probe = if polarity { probe_var } else { -probe_var };
        let mut s = sat_solver(n, &clauses);
        for assumption in [probe, -probe, probe, -probe] {
            let mut with_unit = clauses.clone();
            with_unit.push(vec![assumption]);
            let expected = brute_force_sat(n, &with_unit);
            match s.solve(&[dimacs_lit(assumption)], None) {
                SatVerdict::Sat(model) => {
                    prop_assert!(expected, "SAT under {assumption}, brute force UNSAT");
                    for c in &with_unit {
                        prop_assert!(
                            satisfies(&model, c),
                            "model under {assumption} violates clause {c:?}"
                        );
                    }
                }
                SatVerdict::Unsat => {
                    prop_assert!(!expected, "UNSAT under {assumption}, brute force SAT");
                }
                SatVerdict::Unknown => prop_assert!(false, "unbudgeted solve returned Unknown"),
            }
        }
    }
}

// ---------- OMT over the pseudo-Boolean objective ----------------------------

/// The model of a satisfiable check, `None` when unsatisfiable; these
/// unbudgeted instances never halt.
fn model(outcome: CheckOutcome) -> Option<Model> {
    match outcome {
        CheckOutcome::Sat(m) => Some(m),
        CheckOutcome::Unsat => None,
        CheckOutcome::Halted(cause) => panic!("unbudgeted check halted: {cause:?}"),
    }
}

/// An OMT instance: exactly-one groups given by their weights (group
/// `g`'s literal `i` is its own variable), a few free variables in no
/// group, and clauses over all of them as signed 1-based literals
/// (groups' variables first, in order, then the free ones).
#[derive(Debug, Clone)]
struct PbInstance {
    groups: Vec<Vec<i64>>,
    free: usize,
    clauses: Vec<Vec<i32>>,
    /// Assert the groups before `maximize` instead of leaving it to it.
    preassert: bool,
}

fn arb_pb_instance() -> impl Strategy<Value = PbInstance> {
    (
        prop::collection::vec(prop::collection::vec(-10i64..30, 1..5), 1..5),
        0usize..3,
        any::<bool>(),
    )
        .prop_flat_map(|(groups, free, preassert)| {
            let n = groups.iter().map(Vec::len).sum::<usize>() + free;
            let clause =
                prop::collection::vec((1..=n as i32, any::<bool>()), 1..4).prop_map(|lits| {
                    lits.into_iter()
                        .map(|(v, s)| if s { v } else { -v })
                        .collect::<Vec<i32>>()
                });
            (
                Just(groups),
                Just(free),
                prop::collection::vec(clause, 0..8),
                Just(preassert),
            )
        })
        .prop_map(|(groups, free, clauses, preassert)| PbInstance {
            groups,
            free,
            clauses,
            preassert,
        })
}

/// The clause of signed 1-based literals `c` over `vars`.
fn clause(vars: &[BoolVar], c: &[i32]) -> Vec<Lit> {
    c.iter()
        .map(|&l| {
            let b = vars[(l.unsigned_abs() - 1) as usize].lit();
            if l > 0 {
                b
            } else {
                b.negated()
            }
        })
        .collect()
}

/// The instance's solver (clauses asserted), its variables and objective.
fn build(inst: &PbInstance) -> (Solver, Vec<BoolVar>, Objective) {
    let mut s = Solver::new();
    let n = inst.groups.iter().map(Vec::len).sum::<usize>() + inst.free;
    let vars: Vec<BoolVar> = (0..n).map(|_| s.new_bool()).collect();
    let mut objective = Objective::new();
    let mut next = 0;
    for weights in &inst.groups {
        let group = &vars[next..next + weights.len()];
        next += weights.len();
        if inst.preassert {
            s.assert_exactly_one(group);
        }
        objective.add_group(group.iter().copied().zip(weights.iter().copied()));
    }
    for c in &inst.clauses {
        s.add_clause(&clause(&vars, c));
    }
    (s, vars, objective)
}

/// The brute-force optimum: every choice of one literal per group and
/// every value of the free variables, kept when it satisfies the
/// clauses. `None` when nothing does.
fn brute_force_optimum(inst: &PbInstance) -> Option<i64> {
    let sizes: Vec<usize> = inst.groups.iter().map(Vec::len).collect();
    let n_group_vars: usize = sizes.iter().sum();
    let combos: usize = sizes.iter().product::<usize>() << inst.free;
    (0..combos)
        .filter_map(|mut code| {
            let mut truth = vec![false; n_group_vars + inst.free];
            let (mut value, mut first) = (0i64, 0);
            for (weights, &size) in inst.groups.iter().zip(&sizes) {
                let pick = code % size;
                code /= size;
                truth[first + pick] = true;
                value += weights[pick];
                first += size;
            }
            for f in 0..inst.free {
                truth[n_group_vars + f] = code >> f & 1 == 1;
            }
            let satisfied = inst.clauses.iter().all(|c| {
                c.iter()
                    .any(|&l| truth[(l.unsigned_abs() - 1) as usize] == (l > 0))
            });
            satisfied.then_some(value)
        })
        .max()
}

/// Every group of `vars` has exactly one true literal under `m`.
fn picks_one_per_group(inst: &PbInstance, vars: &[BoolVar], m: &Model) -> bool {
    let mut first = 0;
    inst.groups.iter().all(|weights| {
        let on = vars[first..first + weights.len()]
            .iter()
            .filter(|&&b| m.bool(b))
            .count();
        first += weights.len();
        on == 1
    })
}

/// `maximize` over random exactly-one groups (weights −10..30) and random
/// clauses returns the brute-force optimum with a model that reaches it,
/// and `Unsat` exactly when no assignment is feasible — whether the
/// groups were asserted beforehand or left to `maximize`. The instances
/// cover both sides of the first probe: base models that are already
/// optimal (the probe is Unsat) and base models the search improves on.
/// A probe budget of 0 returns the base model.
#[test]
fn maximize_matches_brute_force_optimum() {
    let strategy = arb_pb_instance();
    let (mut base_optimal, mut base_improved, mut unsat) = (0, 0, 0);
    for case in 0..256 {
        let mut rng = TestRng::from_parts("maximize_matches_brute_force_optimum", case);
        let inst = strategy.sample(&mut rng);
        let best = brute_force_optimum(&inst);
        let (s, vars, objective) = build(&inst);
        // The base model `maximize` starts from: the same assertions in
        // the same order, then one check.
        let mut base_solver = s.clone();
        for group in objective.groups() {
            let group: Vec<BoolVar> = group.iter().map(|&(b, _)| b).collect();
            base_solver.assert_exactly_one(&group);
        }
        let base = model(base_solver.check());

        let mut capped = s.clone();
        capped.set_budget(Budget {
            max_probes: Some(0),
            ..Budget::UNLIMITED
        });
        let (capped_value, capped_model) = match capped.maximize(&objective) {
            OmtOutcome::Unsat => {
                assert!(best.is_none(), "case {case}: capped search missed {best:?}");
                (None, None)
            }
            OmtOutcome::Degraded {
                value,
                model,
                cause: HaltCause::Probes,
            } => (Some(value), Some(model)),
            // Without a probe, only a base model at the upper bound
            // is proven optimal.
            OmtOutcome::Optimal { value, model } => {
                assert_eq!(Some(value), best.map(i128::from), "case {case}");
                (Some(value), Some(model))
            }
            other => panic!("case {case}: capped search gave {other:?}"),
        };

        let mut s = s;
        match (s.maximize(&objective), best) {
            (OmtOutcome::Unsat, None) => unsat += 1,
            (OmtOutcome::Optimal { value, model: m }, Some(best)) => {
                let best = i128::from(best);
                assert_eq!(value, best, "case {case}: not the brute-force maximum");
                assert_eq!(objective.value(&m), best, "case {case}: model misses it");
                assert!(
                    picks_one_per_group(&inst, &vars, &m),
                    "case {case}: model breaks a group's exactly-one"
                );
                for c in &inst.clauses {
                    assert!(
                        c.iter()
                            .any(|&l| m.bool(vars[(l.unsigned_abs() - 1) as usize]) == (l > 0)),
                        "case {case}: model violates clause {c:?}"
                    );
                }
                let base = base.expect("a feasible instance has a base model");
                let base_value = objective.value(&base);
                assert_eq!(capped_value, Some(base_value), "case {case}: capped value");
                let capped_model = capped_model.expect("feasible");
                assert!(
                    vars.iter().all(|&b| capped_model.bool(b) == base.bool(b)),
                    "case {case}: a zero probe budget must return the base model"
                );
                if base_value == best {
                    base_optimal += 1;
                } else {
                    base_improved += 1;
                }
            }
            (got, best) => panic!("case {case}: maximize gave {got:?}, brute force {best:?}"),
        }
    }
    assert!(
        base_optimal > 0 && base_improved > 0 && unsat > 0,
        "vacuous: {base_optimal} optimal bases, {base_improved} improved, {unsat} unsat"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A copy of a template leaves no trace of what its destination held:
    /// a solver dirtied by another instance and two maximize calls, then
    /// overwritten by `clone_from` from a freshly built template, answers,
    /// models and counts effort exactly like a fresh solver — the property
    /// the scheduler's per-window copies rest on.
    #[test]
    fn maximize_on_a_template_copy_replays_like_a_fresh_solver(
        inst in arb_pb_instance(),
        other in arb_pb_instance(),
    ) {
        let (mut copy, vars, objective) = build(&inst);
        // The other instance's own variables, groups and clauses.
        let n = other.groups.iter().map(Vec::len).sum::<usize>() + other.free;
        let extra: Vec<BoolVar> = (0..n).map(|_| copy.new_bool()).collect();
        let mut other_objective = Objective::new();
        let mut next = 0;
        for weights in &other.groups {
            let group = &extra[next..next + weights.len()];
            other_objective.add_group(group.iter().copied().zip(weights.iter().copied()));
            next += weights.len();
        }
        for c in &other.clauses {
            copy.add_clause(&clause(&extra, c));
        }
        let _ = copy.maximize(&other_objective);
        let _ = copy.maximize(&objective);
        let (template, _, _) = build(&inst);
        copy.clone_from(&template);
        let (mut fresh, _, _) = build(&inst);
        let observe = |s: &mut Solver| {
            let (sat, conflicts) = (s.sat_stats(), s.theory_conflicts);
            let outcome = match s.maximize(&objective) {
                OmtOutcome::Optimal { value, model } => {
                    Some((value, vars.iter().map(|&b| model.bool(b)).collect::<Vec<_>>()))
                }
                OmtOutcome::Unsat => None,
                other => panic!("unbudgeted maximize halted: {other:?}"),
            };
            (outcome, s.sat_stats().since(sat), s.theory_conflicts - conflicts)
        };
        prop_assert_eq!(observe(&mut copy), observe(&mut fresh));
    }
}
