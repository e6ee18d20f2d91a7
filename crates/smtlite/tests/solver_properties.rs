//! Property-based tests for the solver stack: random instances
//! cross-checked against brute force / direct reasoning.

use proptest::prelude::*;
use proptest::TestRng;

use shatter_smt::ast::{BoolVar, Formula};
use shatter_smt::sat::{Lit, SatSolver, SatVerdict};
use shatter_smt::{Budget, CheckOutcome, HaltCause, Model, Objective, OmtOutcome, Solver};

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

proptest! {
    #[test]
    fn cdcl_agrees_with_brute_force((n, clauses) in arb_cnf()) {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in &clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&l| {
                    let v = (l.unsigned_abs() - 1) as usize;
                    if l > 0 { Lit::pos(v) } else { Lit::neg(v) }
                })
                .collect();
            s.add_clause(&lits);
        }
        let expected = brute_force_sat(n, &clauses);
        match s.solve(&[], None) {
            SatVerdict::Sat(model) => {
                prop_assert!(expected, "solver SAT, brute force UNSAT");
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| {
                        let v = (l.unsigned_abs() - 1) as usize;
                        (l > 0) == model[v]
                    }), "model violates clause {c:?}");
                }
            }
            SatVerdict::Unsat => prop_assert!(!expected, "solver UNSAT, brute force SAT"),
            SatVerdict::Unknown => prop_assert!(false, "unbudgeted solve returned Unknown"),
        }
    }
}

proptest! {
    /// Clause-DB reduction preserves verdicts and model validity: a
    /// solver forced to garbage-collect constantly (budget 1, so the
    /// reducer fires at every conflict) must agree with the untouched
    /// solver on every random instance, and any model it returns must
    /// satisfy every clause.
    #[test]
    fn gc_preserves_verdicts_and_models((n, clauses) in arb_cnf()) {
        let build = |gc_budget: Option<usize>| {
            let mut s = SatSolver::new();
            if let Some(b) = gc_budget {
                s.set_gc_budget(b);
            }
            for _ in 0..n {
                s.new_var();
            }
            for c in &clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&l| {
                        let v = (l.unsigned_abs() - 1) as usize;
                        if l > 0 { Lit::pos(v) } else { Lit::neg(v) }
                    })
                    .collect();
                s.add_clause(&lits);
            }
            s
        };
        let expected = brute_force_sat(n, &clauses);
        let mut gc = build(Some(1));
        match gc.solve(&[], None) {
            SatVerdict::Sat(model) => {
                prop_assert!(expected, "GC solver SAT, brute force UNSAT");
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| {
                        let v = (l.unsigned_abs() - 1) as usize;
                        (l > 0) == model[v]
                    }), "GC-solver model violates clause {c:?}");
                }
            }
            SatVerdict::Unsat => prop_assert!(!expected, "GC solver UNSAT, brute force SAT"),
            SatVerdict::Unknown => prop_assert!(false, "unbudgeted solve returned Unknown"),
        }
        // And the default-budget solver agrees (differently-searched,
        // same verdict).
        let mut plain = build(None);
        prop_assert_eq!(matches!(plain.solve(&[], None), SatVerdict::Sat(_)), expected);
    }

    /// Reduction under assumption probes: interleaved assumption solves
    /// with a constantly-firing reducer keep verdicts equal to a
    /// GC-free reference solver.
    #[test]
    fn gc_stable_under_assumption_probes(
        (n, clauses) in arb_cnf(),
        probe_var in 0usize..8,
        polarity in any::<bool>(),
    ) {
        let probe_var = probe_var % n.max(1);
        let assumption = if polarity { Lit::pos(probe_var) } else { Lit::neg(probe_var) };
        let mut solvers: Vec<SatSolver> = [Some(1usize), None]
            .iter()
            .map(|budget| {
                let mut s = SatSolver::new();
                if let Some(b) = budget {
                    s.set_gc_budget(*b);
                }
                for _ in 0..n {
                    s.new_var();
                }
                for c in &clauses {
                    let lits: Vec<Lit> = c
                        .iter()
                        .map(|&l| {
                            let v = (l.unsigned_abs() - 1) as usize;
                            if l > 0 { Lit::pos(v) } else { Lit::neg(v) }
                        })
                        .collect();
                    s.add_clause(&lits);
                }
                s
            })
            .collect();
        let verdicts: Vec<(bool, bool, bool)> = solvers
            .iter_mut()
            .map(|s| {
                let under = matches!(s.solve(&[assumption], None), SatVerdict::Sat(_));
                let free = matches!(s.solve(&[], None), SatVerdict::Sat(_));
                let again = matches!(s.solve(&[assumption], None), SatVerdict::Sat(_));
                (under, free, again)
            })
            .collect();
        prop_assert_eq!(verdicts[0], verdicts[1], "GC diverged from reference");
        // Probes are repeatable: learning (and GC'ing) between calls
        // must not flip a verdict.
        prop_assert_eq!(verdicts[0].0, verdicts[0].2);
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
        s.assert_formula(Formula::or(c.iter().map(|&l| {
            let b = Formula::Bool(vars[(l.unsigned_abs() - 1) as usize]);
            if l > 0 {
                b
            } else {
                Formula::not(b)
            }
        })));
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

    /// A maximize inside push/pop leaves no trace: afterwards a second
    /// maximize answers, models and counts effort exactly like a fresh
    /// solver that never saw the frame — the property the scheduler's
    /// solver reuse rests on.
    #[test]
    fn maximize_under_push_pop_replays_like_a_fresh_solver(
        inst in arb_pb_instance(),
        frame in arb_pb_instance(),
    ) {
        let (mut reused, vars, objective) = build(&inst);
        reused.push();
        // The frame's own variables, groups and clauses over them.
        let n = frame.groups.iter().map(Vec::len).sum::<usize>() + frame.free;
        let extra: Vec<BoolVar> = (0..n).map(|_| reused.new_bool()).collect();
        let mut frame_objective = Objective::new();
        let mut next = 0;
        for weights in &frame.groups {
            let group = &extra[next..next + weights.len()];
            frame_objective.add_group(group.iter().copied().zip(weights.iter().copied()));
            next += weights.len();
        }
        for c in &frame.clauses {
            reused.assert_formula(Formula::or(c.iter().map(|&l| {
                let b = Formula::Bool(extra[(l.unsigned_abs() - 1) as usize]);
                if l > 0 { b } else { Formula::not(b) }
            })));
        }
        let _ = reused.maximize(&frame_objective);
        let _ = reused.maximize(&objective);
        reused.pop();
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
        prop_assert_eq!(observe(&mut reused), observe(&mut fresh));
    }
}

/// Builds a formula over `vars` bottom-up: node `k` is a leaf, or a
/// connective over earlier nodes picked by its index fields (leaves
/// when `k == 0`). `And`/`Or` are built through the enum, so they may be
/// empty or unary. The last node is the formula.
fn build_formula(vars: &[BoolVar], nodes: &[(u8, usize, [usize; 3])]) -> Formula {
    let mut built: Vec<Formula> = Vec::new();
    for &(op, arity, picks) in nodes {
        let child = |i: usize| match built.len() {
            0 => Formula::Bool(vars[picks[i] % vars.len()]),
            k => built[picks[i] % k].clone(),
        };
        let f = match op {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::not(child(0)),
            3 => Formula::And((0..arity).map(child).collect()),
            4 => Formula::Or((0..arity).map(child).collect()),
            5 => Formula::implies(child(0), child(1)),
            _ => Formula::Bool(vars[picks[0] % vars.len()]),
        };
        built.push(f);
    }
    built.pop().expect("at least one node")
}

fn truth(f: &Formula, mask: u32) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Bool(b) => mask >> b.index() & 1 == 1,
        Formula::Not(g) => !truth(g, mask),
        Formula::And(gs) => gs.iter().all(|g| truth(g, mask)),
        Formula::Or(gs) => gs.iter().any(|g| truth(g, mask)),
        Formula::Implies(a, b) => !truth(a, mask) || truth(b, mask),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `assert_formula` agrees with the formula's truth table: under each
    /// assignment's unit literals the assertion is Sat exactly when the
    /// formula evaluates true.
    #[test]
    fn assert_formula_matches_truth_table(
        n in 1usize..6,
        nodes in prop::collection::vec((0u8..8, 0usize..4, (0usize..64, 0usize..64, 0usize..64)), 1..12),
    ) {
        let nodes: Vec<(u8, usize, [usize; 3])> =
            nodes.into_iter().map(|(op, arity, (a, b, c))| (op, arity, [a, b, c])).collect();
        let mut s = Solver::new();
        let vars: Vec<BoolVar> = (0..n).map(|_| s.new_bool()).collect();
        let f = build_formula(&vars, &nodes);
        for mask in 0..1u32 << n {
            s.push();
            s.assert_formula(f.clone());
            for (i, &v) in vars.iter().enumerate() {
                let lit = Formula::Bool(v);
                s.assert_formula(if mask >> i & 1 == 1 { lit } else { Formula::not(lit) });
            }
            let sat = model(s.check()).is_some();
            s.pop();
            prop_assert_eq!(sat, truth(&f, mask), "{:?} under assignment {:#b}", f, mask);
        }
    }
}
