//! Property-based tests for the SMT stack: random instances cross-checked
//! against brute force / direct reasoning.

use proptest::prelude::*;
use proptest::TestRng;

use shatter_smt::ast::{BoolVar, Formula, LinExpr, RealVar};
use shatter_smt::sat::{Lit, SatSolver, SatVerdict};
use shatter_smt::{
    CheckOutcome, HaltCause, Model, NumericMode, OmtOutcome, Rat, RatOverflow, SatStats,
    SimplexStats, Solver,
};

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

// ---------- LRA layer ------------------------------------------------------

/// The model of a satisfiable check, `None` when unsatisfiable; these
/// unbudgeted instances never halt.
fn model(outcome: CheckOutcome) -> Option<Model> {
    match outcome {
        CheckOutcome::Sat(m) => Some(m),
        CheckOutcome::Unsat => None,
        CheckOutcome::Halted(cause) => panic!("unbudgeted check halted: {cause:?}"),
    }
}

/// The optimum and its model, `None` when unsatisfiable; these
/// unbudgeted instances never halt.
fn optimum(outcome: OmtOutcome) -> Option<(f64, Model)> {
    match outcome {
        OmtOutcome::Optimal { value, model } => Some((value, model)),
        OmtOutcome::Unsat => None,
        other => panic!("unbudgeted maximize halted: {other:?}"),
    }
}

proptest! {
    /// Random interval constraints on independent variables: satisfiable
    /// iff every interval is non-empty; the model must sit inside.
    #[test]
    fn box_constraints(bounds in prop::collection::vec((-50i64..50, -50i64..50), 1..8)) {
        let mut s = Solver::new();
        let mut vars = Vec::new();
        let mut feasible = true;
        for &(a, b) in &bounds {
            let (lo, hi) = (a.min(b), a.max(b));
            // Every interval [lo, hi] here is non-empty by construction;
            // flip half of them to force emptiness.
            let x = s.new_real();
            s.assert_formula(LinExpr::var(x).ge(lo));
            s.assert_formula(LinExpr::var(x).le(hi));
            vars.push((x, lo, hi));
            feasible &= lo <= hi;
        }
        let model = model(s.check());
        prop_assert_eq!(model.is_some(), feasible);
        if let Some(m) = model {
            for (x, lo, hi) in vars {
                let v = m.real_exact(x);
                prop_assert!(v >= Rat::int(lo as i128) && v <= Rat::int(hi as i128));
            }
        }
    }

    /// Difference chains: x0 <= x1 - d1 <= ... ; feasible for any d when
    /// unbounded, infeasible once a cycle with positive total weight is
    /// closed.
    #[test]
    fn difference_cycle(ds in prop::collection::vec(-10i64..10, 2..6)) {
        let mut s = Solver::new();
        let n = ds.len();
        let vars: Vec<_> = (0..n).map(|_| s.new_real()).collect();
        // x_{i+1} >= x_i + d_i, cyclically.
        let mut total = 0i64;
        for (i, &d) in ds.iter().enumerate() {
            let a = vars[i];
            let b = vars[(i + 1) % n];
            s.assert_formula(
                LinExpr::var(b).minus(&LinExpr::var(a)).ge(d),
            );
            total += d;
        }
        // Feasible iff the cycle's total required gain is <= 0.
        prop_assert_eq!(model(s.check()).is_some(), total <= 0, "cycle total {}", total);
    }

    /// maximize() returns a value no less than any feasible witness we can
    /// construct by hand, and the model achieves the reported value.
    #[test]
    fn maximize_is_sound(caps in prop::collection::vec(0i64..20, 1..6)) {
        let mut s = Solver::new();
        let mut obj = LinExpr::constant(0);
        for &c in &caps {
            let x = s.new_real();
            s.assert_formula(LinExpr::var(x).ge(0));
            s.assert_formula(LinExpr::var(x).le(c));
            obj = obj.plus(&LinExpr::var(x));
        }
        let total: i64 = caps.iter().sum();
        let (v, m) = optimum(s.maximize(&obj, 0.0, total as f64 + 5.0, 1e-3)).expect("feasible");
        prop_assert!((v - total as f64).abs() < 0.01, "max {v} expected {total}");
        prop_assert!((m.eval(&obj).expect("in range").to_f64() - v).abs() < 1e-9);
    }

    /// Boolean structure + theory: implication chains force the tightest
    /// asserted bound.
    #[test]
    fn guarded_bounds(guards in prop::collection::vec(any::<bool>(), 1..6)) {
        let mut s = Solver::new();
        let x = s.new_real();
        let mut forced_min = 0i64;
        for (i, &on) in guards.iter().enumerate() {
            let p = s.new_bool();
            let bound = (i as i64 + 1) * 3;
            s.assert_formula(Formula::implies(
                Formula::Bool(p),
                LinExpr::var(x).ge(bound),
            ));
            if on {
                s.assert_formula(Formula::Bool(p));
                forced_min = forced_min.max(bound);
            }
        }
        s.assert_formula(LinExpr::var(x).le(100));
        let m = model(s.check()).expect("always satisfiable");
        prop_assert!(m.real(x) >= forced_min as f64 - 1e-9);
    }
}

// ---------- Numeric-mode equivalence ---------------------------------------

proptest! {
    /// The certified float fast path must reproduce the forced-exact
    /// reference bit for bit: same verdicts, same exact models, same
    /// objective bits, same pivot counts — across random guarded-bound
    /// instances with an OMT maximize on top.
    #[test]
    fn numeric_modes_agree_byte_for_byte(
        caps in prop::collection::vec((1i64..20, any::<bool>()), 1..6),
    ) {
        let run = |mode: NumericMode| {
            let mut s = Solver::new();
            s.set_numeric_mode(mode);
            let mut obj = LinExpr::constant(0);
            let mut vars = Vec::new();
            for &(c, guarded) in &caps {
                let x = s.new_real();
                s.assert_formula(LinExpr::var(x).ge(0));
                if guarded {
                    // p -> x <= c, and ¬p forces the tighter cap c/2.
                    let p = s.new_bool();
                    s.assert_formula(Formula::implies(
                        Formula::Bool(p),
                        LinExpr::var(x).le(c),
                    ));
                    s.assert_formula(Formula::or([
                        Formula::Bool(p),
                        LinExpr::var(x).le(c / 2),
                    ]));
                } else {
                    s.assert_formula(LinExpr::var(x).le(c));
                }
                obj = obj.plus(&LinExpr::var(x));
                vars.push(x);
            }
            let hi = caps.iter().map(|&(c, _)| c).sum::<i64>() as f64 + 5.0;
            let best = optimum(s.maximize(&obj, 0.0, hi, 1e-3)).map(|(v, m)| {
                (
                    v.to_bits(),
                    vars.iter().map(|&x| m.real_exact(x)).collect::<Vec<Rat>>(),
                )
            });
            (best, s.simplex_stats())
        };
        let (fast, fstats) = run(NumericMode::FloatFirst);
        let (exact, estats) = run(NumericMode::ExactOnly);
        prop_assert_eq!(fast, exact, "modes diverged on objective or model");
        prop_assert_eq!(fstats.pivots, estats.pivots, "pivot sequences diverged");
        prop_assert_eq!(estats.float_pivots, 0);
        prop_assert_eq!(fstats.float_pivots, fstats.pivots);
    }

    /// Near-tie regime: bound pairs differing by ~1e-15 land inside the
    /// float comparison margin, so the fast path must take the exact
    /// fallback — and still agree with the forced-exact verdict and the
    /// hand-computed feasibility.
    #[test]
    fn near_tie_regime_falls_back_to_exact(
        a in -1000i64..1000,
        delta in -2i64..3i64,
        k in 1i64..4,
    ) {
        const D: i128 = 1_000_000_000_000_000;
        let run = |mode: NumericMode| {
            let mut s = Solver::new();
            s.set_numeric_mode(mode);
            let x = s.new_real();
            // a/(kD) <= x <= (a+delta)/(kD): feasible iff delta >= 0,
            // decided by comparisons ~1e-15 apart — far inside the
            // ~1e-12 float margin.
            s.assert_formula(LinExpr::var(x).ge(Rat::new(a as i128, k as i128 * D)));
            s.assert_formula(LinExpr::var(x).le(Rat::new((a + delta) as i128, k as i128 * D)));
            (model(s.check()).map(|m| m.real_exact(x)), s.simplex_stats())
        };
        let (fast, fstats) = run(NumericMode::FloatFirst);
        let (exact, estats) = run(NumericMode::ExactOnly);
        prop_assert_eq!(&fast, &exact, "modes diverged");
        prop_assert_eq!(fast.is_some(), delta >= 0);
        prop_assert_eq!(fstats.pivots, estats.pivots);
        prop_assert!(fstats.exact_fallbacks > 0, "near-tie comparison must fall back");
    }
}

// ---------- Theory-check caches ----------------------------------------------

/// One bound atom `Σ cᵢ·xᵢ ≤ k` (`≥ k` when `ge`), asserted directly or
/// behind a fresh guard literal.
type AtomSpec = (Vec<i64>, i64, bool, bool);

fn arb_atoms(n: usize) -> impl Strategy<Value = Vec<AtomSpec>> {
    prop::collection::vec(
        (
            prop::collection::vec(-3i64..4, n..n + 1),
            -20i64..21,
            any::<bool>(),
            any::<bool>(),
        ),
        1..6,
    )
}

/// Asserts `atoms` over `xs`; returns the guard of each guarded atom.
fn assert_atoms(s: &mut Solver, xs: &[RealVar], atoms: &[AtomSpec]) -> Vec<BoolVar> {
    let mut guards = Vec::new();
    for (coeffs, k, ge, guarded) in atoms {
        let form = LinExpr::sum(coeffs.iter().zip(xs).map(|(&c, &x)| (Rat::from(c), x)), 0);
        let atom = if *ge { form.ge(*k) } else { form.le(*k) };
        if *guarded {
            let p = s.new_bool();
            s.assert_formula(Formula::implies(Formula::Bool(p), atom));
            guards.push(p);
        } else {
            s.assert_formula(atom);
        }
    }
    guards
}

/// Verdict, model and effort of one `check`, as counter deltas.
type Observed = (Option<(Vec<Rat>, Vec<bool>)>, SatStats, SimplexStats, u64);

fn observe(s: &mut Solver, xs: &[RealVar], ps: &[BoolVar]) -> Observed {
    let (sat, spx, conflicts) = (s.sat_stats(), s.simplex_stats(), s.theory_conflicts);
    let model = model(s.check()).map(|m| {
        (
            xs.iter().map(|&x| m.real_exact(x)).collect(),
            ps.iter().map(|&p| m.bool(p)).collect(),
        )
    });
    (
        model,
        s.sat_stats().since(sat),
        s.simplex_stats().since(spx),
        s.theory_conflicts - conflicts,
    )
}

proptest! {
    /// The per-atom column cache survives push/pop exactly: atoms
    /// registered before `push` but first resolved inside the frame
    /// (allocating slack columns the pop discards), frame atoms over
    /// pre-push forms and over new forms — after `pop` the solver must
    /// search, answer and count effort exactly like a fresh solver that
    /// saw only the base assertions.
    #[test]
    fn column_cache_survives_push_pop(
        (n, base, late, frame) in (2usize..4).prop_flat_map(|n| {
            (Just(n), arb_atoms(n), arb_atoms(n), arb_atoms(n + 1))
        }),
        shifts in prop::collection::vec(-5i64..6, 1..6),
    ) {
        // Base: a box, guarded atoms, a check; then atoms registered
        // after that check, so no column is resolved for them yet.
        let setup = |s: &mut Solver| {
            let xs: Vec<RealVar> = (0..n).map(|_| s.new_real()).collect();
            for &x in &xs {
                s.assert_formula(LinExpr::var(x).ge(-50));
                s.assert_formula(LinExpr::var(x).le(50));
            }
            let mut ps = assert_atoms(s, &xs, &base);
            let first = observe(s, &xs, &ps);
            ps.extend(assert_atoms(s, &xs, &late));
            (xs, ps, first)
        };
        let mut s = Solver::new();
        let (xs, ps, first) = setup(&mut s);
        s.push();
        let y = s.new_real();
        let mut frame_vars = xs.clone();
        frame_vars.push(y);
        assert_atoms(&mut s, &frame_vars, &frame);
        // Pre-push forms under new right-hand sides.
        let reused: Vec<AtomSpec> = base
            .iter()
            .zip(&shifts)
            .map(|((c, k, ge, g), d)| (c.clone(), k + d, *ge, *g))
            .collect();
        assert_atoms(&mut s, &xs, &reused);
        observe(&mut s, &xs, &ps);
        s.pop();
        let after_pop = observe(&mut s, &xs, &ps);
        let again = observe(&mut s, &xs, &ps);

        let mut fresh = Solver::new();
        let (_, _, fresh_first) = setup(&mut fresh);
        prop_assert_eq!(&first, &fresh_first);
        prop_assert_eq!(&after_pop, &observe(&mut fresh, &xs, &ps));
        prop_assert_eq!(&again, &observe(&mut fresh, &xs, &ps));
    }
}

/// An `i128` overflow while the partial theory check resolves the column
/// of a still-unassigned atom is a halt, not a panic. `x ≥ 10^20` puts
/// `x` at 10^20, so the slack of `10^20·x + y` evaluates to 10^40 when
/// the consult after the fourth decision (the six free clauses supply
/// them) resolves it for the implied-bound scan. Popping the frame
/// leaves a solver that answers the base assertion.
#[test]
fn implied_bound_scan_overflow_halts_instead_of_panicking() {
    let big = Rat::int(10i128.pow(20));
    let mut s = Solver::new();
    let x = s.new_real();
    let y = s.new_real();
    s.assert_formula(LinExpr::var(x).ge(big));
    s.push();
    for _ in 0..6 {
        let (a, b) = (s.new_bool(), s.new_bool());
        s.assert_formula(Formula::or([Formula::Bool(a), Formula::Bool(b)]));
    }
    let p = s.new_bool();
    s.assert_formula(Formula::implies(
        Formula::Bool(p),
        LinExpr::term(big, x).plus(&LinExpr::var(y)).le(0),
    ));
    assert!(matches!(
        s.check(),
        CheckOutcome::Halted(HaltCause::Overflow)
    ));
    s.pop();
    let m = model(s.check()).expect("the base assertion is satisfiable");
    assert!(m.real_exact(x) >= big);
}

/// Integers and fractions from small to the `i128` edges: `kind` picks
/// a small integer, an integer near ±2^126 or ±`i128::MAX`, a small
/// fraction, or a fraction with a huge numerator or denominator.
fn arb_rat() -> impl Strategy<Value = Rat> {
    (0u8..6, -1000i64..1000, 1i64..1000, 0u64..u64::MAX).prop_map(|(kind, a, b, bits)| {
        let (a, b, bits) = (i128::from(a), i128::from(b), i128::from(bits));
        let sign = if a < 0 { -1 } else { 1 };
        match kind {
            0 => Rat::int(a),
            1 => Rat::int(sign * ((1 << 126) + a)),
            2 => Rat::int(sign * (i128::MAX - a.abs())),
            3 => Rat::new(a, b),
            4 => Rat::new(sign * (bits << 60 | a.abs()), b),
            _ => Rat::new(a, (bits << 63) + b),
        }
    })
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The general formulas the integer fast paths must reproduce:
/// checked `i128` cross products, reduced by their `gcd`; a part equal
/// to `i128::MIN` counts as overflow.
fn reduced(num: Option<i128>, den: Option<i128>) -> Result<Rat, RatOverflow> {
    match (num, den) {
        (Some(n), Some(d)) if n != i128::MIN && d != i128::MIN => {
            let g = gcd(n, d);
            Ok(Rat::new(n / g, d / g))
        }
        _ => Err(RatOverflow),
    }
}

fn general_add(a: Rat, b: Rat) -> Result<Rat, RatOverflow> {
    let g = gcd(a.denom(), b.denom());
    let (lb, rb) = (a.denom() / g, b.denom() / g);
    reduced(
        a.numer()
            .checked_mul(rb)
            .and_then(|x| b.numer().checked_mul(lb).and_then(|y| x.checked_add(y))),
        a.denom().checked_mul(rb),
    )
}

fn general_mul(a: Rat, b: Rat) -> Result<Rat, RatOverflow> {
    let (g1, g2) = (gcd(a.numer(), b.denom()), gcd(b.numer(), a.denom()));
    reduced(
        (a.numer() / g1).checked_mul(b.numer() / g2),
        (a.denom() / g2).checked_mul(b.denom() / g1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `Rat`'s integer fast paths and `i64` float conversion change no
    /// bit: add, mul (checked and operator forms) and `to_f64` agree
    /// with the general formulas on mixed integer and fractional
    /// operands, and on two integers overflow is reported exactly when
    /// the exact result leaves the `i128` range.
    #[test]
    fn rat_fast_paths_match_general_formulas(a in arb_rat(), b in arb_rat()) {
        let (sum, product) = (general_add(a, b), general_mul(a, b));
        prop_assert_eq!(a.try_add(b), sum);
        prop_assert_eq!(a.try_mul(b), product);
        if let Ok(sum) = sum {
            prop_assert_eq!(a + b, sum);
        }
        if let Ok(product) = product {
            prop_assert_eq!(a * b, product);
        }
        for r in [a, b].into_iter().chain(sum).chain(product) {
            let general = r.numer() as f64 / r.denom() as f64;
            prop_assert_eq!(r.to_f64().to_bits(), general.to_bits());
        }
        if a.denom() == 1 && b.denom() == 1 {
            let leaves = |exact: Option<i128>| exact.is_none_or(|v| v == i128::MIN);
            prop_assert_eq!(sum.is_err(), leaves(a.numer().checked_add(b.numer())));
            prop_assert_eq!(product.is_err(), leaves(a.numer().checked_mul(b.numer())));
        }
    }
}

// ---------- OMT exactness and clause-level assertion -------------------------

/// An OMT instance over `n` Booleans: clauses as signed 1-based literals
/// and one integer reward per Boolean.
type OmtInstance = (usize, Vec<Vec<i32>>, Vec<i64>);

fn arb_omt_instance() -> impl Strategy<Value = OmtInstance> {
    (1usize..9).prop_flat_map(|n| {
        let clause = prop::collection::vec((1..=n as i32, any::<bool>()), 1..4).prop_map(|lits| {
            lits.into_iter()
                .map(|(v, s)| if s { v } else { -v })
                .collect::<Vec<i32>>()
        });
        (
            Just(n),
            prop::collection::vec(clause, 0..10),
            prop::collection::vec(-10i64..30, n..n + 1),
        )
    })
}

/// `maximize(Σy, tol = 1)` over `b_i → y_i = r_i`, `¬b_i → y_i = 0` and
/// the Boolean clauses returns the brute-force maximum with a model that
/// reaches it, and `Unsat` exactly when no assignment satisfies the
/// clauses. The instances cover both sides of the first probe: base
/// models that are already optimal (the probe is Unsat) and base models
/// the search improves on (the probe is Sat).
#[test]
fn maximize_matches_brute_force_optimum() {
    let strategy = arb_omt_instance();
    let (mut base_optimal, mut base_improved, mut unsat) = (0, 0, 0);
    for case in 0..256 {
        let mut rng = TestRng::from_parts("maximize_matches_brute_force_optimum", case);
        let (n, clauses, rewards) = strategy.sample(&mut rng);
        let satisfies = |mask: u32| {
            clauses.iter().all(|c| {
                c.iter()
                    .any(|&l| ((mask >> (l.unsigned_abs() - 1)) & 1 == 1) == (l > 0))
            })
        };
        let value = |mask: u32| -> i64 {
            (0..n)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| rewards[i])
                .sum()
        };
        let best = (0..1u32 << n).filter(|&m| satisfies(m)).map(value).max();

        let mut s = Solver::new();
        let bs: Vec<BoolVar> = (0..n).map(|_| s.new_bool()).collect();
        let mut objective = LinExpr::constant(0);
        for (i, &b) in bs.iter().enumerate() {
            let y = s.new_real();
            s.assert_formula(Formula::implies(
                Formula::Bool(b),
                LinExpr::var(y).eq(rewards[i]),
            ));
            s.assert_formula(Formula::implies(
                Formula::not(Formula::Bool(b)),
                LinExpr::var(y).eq(0),
            ));
            objective = objective.plus(&LinExpr::var(y));
        }
        for c in &clauses {
            s.assert_formula(Formula::or(c.iter().map(|&l| {
                let b = Formula::Bool(bs[(l.unsigned_abs() - 1) as usize]);
                if l > 0 {
                    b
                } else {
                    Formula::not(b)
                }
            })));
        }
        let lo: i64 = rewards.iter().filter(|&&r| r < 0).sum();
        let hi: i64 = rewards.iter().filter(|&&r| r > 0).sum::<i64>() + 1;
        let base = model(s.clone().check());
        match (
            optimum(s.maximize(&objective, lo as f64, hi as f64, 1.0)),
            best,
        ) {
            (None, None) => unsat += 1,
            (Some((v, m)), Some(best)) => {
                let mask = (0..n)
                    .filter(|&i| m.bool(bs[i]))
                    .fold(0, |acc, i| acc | 1 << i);
                assert!(satisfies(mask), "case {case}: model violates a clause");
                assert_eq!(v, best as f64, "case {case}: not the brute-force maximum");
                assert_eq!(value(mask), best, "case {case}: model misses the maximum");
                assert_eq!(m.eval(&objective), Ok(Rat::int(best.into())));
                let base = base.expect("a feasible instance has a base model");
                if base.eval(&objective) == Ok(Rat::int(best.into())) {
                    base_optimal += 1;
                } else {
                    base_improved += 1;
                }
            }
            (got, best) => panic!(
                "case {case}: maximize found {:?}, brute force {best:?}",
                got.map(|(v, _)| v)
            ),
        }
    }
    assert!(
        base_optimal > 0 && base_improved > 0 && unsat > 0,
        "vacuous: {base_optimal} optimal bases, {base_improved} improved, {unsat} unsat"
    );
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
        Formula::Atom(_) => unreachable!("Boolean formulas only"),
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

/// The objective is evaluated with checked arithmetic: a base model
/// whose objective leaves the `i128` range halts the search instead of
/// panicking. Here `10^20·x` with `x ≥ 10^19` is at least 10^39.
#[test]
fn objective_overflow_on_base_model_halts() {
    let mut s = Solver::new();
    let x = s.new_real();
    let e19 = Rat::int(10i128.pow(19));
    s.assert_formula(LinExpr::var(x).ge(e19));
    s.assert_formula(LinExpr::var(x).le(e19 + Rat::int(5)));
    let objective = LinExpr::term(Rat::int(10i128.pow(20)), x);
    assert!(matches!(
        s.maximize(&objective, 0.0, 1e40, 1.0),
        OmtOutcome::Halted(HaltCause::Overflow)
    ));
}

/// A probe model whose objective leaves the `i128` range degrades the
/// search to the best model so far. The base model takes `¬p`, which
/// caps `d = x − y` at 0; the first probe needs `d > 0`, so it takes
/// `p`, which puts `x` (and with it `y`) at 10^19, where the terms of
/// `10^20·x − 10^20·y` overflow although their sum is at most 10^20.
#[test]
fn objective_overflow_on_probe_model_degrades_to_best_so_far() {
    let mut s = Solver::new();
    let x = s.new_real();
    let y = s.new_real();
    let p = s.new_bool();
    let d = LinExpr::var(x).minus(&LinExpr::var(y));
    s.assert_formula(d.ge(0));
    s.assert_formula(d.le(1));
    s.assert_formula(Formula::implies(Formula::not(Formula::Bool(p)), d.le(0)));
    s.assert_formula(Formula::implies(
        Formula::Bool(p),
        LinExpr::var(x).ge(Rat::int(10i128.pow(19))),
    ));
    let objective = d.scaled(Rat::int(10i128.pow(20)));
    let base = model(s.clone().check()).expect("satisfiable");
    assert!(!base.bool(p), "the base model must be the capped one");
    match s.maximize(&objective, 0.0, 1e21, 1.0) {
        OmtOutcome::Degraded {
            value,
            model,
            cause,
        } => {
            assert_eq!(cause, HaltCause::Overflow);
            assert_eq!(value, 0.0);
            assert!(!model.bool(p));
        }
        other => panic!("expected a degraded best-so-far, got {other:?}"),
    }
}

/// `maximize` stops once its `f64` bracket can no longer be split. Near
/// 10^32 doubles are 2^54 apart, far more than the tolerance of 1, so the
/// bisection target rounds onto an end of the bracket and a Sat probe
/// leaves it where it was. Without a probe budget that search never
/// ended; it now degrades to the best model with
/// [`HaltCause::Precision`], one double below the bracket's top.
#[test]
fn unsplittable_bracket_degrades_instead_of_spinning() {
    let mut s = Solver::new();
    let x = s.new_real();
    s.assert_formula(LinExpr::var(x).ge(0));
    s.assert_formula(LinExpr::var(x).le(Rat::int(10i128.pow(33))));
    match s.maximize(&LinExpr::var(x), 0.0, 1e32, 1.0) {
        OmtOutcome::Degraded {
            value,
            model,
            cause,
        } => {
            assert_eq!(cause, HaltCause::Precision);
            assert_eq!(value.next_up(), 1e32, "value {value}");
            assert_eq!(model.real(x), value);
        }
        other => panic!("expected a degraded best-so-far, got {other:?}"),
    }
}
