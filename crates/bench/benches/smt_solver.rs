//! Criterion bench for the `smtlite` substrate itself: CDCL SAT on a
//! pigeonhole family and OMT maximization on a box LP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_smt::ast::{Formula, LinExpr};
use shatter_smt::sat::{Lit, SatSolver};
use shatter_smt::Solver;

fn pigeonhole(pigeons: usize) -> SatSolver {
    let holes = pigeons - 1;
    let mut s = SatSolver::new();
    let var = |i: usize, j: usize| i * holes + j;
    for _ in 0..pigeons * holes {
        s.new_var();
    }
    for i in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|j| Lit::pos(var(i, j))).collect();
        s.add_clause(&clause);
    }
    for j in 0..holes {
        for a in 0..pigeons {
            for b in (a + 1)..pigeons {
                s.add_clause(&[Lit::neg(var(a, j)), Lit::neg(var(b, j))]);
            }
        }
    }
    s
}

fn bench_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdcl_pigeonhole");
    group.sample_size(10);
    for n in [5usize, 6, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n);
                black_box(s.solve(&[], None))
            })
        });
    }
    group.finish();
}

fn bench_omt(c: &mut Criterion) {
    let mut group = c.benchmark_group("omt_box_lp");
    group.sample_size(10);
    for n in [5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = Solver::new();
                let mut obj = LinExpr::constant(0);
                for i in 0..n {
                    let x = s.new_real();
                    s.assert_formula(LinExpr::var(x).ge(0));
                    s.assert_formula(LinExpr::var(x).le((i as i64 % 7) + 1));
                    obj = obj.plus(&LinExpr::var(x));
                }
                black_box(s.maximize(&obj, 0.0, 200.0, 1e-3))
            })
        });
    }
    group.finish();
}

fn bench_theory_conflicts(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpllt_conflict_loop");
    group.sample_size(10);
    group.bench_function("chained_choices", |b| {
        b.iter(|| {
            let mut s = Solver::new();
            let x = s.new_real();
            // Ten Boolean choices, each forcing incompatible bounds unless
            // the right polarity is picked.
            for i in 0..10 {
                let p = s.new_bool();
                s.assert_formula(Formula::implies(
                    Formula::Bool(p),
                    LinExpr::var(x).ge(i as i64),
                ));
                s.assert_formula(Formula::implies(
                    Formula::not(Formula::Bool(p)),
                    LinExpr::var(x).le(-(i as i64) - 1),
                ));
            }
            black_box(s.check())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sat, bench_omt, bench_theory_conflicts);
criterion_main!(benches);
