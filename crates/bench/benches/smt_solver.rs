//! Criterion bench for the `smtlite` substrate itself: CDCL SAT on a
//! pigeonhole family and OMT maximization of a pseudo-Boolean chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_smt::ast::{BoolVar, Formula};
use shatter_smt::sat::{Lit, SatSolver};
use shatter_smt::{Objective, Solver};

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

/// `n` slots choosing one of four zones each, scored by a rotating
/// weight pattern, where two neighbouring slots may not both pick their
/// heaviest zone: the base model is rarely optimal, so the search probes.
fn bench_omt(c: &mut Criterion) {
    let mut group = c.benchmark_group("omt_pb_chain");
    group.sample_size(10);
    for n in [5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = Solver::new();
                let slots: Vec<Vec<BoolVar>> = (0..n)
                    .map(|_| (0..4).map(|_| s.new_bool()).collect())
                    .collect();
                let mut objective = Objective::new();
                for (t, row) in slots.iter().enumerate() {
                    let weights = (0..4).map(|z| ((t + z) % 4) as i64 * 10 + z as i64);
                    objective.add_group(row.iter().copied().zip(weights));
                }
                for t in 1..n {
                    let heavy = |u: usize| (4 - u % 4) % 4;
                    s.assert_formula(Formula::or([
                        Formula::not(Formula::Bool(slots[t - 1][heavy(t - 1)])),
                        Formula::not(Formula::Bool(slots[t][heavy(t)])),
                    ]));
                }
                black_box(s.maximize(&objective))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sat, bench_omt);
criterion_main!(benches);
