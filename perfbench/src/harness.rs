//! The measuring loop shared by every workload: repeated set-up, whole
//! timed passes until the run's time is spent, and the fixed number of
//! alternating untraced and traced passes of a traced run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::trace::{Tracer, SETUP};

/// One run's command-line settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Latencies and wall times of one leg of ops (fleet_store has a cold
/// and a warm leg; the other workloads use only `main`).
#[derive(Default)]
pub struct Leg {
    pub op_ms: Vec<f64>,
    /// Wall time of each timed run of ops, one per pass.
    pub walls_s: Vec<f64>,
}

impl Leg {
    /// Runs one op: timed, traced as a `bench.op` root span, a panic
    /// caught (`None`).
    pub fn op<R>(&mut self, tr: &Tracer, f: impl FnOnce() -> R) -> Option<R> {
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| tr.op(f)));
        self.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if out.is_err() {
            tr.close_all();
        }
        out.ok()
    }

    /// Records the wall time of `f`, this pass's run of ops.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Leg) -> R) -> R {
        let start = Instant::now();
        let out = f(self);
        self.walls_s.push(start.elapsed().as_secs_f64());
        out
    }

    fn ops_per_pass(&self) -> usize {
        self.op_ms.len() / self.walls_s.len().max(1)
    }

    /// Ops per second over each op's fastest repetition (see
    /// [`Leg::best_op_ms`]).
    pub fn ops_per_s(&self) -> f64 {
        let best = self.best_op_ms();
        1e3 * best.len() as f64 / best.iter().sum::<f64>()
    }

    /// Ops per second of the median pass, for comparison.
    pub fn median_pass_ops_per_s(&self) -> f64 {
        self.ops_per_pass() as f64 / percentile(&self.walls_s, 50.0)
    }

    /// Each op's fastest repetition over all passes, in op order. Every
    /// pass repeats the same deterministic work (checked), and load from
    /// other tenants of the machine only ever adds time, so an op's
    /// fastest repetition is the steadiest estimate of its own cost.
    pub fn best_op_ms(&self) -> Vec<f64> {
        let n = self.ops_per_pass();
        (0..n)
            .map(|i| {
                self.op_ms[i..]
                    .iter()
                    .step_by(n)
                    .fold(f64::INFINITY, |a, &b| a.min(b))
            })
            .collect()
    }

    fn absorb(&mut self, other: Leg) {
        self.op_ms.extend(other.op_ms);
        self.walls_s.extend(other.walls_s);
    }
}

/// Timings of one pass over a workload's fixed op list.
#[derive(Default)]
pub struct PassTiming {
    pub main: Leg,
    pub warm: Leg,
}

/// A workload-specific metric printed beside the end-to-end ones.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check, run outside timing.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub passes: usize,
    pub main: Leg,
    pub warm: Leg,
    /// Ops that panicked, produced an invalid DP schedule, or differed
    /// from the first pass: the benchmark could not measure them.
    pub failed: u64,
    /// Ops counted by `failed_ops_frac` (panic, degraded window,
    /// schedule rejected by `validate`, failed check) — includes the
    /// formal scheduler's rejected schedules, a measured result.
    pub failed_ops: u64,
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    pub peak_rss_mb: f64,
    /// Traced run only: wall of the untraced and traced pass sets.
    pub untraced_s: f64,
    pub traced_s: f64,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        (self.main.op_ms.len() + self.warm.op_ms.len()) as u64
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }
}

/// A benchmark workload: a set-up, a pass over a fixed op list, and a
/// correctness pass over the collected outputs.
pub trait Workload {
    type State;
    type Pass;
    /// Set-ups per measured run; `setup_s` reports their median.
    const SETUP_REPEATS: usize;
    /// Traced passes (and as many untraced ones) in a traced run:
    /// fixed, so its counts repeat exactly.
    const TRACE_PASSES: usize;

    fn setup(&self, seed: u64, tr: &Tracer) -> Self::State;
    fn pass(&self, st: &mut Self::State, tr: &Tracer, t: &mut PassTiming) -> Self::Pass;
    /// Runs the correctness checks (outside timing) and fills the
    /// failure counts and workload-specific metrics.
    fn finish(&self, st: &mut Self::State, passes: &[Self::Pass], tr: &Tracer, out: &mut Outcome);
}

pub fn run<W: Workload>(w: &W, cfg: &Config, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let mut pass = |st: &mut W::State, out: &mut Outcome| {
        let mut t = PassTiming::default();
        passes.push(w.pass(st, tr, &mut t));
        out.main.absorb(t.main);
        out.warm.absorb(t.warm);
        out.passes += 1;
    };
    let mut st = if cfg.trace {
        tr.set_enabled(true);
        let mut st = tr.span(SETUP, || w.setup(cfg.seed, tr));
        tr.set_enabled(false);
        // One untimed warm-up pass, then untraced and traced passes
        // alternate U T T U ..., so drift on the machine cancels out
        // of the tracing overhead.
        pass(&mut st, &mut out);
        for k in 0..2 * W::TRACE_PASSES {
            let traced = matches!(k % 4, 1 | 2);
            tr.set_enabled(traced);
            let start = Instant::now();
            pass(&mut st, &mut out);
            let wall = start.elapsed().as_secs_f64();
            if traced {
                out.traced_s += wall;
            } else {
                out.untraced_s += wall;
            }
        }
        tr.set_enabled(false);
        st
    } else {
        let mut last = None;
        for _ in 0..W::SETUP_REPEATS {
            drop(last.take());
            let start = Instant::now();
            let st = w.setup(cfg.seed, tr);
            out.setup_s.push(start.elapsed().as_secs_f64());
            last = Some(st);
        }
        let mut st = last.expect("at least one set-up");
        let start = Instant::now();
        loop {
            pass(&mut st, &mut out);
            if start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }
        st
    };
    out.peak_rss_mb = peak_rss_mb();
    w.finish(&mut st, &passes, tr, &mut out);
    out
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Linear-interpolated percentile `p` (0–100) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// FNV-1a fingerprint of a schedule's zone rows, for cross-pass
/// determinism checks without retaining whole schedules.
pub fn fingerprint(s: &shatter_core::AttackSchedule) -> u64 {
    let mut bytes = Vec::with_capacity(s.zones.iter().map(Vec::len).sum::<usize>() * 2);
    for row in &s.zones {
        for z in row {
            bytes.extend_from_slice(&(z.index() as u16).to_le_bytes());
        }
    }
    shatter_store::fnv1a_bytes(&bytes)
}
