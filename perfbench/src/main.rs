//! `perfbench` — the repository's layer-attributed benchmark.
//!
//! ```text
//! perfbench --workload <month_sweep|smt_day|fleet_store> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload calls the layers' public functions directly on one
//! thread, checks its outputs once outside timing, prints every metric
//! with its unit, and ends with one JSON line. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs a fixed amount of work twice,
//! untraced then traced, and reports per-layer counts and self time
//! (spans are written to `.bench_out/` after the workload ends).
//! See `perfbench/README.md` for the workloads, metrics and layer map.

mod fixture;
mod fleet_store;
mod harness;
mod layers;
mod month_sweep;
mod smt_day;
mod trace;

use std::fmt::Write as _;
use std::path::Path;

use harness::{percentile, Config, Outcome};
use trace::Tracer;

/// Variables that silently change the program being measured
/// (`SmtScheduler::default()` reads the solver ones).
const GUARDED_ENV: [&str; 7] = [
    "SHATTER_BUDGET",
    "SHATTER_PORTFOLIO",
    "SHATTER_PORTFOLIO_HARD",
    "SHATTER_EXACT_SIMPLEX",
    "SHATTER_FAULTS",
    "SHATTER_STORE",
    "SHATTER_CACHE_MB",
];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed,
            seconds,
            trace,
        },
    })
}

fn main() {
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run: {var} is set and changes the measured program; unset it"
        );
        std::process::exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let tr = Tracer::new();
    let out = match args.workload.as_str() {
        "month_sweep" => harness::run(&month_sweep::MonthSweep, &args.cfg, &tr),
        "smt_day" => harness::run(&smt_day::SmtDay, &args.cfg, &tr),
        "fleet_store" => harness::run(&fleet_store::FleetStore, &args.cfg, &tr),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (month_sweep, smt_day, fleet_store)");
            std::process::exit(2);
        }
    };
    let correct = out.checks.iter().all(|c| c.ok) && out.failed == 0;
    let metrics = if args.cfg.trace {
        per_layer(&args, &out, &tr)
    } else {
        end_to_end(&args, &out)
    };
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .ok();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted(),
        out.failed
    );
}

type Row = (String, f64, &'static str);

/// Prints the human-readable report and returns the `end_to_end`
/// metrics of `BENCHMARK.json`.
fn end_to_end(args: &Args, out: &Outcome) -> Vec<Row> {
    let metrics: Vec<Row> = vec![
        ("ops_per_s".into(), out.main.ops_per_s(), "1/s"),
        (
            "op_ms_p50".into(),
            percentile(&out.main.best_op_ms(), 50.0),
            "ms",
        ),
        ("setup_s".into(), percentile(&out.setup_s, 50.0), "s"),
        ("peak_rss_mb".into(), out.peak_rss_mb, "MiB"),
    ];
    header(args, out);
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>14.4} {unit}");
    }
    println!(
        "  {:<24} {:>14.4} 1/s (median pass)",
        "ops_per_s",
        out.main.median_pass_ops_per_s()
    );
    println!(
        "  {:<24} {:>14.4} ms (all {} samples)",
        "op_ms_p50",
        percentile(&out.main.op_ms, 50.0),
        out.main.op_ms.len()
    );
    let listed: Vec<String> = out.main.walls_s.iter().map(|w| format!("{w:.3}")).collect();
    println!("  pass walls (s): {}", listed.join(" "));
    let listed: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  set-ups (s): {}", listed.join(" "));
    for m in &out.extra {
        println!("  {:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<24} {:>14.4} (ops failing: panic, degraded window, rejected schedule, failed check)",
        "failed_ops_frac",
        out.failed_ops as f64 / out.attempted().max(1) as f64
    );
    checks(out);
    metrics
}

/// Prints the per-layer table, writes the spans, and returns the
/// `per_layer` metrics of `BENCHMARK.json`.
fn per_layer(args: &Args, out: &Outcome, tr: &Tracer) -> Vec<Row> {
    header(args, out);
    let summary = tr.summary();
    println!(
        "  {:<36} {:>10} {:>12} {:>8} {:>8}",
        "layer", "calls", "self_s", "op%", "setup%"
    );
    let mut metrics: Vec<Row> = Vec::new();
    for layer in layers::LAYERS {
        let s = summary.get(layer).copied().unwrap_or_default();
        if s.calls > 0 {
            println!(
                "  {layer:<36} {:>10} {:>12.6} {:>8.2} {:>8.2}",
                s.calls, s.self_s, s.op_share_pct, s.setup_share_pct
            );
        }
        metrics.push((format!("{layer}.calls"), s.calls as f64, "count"));
        metrics.push((format!("{layer}.s"), s.self_s, "s"));
    }
    for (name, unit) in layers::COUNTERS {
        let v = tr.counter(name);
        if v > 0 {
            println!("  {name:<36} {v:>10} {unit}");
        }
        metrics.push((name.into(), v as f64, unit));
    }
    let gap = out
        .extra
        .iter()
        .find(|m| m.name == "reward_gap_pct")
        .map_or(0.0, |m| m.value);
    metrics.push(("core.smt_sched.reward_gap_pct".into(), gap, "%"));
    let overhead = out.traced_s - out.untraced_s;
    println!(
        "  tracing overhead: traced {:.4} s - untraced {:.4} s = {overhead:.4} s ({:.2}%)",
        out.traced_s,
        out.untraced_s,
        100.0 * overhead / out.untraced_s
    );
    metrics.push(("trace.overhead_s".into(), overhead, "s"));
    metrics.push((
        "trace.overhead_pct".into(),
        100.0 * overhead / out.untraced_s,
        "%",
    ));
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.cfg.seed));
    match std::fs::create_dir_all(dir).and_then(|()| tr.write_jsonl(&path)) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    checks(out);
    metrics
}

fn header(args: &Args, out: &Outcome) {
    println!(
        "perfbench workload={} seed={} trace={} passes={} ops={} failed={}",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.trace),
        out.passes,
        out.attempted(),
        out.failed
    );
}

fn checks(out: &Outcome) {
    for c in &out.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("  check {:<36} {verdict}: {}", c.name, c.detail);
    }
}
