//! `repro` — regenerates the SHATTER paper's evaluation through the
//! scenario engine's registry, fixture cache and parallel runner.
//!
//! Usage:
//!
//! ```text
//! repro [--list] [--only ID[,ID...]] [--threads N]
//!       [--days N] [--span N] [--seed N]
//!       [--json] [--no-text] [--out DIR] [--no-csv]
//!       [--baseline PATH] [--repeat N] [--gate-against PATH]
//!       [--inject PLAN] [--budget SPEC]
//!       [--fleet N] [--sample K] [--resume DIR] [--journal DIR]
//!       [--house-budget SPEC] [--fleet-retries N]
//!       [--store DIR] [--cache-mb N]
//!       [--fail-fast]
//!       [exhibit...]
//! repro                 # full suite, parallel, text + CSV
//! repro --only tab5,fig10 --threads 4 --json
//! repro --baseline BENCH_engine.json --days 6 --span 20
//! repro --baseline ci.json --repeat 3 --gate-against BENCH_engine.json  # perf gate
//! repro --inject 'fig3/scenario.run/panic' fig3 tab5         # chaos run
//! repro --fleet 100 --threads 8           # crash-safe fleet, journaled
//! repro --resume results/fleet-journal    # continue an interrupted fleet
//! repro --store results/store --fleet 24  # persist fixtures across runs
//! ```
//!
//! `--store DIR` puts a content-addressed disk
//! tier under the fixture cache: datasets, episodes, trained ADMs,
//! reward tables and window solutions computed by one run are replayed
//! by the next, so a warm run produces byte-identical tables several
//! times faster. `--cache-mb N` bounds the
//! in-RAM tier; eviction is deterministic (insertion order, never
//! wall-clock) and evicted entries refault through the disk tier — a
//! perf knob, never a correctness event. `--sample K` evaluates a
//! deterministic strided K-of-N subset of a `--fleet N` run whose
//! journal records stay verbatim-compatible with the exhaustive run.
//!
//! `--fleet N` evaluates N deterministically generated homes under one
//! shared work-pool budget, journaling every completed house to
//! `--journal DIR` (default `<out>/fleet-journal`) through the durable
//! `shatter-store` record format. A killed run — power loss, `kill -9`,
//! injected crash — is continued with `--resume DIR`: the run
//! configuration is reconstructed from the journal's manifest, valid
//! records are replayed verbatim (never recomputed) and only
//! missing/failed houses run; the final tables are byte-identical to an
//! uninterrupted run. `--house-budget` sets the per-house deterministic
//! effort watchdog (same syntax as `--budget`) and `--fleet-retries`
//! bounds retries before a crashing house is quarantined.
//!
//! `--baseline PATH --repeat N` measures the serial-uncached and
//! parallel-cached legs N times (default 1) and writes the run with the
//! median serial-uncached wall plus every run's walls;
//! `--gate-against` compares that median with the committed artifact.
//!
//! Dependability: a panicking scenario is isolated to a `FAILED` row and
//! the rest of the suite still runs (`--fail-fast` stops instead); the
//! exit code is 1 when any scenario failed. `--inject` installs a
//! deterministic fault plan (`scenario/site/kind[@hit]`,
//! comma-separated) and `--budget` caps solver effort per SMT window
//! (`conflicts=N,probes=N`) with anytime degradation; the budget
//! travels to the scenarios in `RunParams::smt`. Each setting has one
//! spelling, and the binary reads no environment variables.

use std::path::PathBuf;

use shatter_bench::fleet::{FleetPolicy, FleetScenario};
use shatter_bench::scenarios::builtin_registry;
use shatter_core::SmtScheduler;
use shatter_engine::baseline::measure;
use shatter_engine::runner::run_scenarios;
use shatter_engine::{
    CsvReporter, FixtureCache, JsonLinesReporter, Reporter, RunConfig, RunParams, TextReporter,
};
use shatter_smt::Budget;

struct Options {
    list: bool,
    wanted: Vec<String>,
    threads: usize,
    days: usize,
    span: usize,
    seed: u64,
    json: bool,
    text: bool,
    csv: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
    repeat: Option<usize>,
    gate_against: Option<PathBuf>,
    inject: Option<String>,
    smt: SmtScheduler,
    fail_fast: bool,
    fleet: Option<usize>,
    sample: Option<usize>,
    resume: Option<PathBuf>,
    journal: Option<PathBuf>,
    house_budget: Option<String>,
    fleet_retries: Option<u32>,
    store: Option<PathBuf>,
    cache_mb: Option<u64>,
}

/// Fraction by which the measured serial suite wall-clock may exceed the
/// committed baseline before `--gate-against` fails the run. Tightened
/// from 30% after PR 4: the committed artifact now reflects the CDCL
/// rewrite, so the suite wall is solver-bound and stable enough to hold
/// a 20% band even on shared runners.
const GATE_SLACK: f64 = 0.20;

/// Extracts a numeric field from a baseline JSON document (our own
/// `Baseline::to_json` output — a flat `"field": value` scan suffices).
fn json_f64_field(text: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Parses the command line, collecting *every* problem instead of dying
/// on the first: a caller with several typos sees them all in one round
/// trip before the nonzero usage exit.
fn parse_args(known_ids: &[String]) -> Result<Options, Vec<String>> {
    let mut opts = Options {
        list: false,
        wanted: Vec::new(),
        threads: 0,
        days: 30,
        span: 60,
        seed: 0,
        json: false,
        text: true,
        csv: true,
        out: PathBuf::from("results"),
        baseline: None,
        repeat: None,
        gate_against: None,
        inject: None,
        smt: SmtScheduler::default(),
        fail_fast: false,
        fleet: None,
        sample: None,
        resume: None,
        journal: None,
        house_budget: None,
        fleet_retries: None,
        store: None,
        cache_mb: None,
    };
    let mut errors: Vec<String> = Vec::new();
    fn next_num(
        args: &mut dyn Iterator<Item = String>,
        what: &str,
        errors: &mut Vec<String>,
    ) -> usize {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            errors.push(format!("{what} needs a number"));
            0
        })
    }
    fn next_value(
        args: &mut dyn Iterator<Item = String>,
        what: &str,
        needs: &str,
        errors: &mut Vec<String>,
    ) -> Option<String> {
        let v = args.next();
        if v.is_none() {
            errors.push(format!("{what} needs {needs}"));
        }
        v
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => opts.list = true,
            "--only" => {
                if let Some(ids) = next_value(&mut args, "--only", "ids", &mut errors) {
                    opts.wanted
                        .extend(ids.split(',').map(|s| s.trim().to_string()));
                }
            }
            "--threads" => opts.threads = next_num(&mut args, "--threads", &mut errors),
            "--days" => opts.days = next_num(&mut args, "--days", &mut errors),
            "--span" => opts.span = next_num(&mut args, "--span", &mut errors),
            // --seed offsets every dataset seed (XORed into the canonical
            // per-house seeds), regenerating the synthetic months.
            "--seed" => opts.seed = next_num(&mut args, "--seed", &mut errors) as u64,
            "--json" => opts.json = true,
            "--no-text" => opts.text = false,
            "--no-csv" => opts.csv = false,
            "--out" => {
                if let Some(p) = next_value(&mut args, "--out", "a path", &mut errors) {
                    opts.out = PathBuf::from(p);
                }
            }
            "--baseline" => {
                opts.baseline =
                    next_value(&mut args, "--baseline", "a path", &mut errors).map(PathBuf::from);
            }
            "--repeat" => match next_value(&mut args, "--repeat", "a run count", &mut errors)
                .map(|v| v.parse::<usize>())
            {
                Some(Ok(n)) if n >= 1 => opts.repeat = Some(n),
                Some(_) => errors.push("--repeat needs a run count >= 1".into()),
                None => {}
            },
            "--gate-against" => {
                opts.gate_against = next_value(&mut args, "--gate-against", "a path", &mut errors)
                    .map(PathBuf::from);
            }
            "--inject" => {
                if let Some(plan) = next_value(&mut args, "--inject", "a fault plan", &mut errors) {
                    if let Err(e) = shatter_faults::parse_plan(&plan) {
                        errors.push(format!("--inject: {e}"));
                    }
                    opts.inject = Some(plan);
                }
            }
            "--budget" => {
                if let Some(spec) = next_value(&mut args, "--budget", "a budget spec", &mut errors)
                {
                    match Budget::parse(&spec) {
                        Ok(b) => opts.smt.budget = (!b.is_unlimited()).then_some(b),
                        Err(e) => errors.push(format!("--budget: {e}")),
                    }
                }
            }
            "--fleet" => opts.fleet = Some(next_num(&mut args, "--fleet", &mut errors)),
            "--sample" => opts.sample = Some(next_num(&mut args, "--sample", &mut errors)),
            "--store" => {
                opts.store =
                    next_value(&mut args, "--store", "a dir", &mut errors).map(PathBuf::from);
            }
            "--cache-mb" => {
                opts.cache_mb = Some(next_num(&mut args, "--cache-mb", &mut errors) as u64);
            }
            "--resume" => {
                opts.resume = next_value(&mut args, "--resume", "a journal dir", &mut errors)
                    .map(PathBuf::from);
            }
            "--journal" => {
                opts.journal =
                    next_value(&mut args, "--journal", "a dir", &mut errors).map(PathBuf::from);
            }
            "--house-budget" => {
                if let Some(spec) =
                    next_value(&mut args, "--house-budget", "a budget spec", &mut errors)
                {
                    if let Err(e) = Budget::parse(&spec) {
                        errors.push(format!("--house-budget: {e}"));
                    }
                    opts.house_budget = Some(spec);
                }
            }
            "--fleet-retries" => {
                opts.fleet_retries =
                    Some(next_num(&mut args, "--fleet-retries", &mut errors) as u32);
            }
            "--fail-fast" => opts.fail_fast = true,
            "all" => opts.wanted.extend(known_ids.iter().cloned()),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--list] [--only ID[,ID...]] [--threads N]\n\
                     \x20            [--days N] [--span N] [--seed N] [--json] [--no-text]\n\
                     \x20            [--out DIR] [--no-csv] [--baseline PATH] [--repeat N]\n\
                     \x20            [--gate-against PATH]\n\
                     \x20            [--inject PLAN] [--budget SPEC]\n\
                     \x20            [--fleet N] [--sample K] [--resume DIR] [--journal DIR]\n\
                     \x20            [--house-budget SPEC] [--fleet-retries N]\n\
                     \x20            [--store DIR] [--cache-mb N]\n\
                     \x20            [--fail-fast] [exhibit...]"
                );
                println!("exhibits: {}", known_ids.join(" "));
                std::process::exit(0);
            }
            other if known_ids.iter().any(|id| id == other) => {
                opts.wanted.push(other.to_string());
            }
            other => errors.push(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if errors.is_empty() {
        Ok(opts)
    } else {
        Err(errors)
    }
}

fn main() {
    let mut registry = builtin_registry();
    let ids = registry.ids();
    let mut opts = match parse_args(&ids) {
        Ok(opts) => opts,
        Err(errors) => {
            for e in &errors {
                eprintln!("repro: {e}");
            }
            std::process::exit(2);
        }
    };

    if let Some(plan) = &opts.inject {
        // Validated during parsing; installing can only re-succeed.
        shatter_faults::install_str(plan).unwrap_or_else(|e| die(&format!("--inject: {e}")));
    }

    // Crash-safe fleet wiring. --resume reconstructs the interrupted
    // run's configuration from the journal's manifest — the manifest
    // wins over any CLI params, so replayed records address the exact
    // same houses — and --fleet registers the journaled fleet scenario.
    if opts.resume.is_some() && opts.fleet.is_some() {
        die("--resume reconstructs the fleet from the journal manifest; drop --fleet");
    }
    if let Some(dir) = opts.resume.clone() {
        let entries = shatter_store::read_manifest(&dir).unwrap_or_else(|e| {
            die(&format!(
                "--resume: reading {}: {e}",
                dir.join(shatter_store::MANIFEST_NAME).display()
            ))
        });
        let field = |key: &str| -> String {
            shatter_store::manifest_value(&entries, key)
                .unwrap_or_else(|| die(&format!("--resume: manifest has no {key:?} entry")))
                .to_string()
        };
        let num = |key: &str| -> usize {
            field(key)
                .parse()
                .unwrap_or_else(|_| die(&format!("--resume: bad {key:?} in manifest")))
        };
        opts.fleet = Some(num("fleet"));
        opts.days = num("days");
        opts.span = num("span");
        opts.seed = field("seed")
            .parse()
            .unwrap_or_else(|_| die("--resume: bad \"seed\" in manifest"));
        // A journal written before a budget key was retired (`pivots=`)
        // names that key here: stop rather than resume under another
        // budget.
        let house_budget = field("house_budget");
        if let Err(e) = Budget::parse(&house_budget) {
            die(&format!("--resume: manifest house_budget: {e}"));
        }
        opts.house_budget = Some(house_budget);
        opts.fleet_retries = Some(num("retries") as u32);
        // Present only when the interrupted run was sampled; exhaustive
        // manifests predating the entry resume unchanged.
        opts.sample = shatter_store::manifest_value(&entries, "sample").map(|v| {
            v.parse()
                .unwrap_or_else(|_| die("--resume: bad \"sample\" in manifest"))
        });
        opts.journal = Some(dir);
    }
    if let Some(k) = opts.sample {
        match opts.fleet {
            None => die("--sample K only applies to --fleet N runs"),
            Some(n) if k == 0 || k > n => {
                die(&format!("--sample {k} must be in 1..={n} (the fleet size)"))
            }
            Some(_) => {}
        }
    }
    if let Some(n) = opts.fleet {
        let mut policy = FleetPolicy::default();
        if let Some(spec) = &opts.house_budget {
            policy.house_budget =
                Budget::parse(spec).unwrap_or_else(|e| die(&format!("--house-budget: {e}")));
        }
        if let Some(r) = opts.fleet_retries {
            policy.max_retries = r;
        }
        let dir = opts
            .journal
            .clone()
            .unwrap_or_else(|| opts.out.join("fleet-journal"));
        let mut scenario = FleetScenario::new("fleet", n)
            .with_policy(policy)
            .with_journal(dir);
        if let Some(k) = opts.sample {
            scenario = scenario.with_sample(k);
        }
        registry.register(scenario);
        if opts.wanted.is_empty() {
            opts.wanted.push("fleet".to_string());
        }
    }

    if opts.list {
        println!("{:<12} {:<38} description", "id", "title");
        for s in registry.all() {
            println!("{:<12} {:<38} {}", s.id(), s.title(), s.description());
        }
        return;
    }

    let scenarios = if opts.wanted.is_empty() {
        registry.all()
    } else {
        registry.select(&opts.wanted).unwrap_or_else(|bad| {
            for id in &bad {
                eprintln!("repro: unknown exhibit {id:?}");
            }
            eprintln!("repro: known exhibits: {} (try --list)", ids.join(" "));
            std::process::exit(2);
        })
    };

    let cfg = RunConfig {
        threads: opts.threads,
        params: RunParams {
            days: opts.days,
            span: opts.span,
            base_seed: opts.seed,
            smt: opts.smt,
        },
        fail_fast: opts.fail_fast,
    };

    if let Some(path) = &opts.baseline {
        let repeat = opts.repeat.unwrap_or(1);
        eprintln!(
            "measuring baseline over {} scenarios (days={}, span={}, {repeat} run(s)) ...",
            scenarios.len(),
            opts.days,
            opts.span
        );
        let baseline = measure(&scenarios, &cfg, repeat);
        if let Err(e) = std::fs::write(path, baseline.to_json()) {
            die(&format!("writing {}: {e}", path.display()));
        }
        for (i, (serial, parallel)) in baseline.samples.iter().enumerate() {
            eprintln!(
                "run {}/{repeat}: serial+uncached {:.2}s, parallel+cached {:.2}s",
                i + 1,
                serial.as_secs_f64(),
                parallel.as_secs_f64()
            );
        }
        eprintln!(
            "median run: serial+uncached {:.2}s -> parallel+cached {:.2}s ({:.2}x, {} threads); wrote {}",
            baseline.serial_uncached_wall.as_secs_f64(),
            baseline.parallel_cached_wall.as_secs_f64(),
            baseline.speedup(),
            baseline.threads,
            path.display()
        );
        // Perf gate: the fresh median serial-uncached suite wall-clock
        // may not regress more than GATE_SLACK over the committed
        // artifact's.
        if let Some(gate) = &opts.gate_against {
            let committed = std::fs::read_to_string(gate)
                .unwrap_or_else(|e| die(&format!("reading {}: {e}", gate.display())));
            let committed_serial = json_f64_field(&committed, "serial_uncached_s")
                .unwrap_or_else(|| die(&format!("{}: no serial_uncached_s", gate.display())));
            let measured = baseline.serial_uncached_wall.as_secs_f64();
            let limit = committed_serial * (1.0 + GATE_SLACK);
            if measured > limit {
                eprintln!(
                    "perf gate FAILED: serial suite {measured:.2}s exceeds {limit:.2}s \
                     (committed {committed_serial:.2}s + {:.0}% slack) from {}",
                    GATE_SLACK * 100.0,
                    gate.display()
                );
                std::process::exit(1);
            }
            eprintln!(
                "perf gate ok: serial suite {measured:.2}s within {limit:.2}s \
                 (committed {committed_serial:.2}s + {:.0}% slack)",
                GATE_SLACK * 100.0
            );
        }
        return;
    }
    if opts.gate_against.is_some() {
        die("--gate-against requires --baseline");
    }
    if opts.repeat.is_some() {
        die("--repeat requires --baseline");
    }

    eprintln!(
        "SHATTER scenario engine — {} scenario(s), days={}, span={}, threads={}",
        scenarios.len(),
        opts.days,
        opts.span,
        cfg.effective_threads()
    );

    let mut cache = FixtureCache::new();
    if let Some(dir) = &opts.store {
        let store = shatter_store::BlobStore::open(dir, shatter_engine::disk_schema_sig())
            .unwrap_or_else(|e| die(&format!("--store: opening {}: {e}", dir.display())));
        cache = cache.with_disk(store);
    }
    if let Some(mb) = opts.cache_mb {
        cache = cache.with_memory_budget(mb * 1024 * 1024);
    }
    let outcome = run_scenarios(&scenarios, &cache, &cfg);

    let mut reporters: Vec<Box<dyn Reporter>> = Vec::new();
    if opts.text {
        reporters.push(Box::new(TextReporter::new(std::io::stdout())));
    }
    if opts.json {
        reporters.push(Box::new(JsonLinesReporter::new(std::io::stdout())));
    }
    if opts.csv {
        reporters.push(Box::new(CsvReporter::new(&opts.out)));
    }
    for r in &mut reporters {
        for report in &outcome.reports {
            if let Err(e) = r.scenario(report) {
                die(&format!("reporter error: {e}"));
            }
        }
        if let Err(e) = r.finish(&outcome) {
            die(&format!("reporter error: {e}"));
        }
    }

    // A failed scenario never aborts the suite (unless --fail-fast), but
    // it must fail the invocation.
    if outcome.any_failed() {
        let failed: Vec<&str> = outcome.failures().iter().map(|r| r.id.as_str()).collect();
        eprintln!(
            "repro: {} scenario(s) FAILED: {}",
            failed.len(),
            failed.join(" ")
        );
        std::process::exit(1);
    }
}
