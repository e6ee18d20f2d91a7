//! Machine-readable performance baseline: serial-uncached vs
//! parallel-cached execution of a scenario set (the `BENCH_engine.json`
//! artifact).
//!
//! The serial-uncached leg reproduces the pre-engine evaluation harness
//! (one fresh fixture world per exhibit, one thread); the
//! parallel-cached leg is the engine's normal mode (shared
//! [`FixtureCache`], worker pool).

use std::sync::Arc;
use std::time::Duration;

use crate::fixtures::{CacheStats, FixtureCache};
use crate::runner::{run_scenarios, RunConfig};
use crate::scenario::Scenario;
use crate::table::json_string;

/// Per-scenario timings of the two legs.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Scenario id.
    pub id: String,
    /// Wall-clock in the serial-uncached leg.
    pub serial_uncached: Duration,
    /// Wall-clock in the parallel-cached leg.
    pub parallel_cached: Duration,
}

/// The full baseline measurement: the run with the median
/// serial-uncached wall among [`measure`]'s repeats, plus every run's
/// two walls.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Days parameter of the run.
    pub days: usize,
    /// Span parameter of the run.
    pub span: usize,
    /// Threads used in the parallel leg.
    pub threads: usize,
    /// Total wall-clock of the serial-uncached leg.
    pub serial_uncached_wall: Duration,
    /// Total wall-clock of the parallel-cached leg.
    pub parallel_cached_wall: Duration,
    /// Every repeat's `(serial_uncached, parallel_cached)` walls, in
    /// measurement order.
    pub samples: Vec<(Duration, Duration)>,
    /// Cache counters accumulated during the parallel-cached leg.
    pub cache: CacheStats,
    /// Per-scenario timings.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Wall-clock speedup of parallel+cached over serial+uncached.
    pub fn speedup(&self) -> f64 {
        let p = self.parallel_cached_wall.as_secs_f64();
        if p <= 0.0 {
            return f64::INFINITY;
        }
        self.serial_uncached_wall.as_secs_f64() / p
    }

    /// Renders as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"days\": {},\n", self.days));
        out.push_str(&format!("  \"span\": {},\n", self.span));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"serial_uncached_s\": {:.3},\n",
            self.serial_uncached_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"parallel_cached_s\": {:.3},\n",
            self.parallel_cached_wall.as_secs_f64()
        ));
        out.push_str(&format!("  \"speedup\": {:.2},\n", self.speedup()));
        let samples = |leg: fn(&(Duration, Duration)) -> Duration| {
            let secs: Vec<String> = self
                .samples
                .iter()
                .map(|s| format!("{:.3}", leg(s).as_secs_f64()))
                .collect();
            secs.join(", ")
        };
        out.push_str(&format!(
            "  \"serial_uncached_samples_s\": [{}],\n",
            samples(|s| s.0)
        ));
        out.push_str(&format!(
            "  \"parallel_cached_samples_s\": [{}],\n",
            samples(|s| s.1)
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"disk_hits\": {}, \"evictions\": {}, \"hit_rate\": {}}},\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.disk_hits,
            self.cache.evictions,
            self.cache
                .hit_rate()
                .map_or_else(|| "null".to_string(), |r| format!("{r:.3}"))
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"serial_uncached_s\": {:.3}, \"parallel_cached_s\": {:.3}}}{}\n",
                json_string(&e.id),
                e.serial_uncached.as_secs_f64(),
                e.parallel_cached.as_secs_f64(),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measures both legs over the same scenario set `repeat` times (at
/// least once) and returns the run with the median serial-uncached
/// wall (the lower middle one for an even count), carrying every run's
/// walls in [`Baseline::samples`]. One sample of a suite that takes a
/// few seconds drifts by tens of percent on a shared VM; the median of
/// several is what a perf gate can compare.
///
/// The serial leg hands every scenario a [`FixtureCache::disabled`]
/// cache — every fixture, model and memoized intermediate (schedules,
/// reward tables, benign day costs) is recomputed on demand, which is
/// exactly how the pre-engine ad-hoc harness executed — on one thread.
/// The parallel leg runs the engine's normal shared-cache pool with
/// `cfg.threads`. Each run starts from fresh caches.
pub fn measure(scenarios: &[Arc<dyn Scenario>], cfg: &RunConfig, repeat: usize) -> Baseline {
    let mut runs: Vec<Baseline> = (0..repeat.max(1))
        .map(|_| measure_once(scenarios, cfg))
        .collect();
    let samples = runs
        .iter()
        .map(|b| (b.serial_uncached_wall, b.parallel_cached_wall))
        .collect();
    runs.sort_by_key(|b| b.serial_uncached_wall);
    let mut median = runs.swap_remove((runs.len() - 1) / 2);
    median.samples = samples;
    median
}

/// One run of both legs.
fn measure_once(scenarios: &[Arc<dyn Scenario>], cfg: &RunConfig) -> Baseline {
    // Serial, uncached: memoization off, one thread.
    let mut serial = Vec::with_capacity(scenarios.len());
    let serial_start = std::time::Instant::now();
    for s in scenarios {
        let off = FixtureCache::disabled();
        let one = run_scenarios(
            std::slice::from_ref(s),
            &off,
            &RunConfig {
                threads: 1,
                params: cfg.params,
                fail_fast: cfg.fail_fast,
            },
        );
        serial.push(one.reports.into_iter().next().expect("one report"));
    }
    let serial_wall = serial_start.elapsed();

    // Parallel, cached.
    let shared = FixtureCache::new();
    let parallel = run_scenarios(scenarios, &shared, cfg);

    let entries = serial
        .iter()
        .zip(&parallel.reports)
        .map(|(s, p)| {
            debug_assert_eq!(s.id, p.id);
            BaselineEntry {
                id: s.id.clone(),
                serial_uncached: s.wall,
                parallel_cached: p.wall,
            }
        })
        .collect();

    Baseline {
        days: cfg.params.days,
        span: cfg.params.span,
        threads: parallel.threads,
        serial_uncached_wall: serial_wall,
        parallel_cached_wall: parallel.total_wall,
        samples: vec![(serial_wall, parallel.total_wall)],
        cache: parallel.cache,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::CacheStats;
    use crate::scenario::{FnScenario, RunParams};
    use crate::table::Table;

    #[test]
    fn repeats_keep_the_median_serial_run_and_every_sample() {
        let probe: Arc<dyn Scenario> = Arc::new(FnScenario::new("probe", "probe", |_cx| {
            Table::new("probe", "probe", &["x"])
        }));
        let cfg = RunConfig {
            threads: 1,
            params: RunParams::default(),
            fail_fast: false,
        };
        let b = measure(&[probe], &cfg, 3);
        assert_eq!(b.samples.len(), 3);
        let mut serial: Vec<Duration> = b.samples.iter().map(|s| s.0).collect();
        serial.sort();
        assert_eq!(b.serial_uncached_wall, serial[1]);
        assert!(b
            .samples
            .contains(&(b.serial_uncached_wall, b.parallel_cached_wall)));
        assert_eq!(b.entries.len(), 1);
    }

    #[test]
    fn json_shape_and_speedup() {
        let b = Baseline {
            days: 6,
            span: 20,
            threads: 4,
            serial_uncached_wall: Duration::from_secs(10),
            parallel_cached_wall: Duration::from_secs(4),
            samples: vec![
                (Duration::from_secs(12), Duration::from_secs(5)),
                (Duration::from_secs(10), Duration::from_secs(4)),
            ],
            cache: CacheStats {
                hits: 10,
                misses: 5,
                ..CacheStats::default()
            },
            entries: vec![BaselineEntry {
                id: "fig3".into(),
                serial_uncached: Duration::from_secs(2),
                parallel_cached: Duration::from_secs(1),
            }],
        };
        assert!((b.speedup() - 2.5).abs() < 1e-9);
        let j = b.to_json();
        assert!(j.contains("\"speedup\": 2.50"));
        assert!(j.contains("\"serial_uncached_samples_s\": [12.000, 10.000],"));
        assert!(j.contains("\"parallel_cached_samples_s\": [5.000, 4.000],"));
        assert!(j.contains("\"id\": \"fig3\""));
        assert!(j.contains("\"hit_rate\": 0.667"));
    }
}
