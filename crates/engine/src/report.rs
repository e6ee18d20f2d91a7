//! Pluggable output sinks for runner results: aligned text, per-exhibit
//! CSV files, and JSON lines.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::runner::{RunOutcome, ScenarioReport, ScenarioStatus};
use crate::table::{json_string, write_csv, Table};

/// A sink consuming scenario reports as they are emitted, plus a final
/// run summary.
pub trait Reporter {
    /// Consumes one scenario's report.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the underlying sink.
    fn scenario(&mut self, report: &ScenarioReport) -> io::Result<()>;

    /// Consumes the run summary after all scenarios.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the underlying sink.
    fn finish(&mut self, _outcome: &RunOutcome) -> io::Result<()> {
        Ok(())
    }
}

/// Renders aligned text tables plus a timing summary to a writer.
pub struct TextReporter<W: Write> {
    w: W,
}

impl<W: Write> TextReporter<W> {
    /// Builds a text reporter over any writer (e.g. stdout).
    pub fn new(w: W) -> TextReporter<W> {
        TextReporter { w }
    }
}

impl<W: Write> Reporter for TextReporter<W> {
    fn scenario(&mut self, report: &ScenarioReport) -> io::Result<()> {
        writeln!(self.w, "{}", report.table.render())?;
        // An Ok scenario renders exactly as before the dependability
        // layer existed: the status suffix appears only on non-Ok rows,
        // keeping clean-run output byte-identical.
        match &report.status {
            ScenarioStatus::Ok => writeln!(
                self.w,
                "[{}] {:.2}s\n",
                report.id,
                report.wall.as_secs_f64()
            ),
            ScenarioStatus::Degraded { notes } => writeln!(
                self.w,
                "[{}] {:.2}s — DEGRADED: {}\n",
                report.id,
                report.wall.as_secs_f64(),
                notes.join("; ")
            ),
            ScenarioStatus::Failed { cause } => writeln!(
                self.w,
                "[{}] {:.2}s — FAILED: {}\n",
                report.id,
                report.wall.as_secs_f64(),
                cause
            ),
        }
    }

    fn finish(&mut self, outcome: &RunOutcome) -> io::Result<()> {
        // Recap of non-Ok scenarios first (nothing extra on clean runs).
        for report in &outcome.reports {
            match &report.status {
                ScenarioStatus::Ok => {}
                ScenarioStatus::Degraded { notes } => {
                    writeln!(self.w, "DEGRADED {}: {}", report.id, notes.join("; "))?;
                }
                ScenarioStatus::Failed { cause } => {
                    writeln!(self.w, "FAILED {}: {}", report.id, cause)?;
                }
            }
        }
        writeln!(
            self.w,
            "ran {} scenarios in {:.2}s wall ({:.2}s scenario-seconds) on {} thread(s); \
             fixture cache: {} hits / {} misses ({} disk hits, {} evictions)",
            outcome.reports.len(),
            outcome.total_wall.as_secs_f64(),
            outcome.scenario_wall_sum().as_secs_f64(),
            outcome.threads,
            outcome.cache.hits,
            outcome.cache.misses,
            outcome.cache.disk_hits,
            outcome.cache.evictions,
        )
    }
}

/// Writes each exhibit to `dir/<id>.csv`.
pub struct CsvReporter {
    dir: PathBuf,
    /// Paths written so far.
    pub written: Vec<PathBuf>,
}

impl CsvReporter {
    /// Builds a CSV reporter writing under `dir`.
    pub fn new(dir: &Path) -> CsvReporter {
        CsvReporter {
            dir: dir.to_path_buf(),
            written: Vec::new(),
        }
    }
}

impl Reporter for CsvReporter {
    fn scenario(&mut self, report: &ScenarioReport) -> io::Result<()> {
        let path = write_csv(&report.table, &self.dir)?;
        self.written.push(path);
        Ok(())
    }

    fn finish(&mut self, outcome: &RunOutcome) -> io::Result<()> {
        // Machine-readable status roll-up alongside the exhibit CSVs;
        // the per-exhibit files themselves are untouched by statuses.
        let mut status = Table::new(
            "run_status",
            "Per-scenario run status",
            &["scenario", "status", "retried", "quarantined", "detail"],
        );
        for report in &outcome.reports {
            let detail = match &report.status {
                ScenarioStatus::Ok => String::new(),
                ScenarioStatus::Degraded { notes } => notes.join("; "),
                ScenarioStatus::Failed { cause } => cause.clone(),
            };
            status.push(vec![
                report.id.clone(),
                report.status.label().to_string(),
                report.retried.to_string(),
                report.quarantined.to_string(),
                detail,
            ]);
        }
        let path = write_csv(&status, &self.dir)?;
        self.written.push(path);
        Ok(())
    }
}

/// Emits one JSON object per scenario (JSON lines), then a summary
/// object with `"kind":"summary"`.
pub struct JsonLinesReporter<W: Write> {
    w: W,
}

impl<W: Write> JsonLinesReporter<W> {
    /// Builds a JSON-lines reporter over any writer.
    pub fn new(w: W) -> JsonLinesReporter<W> {
        JsonLinesReporter { w }
    }
}

impl<W: Write> Reporter for JsonLinesReporter<W> {
    fn scenario(&mut self, report: &ScenarioReport) -> io::Result<()> {
        let status = match &report.status {
            ScenarioStatus::Ok => "\"status\":\"ok\"".to_string(),
            ScenarioStatus::Degraded { notes } => {
                let notes: Vec<String> = notes.iter().map(|n| json_string(n)).collect();
                format!("\"status\":\"degraded\",\"notes\":[{}]", notes.join(","))
            }
            ScenarioStatus::Failed { cause } => {
                format!("\"status\":\"failed\",\"cause\":{}", json_string(cause))
            }
        };
        writeln!(
            self.w,
            "{{\"kind\":\"scenario\",\"id\":{},\"title\":{},\"deterministic\":{},\"wall_s\":{:.6},{status},\"table\":{}}}",
            json_string(&report.id),
            json_string(&report.title),
            report.deterministic,
            report.wall.as_secs_f64(),
            report.table.to_json(),
        )
    }

    fn finish(&mut self, outcome: &RunOutcome) -> io::Result<()> {
        writeln!(
            self.w,
            "{{\"kind\":\"summary\",\"scenarios\":{},\"wall_s\":{:.6},\"scenario_wall_sum_s\":{:.6},\"threads\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_disk_hits\":{},\"cache_evictions\":{}}}",
            outcome.reports.len(),
            outcome.total_wall.as_secs_f64(),
            outcome.scenario_wall_sum().as_secs_f64(),
            outcome.threads,
            outcome.cache.hits,
            outcome.cache.misses,
            outcome.cache.disk_hits,
            outcome.cache.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::CacheStats;
    use crate::table::Table;
    use std::time::Duration;

    fn outcome() -> RunOutcome {
        let mut t = Table::new("x", "X probe", &["v"]);
        t.push(vec!["1".into()]);
        RunOutcome {
            reports: vec![ScenarioReport {
                id: "x".into(),
                title: "X probe".into(),
                deterministic: true,
                wall: Duration::from_millis(1500),
                table: t,
                status: ScenarioStatus::Ok,
                retried: 0,
                quarantined: 0,
            }],
            total_wall: Duration::from_secs(2),
            cache: CacheStats {
                hits: 3,
                misses: 1,
                disk_hits: 2,
                evictions: 1,
            },
            threads: 2,
        }
    }

    #[test]
    fn text_reporter_includes_summary() {
        let out = outcome();
        let mut buf = Vec::new();
        {
            let mut r = TextReporter::new(&mut buf);
            r.scenario(&out.reports[0]).unwrap();
            r.finish(&out).unwrap();
        }
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("== x — X probe =="));
        assert!(s.contains("3 hits / 1 misses (2 disk hits, 1 evictions)"));
    }

    #[test]
    fn json_lines_are_emitted_per_scenario() {
        let out = outcome();
        let mut buf = Vec::new();
        {
            let mut r = JsonLinesReporter::new(&mut buf);
            r.scenario(&out.reports[0]).unwrap();
            r.finish(&out).unwrap();
        }
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"scenario\",\"id\":\"x\""));
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].contains("\"kind\":\"summary\""));
        assert!(lines[1].contains("\"cache_hits\":3"));
        assert!(lines[1].contains("\"cache_disk_hits\":2"));
        assert!(lines[1].contains("\"cache_evictions\":1"));
    }

    #[test]
    fn non_ok_statuses_render_in_text_and_json() {
        let mut out = outcome();
        out.reports[0].status = ScenarioStatus::Failed {
            cause: "boom".into(),
        };
        let mut degraded = out.reports[0].clone();
        degraded.id = "y".into();
        degraded.status = ScenarioStatus::Degraded {
            notes: vec!["budget exhausted".into()],
        };
        out.reports.push(degraded);

        let mut buf = Vec::new();
        {
            let mut r = TextReporter::new(&mut buf);
            for report in &out.reports {
                r.scenario(report).unwrap();
            }
            r.finish(&out).unwrap();
        }
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("— FAILED: boom"));
        assert!(s.contains("— DEGRADED: budget exhausted"));
        assert!(s.contains("FAILED x: boom"));
        assert!(s.contains("DEGRADED y: budget exhausted"));

        let mut buf = Vec::new();
        {
            let mut r = JsonLinesReporter::new(&mut buf);
            for report in &out.reports {
                r.scenario(report).unwrap();
            }
        }
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"status\":\"failed\",\"cause\":\"boom\""));
        assert!(s.contains("\"status\":\"degraded\",\"notes\":[\"budget exhausted\"]"));
    }

    #[test]
    fn csv_reporter_writes_run_status_rollup() {
        let mut out = outcome();
        out.reports[0].status = ScenarioStatus::Degraded {
            notes: vec!["partial".into(), "under conflicts=0,probes=0".into()],
        };
        let dir = std::env::temp_dir().join(format!(
            "shatter-report-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        out.reports[0].retried = 2;
        out.reports[0].quarantined = 1;
        let mut r = CsvReporter::new(&dir);
        r.scenario(&out.reports[0]).unwrap();
        r.finish(&out).unwrap();
        let status_path = r
            .written
            .iter()
            .find(|p| p.file_name().is_some_and(|n| n == "run_status.csv"))
            .expect("run_status.csv written");
        let body = std::fs::read_to_string(status_path).unwrap();
        assert!(body.contains("scenario,status,retried,quarantined,detail"));
        // The note's commas stay inside one quoted `detail` cell.
        assert!(body.contains("x,degraded,2,1,\"partial; under conflicts=0,probes=0\"\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
