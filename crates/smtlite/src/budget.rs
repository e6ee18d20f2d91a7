//! Deterministic resource budgets for the solver stack.
//!
//! Budgets are counted in *deterministic* effort units — CDCL conflicts
//! and OMT probes — never wall time, so a budgeted run makes
//! the same decisions on every machine and thread count: either a window
//! finishes identically everywhere, or it degrades identically
//! everywhere.

/// Per-solve resource limits (`None` = unlimited). Thread one through
/// [`crate::Solver::set_budget`]; exhaustion surfaces as
/// [`crate::HaltCause`] through [`crate::Solver::check`] /
/// [`crate::Solver::maximize`] instead of a hang or a panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// CDCL conflicts allowed across the solve (all probes combined).
    pub max_conflicts: Option<u64>,
    /// OMT probes (the optimality check and each bisection step)
    /// allowed per `maximize` call.
    pub max_probes: Option<u64>,
}

impl Budget {
    /// No limits — identical to running without a budget.
    pub const UNLIMITED: Budget = Budget {
        max_conflicts: None,
        max_probes: None,
    };

    /// Whether every limit is unset.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::UNLIMITED
    }

    /// This budget with every set limit multiplied by `factor`
    /// (saturating) — the deterministic escalation step of the fleet
    /// retry policy: attempt `k` re-runs a failed house under
    /// `escalated(2^k)`, so retries make identical decisions on every
    /// machine and thread count.
    pub fn escalated(self, factor: u64) -> Budget {
        let scale = |limit: Option<u64>| limit.map(|n| n.saturating_mul(factor));
        Budget {
            max_conflicts: scale(self.max_conflicts),
            max_probes: scale(self.max_probes),
        }
    }

    /// Canonical `conflicts=N,probes=N` spec string of this
    /// budget (set limits only; empty for [`Budget::UNLIMITED`]).
    /// Round-trips through [`Budget::parse`]; fleet manifests and
    /// per-window memo keys embed it.
    pub fn to_spec(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.max_conflicts {
            parts.push(format!("conflicts={n}"));
        }
        if let Some(n) = self.max_probes {
            parts.push(format!("probes={n}"));
        }
        parts.join(",")
    }

    /// Parses a `conflicts=N,probes=N` spec (any subset, any order), the
    /// syntax of `repro --budget` and `--house-budget`. Any other key is
    /// an error that names it.
    pub fn parse(spec: &str) -> Result<Budget, String> {
        let mut budget = Budget::UNLIMITED;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad budget term {part:?} (expected key=N)"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad budget value in {part:?}"))?;
            match key.trim() {
                "conflicts" => budget.max_conflicts = Some(n),
                "probes" => budget.max_probes = Some(n),
                other => {
                    return Err(format!(
                        "unknown budget key {other:?} (expected conflicts|probes)"
                    ))
                }
            }
        }
        Ok(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_partial_specs() {
        assert_eq!(
            Budget::parse("conflicts=100,probes=8").unwrap(),
            Budget {
                max_conflicts: Some(100),
                max_probes: Some(8),
            }
        );
        assert_eq!(
            Budget::parse(" probes=5 ").unwrap(),
            Budget {
                max_probes: Some(5),
                ..Budget::UNLIMITED
            }
        );
        assert!(Budget::parse("").unwrap().is_unlimited());
    }

    #[test]
    fn escalates_set_limits_only() {
        let b = Budget {
            max_conflicts: Some(100),
            max_probes: None,
        };
        assert_eq!(
            b.escalated(4),
            Budget {
                max_conflicts: Some(400),
                max_probes: None,
            }
        );
        assert_eq!(
            Budget {
                max_conflicts: Some(u64::MAX / 2),
                ..Budget::UNLIMITED
            }
            .escalated(8)
            .max_conflicts,
            Some(u64::MAX),
            "escalation saturates instead of wrapping"
        );
        assert!(Budget::UNLIMITED.escalated(16).is_unlimited());
    }

    #[test]
    fn spec_string_roundtrips() {
        let b = Budget {
            max_conflicts: Some(100),
            max_probes: Some(8),
        };
        assert_eq!(b.to_spec(), "conflicts=100,probes=8");
        assert_eq!(Budget::parse(&b.to_spec()).unwrap(), b);
        assert_eq!(Budget::UNLIMITED.to_spec(), "");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Budget::parse("conflicts").is_err());
        assert!(Budget::parse("conflicts=x").is_err());
        assert!(Budget::parse("walltime=9").is_err());
        // The retired pivot budget is an unknown key, named in the error.
        let err = Budget::parse("conflicts=1,pivots=2").unwrap_err();
        assert!(err.contains("\"pivots\""), "{err}");
    }
}
