//! Blob-store serialization of memoized scheduler intermediates:
//! window solutions and attack schedules (the reward table's encoding
//! lives in `reward.rs` with its private fields).
//!
//! A [`WindowSolution`] blob carries the effort counters a window solve
//! reports, so a warm run replays conflict/decision/propagation columns
//! byte-identically instead of reporting zeros — the same contract the
//! in-RAM memo already provides. Field order is part of the format; any
//! change must bump the tag. So must a solver change that moves the
//! effort counters a window solve reports, or a store written by an
//! older build would replay its counters into a newer run
//! (`window-solution/4` dropped the simplex counters and the overflow
//! marker of `/3` when the window objective became pseudo-Boolean;
//! `/5` keeps the `/4` layout for the propagation counts of window
//! clauses asserted without a constant-true variable).

use shatter_smarthome::{Activity, ZoneId};
use shatter_store::wire::{Reader, Writer};
use shatter_store::Blob;

use crate::schedule::{AttackSchedule, WindowSolution};
use crate::SmtStats;

impl Blob for WindowSolution {
    const TAG: &'static str = "window-solution/5";

    fn encode(&self, w: &mut Writer) {
        match &self.zones {
            Some(zones) => {
                w.bool(true);
                w.usize(zones.len());
                for z in zones {
                    w.u32(z.0 as u32);
                }
            }
            None => w.bool(false),
        }
        let e = &self.effort;
        for v in [
            e.windows,
            e.fallbacks,
            e.theory_conflicts,
            e.sat_decisions,
            e.sat_propagations,
            e.sat_learned,
            e.sat_restarts,
            e.sat_gc_clauses,
            e.sat_learnt_live,
            e.degraded_windows,
            e.bin_props,
        ] {
            w.u64(v);
        }
        w.opt_i64(self.objective);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let zones = if r.bool()? {
            let n = r.seq_len()?;
            let mut zs = Vec::with_capacity(n);
            for _ in 0..n {
                zs.push(ZoneId(r.u32()? as usize));
            }
            Some(zs)
        } else {
            None
        };
        let effort = SmtStats {
            windows: r.u64()?,
            fallbacks: r.u64()?,
            theory_conflicts: r.u64()?,
            sat_decisions: r.u64()?,
            sat_propagations: r.u64()?,
            sat_learned: r.u64()?,
            sat_restarts: r.u64()?,
            sat_gc_clauses: r.u64()?,
            sat_learnt_live: r.u64()?,
            degraded_windows: r.u64()?,
            bin_props: r.u64()?,
            ..SmtStats::default()
        };
        Some(WindowSolution {
            zones,
            effort,
            objective: r.opt_i64()?,
        })
    }
}

impl Blob for AttackSchedule {
    const TAG: &'static str = "attack-schedule/1";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.zones.len());
        for row in &self.zones {
            w.usize(row.len());
            for z in row {
                w.u32(z.0 as u32);
            }
        }
        w.usize(self.activities.len());
        for row in &self.activities {
            w.usize(row.len());
            for a in row {
                w.u8(a.code());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.seq_len()?;
        let mut zones = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.seq_len()?;
            let mut row = Vec::with_capacity(m);
            for _ in 0..m {
                row.push(ZoneId(r.u32()? as usize));
            }
            zones.push(row);
        }
        let n = r.seq_len()?;
        let mut activities = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.seq_len()?;
            let mut row = Vec::with_capacity(m);
            for _ in 0..m {
                row.push(Activity::from_code(r.u8()?)?);
            }
            activities.push(row);
        }
        Some(AttackSchedule { zones, activities })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_solution_roundtrip() {
        let sol = WindowSolution {
            zones: Some(vec![ZoneId(3), ZoneId(0), ZoneId(7)]),
            effort: SmtStats {
                windows: 0,
                fallbacks: 0,
                theory_conflicts: 41,
                sat_decisions: 1000,
                sat_propagations: 123_456,
                sat_learned: 17,
                sat_restarts: 2,
                sat_gc_clauses: 5,
                sat_learnt_live: 9,
                degraded_windows: 1,
                bin_props: 404,
                ..SmtStats::default()
            },
            objective: Some(-12_345),
        };
        assert_eq!(WindowSolution::from_blob(&sol.to_blob()), Some(sol));
        let infeasible = WindowSolution {
            zones: None,
            objective: None,
            ..WindowSolution::default()
        };
        assert_eq!(
            WindowSolution::from_blob(&infeasible.to_blob()),
            Some(infeasible)
        );
    }

    #[test]
    fn attack_schedule_roundtrip() {
        let sched = AttackSchedule {
            zones: vec![vec![ZoneId(1); 4], vec![ZoneId(2); 4]],
            activities: vec![vec![Activity::ALL[0]; 4], vec![Activity::ALL[26]; 4]],
        };
        assert_eq!(AttackSchedule::from_blob(&sched.to_blob()), Some(sched));
    }

    #[test]
    fn truncation_and_tag_confusion_are_none() {
        let sol = WindowSolution::default();
        let bytes = sol.to_blob();
        assert_eq!(WindowSolution::from_blob(&bytes[..bytes.len() - 1]), None);
        assert_eq!(AttackSchedule::from_blob(&bytes), None);
    }
}
