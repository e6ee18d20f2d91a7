//! SHATTER attack analytics: stealthy FDI attack-schedule synthesis and
//! impact evaluation for activity-driven smart-home control systems.
//!
//! This crate is the paper's primary contribution (§III–§IV). Given a home,
//! its activity-aware DCHVAC controller, a trained clustering-based ADM and
//! an attacker capability profile, SHATTER synthesizes *attack schedules* —
//! falsified per-occupant zone/activity timelines plus real-time appliance
//! triggering decisions — that maximize the home's energy cost while
//! evading both the ADM (every falsified stay episode lies inside a
//! learned cluster hull) and the occupants (appliances are only triggered
//! where nobody would notice).
//!
//! The pieces:
//!
//! - [`AttackerCapability`]: the paper's `Z^A`/`T^A`/`O^A`/`D^A`
//!   accessibility sets (§III-B.4),
//! - [`RewardTable`]: per-(occupant, zone, minute) marginal-cost rewards
//!   derived from the control model (Eq. 17's objective),
//! - [`WindowDpScheduler`]: the window-horizon dynamic optimizer (the
//!   paper's sub-optimal schedule generation with horizon `I`),
//! - [`GreedyScheduler`]: the paper's Algorithm 2 baseline,
//! - [`SmtScheduler`]: the formal window encoding solved with
//!   `shatter-smt` (the Z3 role; subject of the Fig. 11 scalability study),
//! - [`trigger`]: the revised appliance-triggering decision (Algorithm 1),
//! - [`biota`]: the BIoTA rule-constrained baseline attack,
//! - [`impact`]: end-to-end attack-impact evaluation (Tables V–VII,
//!   Fig. 10).
//!
//! # Examples
//!
//! ```
//! use shatter_adm::{AdmKind, HullAdm};
//! use shatter_core::{impact, AttackerCapability, WindowDpScheduler};
//! use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
//! use shatter_hvac::EnergyModel;
//! use shatter_smarthome::houses;
//!
//! let home = houses::aras_house_a();
//! let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 10, 1));
//! let (train, test) = data.split_at_day(8);
//! let adm = HullAdm::train(&train, AdmKind::default_dbscan());
//! let model = EnergyModel::standard(home.clone());
//! let cap = AttackerCapability::full(&home);
//! let outcome = impact::evaluate_day(
//!     &model, &adm, &cap, &test.days[0], &WindowDpScheduler::default(), true,
//! );
//! assert!(outcome.attacked_cost_usd >= outcome.benign_cost_usd - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biota;
mod capability;
pub mod defense;
mod dp;
mod greedy;
pub mod impact;
mod persist;
mod reward;
mod schedule;
mod smt_sched;
pub mod strategy;
pub mod trigger;

pub use biota::BiotaScheduler;
pub use capability::AttackerCapability;
pub use dp::WindowDpScheduler;
pub use greedy::GreedyScheduler;
pub use reward::{plausible_activities, RewardTable};
pub use schedule::{AttackSchedule, ScheduleError, Scheduler, WindowMemo, WindowSolution};
pub use shatter_smt::Budget;
pub use smt_sched::{SmtScheduler, SmtStats};
pub use strategy::{SharedScheduler, StrategyEntry, StrategyRegistry};
