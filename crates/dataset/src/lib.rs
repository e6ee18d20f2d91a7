//! ARAS-compatible dataset substrate for SHATTER.
//!
//! The paper evaluates on the ARAS dataset (Alemdar et al. 2013): per-minute
//! activity labels for 2 occupants in each of 2 houses over a month. The
//! real recordings are not redistributable, so this crate provides a
//! *synthetic, schema-compatible* substitute: a seeded routine generator
//! that reproduces the statistical regularities the framework consumes —
//! habitual (arrival-time × stay-duration) clusters per occupant and zone,
//! activity-conditioned appliance usage, and house-level behavioural
//! differences between House A and House B. See `DESIGN.md` §2 for the
//! substitution argument.
//!
//! Main entry points:
//!
//! - [`SynthConfig`] / [`synthesize`]: generate a month of per-minute data,
//! - [`Dataset`]: the in-memory per-minute trace, whose minutes share one
//!   record per run of unchanged minutes (see [`DayTrace`]),
//! - [`episodes::extract_episodes`]: (arrival, stay) episodes per
//!   occupant/zone — the ADM's feature space (paper Eq. 5–7),
//! - [`attacks::biota_attack_episodes`]: naive rule-constrained FDI attack
//!   samples in episode space, used to score ADMs (paper Table IV, Fig. 5),
//! - the `shatter_store::Blob` codec of [`Dataset`] and of episode sets
//!   ([`episodes_to_blob`] / [`episodes_from_blob`]): the one persisted
//!   dataset format, written by the engine's fixture store.
//!
//! # Examples
//!
//! ```
//! use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
//!
//! let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 3, 42));
//! assert_eq!(data.days.len(), 3);
//! assert_eq!(data.days[0].minutes.len(), 1440);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod episodes;
mod persist;
mod schema;
pub mod spec;
mod synth;

pub use persist::{episodes_from_blob, episodes_to_blob};
pub use schema::{Dataset, DayTrace, MinuteRecord, OccupantState};
pub use spec::{ActivityAnchors, HouseSpec, PersonaSpec};
pub use synth::{default_zone_for, synthesize, SynthConfig};
