//! Demand-controlled HVAC (DCHVAC) substrate for SHATTER.
//!
//! Implements the paper's control model (§IV-A):
//!
//! - **Ventilation constraint (Eq. 1)** — fresh airflow sized so occupant
//!   CO₂ generation is diluted to the zone setpoint,
//! - **Temperature constraint (Eq. 2)** — supply airflow sized so delivered
//!   cooling (`Q × ΔT × 0.3167` watts) matches occupant metabolic heat plus
//!   appliance heat (`P^PC_d × P^HRF_d`),
//! - **Energy (Eq. 3)** — AHU thermal power against mixed (return + fresh)
//!   air plus appliance electrical load,
//! - **Cost (Eq. 4)** — PG&E-style peak/off-peak pricing with a home
//!   battery that shifts the first `P^BS` peak kWh to the off-peak rate.
//!
//! Two controllers are provided: the paper's activity-aware
//! [`DchvacController`] and the [`AshraeController`] baseline
//! (average-occupant metabolic rate, fixed average appliance load,
//! floor-area minimum ventilation), whose cost gap reproduces paper Fig. 3.
//!
//! # Examples
//!
//! ```
//! use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
//! use shatter_hvac::{DchvacController, EnergyModel};
//! use shatter_smarthome::houses;
//!
//! let home = houses::aras_house_a();
//! let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 1, 7));
//! let model = EnergyModel::standard(home);
//! let cost = model.day_cost(&DchvacController, &data.days[0]);
//! assert!(cost.total_usd() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod energy;
mod params;

pub use controller::{AshraeController, ControlDecision, Controller, DchvacController};
pub use energy::{DayCost, DayPricer, EnergyModel, MinuteEnergy};
pub use params::{ControllerParams, OutdoorModel, Pricing};
