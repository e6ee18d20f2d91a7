//! The §VI end-to-end validation: replay one hour of ARAS-style occupant
//! behaviour through the simulated testbed, benign and attacked, and
//! measure the attack-induced energy increment (the paper reports ~78%).
//!
//! Data path per minute, mirroring Fig. 9:
//!
//! 1. sensor nodes encode occupancy/LED counts and zone temperatures as
//!    [`crate::packet::Packet`]s and publish the raw bytes to the broker,
//! 2. the MITM interceptor (Polymorph/Scapy role) rewrites occupancy
//!    packets so the controller believes both occupants are cooking in
//!    the kitchen (Fig. 8's attack scenario),
//! 3. the controller node (openHAB role) computes each zone's fan duty
//!    from the learned degree-2 regression plus a proportional
//!    temperature-feedback term and publishes actuation packets,
//! 4. the physics advances with *genuine* LED heat but the falsified
//!    fan commands.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shatter_dataset::{synthesize, DayTrace, HouseSpec, SynthConfig};
use shatter_smarthome::{houses, Home, ZoneId};

use crate::broker::{Broker, Intercept};
use crate::packet::Packet;
use crate::physics::{TestbedParams, TestbedSim};
use crate::polyfit::{mape, polyfit, polyval};

/// Configuration of the validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    /// Minute of day the replay starts (paper uses an evening hour).
    pub start_minute: usize,
    /// Replay length in minutes.
    pub duration: usize,
    /// Dataset seed for the replayed behaviour.
    pub seed: u64,
    /// Proportional gain of the temperature feedback term (duty per °F).
    pub feedback_gain: f64,
    /// DHT-22 temperature sensor noise (1σ, °F); the real sensor is
    /// ±0.9 °F. Zero disables noise.
    pub sensor_noise_f: f64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            start_minute: 1080, // 18:00
            duration: 60,
            seed: 0x7E57BED,
            feedback_gain: 0.15,
            sensor_noise_f: 0.0,
        }
    }
}

/// Result of the validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationOutcome {
    /// Fan (HVAC) energy of the benign run, kWh.
    pub benign_kwh: f64,
    /// Fan (HVAC) energy of the attacked run, kWh.
    pub attacked_kwh: f64,
    /// Regression-model fit error (mean absolute percentage).
    pub fit_error_pct: f64,
    /// Packets rewritten by the MITM.
    pub rewritten_packets: u64,
}

impl ValidationOutcome {
    /// Attack-induced energy increment in percent.
    pub fn increment_pct(&self) -> f64 {
        if self.benign_kwh <= 0.0 {
            return 0.0;
        }
        100.0 * (self.attacked_kwh - self.benign_kwh) / self.benign_kwh
    }
}

/// Number of lit emulation LEDs per zone for one minute of behaviour:
/// one per occupant present plus one per running appliance.
fn led_counts(home: &Home, day: &DayTrace, minute: usize, n_zones: usize) -> Vec<usize> {
    let rec = &day.minutes[minute];
    let mut leds = vec![0usize; n_zones];
    for os in &rec.occupants {
        if os.zone.index() > 0 {
            leds[os.zone.index() - 1] += 1;
        }
    }
    for (i, &on) in rec.appliances.iter().enumerate() {
        if on {
            let z = home.appliances()[i].zone;
            if z.index() > 0 {
                leds[z.index() - 1] += 1;
            }
        }
    }
    leds
}

/// Runs one replay (benign when `attack` is false). Returns the fan
/// energy and the broker for stats inspection.
fn run_replay(
    cfg: &ValidationConfig,
    home: &Home,
    day: &DayTrace,
    coeffs: &[f64],
    attack: bool,
) -> (f64, Broker) {
    let n_zones = home.indoor_zones().count();
    let params = TestbedParams::default();
    let mut sim = TestbedSim::new(params, n_zones);
    let mut noise_rng = StdRng::seed_from_u64(cfg.seed ^ 0xD447);
    let mut noisy = |t: f64| -> f64 {
        if cfg.sensor_noise_f <= 0.0 {
            return t;
        }
        // Box–Muller.
        let u1: f64 = noise_rng.random::<f64>().max(1e-12);
        let u2: f64 = noise_rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        t + cfg.sensor_noise_f * z
    };
    let broker = Broker::new();
    let sensor_rx = broker.subscribe("sensor/#");
    let actuate_rx = broker.subscribe("actuate/#");

    if attack {
        // MITM: report the Fig. 8 scenario — everyone cooking in the
        // kitchen (indoor zone index 2 = ZoneId(3)), kitchen appliances
        // blazing. Only occupancy/LED-count packets are rewritten;
        // temperature readings pass through untouched.
        broker.set_interceptor(Box::new(move |p: &Packet| {
            if let Some(zone) = p.topic.strip_prefix("sensor/leds/") {
                let z: usize = zone.parse().unwrap_or(0);
                let fake = if z == ZoneId(3).index() - 1 { 6.0 } else { 0.0 };
                Intercept::Rewrite(Packet::new(p.topic.clone(), vec![fake]))
            } else {
                Intercept::Pass
            }
        }));
    }

    let kitchen_duty_cap = 1.0;
    for m in 0..cfg.duration {
        let minute = cfg.start_minute + m;
        let leds = led_counts(home, day, minute, n_zones);

        // 1. Sensor nodes publish raw packets.
        #[allow(clippy::needless_range_loop)]
        for z in 0..n_zones {
            broker
                .publish_raw(
                    &Packet::new(format!("sensor/leds/{z}"), vec![leds[z] as f64]).encode(),
                )
                .expect("well-formed sensor packet");
            let reading = noisy(sim.zones()[z].temp_f);
            broker
                .publish_raw(&Packet::new(format!("sensor/temp/{z}"), vec![reading]).encode())
                .expect("well-formed sensor packet");
        }

        // 2. Controller consumes measurements and decides fan duties.
        let mut reported_leds = vec![0.0f64; n_zones];
        let mut temps = vec![params.ambient_f; n_zones];
        for p in sensor_rx.try_iter() {
            if let Some(z) = p.topic.strip_prefix("sensor/leds/") {
                if let Ok(z) = z.parse::<usize>() {
                    if z < n_zones {
                        reported_leds[z] = p.values[0];
                    }
                }
            } else if let Some(z) = p.topic.strip_prefix("sensor/temp/") {
                if let Ok(z) = z.parse::<usize>() {
                    if z < n_zones {
                        temps[z] = p.values[0];
                    }
                }
            }
        }
        for z in 0..n_zones {
            let feedforward = polyval(coeffs, reported_leds[z]).max(0.0);
            let feedback = cfg.feedback_gain * (temps[z] - params.setpoint_f).max(0.0);
            let duty = (feedforward + feedback).clamp(0.0, kitchen_duty_cap);
            broker
                .publish_raw(&Packet::new(format!("actuate/fan/{z}"), vec![duty]).encode())
                .expect("well-formed actuation packet");
        }

        // 3. Physics advances with genuine heat and commanded fans.
        let mut duties = vec![0.0f64; n_zones];
        for p in actuate_rx.try_iter() {
            if let Some(z) = p.topic.strip_prefix("actuate/fan/") {
                if let Ok(z) = z.parse::<usize>() {
                    if z < n_zones {
                        duties[z] = p.values[0];
                    }
                }
            }
        }
        sim.step_minute(&leds, &duties);
    }
    (sim.fan_kwh, broker)
}

/// Runs the full §VI validation: trains the regression model, replays the
/// hour benign and attacked, and reports the energy increment.
pub fn run_validation(cfg: &ValidationConfig) -> ValidationOutcome {
    let home = houses::aras_house_a();
    let data = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 5, cfg.seed));
    let day = &data.days[3];

    // Learn the (load -> duty) dynamics, as the paper does.
    let (xs, ys) = TestbedSim::training_curve(&TestbedParams::default(), 8);
    let coeffs = polyfit(&xs, &ys, 2).expect("training curve is well-posed");
    let fit_error_pct = mape(&coeffs, &xs[1..], &ys[1..]);

    let (benign_kwh, _) = run_replay(cfg, &home, day, &coeffs, false);
    let (attacked_kwh, broker) = run_replay(cfg, &home, day, &coeffs, true);
    let (_, rewritten, _, _) = broker.stats();

    ValidationOutcome {
        benign_kwh,
        attacked_kwh,
        fit_error_pct,
        rewritten_packets: rewritten,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_increases_testbed_energy_substantially() {
        let out = run_validation(&ValidationConfig::default());
        let inc = out.increment_pct();
        // Paper: ~78% increment. Shape check: a large positive increase.
        assert!(inc > 25.0, "increment {inc}%");
        assert!(out.rewritten_packets > 0);
    }

    #[test]
    fn regression_error_below_two_percent() {
        let out = run_validation(&ValidationConfig::default());
        assert!(out.fit_error_pct < 2.0, "fit error {}%", out.fit_error_pct);
    }

    #[test]
    fn deterministic_outcome() {
        let a = run_validation(&ValidationConfig::default());
        let b = run_validation(&ValidationConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn longer_replay_uses_more_energy() {
        let short = run_validation(&ValidationConfig {
            duration: 30,
            ..ValidationConfig::default()
        });
        let long = run_validation(&ValidationConfig {
            duration: 90,
            ..ValidationConfig::default()
        });
        assert!(long.benign_kwh > short.benign_kwh);
    }
}
