//! The §VI prototype-testbed validation: a MITM attacker rewrites MQTT
//! occupancy packets between the sensor nodes and the controller, making
//! the controller chill an empty kitchen while the occupied zones warm up.
//!
//! ```text
//! cargo run --release --example testbed_attack
//! ```

use shatter::testbed::broker::{Broker, Intercept};
use shatter::testbed::experiment::{run_validation, ValidationConfig};
use shatter::testbed::packet::Packet;
use shatter::testbed::physics::{TestbedParams, TestbedSim};
use shatter::testbed::polyfit::{mape, polyfit};

fn main() {
    // --- Piece 1: the learned dynamics model -----------------------------
    let params = TestbedParams::default();
    let (xs, ys) = TestbedSim::training_curve(&params, 8);
    let coeffs = polyfit(&xs, &ys, 2).expect("well-posed curve");
    println!(
        "Degree-2 dynamics model: duty(load) = {:.4} + {:.4}·x + {:.5}·x²  (fit error {:.3}%)",
        coeffs[0],
        coeffs[1],
        coeffs[2],
        mape(&coeffs, &xs[1..], &ys[1..])
    );

    // --- Piece 2: a raw packet crossing the MITM -------------------------
    let broker = Broker::new();
    let rx = broker.subscribe("sensor/#");
    broker.set_interceptor(Box::new(|p: &Packet| {
        if p.topic.starts_with("sensor/leds/") {
            // The Polymorph/Scapy role: decode, rewrite, re-encode.
            Intercept::Rewrite(Packet::new(p.topic.clone(), vec![6.0]))
        } else {
            Intercept::Pass
        }
    }));
    broker
        .publish_raw(&Packet::new("sensor/leds/2", vec![0.0]).encode())
        .expect("valid packet");
    let crafted = rx.recv().expect("delivered");
    println!(
        "MITM demo: kitchen occupancy packet rewritten from 0 to {} LEDs",
        crafted.values[0]
    );

    // --- Piece 3: the full replay -----------------------------------------
    let outcome = run_validation(&ValidationConfig::default());
    println!();
    println!("1-hour replay (ARAS House A, 18:00–19:00):");
    println!("  benign HVAC energy:   {:.6} kWh", outcome.benign_kwh);
    println!("  attacked HVAC energy: {:.6} kWh", outcome.attacked_kwh);
    println!(
        "  increment:            +{:.1}%  (paper reports ~78%)",
        outcome.increment_pct()
    );
    println!("  packets rewritten:    {}", outcome.rewritten_packets);
}
