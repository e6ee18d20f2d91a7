//! Failure-injection tests for the testbed substrate: sensor noise,
//! malformed packets, dropped packets, and hostile interceptors must not
//! wedge the loop or corrupt accounting.

use shatter_testbed::broker::{Broker, Intercept};
use shatter_testbed::experiment::{run_validation, ValidationConfig};
use shatter_testbed::packet::{Packet, PacketError};

#[test]
fn sensor_noise_degrades_gracefully() {
    let clean = run_validation(&ValidationConfig::default());
    let noisy = run_validation(&ValidationConfig {
        sensor_noise_f: 0.9, // DHT-22 datasheet accuracy
        ..ValidationConfig::default()
    });
    // The attack conclusion survives realistic sensor noise.
    assert!(noisy.attacked_kwh > noisy.benign_kwh);
    // Noise changes energies only modestly (feedback term is bounded).
    let rel = (noisy.benign_kwh - clean.benign_kwh).abs() / clean.benign_kwh;
    assert!(rel < 0.5, "noise shifted benign energy by {}%", rel * 100.0);
}

#[test]
fn heavy_noise_does_not_panic() {
    let out = run_validation(&ValidationConfig {
        sensor_noise_f: 10.0,
        ..ValidationConfig::default()
    });
    assert!(out.benign_kwh.is_finite());
    assert!(out.attacked_kwh.is_finite());
}

#[test]
fn malformed_packets_are_counted_not_fatal() {
    let b = Broker::new();
    let rx = b.subscribe("sensor/#");
    // A burst of garbage between valid publishes.
    for i in 0..50u8 {
        let garbage = [i, 255, 3, 1];
        assert!(matches!(
            b.publish_raw(&garbage),
            Err(PacketError::Truncated | PacketError::BadTopic)
        ));
        b.publish_raw(&Packet::new("sensor/temp/0", vec![f64::from(i)]).encode())
            .unwrap();
    }
    assert_eq!(rx.try_iter().count(), 50);
    let (delivered, _, _, malformed) = b.stats();
    assert_eq!(delivered, 50);
    assert_eq!(malformed, 50);
}

#[test]
fn dropping_interceptor_starves_subscribers_but_not_broker() {
    let b = Broker::new();
    let rx = b.subscribe("sensor/#");
    b.set_interceptor(Box::new(|p: &Packet| {
        if p.values.first().copied().unwrap_or(0.0) > 50.0 {
            Intercept::Drop
        } else {
            Intercept::Pass
        }
    }));
    for v in [10.0, 60.0, 20.0, 99.0] {
        b.publish(Packet::new("sensor/temp/0", vec![v]));
    }
    let got: Vec<f64> = rx.try_iter().map(|p| p.values[0]).collect();
    assert_eq!(got, vec![10.0, 20.0]);
    let (_, _, dropped, _) = b.stats();
    assert_eq!(dropped, 2);
}

#[test]
fn interceptor_can_be_cleared_mid_stream() {
    let b = Broker::new();
    let rx = b.subscribe("sensor/#");
    b.set_interceptor(Box::new(|_: &Packet| Intercept::Drop));
    b.publish(Packet::new("sensor/temp/0", vec![1.0]));
    b.clear_interceptor();
    b.publish(Packet::new("sensor/temp/0", vec![2.0]));
    let got: Vec<f64> = rx.try_iter().map(|p| p.values[0]).collect();
    assert_eq!(got, vec![2.0]);
}

#[test]
fn dead_subscriber_does_not_poison_publishing() {
    let b = Broker::new();
    {
        let _rx = b.subscribe("sensor/#");
        // _rx dropped here.
    }
    let rx2 = b.subscribe("sensor/#");
    b.publish(Packet::new("sensor/temp/1", vec![5.0]));
    assert_eq!(rx2.try_iter().count(), 1);
}

#[test]
fn zero_duration_replay_is_empty_but_valid() {
    let out = run_validation(&ValidationConfig {
        duration: 0,
        ..ValidationConfig::default()
    });
    assert_eq!(out.benign_kwh, 0.0);
    assert_eq!(out.attacked_kwh, 0.0);
    assert_eq!(out.increment_pct(), 0.0);
}
