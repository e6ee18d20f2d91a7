//! An in-process MQTT-like broker with a man-in-the-middle hook.
//!
//! The physical testbed routes every measurement and actuation through a
//! Raspberry-Pi MQTT broker; the attacker ARP-spoofs into the path and
//! rewrites packets in flight. Here, publishers hand encoded bytes to the
//! broker, an optional *interceptor* (the MITM) may rewrite or drop them,
//! and subscribers receive matching messages over channels.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::packet::{Packet, PacketError};

/// Decision an interceptor makes about one in-flight packet.
pub enum Intercept {
    /// Deliver unchanged.
    Pass,
    /// Replace with a crafted packet.
    Rewrite(Packet),
    /// Drop silently.
    Drop,
}

type Interceptor = Box<dyn FnMut(&Packet) -> Intercept + Send>;

struct Subscriber {
    filter: String,
    tx: Sender<Packet>,
}

struct Inner {
    subscribers: Vec<Subscriber>,
    interceptor: Option<Interceptor>,
    delivered: u64,
    dropped: u64,
    rewritten: u64,
    malformed: u64,
}

/// The broker. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Broker {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Broker {
    fn default() -> Self {
        Broker::new()
    }
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Broker {
        Broker {
            inner: Arc::new(Mutex::new(Inner {
                subscribers: Vec::new(),
                interceptor: None,
                delivered: 0,
                dropped: 0,
                rewritten: 0,
                malformed: 0,
            })),
        }
    }

    /// The shared state. A panic in another holder (say, an
    /// interceptor) leaves the counters and subscriber list consistent,
    /// so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Subscribes to a topic filter. Filters match exact topics or, with a
    /// trailing `/#`, whole subtrees (`"sensor/#"`).
    pub fn subscribe(&self, filter: impl Into<String>) -> Receiver<Packet> {
        let (tx, rx) = channel();
        self.lock().subscribers.push(Subscriber {
            filter: filter.into(),
            tx,
        });
        rx
    }

    /// Installs the MITM interceptor (at most one; replaces any previous).
    pub fn set_interceptor(&self, f: Interceptor) {
        self.lock().interceptor = Some(f);
    }

    /// Removes the interceptor.
    pub fn clear_interceptor(&self) {
        self.lock().interceptor = None;
    }

    /// Publishes encoded bytes, exactly as a sensor node would put them on
    /// the wire. Malformed packets are counted and dropped (the real
    /// broker logs and ignores them).
    ///
    /// # Errors
    ///
    /// Returns the decode error for malformed input.
    pub fn publish_raw(&self, raw: &[u8]) -> Result<(), PacketError> {
        match Packet::decode(raw) {
            Ok(p) => {
                self.publish(p);
                Ok(())
            }
            Err(e) => {
                self.lock().malformed += 1;
                Err(e)
            }
        }
    }

    /// Publishes a decoded packet through the interceptor to subscribers.
    pub fn publish(&self, packet: Packet) {
        let mut inner = self.lock();
        let packet = match inner.interceptor.as_mut() {
            Some(f) => match f(&packet) {
                Intercept::Pass => packet,
                Intercept::Rewrite(p) => {
                    inner.rewritten += 1;
                    p
                }
                Intercept::Drop => {
                    inner.dropped += 1;
                    return;
                }
            },
            None => packet,
        };
        for s in &inner.subscribers {
            if topic_matches(&s.filter, &packet.topic) {
                // A full mailbox or dead receiver only affects that node.
                let _ = s.tx.send(packet.clone());
            }
        }
        inner.delivered += 1;
    }

    /// (delivered, rewritten, dropped, malformed) counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let i = self.lock();
        (i.delivered, i.rewritten, i.dropped, i.malformed)
    }
}

/// MQTT-style filter match: exact, or prefix with a trailing `/#`.
fn topic_matches(filter: &str, topic: &str) -> bool {
    if let Some(prefix) = filter.strip_suffix("/#") {
        topic == prefix || topic.starts_with(&format!("{prefix}/"))
    } else {
        filter == topic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_subscription_receives() {
        let b = Broker::new();
        let rx = b.subscribe("sensor/temp/1");
        b.publish(Packet::new("sensor/temp/1", vec![70.0]));
        b.publish(Packet::new("sensor/temp/2", vec![71.0]));
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn wildcard_subscription() {
        let b = Broker::new();
        let rx = b.subscribe("sensor/#");
        b.publish(Packet::new("sensor/temp/1", vec![70.0]));
        b.publish(Packet::new("sensor/occ/0", vec![2.0]));
        b.publish(Packet::new("actuate/fan/1", vec![0.5]));
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn interceptor_rewrites() {
        let b = Broker::new();
        let rx = b.subscribe("sensor/occ/0");
        b.set_interceptor(Box::new(|p: &Packet| {
            if p.topic.starts_with("sensor/occ") {
                Intercept::Rewrite(Packet::new(p.topic.clone(), vec![3.0]))
            } else {
                Intercept::Pass
            }
        }));
        b.publish(Packet::new("sensor/occ/0", vec![1.0]));
        let got = rx.try_recv().unwrap();
        assert_eq!(got.values, vec![3.0]);
        let (_, rewritten, _, _) = b.stats();
        assert_eq!(rewritten, 1);
    }

    #[test]
    fn interceptor_drops() {
        let b = Broker::new();
        let rx = b.subscribe("sensor/#");
        b.set_interceptor(Box::new(|_: &Packet| Intercept::Drop));
        b.publish(Packet::new("sensor/temp/1", vec![70.0]));
        assert_eq!(rx.try_iter().count(), 0);
        let (_, _, dropped, _) = b.stats();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn malformed_raw_counted() {
        let b = Broker::new();
        let _rx = b.subscribe("sensor/#");
        assert!(b.publish_raw(&[0, 200, 1, 2]).is_err());
        let (_, _, _, malformed) = b.stats();
        assert_eq!(malformed, 1);
    }

    #[test]
    fn raw_roundtrip_through_broker() {
        let b = Broker::new();
        let rx = b.subscribe("actuate/fan/2");
        let p = Packet::new("actuate/fan/2", vec![0.8]);
        b.publish_raw(&p.encode()).unwrap();
        assert_eq!(rx.try_recv().unwrap(), p);
    }
}
