//! Binary wire format for testbed messages.
//!
//! The physical testbed speaks MQTT over an ESP8266/router link; the
//! attacker crafts raw packets (Polymorph/Scapy). This module gives the
//! simulated transport the same property: messages cross the broker as
//! bytes, so the MITM interceptor must *parse and re-encode* packets just
//! like the real attack tooling.
//!
//! Layout (big-endian):
//!
//! ```text
//! u16 topic_len | topic bytes (UTF-8) | u16 n_values | n × f64
//! ```

/// A decoded testbed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Topic path, e.g. `"sensor/temp/2"` or `"actuate/fan/3"`.
    pub topic: String,
    /// Numeric payload.
    pub values: Vec<f64>,
}

/// Error from [`Packet::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// The buffer ended before the announced length.
    Truncated,
    /// The topic bytes are not valid UTF-8.
    BadTopic,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "packet truncated"),
            PacketError::BadTopic => write!(f, "topic is not valid UTF-8"),
        }
    }
}

impl std::error::Error for PacketError {}

impl Packet {
    /// Creates a packet.
    pub fn new(topic: impl Into<String>, values: Vec<f64>) -> Packet {
        Packet {
            topic: topic.into(),
            values,
        }
    }

    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + self.topic.len() + 8 * self.values.len());
        buf.extend_from_slice(&(self.topic.len() as u16).to_be_bytes());
        buf.extend_from_slice(self.topic.as_bytes());
        buf.extend_from_slice(&(self.values.len() as u16).to_be_bytes());
        for v in &self.values {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        buf
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or invalid topic bytes.
    pub fn decode(buf: &[u8]) -> Result<Packet, PacketError> {
        let mut buf = buf;
        let tlen = usize::from(u16::from_be_bytes(take(&mut buf)?));
        let topic_bytes = buf.get(..tlen).ok_or(PacketError::Truncated)?;
        let topic = String::from_utf8(topic_bytes.to_vec()).map_err(|_| PacketError::BadTopic)?;
        buf = &buf[tlen..];
        let n = usize::from(u16::from_be_bytes(take(&mut buf)?));
        if buf.len() < 8 * n {
            return Err(PacketError::Truncated);
        }
        let values = (0..n)
            .map(|_| take(&mut buf).map(f64::from_be_bytes))
            .collect::<Result<_, _>>()?;
        Ok(Packet { topic, values })
    }
}

/// Splits the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], PacketError> {
    let (head, rest) = buf.split_first_chunk().ok_or(PacketError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = Packet::new("sensor/temp/2", vec![72.5, -1.0, 0.0]);
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn empty_values_roundtrip() {
        let p = Packet::new("heartbeat", vec![]);
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn truncated_rejected() {
        let enc = Packet::new("sensor/temp/2", vec![1.0]).encode();
        for cut in [0, 1, 3, enc.len() - 1] {
            assert_eq!(
                Packet::decode(&enc[..cut]),
                Err(PacketError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bad_utf8_rejected() {
        let raw = [0, 2, 0xff, 0xfe, 0, 0];
        assert_eq!(Packet::decode(&raw), Err(PacketError::BadTopic));
    }
}
