//! Hand-rolled little-endian wire codec for blob payloads.
//!
//! The workspace builds offline with no serialization framework, so
//! persisted intermediates are encoded with this explicit codec.
//! Design rules:
//!
//! - everything is little-endian and fixed-width (`usize` travels as
//!   `u64`), so bytes are identical across hosts;
//! - `f64` travels as its IEEE-754 bit pattern (`to_bits`), so a
//!   decode → re-encode round trip is the identity and warm-run tables
//!   are byte-identical to cold-run ones — including NaN payloads;
//! - every `Reader` accessor is total: damage yields `None`, never a
//!   panic, because blob bytes come from disk and are untrusted even
//!   after the store's checksum (type confusion, version skew).

/// Append-only encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` (LE, two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// Appends bytes as they are, with no length prefix: for a payload
    /// encoded once and written many times (its reader knows the length).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an `Option<i64>` as presence byte + value.
    pub fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.i64(x);
            }
            None => self.bool(false),
        }
    }
}

/// Cursor-based decoder; every accessor returns `None` on truncation
/// or malformed input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed (trailing garbage is
    /// treated as damage by [`crate::Blob::from_blob`]).
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not consumed yet: an upper bound on what the rest of the
    /// payload can hold, for rejecting a corrupt count before allocating
    /// for it.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` bytes as they are (the counterpart of [`Writer::raw`]).
    pub fn raw(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.raw(1)?[0])
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.raw(4)?.try_into().ok()?))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.raw(8)?.try_into().ok()?))
    }

    /// Reads an `i64` (LE).
    pub fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.raw(8)?.try_into().ok()?))
    }

    /// Reads a `usize` (stored as `u64`); fails if it overflows the
    /// host's `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads a collection length, bounded by the bytes that actually
    /// remain (every element of this codec occupies ≥ 1 byte), so a
    /// corrupt length can't trigger a huge allocation before the
    /// decode fails.
    pub fn seq_len(&mut self) -> Option<usize> {
        let n = self.usize()?;
        (n <= self.remaining()).then_some(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (strictly 0 or 1; anything else is damage).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.raw(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Reads an `Option<i64>`.
    pub fn opt_i64(&mut self) -> Option<Option<i64>> {
        if self.bool()? {
            Some(Some(self.i64()?))
        } else {
            Some(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u32(123_456);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(99);
        w.f64(-0.125);
        w.f64(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN payload
        w.bool(true);
        w.str("occupant/3");
        w.opt_i64(Some(-7));
        w.opt_i64(None);
        w.raw(b"run");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Some(0xab));
        assert_eq!(r.u32(), Some(123_456));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.i64(), Some(-42));
        assert_eq!(r.usize(), Some(99));
        assert_eq!(r.f64(), Some(-0.125));
        assert_eq!(r.f64().map(f64::to_bits), Some(0x7ff8_dead_beef_0001));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.str(), Some("occupant/3"));
        assert_eq!(r.opt_i64(), Some(Some(-7)));
        assert_eq!(r.opt_i64(), Some(None));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.raw(4), None, "a short raw read is None");
        assert_eq!(r.raw(3), Some(&b"run"[..]));
        assert!(r.finished());
        assert_eq!(r.u8(), None, "reads past the end are None, not panic");
    }

    #[test]
    fn truncation_is_none_everywhere() {
        let mut w = Writer::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(r.str(), None, "cut at {cut}");
        }
    }

    #[test]
    fn non_canonical_bool_is_damage() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), None);
    }
}
