//! Blob-store serialization of datasets and episode sets (the disk
//! tier under the engine's fixture cache).
//!
//! Encodings are versioned via [`Blob::TAG`]; a tag bump makes every
//! old blob decode to `None` (a recompute), never to a wrong value.
//! Occupant-minute states are packed as `(u32 zone, u8 activity-code)`
//! and appliance states as a bitmask, so every minute's record takes
//! `5 · n_occupants + ⌈n_appliances / 8⌉` bytes. A 30-day ARAS month (two
//! occupants, 13 appliances) is 518,821 bytes; generated homes take more,
//! 950,831 bytes for `HouseSpec::scaled(10, 4)` and 1,166,830 bytes for
//! `HouseSpec::scaled(6, 5)`.
//!
//! The codec works per record run, not per minute (see [`DayTrace`]):
//! the encoder packs a record's bytes once and repeats them while the
//! next minute holds the same `Arc`, and the decoder reuses the previous
//! minute's record while the bytes repeat. The bytes are the same as
//! packing every minute afresh.

use std::sync::Arc;

use shatter_smarthome::{Activity, OccupantId, ZoneId, MINUTES_PER_DAY};
use shatter_store::wire::{Reader, Writer};
use shatter_store::Blob;

use crate::episodes::Episode;
use crate::{Dataset, DayTrace, MinuteRecord, OccupantState};

/// Overwrites `out` with `rec`'s packed bytes.
fn pack_record(rec: &MinuteRecord, mask_len: usize, out: &mut Vec<u8>) {
    out.clear();
    for occ in &rec.occupants {
        out.extend_from_slice(&(occ.zone.0 as u32).to_le_bytes());
        out.push(occ.activity.code());
    }
    let mask = out.len();
    out.resize(mask + mask_len, 0);
    for (i, &on) in rec.appliances.iter().enumerate() {
        if on {
            out[mask + i / 8] |= 1 << (i % 8);
        }
    }
}

/// Unpacks one record from exactly its packed bytes; `None` on an
/// unknown activity code.
fn unpack_record(bytes: &[u8], n_occupants: usize, n_appliances: usize) -> Option<MinuteRecord> {
    let mut r = Reader::new(bytes);
    let mut occupants = Vec::with_capacity(n_occupants);
    for _ in 0..n_occupants {
        let zone = ZoneId(r.u32()? as usize);
        let activity = Activity::from_code(r.u8()?)?;
        occupants.push(OccupantState { zone, activity });
    }
    let mask = r.raw(n_appliances.div_ceil(8))?;
    let appliances = (0..n_appliances)
        .map(|i| mask[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    Some(MinuteRecord {
        occupants,
        appliances,
    })
}

impl Blob for Dataset {
    const TAG: &'static str = "dataset/1";

    fn encode(&self, w: &mut Writer) {
        w.str(&self.house);
        w.usize(self.n_occupants);
        w.usize(self.n_appliances);
        w.usize(self.days.len());
        let mask_len = self.n_appliances.div_ceil(8);
        let mut packed = Vec::new();
        for day in &self.days {
            w.u32(day.day);
            w.usize(day.minutes.len());
            let mut packed_from: Option<&Arc<MinuteRecord>> = None;
            for rec in &day.minutes {
                if !packed_from.is_some_and(|p| Arc::ptr_eq(p, rec)) {
                    pack_record(rec, mask_len, &mut packed);
                    packed_from = Some(rec);
                }
                w.raw(&packed);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let house = r.str()?.to_string();
        let n_occupants = r.usize()?;
        let n_appliances = r.usize()?;
        let n_days = r.seq_len()?;
        // The counts must describe a month the remaining bytes can hold,
        // or a corrupt count would size the allocations below.
        let rec_len = n_occupants
            .checked_mul(5)?
            .checked_add(n_appliances.div_ceil(8))?;
        let month_len = n_days.checked_mul(MINUTES_PER_DAY)?.checked_mul(rec_len)?;
        if month_len > r.remaining() {
            return None;
        }
        let mut days = Vec::with_capacity(n_days);
        for _ in 0..n_days {
            let day = r.u32()?;
            if r.usize()? != MINUTES_PER_DAY {
                return None;
            }
            let mut minutes: Vec<Arc<MinuteRecord>> = Vec::with_capacity(MINUTES_PER_DAY);
            let mut prev_bytes: &[u8] = &[];
            for _ in 0..MINUTES_PER_DAY {
                let bytes = r.raw(rec_len)?;
                let rec = match minutes.last() {
                    Some(prev) if bytes == prev_bytes => Arc::clone(prev),
                    _ => Arc::new(unpack_record(bytes, n_occupants, n_appliances)?),
                };
                minutes.push(rec);
                prev_bytes = bytes;
            }
            days.push(DayTrace { day, minutes });
        }
        let ds = Dataset {
            house,
            n_occupants,
            n_appliances,
            days,
        };
        // Structural invariants are part of the format: a blob that
        // decodes but fails validation is damage, not data.
        ds.validate().ok()?;
        Some(ds)
    }
}

/// Envelope tag of an episode-set blob (`Vec<Episode>` is foreign to
/// the `Blob` trait, so the set travels through these free functions).
const EPISODES_TAG: &str = "episodes/1";

/// Serializes an episode set as a tagged blob.
pub fn episodes_to_blob(episodes: &[Episode]) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(EPISODES_TAG);
    w.usize(episodes.len());
    for ep in episodes {
        w.u32(ep.occupant.0 as u32);
        w.u32(ep.zone.0 as u32);
        w.u32(ep.day);
        w.u32(ep.arrival);
        w.u32(ep.stay);
    }
    w.into_bytes()
}

/// Deserializes an episode-set blob; `None` on any damage.
pub fn episodes_from_blob(bytes: &[u8]) -> Option<Vec<Episode>> {
    let mut r = Reader::new(bytes);
    if r.str()? != EPISODES_TAG {
        return None;
    }
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Episode {
            occupant: OccupantId(r.u32()? as usize),
            zone: ZoneId(r.u32()? as usize),
            day: r.u32()?,
            arrival: r.u32()?,
            stay: r.u32()?,
        });
    }
    r.finished().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HouseSpec;
    use crate::{synthesize, SynthConfig};

    #[test]
    fn dataset_roundtrip_is_exact() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 3, 42));
        let bytes = ds.to_blob();
        let back = Dataset::from_blob(&bytes).expect("decode");
        assert_eq!(back, ds);
        // Determinism of the encoding itself (byte-identical re-encode).
        assert_eq!(back.to_blob(), bytes);
    }

    #[test]
    fn truncated_dataset_blob_is_none() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 1, 7));
        let bytes = ds.to_blob();
        assert_eq!(Dataset::from_blob(&bytes[..bytes.len() - 3]), None);
        assert_eq!(Dataset::from_blob(b"garbage"), None);
    }

    /// Occupant and appliance counts too large for the bytes that follow
    /// decode to `None` before anything is sized by them (an allocation
    /// of 2^40 records' states would abort the process).
    #[test]
    fn oversized_record_counts_are_none() {
        for (n_occupants, n_appliances) in [(1usize << 40, 13usize), (2, 1 << 40)] {
            let mut w = Writer::new();
            w.str(Dataset::TAG);
            w.str("crafted");
            w.usize(n_occupants);
            w.usize(n_appliances);
            w.usize(1);
            w.u32(0);
            w.usize(MINUTES_PER_DAY);
            for _ in 0..64 {
                w.u32(0);
                w.u8(Activity::Sleeping.code());
            }
            assert_eq!(Dataset::from_blob(&w.into_bytes()), None);
        }
    }

    #[test]
    fn episodes_roundtrip() {
        let eps = vec![
            Episode {
                occupant: OccupantId(1),
                zone: ZoneId(4),
                day: 2,
                arrival: 610,
                stay: 55,
            },
            Episode {
                occupant: OccupantId(0),
                zone: ZoneId(0),
                day: 0,
                arrival: 0,
                stay: 1440,
            },
        ];
        assert_eq!(episodes_from_blob(&episodes_to_blob(&eps)), Some(eps));
    }

    #[test]
    fn wrong_tag_is_rejected() {
        assert_eq!(Dataset::from_blob(&episodes_to_blob(&[])), None);
    }
}
