//! Property test of the blob record's damage detection: a record file
//! with one flipped bit anywhere (header, key line or payload), cut
//! short at any length, or grown by one byte is never served. `get`
//! returns `None`, deletes the file and counts one discard, and the
//! untouched record round-trips before and after.
//!
//! Payloads of 0–200 bytes and one of 64 KiB + 29 bytes together
//! exercise XXH64's short-input path, its 32-byte stripes and its 8-,
//! 4- and 1-byte tails.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use proptest::TestRng;

use shatter_store::BlobStore;

/// Keys of 1–40 printable ASCII characters (a key is one line).
fn arb_key() -> impl Strategy<Value = String> {
    prop::collection::vec(0x21u8..0x7f, 1..=40)
        .prop_map(|b| String::from_utf8(b).expect("printable ASCII"))
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..=200)
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shatter-record-damage-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Stores `payload` under `key` in a fresh store at `dir` and damages
/// its file once per byte index `at(record)` returns: a flip of one bit
/// of that byte (chosen by `seed`) and, separately, a truncation to that
/// length; then one appended byte. Every damaged file must be refused,
/// deleted and counted; the untouched record round-trips before and
/// after.
fn assert_damage_is_discarded(
    dir: &Path,
    key: &str,
    payload: &[u8],
    seed: u64,
    at: impl FnOnce(&[u8]) -> Vec<usize>,
) {
    let store = BlobStore::open(dir, 0x5eed).unwrap();
    store.put(key, payload).unwrap();
    let path = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "blob"))
        .expect("one record file");
    let record = fs::read(&path).unwrap();
    let served = |bytes: &[u8]| {
        fs::write(&path, bytes).unwrap();
        store.get(key)
    };
    assert_eq!(
        served(&record).as_deref(),
        Some(payload),
        "untouched record"
    );
    let refused = |damaged: &[u8], what: &str| {
        let before = store.stats().discarded;
        assert_eq!(served(damaged), None, "{what} was served");
        assert!(!path.exists(), "{what} was not deleted");
        assert_eq!(store.stats().discarded, before + 1, "{what} not counted");
    };
    for (i, pos) in at(&record).into_iter().enumerate() {
        let bit = (seed.wrapping_add(i as u64) % 8) as u32;
        let mut flipped = record.clone();
        flipped[pos] ^= 1 << bit;
        refused(&flipped, &format!("bit {bit} of byte {pos} flipped"));
        refused(&record[..pos], &format!("record cut to {pos} bytes"));
    }
    let mut grown = record.clone();
    grown.push(seed as u8);
    refused(&grown, "record with one byte appended");
    assert_eq!(
        served(&record).as_deref(),
        Some(payload),
        "untouched record"
    );
    fs::remove_dir_all(dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_damaged_byte_of_a_small_record_is_discarded(
        key in arb_key(),
        payload in arb_payload(),
        seed in 0u64..u64::MAX,
    ) {
        let dir = store_dir("small");
        assert_damage_is_discarded(&dir, &key, &payload, seed, |record| {
            (0..record.len()).collect()
        });
    }
}

#[test]
fn damage_to_a_64_kib_record_is_discarded() {
    let mut rng = TestRng::from_parts("damage_to_a_64_kib_record_is_discarded", 0);
    // 2,048 stripes, then a 29-byte tail: three 8-byte lanes, one
    // 4-byte lane, one byte.
    let payload: Vec<u8> = (0..64 * 1024 + 29).map(|_| rng.next_u64() as u8).collect();
    let dir = store_dir("large");
    let seed = rng.next_u64();
    assert_damage_is_discarded(&dir, "fixture/large/30/0", &payload, seed, |record| {
        // Every byte of the header and key lines and of the last stripe
        // and tail, plus 256 bytes anywhere.
        let (key_end, _) = record
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .expect("header and key lines");
        let mut at: Vec<usize> = (0..=key_end)
            .chain(record.len() - 64..record.len())
            .collect();
        at.extend((0..256).map(|_| (rng.next_u64() % record.len() as u64) as usize));
        at
    });
}
