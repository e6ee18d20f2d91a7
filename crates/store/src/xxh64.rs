//! XXH64, the record payload checksum.
//!
//! A one-shot implementation of the 64-bit xxHash algorithm as
//! specified in `doc/xxhash_spec.md` of the xxHash repository, always
//! with seed 0. The input is consumed in 32-byte stripes of four
//! independent 8-byte little-endian lanes, so the four accumulator
//! chains overlap in the CPU and a megabyte hashes an order of
//! magnitude faster than byte-serial FNV-1a. The tail goes 8, then 4,
//! then 1 byte at a time.
//!
//! The checksum only guards stored payloads against damage: changing
//! it re-labels no record, it only makes records of the previous
//! format foreign (see [`crate::blob`]). Content addresses stay on
//! [`crate::fnv`].

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Folds one 8-byte lane into an accumulator.
#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Merges one stripe accumulator into the converged hash.
#[inline(always)]
fn merge(acc: u64, v: u64) -> u64 {
    (acc ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

/// The `i`-th little-endian 8-byte lane of `b`.
#[inline(always)]
fn lane64(b: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[8 * i..8 * i + 8]);
    u64::from_le_bytes(w)
}

/// XXH64 (seed 0) of a byte string.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut acc = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for s in stripes {
            v[0] = round(v[0], lane64(s, 0));
            v[1] = round(v[1], lane64(s, 1));
            v[2] = round(v[2], lane64(s, 2));
            v[3] = round(v[3], lane64(s, 3));
        }
        let mut acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            acc = merge(acc, lane);
        }
        acc
    } else {
        P5
    };
    acc = acc.wrapping_add(bytes.len() as u64);

    let mut words = tail.chunks_exact(8);
    for w in &mut words {
        acc = (acc ^ round(0, lane64(w, 0)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let mut w = [0u8; 4];
        w.copy_from_slice(&rest[..4]);
        acc = (acc ^ u64::from(u32::from_le_bytes(w)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        acc = (acc ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published XXH64 (seed 0) values. Stored checksums depend on them:
    /// if this test fails, every record on disk just became damage.
    #[test]
    fn pinned_hash_values() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // python-xxhash's README examples: a 4+1+1-byte tail, and one
        // 32-byte stripe plus a 4+1+1+1-byte tail.
        assert_eq!(xxh64(b"xxhash"), 0x32dd_3895_2c4b_c720);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }
}
