//! The workspace's single FNV-1a 64-bit implementation.
//!
//! Every content address in the system — blob file names (fleet
//! journals and the fixture store alike), cache shard selection, fleet
//! config signatures, scenario seeds — ultimately routes through this
//! hash. The pin tests below freeze the exact values so no edit can
//! silently re-address existing on-disk records. It addresses records
//! but does not checksum their payloads: byte-serial FNV-1a costs about
//! 2 ns per byte, so the store checksums payloads with
//! [`crate::xxh64()`].

/// FNV-1a offset basis (64-bit).
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a hash of a byte string.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a hash of a string's UTF-8 bytes.
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a_bytes(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64-bit test vectors plus workspace-specific
    /// strings. These values are load-bearing: they address records
    /// already on disk in users' journal/store directories. If this
    /// test fails, the hash changed and every existing cache key,
    /// record address and config signature just moved — do not
    /// "fix" the expected values, fix the hash.
    #[test]
    fn pinned_hash_values() {
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_str("chongo was here!\n"), 0x46810940eff5f915);
        // Workspace-shaped keys (journal record + memo prefix idioms).
        assert_eq!(fnv1a_str("house/000007"), 0xeef9_2ce6_6265_0729);
        assert_eq!(fnv1a_str("smtw/h5/30/0/db/rt/0"), 0x6cf8_0a73_d6f9_142a);
    }

    #[test]
    fn str_and_bytes_agree() {
        assert_eq!(fnv1a_str("fleet-v1"), fnv1a_bytes(b"fleet-v1"));
    }
}
