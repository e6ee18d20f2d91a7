//! Helpers shared by the store-facing integration tests.

use std::path::Path;

/// Rewrites the record at `path` as builds before the XXH64 payload
/// checksum wrote it: magic `SHATTERB1`, the same signature, length, key
/// and payload, and an FNV-1a payload checksum.
pub fn retire_record(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&bytes[..header_end]).unwrap();
    let fields: Vec<&str> = header.split(' ').collect();
    assert_eq!(
        fields[0],
        "SHATTERB2",
        "{}: not a current record",
        path.display()
    );
    let rest = &bytes[header_end + 1..];
    let key_end = rest.iter().position(|&b| b == b'\n').unwrap();
    let payload = &rest[key_end + 1..];
    let mut retired = format!(
        "SHATTERB1 {} {} {:016x}\n",
        fields[1],
        fields[2],
        shatter_store::fnv1a_bytes(payload)
    )
    .into_bytes();
    retired.extend_from_slice(rest);
    std::fs::write(path, retired).unwrap();
}
