//! `shatter-store` — durable, content-addressed record storage for
//! crash-safe fleet runs and the fixture cache's disk tier.
//!
//! Everything persisted goes through one [`BlobStore`]: a directory of
//! independent checksummed record files, each written via tmp+`rename`
//! and validated lazily when read (see [`blob`]). A fleet journal is a
//! `BlobStore` bound to the run's configuration signature; the
//! fixture cache's disk tier is one bound to the serialization schema.
//! The companion [`write_manifest`]/[`read_manifest`] pair persists a
//! fleet run's parameters in human-readable `key=value` form (also via
//! tmp+rename) so `repro --resume <dir>` can reconstruct the exact
//! original configuration from the directory alone.
//!
//! Typed payloads travel through the explicit [`wire`] codec via the
//! [`Blob`] trait. Every content address in the workspace (record file
//! names, signatures, seeds) uses the single FNV-1a implementation in
//! [`fnv`]; record payloads are checksummed with [`xxh64()`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::{self, Write};
use std::path::Path;

pub mod blob;
pub mod fnv;
pub mod wire;
pub mod xxh64;

pub use blob::{Blob, BlobStats, BlobStore};
pub use fnv::{fnv1a_bytes, fnv1a_str};
pub use xxh64::xxh64;

/// Name of the run-manifest file inside a fleet journal directory.
pub const MANIFEST_NAME: &str = "manifest.txt";

/// Writes a run manifest (`key=value` lines) into `dir` via
/// tmp+rename.
///
/// # Errors
///
/// Returns any I/O error from the write or rename.
pub fn write_manifest(dir: &Path, entries: &[(String, String)]) -> io::Result<()> {
    let mut body = String::new();
    for (k, v) in entries {
        body.push_str(&format!("{k}={v}\n"));
    }
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(MANIFEST_NAME))
}

/// Reads a journal directory's manifest back as ordered `(key, value)`
/// pairs.
///
/// # Errors
///
/// Returns the underlying I/O error (e.g. no manifest — not a resumable
/// journal).
pub fn read_manifest(dir: &Path) -> io::Result<Vec<(String, String)>> {
    let body = fs::read_to_string(dir.join(MANIFEST_NAME))?;
    Ok(body
        .lines()
        .filter_map(|line| {
            let (k, v) = line.split_once('=')?;
            Some((k.to_string(), v.to_string()))
        })
        .collect())
}

/// Convenience over [`read_manifest`] output: the value at `key`.
pub fn manifest_value<'a>(entries: &'a [(String, String)], key: &str) -> Option<&'a str> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "shatter-store-test-manifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&dir).is_err(), "no manifest yet");
        write_manifest(
            &dir,
            &[
                ("fleet".into(), "8".into()),
                ("days".into(), "3".into()),
                ("config_sig".into(), format!("{:016x}", 9u64)),
            ],
        )
        .unwrap();
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(manifest_value(&entries, "fleet"), Some("8"));
        assert_eq!(manifest_value(&entries, "days"), Some("3"));
        assert_eq!(manifest_value(&entries, "missing"), None);
        fs::remove_dir_all(&dir).ok();
    }
}
