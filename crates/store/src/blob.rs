//! Content-addressed blob store: every durable record in the workspace.
//!
//! A [`BlobStore`] is a directory of independent per-record files, each
//! keyed by a caller-chosen content address and written via the only
//! crash-safe primitive POSIX gives us: write to a unique temp file in
//! the same directory, `sync_all`, then `rename` onto the final name. A
//! `kill -9` at any instant therefore leaves either no record or a
//! complete one — except for hardware-level torn writes, which the
//! per-record XXH64 payload checksum catches.
//!
//! Record file format (`b{fnv1a(key):016x}.blob`):
//!
//! ```text
//! SHATTERB2 {sig:016x} {payload_len} {payload_xxh64:016x}\n
//! {key}\n
//! {payload bytes}
//! ```
//!
//! `sig` binds every record to what produced it: the fixture cache's
//! serialization schema, or a fleet run's configuration (fleet size,
//! days, span, seed, budget ...), so a journal can never replay rows
//! into a run with different parameters. FNV-1a ([`crate::fnv`])
//! addresses records (file names, signatures); the payload checksum is
//! [`crate::xxh64()`], which hashes a megabyte-scale month or reward table
//! about ten times faster than byte-serial FNV-1a. `put` writes the
//! header line and then the payload straight from the caller's buffer,
//! never joining them into one copy.
//!
//! The trailing `2` of the magic is the format version. Version 1
//! (`SHATTERB1`, the same layout with an FNV-1a payload checksum) is
//! foreign to this build: such a record is discarded and recomputed on
//! its first read, like any other record this build did not write.
//!
//! Records are validated lazily on each `get`, never on open: blobs
//! can be large (serialized month datasets, reward tables) and a run
//! only touches the ones its keys ask for. A damaged, foreign or stale
//! record — wrong checksum, length, signature or stored key, or a
//! payload the caller's decoder rejects — is deleted, counted in
//! [`BlobStats::discarded`] and reported as a miss, so the caller
//! recomputes; stored bytes are never trusted past their checksum and
//! decoder.
//!
//! Reads consult the `store.read` fault-injection site: an injected
//! `io` fault makes the stored blob unreadable (exercising the
//! discard-and-recompute path), `panic` simulates a crash inside the
//! read. Writes consult `store.write`: `panic` is a reproducible
//! mid-fleet crash, `io` a torn write (truncated record bytes at the
//! final path — exactly what the checksum must catch).
//!
//! Typed payloads implement [`Blob`]: a version-tagged envelope over
//! the [`crate::wire`] codec. `from_blob` rejects wrong tags and
//! trailing bytes, so type confusion between keys decodes to `None`
//! (a miss), never to a wrong value.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use shatter_faults::FaultKind;

use crate::fnv::fnv1a_str;
use crate::wire::{Reader, Writer};
use crate::xxh64::xxh64;

/// Magic tag opening every record file; trailing `2` is the format
/// version.
const MAGIC: &str = "SHATTERB2";

/// A type that can round-trip through the blob store.
///
/// Implementations live next to the type they serialize (private
/// fields stay private); the envelope written by [`Blob::to_blob`]
/// leads with [`Blob::TAG`], which must change whenever the encoding
/// changes — a stale-format blob then decodes to `None` and is simply
/// recomputed.
pub trait Blob: Sized {
    /// Type-and-version tag, e.g. `"dataset/1"`.
    const TAG: &'static str;

    /// Appends the payload encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one payload; `None` on any damage or version skew.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;

    /// Serializes as a tagged envelope.
    fn to_blob(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(Self::TAG);
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes a tagged envelope; rejects wrong tags and
    /// trailing bytes.
    fn from_blob(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.str()? != Self::TAG {
            return None;
        }
        let v = Self::decode(&mut r)?;
        r.finished().then_some(v)
    }
}

/// `Vec<f64>` travels bit-exactly (benign day-cost curves).
impl Blob for Vec<f64> {
    const TAG: &'static str = "vec-f64/1";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for &v in self {
            w.f64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.f64()?);
        }
        Some(out)
    }
}

/// Counters describing a blob store's life since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlobStats {
    /// `get` calls issued.
    pub gets: u64,
    /// `get` calls served by a valid, decodable on-disk blob.
    pub hits: u64,
    /// Blobs durably written.
    pub writes: u64,
    /// Damaged / foreign / stale / undecodable blobs deleted on read.
    pub discarded: u64,
    /// Writes torn by an injected `io` fault.
    pub torn: u64,
}

/// An open content-addressed blob directory bound to one signature.
/// Internally synchronized; parallel workers share it through
/// `&BlobStore`.
pub struct BlobStore {
    dir: PathBuf,
    sig: u64,
    gets: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
    discarded: AtomicU64,
    torn: AtomicU64,
    tmp_counter: AtomicU64,
}

impl BlobStore {
    /// Opens (creating if needed) the store at `dir`. Stale temp files
    /// from a crashed writer are removed; record files are *not* read
    /// here — each is validated lazily on its first read.
    ///
    /// `sig` binds every record to what produced it: the hash of a
    /// serialization schema string (bump the string whenever an
    /// encoding changes incompatibly) or of a run configuration.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or scanning the directory.
    pub fn open(dir: &Path, sig: u64) -> io::Result<BlobStore> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "tmp") {
                fs::remove_file(&path).ok();
            }
        }
        Ok(BlobStore {
            dir: dir.to_path_buf(),
            sig,
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The raw payload stored for `key`, if a valid blob exists on disk.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.get_with(key, |payload| Some(payload.to_vec()))
    }

    /// The payload stored for `key`, passed through `decode`.
    ///
    /// A blob counts as a hit only when it passes validation
    /// (checksum, length, signature, stored key) *and* `decode`
    /// accepts it. Anything else on disk is damage: it is deleted,
    /// counted discarded and reported as a miss, so the caller
    /// recomputes.
    ///
    /// Fault site `store.read`: `panic` unwinds here; `io` makes the
    /// stored blob unreadable — it is deleted and counted discarded,
    /// exactly like real corruption.
    pub fn get_with<T>(&self, key: &str, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(blob_file_name(key));
        match shatter_faults::hit("store.read") {
            Some(FaultKind::Panic) => shatter_faults::panic_now("store.read"),
            Some(FaultKind::Io) => {
                // Unreadable media: the blob is as good as corrupt.
                if path.exists() {
                    self.discard(&path);
                }
                return None;
            }
            // No budget to model in a read; treat as a miss.
            Some(FaultKind::Budget) => return None,
            None => {}
        }
        let bytes = fs::read(&path).ok()?;
        // A valid record under another key is an FNV address collision
        // or a renamed file — either way not our data.
        let value = parse_record(&bytes, self.sig)
            .filter(|(stored_key, _)| *stored_key == key)
            .and_then(|(_, payload)| decode(payload));
        if value.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discard(&path);
        }
        value
    }

    /// Typed read: [`Blob::from_blob`] through [`BlobStore::get_with`],
    /// plus the serialized size, which callers charge against their
    /// RAM budget.
    pub fn get_blob_sized<T: Blob>(&self, key: &str) -> Option<(T, usize)> {
        self.get_with(key, |b| Some((T::from_blob(b)?, b.len())))
    }

    /// Deletes a record that failed validation and counts it.
    fn discard(&self, path: &Path) {
        fs::remove_file(path).ok();
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Durably stores `payload` under `key` (tmp file, `sync_all`,
    /// atomic rename). Re-putting a key overwrites its blob.
    ///
    /// Fault site `store.write` (consulted before any bytes move):
    /// `panic` unwinds here, `io` tears the write — half the record
    /// lands at the final path, where the next read discards it — and
    /// the other kinds skip the write (a lost record, recomputed
    /// later).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write, sync or rename.
    pub fn put(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let header = record_header(self.sig, key, payload);
        let final_path = self.dir.join(blob_file_name(key));
        match shatter_faults::hit("store.write") {
            Some(FaultKind::Panic) => shatter_faults::panic_now("store.write"),
            Some(FaultKind::Io) => {
                // Torn write: no rename barrier — the worst case a real
                // crash plus reordered writeback can produce.
                let half = (header.len() + payload.len()) / 2;
                let (head, body) = (half.min(header.len()), half.saturating_sub(header.len()));
                let mut f = fs::File::create(&final_path)?;
                f.write_all(&header.as_bytes()[..head])?;
                f.write_all(&payload[..body])?;
                self.torn.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Some(FaultKind::Budget) => return Ok(()),
            None => {}
        }
        let tmp = self.dir.join(format!(
            "b{}-{:x}.tmp",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &final_path)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Typed write: [`Blob::to_blob`] + [`BlobStore::put`], returning
    /// the serialized size (callers charge it against the RAM
    /// budget). I/O errors are swallowed — a failed persist degrades
    /// to in-memory-only caching, never to a wrong result.
    pub fn put_blob<T: Blob>(&self, key: &str, value: &T) -> usize {
        let bytes = value.to_blob();
        self.put(key, &bytes).ok();
        bytes.len()
    }

    /// Current counters.
    pub fn stats(&self) -> BlobStats {
        BlobStats {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }
}

/// File name addressing `key`'s blob.
fn blob_file_name(key: &str) -> String {
    format!("b{:016x}.blob", fnv1a_str(key))
}

/// A record's first line, without its newline.
fn header_line(sig: u64, payload_len: usize, checksum: u64) -> String {
    format!("{MAGIC} {sig:016x} {payload_len} {checksum:016x}")
}

/// The header and key lines that precede `payload` in its record.
fn record_header(sig: u64, key: &str, payload: &[u8]) -> String {
    format!(
        "{}\n{key}\n",
        header_line(sig, payload.len(), xxh64(payload))
    )
}

/// Validates one record's bytes, returning its stored key and payload;
/// `None` means damaged / foreign / differently-signed.
fn parse_record(bytes: &[u8], sig: u64) -> Option<(&str, &[u8])> {
    let header_end = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..header_end]).ok()?;
    let mut parts = header.split(' ');
    if parts.next()? != MAGIC || u64::from_str_radix(parts.next()?, 16).ok()? != sig {
        return None;
    }
    let payload_len: usize = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    // Only the exact line `put` writes is valid: the number parsers
    // forgive a flipped bit that upper-cases a hex digit.
    if header != header_line(sig, payload_len, checksum) {
        return None;
    }
    let rest = &bytes[header_end + 1..];
    let key_end = rest.iter().position(|&b| b == b'\n')?;
    let key = std::str::from_utf8(&rest[..key_end]).ok()?;
    let payload = &rest[key_end + 1..];
    // Exact length: a truncated *or* over-long payload is damage.
    (payload.len() == payload_len && xxh64(payload) == checksum).then_some((key, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shatter-blob-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let s = BlobStore::open(&dir, 11).unwrap();
            s.put("fixture/h5/30/0", b"month-bytes").unwrap();
            assert_eq!(s.stats().writes, 1);
        }
        let s = BlobStore::open(&dir, 11).unwrap();
        assert_eq!(
            s.get("fixture/h5/30/0").as_deref(),
            Some(b"month-bytes".as_slice())
        );
        assert_eq!(s.get("fixture/other"), None);
        let st = s.stats();
        assert_eq!((st.gets, st.hits, st.discarded), (2, 1, 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reput_overwrites() {
        let dir = tmp_dir("overwrite");
        let s = BlobStore::open(&dir, 1).unwrap();
        s.put("k", b"old").unwrap();
        s.put("k", b"new").unwrap();
        let s = BlobStore::open(&dir, 1).unwrap();
        assert_eq!(s.get("k").as_deref(), Some(b"new".as_slice()));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "one file per key");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_blob_is_deleted_and_missed() {
        let dir = tmp_dir("corrupt");
        let s = BlobStore::open(&dir, 1).unwrap();
        s.put("k", b"precious-bytes").unwrap();
        let path = dir.join(blob_file_name("k"));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get("k"), None, "flipped byte must not be served");
        assert!(!path.exists(), "corrupt blob must be deleted");
        assert_eq!(s.stats().discarded, 1);
        // The slot is clean for a re-put.
        s.put("k", b"recomputed").unwrap();
        assert_eq!(s.get("k").as_deref(), Some(b"recomputed".as_slice()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_payload_is_discarded() {
        let dir = tmp_dir("truncate");
        let s = BlobStore::open(&dir, 3).unwrap();
        s.put("keep", b"payload-that-survives").unwrap();
        s.put("torn", b"payload-that-gets-torn").unwrap();
        // Tear the second record mid-payload, as a crashed writeback
        // would.
        let torn_path = dir.join(blob_file_name("torn"));
        let bytes = fs::read(&torn_path).unwrap();
        fs::write(&torn_path, &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(s.get("torn"), None);
        assert!(!torn_path.exists(), "damaged record must be deleted");
        assert_eq!(
            s.get("keep").as_deref(),
            Some(b"payload-that-survives".as_slice())
        );
        let st = s.stats();
        assert_eq!((st.hits, st.discarded), (1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_header_checksum_is_discarded() {
        let dir = tmp_dir("checksum");
        let s = BlobStore::open(&dir, 3).unwrap();
        s.put("bitrot", b"payload").unwrap();
        let path = dir.join(blob_file_name("bitrot"));
        let mut bytes = fs::read(&path).unwrap();
        // Flip one hex digit of the header's checksum field (the last
        // field before the newline); the payload itself is intact.
        let pos = bytes.iter().position(|&b| b == b'\n').unwrap() - 1;
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get("bitrot"), None);
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_sig_is_discarded_lazily() {
        let dir = tmp_dir("sig");
        {
            let s = BlobStore::open(&dir, 1).unwrap();
            s.put("k", b"v").unwrap();
        }
        let s = BlobStore::open(&dir, 2).unwrap();
        assert_eq!(s.stats().discarded, 0, "open reads no records");
        assert_eq!(s.get("k"), None);
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_read_fault_discards_instead_of_trusting() {
        shatter_faults::install_str("blob-read-test/store.read/io").unwrap();
        let dir = tmp_dir("read-fault");
        let s = BlobStore::open(&dir, 5).unwrap();
        s.put("k", b"doomed").unwrap();
        shatter_faults::with_scenario("blob-read-test", || {
            assert_eq!(s.get("k"), None, "fault read must miss");
            // Rule was one-shot: the blob is gone, so this is a real miss.
            assert_eq!(s.get("k"), None);
        });
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_tears_the_record_and_it_is_never_served() {
        shatter_faults::install_str("blob-write-test/store.write/io").unwrap();
        let dir = tmp_dir("write-fault");
        let s = BlobStore::open(&dir, 5).unwrap();
        shatter_faults::with_scenario("blob-write-test", || {
            s.put("victim", b"this payload will be torn").unwrap();
            s.put("clean", b"this one lands intact").unwrap();
        });
        let st = s.stats();
        assert_eq!((st.torn, st.writes), (1, 1));
        assert!(
            dir.join(blob_file_name("victim")).exists(),
            "torn bytes landed"
        );
        assert_eq!(s.get("victim"), None, "a torn record is never served");
        assert_eq!(
            s.get("clean").as_deref(),
            Some(b"this one lands intact".as_slice())
        );
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn typed_envelope_rejects_type_confusion() {
        let dir = tmp_dir("typed");
        let s = BlobStore::open(&dir, 3).unwrap();
        // Includes -0.0 and a NaN payload: both must round-trip
        // bit-exactly through the envelope.
        let costs: Vec<f64> = vec![1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_0001)];
        let size = s.put_blob("benign/h5", &costs);
        let (got, got_size) = s.get_blob_sized::<Vec<f64>>("benign/h5").unwrap();
        assert_eq!(got_size, size);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&costs));
        // Raw bytes under another key do not decode as Vec<f64>: a
        // discard, and not a hit.
        s.put("other", b"not-an-envelope").unwrap();
        assert_eq!(s.get_blob_sized::<Vec<f64>>("other"), None);
        let st = s.stats();
        assert_eq!((st.hits, st.discarded), (1, 1));
        assert!(!dir.join(blob_file_name("other")).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_files_are_cleaned_on_open() {
        let dir = tmp_dir("tmp-clean");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("b99-0.tmp"), b"half a blo").unwrap();
        let _s = BlobStore::open(&dir, 1).unwrap();
        assert!(!dir.join("b99-0.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
