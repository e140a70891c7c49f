//! The append-only record log behind [`Store`].
//!
//! On-disk layout: a sequence of records, each
//!
//! ```text
//! magic     u32 LE   0x4F41_5245 ("OARE")
//! key_len   u32 LE
//! val_len   u32 LE
//! checksum  u64 LE   FNV-1a over key bytes ++ value bytes
//! key       key_len bytes
//! value     val_len bytes
//! ```
//!
//! All integers little-endian. Lengths are bounded (`MAX_FIELD_LEN`) so a
//! corrupt header cannot provoke a giant allocation. A record is valid
//! only if the whole frame is present *and* the checksum matches; the
//! scan stops at the first invalid record and truncates the file there,
//! which makes a torn tail (crash or `kill -9` mid-append) cost exactly
//! the record that was being written.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oa_fault::{Decision, Faults, Site};

use crate::fnv1a64;

const MAGIC: u32 = 0x4F41_5245;
const HEADER_LEN: usize = 4 + 4 + 4 + 8;
/// Upper bound on key or value length; anything larger in a header is
/// treated as corruption (and `put` refuses to write it).
pub(crate) const MAX_FIELD_LEN: usize = 1 << 28;

/// Counters describing a store's contents and traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (distinct-key) records in the index.
    pub live_records: u64,
    /// Records appended over this handle's lifetime plus records replayed
    /// at open — total log appends observed.
    pub appended_records: u64,
    /// Bytes the log file currently occupies.
    pub log_bytes: u64,
    /// Bytes of torn tail dropped at open (0 after a clean shutdown).
    pub recovered_tail_bytes: u64,
    /// `get` calls that found a record.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
}

/// A crash-safe persistent byte-keyed store over an append-only log.
///
/// Two ways to add a record: [`Store::put`] writes, fsyncs, then
/// publishes; [`Store::append`] writes and publishes, and leaves the
/// fsync to the returned [`Unsynced`], which can run after the caller
/// has released the store.
///
/// Concurrency model: a `Store` is a single-writer handle — wrap it in a
/// `Mutex` to share between threads; an [`Unsynced`] needs no lock.
/// Two *processes* must not append to the same log concurrently
/// (last-opener-wins corruption risk on the shared tail); one daemon or
/// one harness binary per log.
///
/// # Examples
///
/// ```
/// let dir = std::env::temp_dir().join(format!("oa_store_doc_{}", std::process::id()));
/// let path = dir.join("results.log");
/// let mut store = oa_store::Store::open(&path).unwrap();
/// store.put(b"key", b"value").unwrap();
/// assert_eq!(store.get(b"key").as_deref(), Some(&b"value"[..]));
/// drop(store);
/// // Reopening rebuilds the index from the log.
/// let store = oa_store::Store::open(&path).unwrap();
/// assert_eq!(store.get(b"key").as_deref(), Some(&b"value"[..]));
/// # drop(store);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    /// Shared with every pending [`Unsynced`], so a deferred fsync
    /// needs neither this handle nor a second descriptor.
    file: Arc<File>,
    index: BTreeMap<Vec<u8>, Vec<u8>>,
    log_bytes: u64,
    appended: u64,
    recovered_tail_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    faults: Faults,
    /// Set when a failed append may have left bytes past `log_bytes`
    /// (torn write, write error, or a record whose sync failed). The
    /// next append truncates back to the last published record before
    /// writing, so a garbage tail can never poison later records.
    tail_dirty: bool,
}

/// A record [`Store::append`] wrote and published whose fsync is still
/// pending. Until [`Unsynced::sync`] returns, a process crash loses
/// nothing (the bytes are in the kernel) but an OS crash or power loss
/// may drop the record. Dropping it unsynced leaves that window open
/// until the kernel writes the page back.
#[derive(Debug)]
pub struct Unsynced {
    file: Arc<File>,
}

impl Unsynced {
    /// Flushes the log's data to disk (`fdatasync`), which makes this
    /// record and every earlier append to the same log durable, so a
    /// caller that appended several records syncs only the last. Takes
    /// no store lock.
    ///
    /// # Errors
    ///
    /// The flush's I/O error. The record stays published: what reached
    /// the disk is then unknown, the same ambiguity a failed
    /// [`Store::put`] rollback leaves.
    pub fn sync(self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Wraps an injected fault as the `io::Error` the instrumented
/// operation would have surfaced.
fn injected(detail: &str) -> io::Error {
    io::Error::other(format!("injected fault: {detail}"))
}

/// Parses one record starting at `buf[at..]`. Returns the key/value
/// slices and the offset one past the record, or `None` if the bytes at
/// `at` do not form a complete, checksum-valid record.
fn parse_record(buf: &[u8], at: usize) -> Option<(&[u8], &[u8], usize)> {
    let header = buf.get(at..at + HEADER_LEN)?;
    // lint: allow(panic, fixed-width subslice of the bounds-checked header)
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return None;
    }
    // lint: allow(panic, fixed-width subslice of the bounds-checked header)
    let key_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    // lint: allow(panic, fixed-width subslice of the bounds-checked header)
    let val_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if key_len > MAX_FIELD_LEN || val_len > MAX_FIELD_LEN {
        return None;
    }
    // lint: allow(panic, fixed-width subslice of the bounds-checked header)
    let checksum = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let body_start = at + HEADER_LEN;
    let body = buf.get(body_start..body_start + key_len + val_len)?;
    if fnv1a64(body) != checksum {
        return None;
    }
    let (key, val) = body.split_at(key_len);
    Some((key, val, body_start + key_len + val_len))
}

/// The temporary file a compaction writes before its atomic rename.
fn compact_tmp_path(path: &Path) -> PathBuf {
    path.with_extension("compact.tmp")
}

fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(HEADER_LEN + key.len() + value.len());
    rec.extend_from_slice(&MAGIC.to_le_bytes());
    rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
    rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
    let mut body = Vec::with_capacity(key.len() + value.len());
    body.extend_from_slice(key);
    body.extend_from_slice(value);
    rec.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    rec.extend_from_slice(&body);
    rec
}

impl Store {
    /// Opens (creating if absent) the log at `path`, replaying every
    /// intact record into the in-memory index.
    ///
    /// A torn or corrupt tail is dropped: the file is truncated back to
    /// the end of the last intact record so subsequent appends produce a
    /// clean log. Corruption *before* the tail also stops the scan there
    /// (everything after an unreadable record is unreachable), which is
    /// the conservative choice for a format whose only writer appends.
    ///
    /// # Errors
    ///
    /// I/O errors opening, reading or truncating the file.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Store> {
        Store::open_with_faults(path, Faults::none())
    }

    /// [`Store::open`] with a fault-injection handle threaded into every
    /// subsequent append and compaction. Production callers use
    /// [`Store::open`] (equivalently, a [`Faults::none`] handle, whose
    /// per-operation cost is a single `None` check); the chaos harness
    /// passes a seeded plan.
    ///
    /// # Errors
    ///
    /// I/O errors opening, reading or truncating the file.
    pub fn open_with_faults<P: AsRef<Path>>(path: P, faults: Faults) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        // A crash during a previous compaction can leave a stale
        // temporary image next to the log. It was never renamed into
        // place, so it holds no live data — drop it at open, exactly
        // like the torn tail below, or it leaks disk forever.
        let tmp_path = compact_tmp_path(&path);
        if tmp_path.exists() {
            fs::remove_file(&tmp_path)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut index = BTreeMap::new();
        let mut appended = 0u64;
        let mut offset = 0usize;
        while let Some((key, val, next)) = parse_record(&buf, offset) {
            index.insert(key.to_vec(), val.to_vec());
            appended += 1;
            offset = next;
        }
        let recovered_tail_bytes = (buf.len() - offset) as u64;
        if recovered_tail_bytes > 0 {
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok(Store {
            path,
            file: Arc::new(file),
            index,
            log_bytes: offset as u64,
            appended,
            recovered_tail_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            faults,
            tail_dirty: false,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up a key. The returned value is the last one `put` for that
    /// key.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        match self.index.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns whether a key is present without counting a hit or miss.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    /// Appends a record and fsyncs it before publishing it: once `put`
    /// succeeds the record survives a crash. The converse also holds —
    /// a `put` that returns an error leaves **no trace**: any partially
    /// written bytes are rolled back before the next append, and a
    /// crash before that rollback loses them to the torn-tail scan at
    /// reopen. Callers may therefore retry failed appends blindly.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidInput` for keys/values over the format's
    /// length bound.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let len = self.write_record(key, value)?;
        if let Err(e) = self.file.sync_data() {
            // Reporting success would break the put-implies-durable
            // contract, so the put fails and takes its record back.
            self.roll_back();
            return Err(e);
        }
        self.publish(key, value, len);
        Ok(())
    }

    /// Appends a record and publishes it before it is durable: `get`
    /// returns it and [`Store::stats`] counts it as soon as this
    /// returns, and the returned [`Unsynced`] runs the fsync whenever
    /// the caller chooses, without this handle. The write, the fault
    /// draws and the failure behaviour are [`Store::put`]'s: a failed
    /// append, injected or real, publishes nothing and leaves no trace.
    /// The log's bytes are identical to a `put`'s.
    ///
    /// # Errors
    ///
    /// As [`Store::put`], except that the fsync's own error surfaces
    /// from [`Unsynced::sync`].
    #[must_use = "the record is not durable until `Unsynced::sync` runs"]
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<Unsynced> {
        let len = self.write_record(key, value)?;
        self.publish(key, value, len);
        Ok(Unsynced {
            file: Arc::clone(&self.file),
        })
    }

    /// The write half of [`Store::put`] and [`Store::append`]: checks
    /// the bounds, repairs a dirty tail, writes the whole record and
    /// draws both store fault sites. Returns the record's length; the
    /// record is written but neither durable nor published.
    fn write_record(&mut self, key: &[u8], value: &[u8]) -> io::Result<u64> {
        if key.len() > MAX_FIELD_LEN || value.len() > MAX_FIELD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store key/value exceeds format length bound",
            ));
        }
        if self.tail_dirty {
            self.repair_tail()?;
        }
        let rec = encode_record(key, value);
        let mut file: &File = &self.file;
        if let Decision::TornWrite { keep } = self.faults.decide(Site::StoreWrite, rec.len() as u64)
        {
            // Model a crash mid-append: the torn prefix reaches the
            // file (so reopening exercises torn-tail recovery), the
            // caller sees a failed append, and this handle self-heals
            // on its next append.
            // lint: allow(panic, Faults guarantees keep < rec.len() for TornWrite)
            let _ = file.write_all(&rec[..keep as usize]);
            let _ = file.sync_data();
            self.tail_dirty = true;
            return Err(injected("torn append"));
        }
        if let Err(e) = file.write_all(&rec) {
            // Unknown how much landed; truncate before the next append.
            self.tail_dirty = true;
            return Err(e);
        }
        if let Decision::FailSync = self.faults.decide(Site::StoreSync, 0) {
            self.roll_back();
            return Err(injected("fsync after append"));
        }
        Ok(rec.len() as u64)
    }

    /// Makes a written record visible to `get` and counts it in
    /// [`Store::stats`].
    fn publish(&mut self, key: &[u8], value: &[u8], len: u64) {
        self.log_bytes += len;
        self.appended += 1;
        self.index.insert(key.to_vec(), value.to_vec());
    }

    /// Takes back a whole record that was written but whose sync
    /// failed, so it will not be published. Unlike a torn write, the
    /// record is complete, so the reopen-time scan would resurrect it
    /// if it reached disk anyway: roll it back *now*. If the rollback
    /// itself fails, the next append retries it, and a crash before
    /// then leaves the one ambiguity real fsync semantics always leave:
    /// a failed append that survived.
    fn roll_back(&mut self) {
        self.tail_dirty = true;
        let _ = self.repair_tail();
    }

    /// Truncates the file back to the last published record after a
    /// failed append. Keeps `tail_dirty` set if the truncation itself
    /// fails, so the repair is retried before any later append.
    fn repair_tail(&mut self) -> io::Result<()> {
        let mut file: &File = &self.file;
        file.set_len(self.log_bytes)?;
        file.seek(SeekFrom::Start(self.log_bytes))?;
        file.sync_data()?;
        self.tail_dirty = false;
        Ok(())
    }

    /// Number of live (distinct-key) records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates live records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.index.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_records: self.index.len() as u64,
            appended_records: self.appended,
            log_bytes: self.log_bytes,
            recovered_tail_bytes: self.recovered_tail_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Rewrites the log with only the live records (in key order, so the
    /// result is deterministic), via a temp file + fsync + atomic rename.
    /// A crash during compaction leaves either the old or the new log —
    /// never a mix — plus possibly a stale `.compact.tmp`, which the
    /// next [`Store::open`] removes.
    ///
    /// # Errors
    ///
    /// I/O errors; the original log is untouched on failure.
    pub fn compact(&mut self) -> io::Result<()> {
        if self.tail_dirty {
            self.repair_tail()?;
        }
        let tmp_path = compact_tmp_path(&self.path);
        let mut image = Vec::new();
        for (key, value) in &self.index {
            image.extend_from_slice(&encode_record(key, value));
        }
        let bytes = image.len() as u64;
        if let Decision::TornWrite { keep } = self.faults.decide(Site::StoreCompact, bytes) {
            // Model a crash mid-rewrite: a torn image lands in the temp
            // file, the rename never happens, and the stale temp is
            // left behind for reopen-time cleanup. The original log is
            // untouched, so the store stays fully usable.
            let mut tmp = File::create(&tmp_path)?;
            let _ = tmp.write_all(&image[..keep as usize]);
            let _ = tmp.sync_data();
            return Err(injected("compaction crashed mid-rewrite"));
        }
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&image)?;
        tmp.sync_data()?;
        drop(tmp);
        fs::rename(&tmp_path, &self.path)?;
        self.file = Arc::new(OpenOptions::new().read(true).write(true).open(&self.path)?);
        let mut file: &File = &self.file;
        file.seek(SeekFrom::End(0))?;
        self.log_bytes = bytes;
        self.appended = self.index.len() as u64;
        self.recovered_tail_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("oa_store_{}_{}", tag, std::process::id()))
            .join("log")
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn put_get_reopen_roundtrip() {
        let path = temp_log("roundtrip");
        let mut s = Store::open(&path).unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", &[0u8, 255, 7]).unwrap();
        s.put(b"a", b"2").unwrap(); // update: last write wins
        assert_eq!(s.get(b"a").as_deref(), Some(&b"2"[..]));
        assert_eq!(s.len(), 2);
        drop(s);

        let s = Store::open(&path).unwrap();
        assert_eq!(s.get(b"a").as_deref(), Some(&b"2"[..]));
        assert_eq!(s.get(b"b").as_deref(), Some(&[0u8, 255, 7][..]));
        assert_eq!(s.stats().appended_records, 3);
        assert_eq!(s.stats().recovered_tail_bytes, 0);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_store_stays_writable() {
        let path = temp_log("torn");
        let mut s = Store::open(&path).unwrap();
        s.put(b"keep", b"value").unwrap();
        s.put(b"torn", b"never lands").unwrap();
        let full = fs::metadata(&path).unwrap().len();
        drop(s);
        // Simulate a crash mid-append: chop 3 bytes off the final record.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let mut s = Store::open(&path).unwrap();
        assert_eq!(s.get(b"keep").as_deref(), Some(&b"value"[..]));
        assert_eq!(s.get(b"torn"), None);
        assert!(s.stats().recovered_tail_bytes > 0);
        // The truncated tail must not poison later appends.
        s.put(b"after", b"crash").unwrap();
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b"after").as_deref(), Some(&b"crash"[..]));
        assert_eq!(s.stats().recovered_tail_bytes, 0);
        cleanup(&path);
    }

    #[test]
    fn bitflip_in_value_invalidates_record() {
        let path = temp_log("bitflip");
        let mut s = Store::open(&path).unwrap();
        s.put(b"k", b"payload-payload").unwrap();
        drop(s);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let s = Store::open(&path).unwrap();
        assert_eq!(s.get(b"k"), None, "corrupt record must not resurrect");
        cleanup(&path);
    }

    #[test]
    fn compact_keeps_only_live_records() {
        let path = temp_log("compact");
        let mut s = Store::open(&path).unwrap();
        for round in 0..5u8 {
            for k in 0..10u8 {
                s.put(&[k], &[round, k]).unwrap();
            }
        }
        let before = s.stats().log_bytes;
        s.compact().unwrap();
        let after = s.stats().log_bytes;
        assert!(after < before, "{after} !< {before}");
        assert_eq!(s.len(), 10);
        // Still correct after reopen and further appends.
        s.put(&[99], b"post-compact").unwrap();
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.len(), 11);
        for k in 0..10u8 {
            assert_eq!(s.get(&[k]).as_deref(), Some(&[4u8, k][..]));
        }
        cleanup(&path);
    }

    #[test]
    fn empty_and_garbage_files_open_empty() {
        let path = temp_log("garbage");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"this is not a store log at all").unwrap();
        let s = Store::open(&path).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.stats().recovered_tail_bytes, 30);
        cleanup(&path);
    }

    #[test]
    fn oversized_fields_are_rejected() {
        let path = temp_log("oversize");
        let mut s = Store::open(&path).unwrap();
        // A header claiming a giant length must be rejected on write; the
        // read side bound is exercised by the recovery proptest.
        let err = s.put(b"k", &vec![0u8; MAX_FIELD_LEN + 1]);
        assert!(err.is_err());
        cleanup(&path);
    }

    #[test]
    fn stale_compaction_tmp_is_removed_at_open() {
        let path = temp_log("staletmp");
        let mut s = Store::open(&path).unwrap();
        s.put(b"live", b"record").unwrap();
        drop(s);
        // A crash between writing the temp image and the rename leaves
        // this file behind; it holds no live data.
        let tmp = compact_tmp_path(&path);
        fs::write(&tmp, b"half-written compaction image").unwrap();
        let before = fs::read(&path).unwrap();

        let s = Store::open(&path).unwrap();
        assert!(!tmp.exists(), "stale temp must be cleaned up");
        assert_eq!(s.get(b"live").as_deref(), Some(&b"record"[..]));
        drop(s);
        assert_eq!(fs::read(&path).unwrap(), before, "log must be untouched");
        cleanup(&path);
    }

    #[test]
    fn injected_torn_append_fails_then_self_heals() {
        use oa_fault::FaultConfig;
        let path = temp_log("inj_torn");
        let config = FaultConfig {
            torn_write_per_mille: 1000,
            ..FaultConfig::default()
        };
        let mut s = Store::open_with_faults(&path, Faults::seeded(1, config)).unwrap();
        s.put(b"base", b"durable").unwrap_err(); // every write tears
        drop(s);
        // Crash path: reopening drops the torn prefix.
        let s = Store::open(&path).unwrap();
        assert!(s.is_empty());
        assert!(s.stats().recovered_tail_bytes > 0 || s.stats().log_bytes == 0);
        drop(s);

        // Continued-use path: the same handle heals on the next append.
        let mut s = Store::open_with_faults(
            &path,
            Faults::seeded(
                2,
                FaultConfig {
                    torn_write_per_mille: 500,
                    ..FaultConfig::default()
                },
            ),
        )
        .unwrap();
        let mut ok = 0;
        for i in 0..40u8 {
            if s.put(&[i], &[i, i]).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0, "half-rate tearing must let some puts through");
        assert_eq!(s.len(), ok);
        drop(s);
        // Reopen: only successful puts survive. (A torn *final* put is
        // healed by the reopen scan instead of the next-append repair.)
        let s = Store::open(&path).unwrap();
        assert_eq!(s.len(), ok, "failed puts must leave no trace");
        cleanup(&path);
    }

    #[test]
    fn injected_sync_failure_rolls_back_the_record() {
        use oa_fault::FaultConfig;
        let path = temp_log("inj_sync");
        let config = FaultConfig {
            fail_sync_per_mille: 1000,
            ..FaultConfig::default()
        };
        let mut s = Store::open_with_faults(&path, Faults::seeded(3, config)).unwrap();
        s.put(b"k", b"v").unwrap_err();
        assert_eq!(s.get(b"k"), None, "failed put must not be visible");
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.get(b"k"), None, "unsynced record must not survive");
        cleanup(&path);
    }

    #[test]
    fn appended_record_is_visible_before_its_sync_and_survives_a_process_crash() {
        let path = temp_log("append_unsynced");
        let mut s = Store::open(&path).unwrap();
        let unsynced = s.append(b"k", b"v").unwrap();
        assert_eq!(s.get(b"k").as_deref(), Some(&b"v"[..]), "visible unsynced");
        assert_eq!(s.stats().appended_records, 1);
        // A process crash: the handle and its pending sync vanish. The
        // bytes were written before `append` returned.
        drop(unsynced);
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.get(b"k").as_deref(), Some(&b"v"[..]));
        assert_eq!(s.stats().recovered_tail_bytes, 0);
        cleanup(&path);
    }

    #[test]
    fn injected_sync_failure_fails_the_append_with_nothing_published() {
        use oa_fault::FaultConfig;
        let path = temp_log("inj_sync_append");
        let config = FaultConfig {
            fail_sync_per_mille: 1000,
            ..FaultConfig::default()
        };
        let mut s = Store::open_with_faults(&path, Faults::seeded(3, config)).unwrap();
        s.append(b"k", b"v").unwrap_err();
        assert_eq!(s.get(b"k"), None, "failed append must not be visible");
        assert_eq!(s.stats().appended_records, 0);
        assert_eq!(s.stats().log_bytes, 0);
        drop(s);
        let s = Store::open(&path).unwrap();
        assert!(s.is_empty(), "failed append must leave nothing on disk");
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        cleanup(&path);
    }

    #[test]
    fn append_then_sync_writes_the_bytes_put_writes() {
        let put_path = temp_log("bytes_put");
        let append_path = temp_log("bytes_append");
        let mut by_put = Store::open(&put_path).unwrap();
        let mut by_append = Store::open(&append_path).unwrap();
        for (k, v) in [(&b"a"[..], &b"1"[..]), (b"b", &[0u8, 255]), (b"a", b"2")] {
            by_put.put(k, v).unwrap();
            by_append.append(k, v).unwrap().sync().unwrap();
        }
        assert_eq!(by_append.stats(), by_put.stats());
        drop((by_put, by_append));
        assert_eq!(
            fs::read(&append_path).unwrap(),
            fs::read(&put_path).unwrap()
        );
        cleanup(&put_path);
        cleanup(&append_path);
    }

    #[test]
    fn injected_compaction_crash_preserves_the_log_byte_identically() {
        use oa_fault::FaultConfig;
        let path = temp_log("inj_compact");
        let mut s = Store::open(&path).unwrap();
        for round in 0..3u8 {
            for k in 0..8u8 {
                s.put(&[k], &[round, k]).unwrap();
            }
        }
        drop(s);
        let before = fs::read(&path).unwrap();

        let config = FaultConfig {
            compact_tear_per_mille: 1000,
            ..FaultConfig::default()
        };
        let mut s = Store::open_with_faults(&path, Faults::seeded(4, config)).unwrap();
        s.compact().unwrap_err();
        // The crash left a torn temp image but the log itself is whole.
        assert!(compact_tmp_path(&path).exists());
        assert_eq!(s.len(), 8, "store stays fully usable after the crash");
        drop(s);
        assert_eq!(fs::read(&path).unwrap(), before, "log must be untouched");

        // Recovery: reopen cleans the temp; a fault-free compaction then
        // produces the canonical image.
        let mut s = Store::open(&path).unwrap();
        assert!(!compact_tmp_path(&path).exists());
        s.compact().unwrap();
        assert_eq!(s.len(), 8);
        for k in 0..8u8 {
            assert_eq!(s.get(&[k]).as_deref(), Some(&[2u8, k][..]));
        }
        cleanup(&path);
    }

    #[test]
    fn hit_miss_counters_track_gets() {
        let path = temp_log("counters");
        let mut s = Store::open(&path).unwrap();
        s.put(b"k", b"v").unwrap();
        let _ = s.get(b"k");
        let _ = s.get(b"k");
        let _ = s.get(b"absent");
        let st = s.stats();
        assert_eq!((st.hits, st.misses), (2, 1));
        cleanup(&path);
    }
}
