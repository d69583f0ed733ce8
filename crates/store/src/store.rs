//! The store: append-only segment files addressed by collection
//! fingerprint, an atomically swapped manifest, the record codec on the
//! way in and out, and a hot tier of decoded records.
//!
//! Layout under the store root:
//!
//! ```text
//! root/
//!   MANIFEST          versioned registry cut + payload locations + CRC
//!   seg-000000.dat    append-only segments: header, then records
//!   seg-000001.dat    (rolled when a segment passes SEGMENT_CAP)
//! ```
//!
//! A segment record is `key (24 bytes) | payload len (u32) |
//! crc32(payload) (u32) | payload`, the payload being
//! [`codec::encode_record`]'s bytes. Writes are cheap appends with no
//! fsync; durability happens at [`ReprStore::commit`], which syncs the
//! active segment, writes `MANIFEST.tmp` (with a CRC trailer), syncs it,
//! renames it over `MANIFEST`, and syncs the directory — so a crash
//! either keeps the old manifest or installs the new one, never a torn
//! mix. Payloads appended after the last committed manifest are orphan
//! tails: invisible after reopen, harmlessly skipped because every
//! committed location is explicit.
//!
//! `put` is where canonicalization happens: the record is encoded, the
//! *encoded bytes* are decoded again, and that round trip is returned —
//! so whatever a broker installs while live is bit-identical to what a
//! later restore decodes from disk. `get` decodes and checks the
//! payload's embedded fingerprint against its key.
//!
//! Every cold read goes through a [`Sweep`]: one open per segment per
//! sweep, and per record one positioned read (`read_exact_at`) of its
//! header and payload together, checked by the table-driven
//! [`crate::crc32`] before it is decoded. The broker's hydration sweep
//! reads every restored record through one `Sweep` shared by its
//! threads; a one-shot `get` is a sweep of one read, so an open handle
//! never outlives the call that made it.
//!
//! The hot tier is one lock around an [`Slru`] keyed by fingerprint and
//! charged [`EngineRecord::cost`] per record, the `broker_store_hot_*`
//! counters, and the resident-bytes gauge. A record enters on a cold
//! read or a `put`; a repeat hit promotes it, so a burst of one-touch
//! records (a hydration sweep) cannot flush the records queries
//! actually re-touch.

use crate::codec::{self, EngineRecord};
use crate::slru::Slru;
use crate::{store_metrics, EntryKind, Manifest, ManifestEntry, ReprStore, StoreError};
use parking_lot::Mutex;
use seu_engine::binary::{self, Field};
use seu_engine::{Fingerprint, WeightingScheme};
use seu_text::AnalyzerConfig;
use std::collections::hash_map::{Entry, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic prefix of a segment file: `"SEUG"`.
const SEGMENT_MAGIC: u32 = 0x5345_5547;
/// Magic prefix of the manifest file: `"SEUM"`.
const MANIFEST_MAGIC: u32 = 0x5345_554D;
/// On-disk format version shared by segments and the manifest.
const STORE_VERSION: u16 = 1;
/// Soft cap on a segment file; the next put after passing it rolls to a
/// fresh segment.
const SEGMENT_CAP: u64 = 64 << 20;

/// Bytes of a segment file header: magic + version.
const SEGMENT_HEADER_BYTES: u64 = 6;
/// Bytes of a segment record header: 24-byte key + len + crc.
const RECORD_HEADER_BYTES: u64 = 24 + 4 + 4;
/// Smallest possible serialized manifest entry, the divisor for the
/// entry-count allocation cap (empty name + fixed fields + location).
const MIN_ENTRY_BYTES: usize = 2 + 8 + 8 + 24 + 1 + 2 + 9 + 8 + 8 + 16;

/// Where a committed payload lives.
#[derive(Debug, Clone, Copy)]
struct Location {
    segment: u32,
    offset: u64,
    len: u32,
}

/// The cold tier's books: where each key's payload lives, the last
/// committed manifest, and the segment being appended to.
struct Segments {
    index: HashMap<Fingerprint, Location>,
    manifest: Manifest,
    active_id: u32,
    active_len: u64,
    active: Option<File>,
    cold_bytes: u64,
}

/// The representative store: fingerprint-addressed segment files under
/// a root directory with an fsync'd, atomically swapped manifest, read
/// and written through the record codec, behind a byte-budgeted hot
/// tier of decoded records. Opened by [`crate::open_tiered`].
pub struct Store {
    root: PathBuf,
    segments: Mutex<Segments>,
    hot: Mutex<Slru<Fingerprint, Arc<EngineRecord>>>,
    /// Resident bytes last added to the process-global gauge, which sums
    /// over every live store; `Drop` retracts them.
    published: AtomicU64,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

/// Refuses text no store format can write: each writes a string behind
/// a `u16` length.
fn writable(what: &str, text: &str) -> Result<(), StoreError> {
    if text.len() <= usize::from(u16::MAX) {
        return Ok(());
    }
    Err(StoreError::invalid(format!(
        "{what} of {} bytes is over the {} a store format can write",
        text.len(),
        u16::MAX
    )))
}

fn segment_path(root: &Path, id: u32) -> PathBuf {
    root.join(format!("seg-{id:06}.dat"))
}

fn manifest_path(root: &Path) -> PathBuf {
    root.join("MANIFEST")
}

fn encode_manifest(manifest: &Manifest, locations: &[Location]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + manifest.entries.len() * 96);
    MANIFEST_MAGIC.put(&mut buf);
    STORE_VERSION.put(&mut buf);
    manifest.epoch.put(&mut buf);
    (manifest.shard_epochs.len() as u32).put(&mut buf);
    for &e in &manifest.shard_epochs {
        e.put(&mut buf);
    }
    manifest.next_seq.put(&mut buf);
    (manifest.entries.len() as u32).put(&mut buf);
    for (entry, loc) in manifest.entries.iter().zip(locations) {
        binary::put_str16(&mut buf, &entry.name);
        entry.seq.put(&mut buf);
        entry.epoch.put(&mut buf);
        entry.fingerprint.put(&mut buf);
        match &entry.kind {
            EntryKind::Local => 0u8.put(&mut buf),
            EntryKind::Remote { endpoint } => {
                1u8.put(&mut buf);
                binary::put_str16(&mut buf, endpoint);
            }
        }
        entry.analyzer.put(&mut buf);
        entry.scheme.put(&mut buf);
        entry.repr_terms.put(&mut buf);
        entry.repr_bytes.put(&mut buf);
        loc.segment.put(&mut buf);
        loc.offset.put(&mut buf);
        loc.len.put(&mut buf);
    }
    crate::crc32(&buf).put(&mut buf);
    buf
}

fn decode_manifest(bytes: &[u8]) -> Result<(Manifest, Vec<Location>), StoreError> {
    let Some((body, trailer)) = bytes.split_last_chunk::<4>() else {
        return Err(StoreError::corrupt("manifest shorter than its CRC trailer"));
    };
    let stored_crc = u32::get(&mut &trailer[..])?;
    let actual = crate::crc32(body);
    if stored_crc != actual {
        return Err(StoreError::corrupt(format!(
            "manifest CRC mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        )));
    }
    let buf = &mut &body[..];
    let magic = u32::get(buf)?;
    if magic != MANIFEST_MAGIC {
        return Err(StoreError::corrupt(format!(
            "bad manifest magic {magic:#x}"
        )));
    }
    let version = u16::get(buf)?;
    if version != STORE_VERSION {
        return Err(StoreError::corrupt(format!(
            "unsupported manifest version {version}"
        )));
    }
    let epoch = u64::get(buf)?;
    let n_shards = binary::count(buf, 8)?;
    let shard_epochs = (0..n_shards)
        .map(|_| u64::get(buf))
        .collect::<Result<_, _>>()?;
    let next_seq = u64::get(buf)?;
    let n_entries = binary::count(buf, MIN_ENTRY_BYTES)?;
    let mut entries = Vec::with_capacity(n_entries);
    let mut locations = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let name = binary::str16(buf)?.to_owned();
        let seq = u64::get(buf)?;
        let entry_epoch = u64::get(buf)?;
        let fingerprint = Fingerprint::get(buf)?;
        let kind = match u8::get(buf)? {
            0 => EntryKind::Local,
            1 => EntryKind::Remote {
                endpoint: binary::str16(buf)?.to_owned(),
            },
            other => {
                return Err(StoreError::corrupt(format!(
                    "unknown entry kind tag {other}"
                )))
            }
        };
        entries.push(ManifestEntry {
            name,
            seq,
            epoch: entry_epoch,
            fingerprint,
            kind,
            analyzer: AnalyzerConfig::get(buf)?,
            scheme: WeightingScheme::get(buf)?,
            repr_terms: u64::get(buf)?,
            repr_bytes: u64::get(buf)?,
        });
        locations.push(Location {
            segment: u32::get(buf)?,
            offset: u64::get(buf)?,
            len: u32::get(buf)?,
        });
    }
    if !buf.is_empty() {
        return Err(StoreError::corrupt(format!(
            "{} trailing bytes after manifest entries",
            buf.len()
        )));
    }
    Ok((
        Manifest {
            epoch,
            shard_epochs,
            next_seq,
            entries,
        },
        locations,
    ))
}

impl Store {
    /// Opens (or initializes) a store rooted at `root` with a hot tier
    /// of `hot_budget` resident bytes (0 caches nothing), loading the
    /// committed manifest and payload index if one exists.
    pub(crate) fn open(root: &Path, hot_budget: usize) -> Result<Self, StoreError> {
        let root = root.to_path_buf();
        fs::create_dir_all(&root).map_err(|e| StoreError::io(&root, e))?;
        let mut segments = Segments {
            index: HashMap::new(),
            manifest: Manifest::default(),
            active_id: 0,
            active_len: 0,
            active: None,
            cold_bytes: 0,
        };
        let mpath = manifest_path(&root);
        if mpath.exists() {
            let bytes = fs::read(&mpath).map_err(|e| StoreError::io(&mpath, e))?;
            let (manifest, locations) = decode_manifest(&bytes)?;
            for (entry, loc) in manifest.entries.iter().zip(&locations) {
                segments.active_id = segments.active_id.max(loc.segment);
                segments.cold_bytes += u64::from(loc.len) + RECORD_HEADER_BYTES;
                segments.index.insert(entry.fingerprint, *loc);
            }
            segments.manifest = manifest;
            let active_path = segment_path(&root, segments.active_id);
            segments.active_len = match fs::metadata(&active_path) {
                Ok(m) => m.len(),
                Err(_) => 0,
            };
        }
        store_metrics().cold_bytes.set(segments.cold_bytes as f64);
        Ok(Store {
            root,
            segments: Mutex::new(segments),
            hot: Mutex::new(Slru::new(hot_budget)),
            published: AtomicU64::new(0),
        })
    }

    fn open_active(&self, segments: &mut Segments) -> Result<(), StoreError> {
        if segments.active.is_some() {
            return Ok(());
        }
        let path = segment_path(&self.root, segments.active_id);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        let len = file.metadata().map_err(|e| StoreError::io(&path, e))?.len();
        if len == 0 {
            let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
            SEGMENT_MAGIC.put(&mut header);
            STORE_VERSION.put(&mut header);
            file.write_all(&header)
                .map_err(|e| StoreError::io(&path, e))?;
            segments.active_len = SEGMENT_HEADER_BYTES;
        } else {
            segments.active_len = len;
        }
        segments.active = Some(file);
        Ok(())
    }

    /// Reads the payload stored under `key`, checking the record header
    /// and CRC: a sweep of one read.
    fn read_payload(&self, key: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        self.sweep().read_payload(key)
    }

    /// Starts a run of reads that opens each segment file once, however
    /// many records it reads from it (see [`Sweep`]).
    pub fn sweep(&self) -> Sweep<'_> {
        Sweep {
            store: self,
            files: Mutex::new(HashMap::new()),
        }
    }

    /// Appends `payload` under `key` and points the index at it. Last
    /// write wins: any previous record for the key becomes an
    /// unreferenced tail.
    fn append(&self, key: Fingerprint, payload: &[u8]) -> Result<(), StoreError> {
        let mut segments = self.segments.lock();
        self.open_active(&mut segments)?;
        if segments.active_len >= SEGMENT_CAP {
            segments.active = None;
            segments.active_id += 1;
            self.open_active(&mut segments)?;
        }
        let offset = segments.active_len;
        let mut record = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
        key.put(&mut record);
        (payload.len() as u32).put(&mut record);
        crate::crc32(payload).put(&mut record);
        record.extend_from_slice(payload);
        let segment = segments.active_id;
        let path = segment_path(&self.root, segment);
        segments
            .active
            .as_mut()
            .expect("active segment was just opened")
            .write_all(&record)
            .map_err(|e| StoreError::io(&path, e))?;
        segments.active_len += record.len() as u64;
        segments.cold_bytes += record.len() as u64;
        segments.index.insert(
            key,
            Location {
                segment,
                offset,
                len: payload.len() as u32,
            },
        );
        store_metrics().cold_bytes.set(segments.cold_bytes as f64);
        Ok(())
    }

    /// Offers a record to the hot tier and republishes the gauge, under
    /// the one lock so the published figure never lags a later insert.
    fn admit(&self, key: Fingerprint, record: &Arc<EngineRecord>) {
        let mut hot = self.hot.lock();
        hot.insert(key, Arc::clone(record), record.cost());
        let bytes = hot.bytes() as u64;
        let published = self.published.swap(bytes, Ordering::SeqCst);
        store_metrics()
            .hot_bytes
            .add(bytes as f64 - published as f64);
    }
}

/// A run of reads through one open handle per segment file. The first
/// read from a segment opens it; every later one is one positioned read
/// of record header and payload through the same handle, which moves no
/// file cursor, so the threads of a hydration sweep share one `Sweep`.
/// The handles close when it is dropped. A one-shot
/// [`ReprStore::get`] is a sweep of one read: every cold read goes this
/// one way.
pub struct Sweep<'a> {
    store: &'a Store,
    /// Each segment opened so far, with the length it was last seen at.
    files: Mutex<HashMap<u32, (Arc<File>, u64)>>,
}

impl Sweep<'_> {
    /// [`ReprStore::get`] through this sweep's handles: the hot tier,
    /// else one read of the segment, the CRC, the decode and the
    /// embedded fingerprint's check against `key`.
    pub fn get(&self, key: Fingerprint) -> Result<Option<Arc<EngineRecord>>, StoreError> {
        let m = store_metrics();
        let hit = self.store.hot.lock().get(&key).cloned();
        if hit.is_some() {
            m.hot_hits.inc();
            return Ok(hit);
        }
        m.hot_misses.inc();
        let Some(payload) = self.read_payload(key)? else {
            m.cold_misses.inc();
            return Ok(None);
        };
        let record = codec::decode_record(&payload)?;
        if record.fingerprint != key {
            return Err(StoreError::corrupt(format!(
                "record for engine {:?} carries fingerprint {:?}, expected {key:?}",
                record.name, record.fingerprint
            )));
        }
        m.cold_hits.inc();
        let record = Arc::new(record);
        self.store.admit(key, &record);
        Ok(Some(record))
    }

    /// Reads the payload stored under `key` from its segment, checking
    /// the record header and CRC.
    fn read_payload(&self, key: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(loc) = self.store.segments.lock().index.get(&key).copied() else {
            return Ok(None);
        };
        let header = RECORD_HEADER_BYTES as usize;
        let mut record = vec![0u8; header + loc.len as usize];
        let end = loc.offset + record.len() as u64;
        self.segment(loc.segment, end)?
            .read_exact_at(&mut record, loc.offset)
            .map_err(|e| StoreError::io(&segment_path(&self.store.root, loc.segment), e))?;
        let r = &mut &record[..header];
        let stored_key = Fingerprint::get(r)?;
        let len = u32::get(r)?;
        let crc = u32::get(r)?;
        if stored_key != key || len != loc.len {
            return Err(StoreError::corrupt(format!(
                "segment record at {}:{} does not match the indexed key",
                loc.segment, loc.offset
            )));
        }
        let actual = crate::crc32(&record[header..]);
        if actual != crc {
            return Err(StoreError::corrupt(format!(
                "segment record checksum mismatch at {}:{}: stored {crc:#010x}, computed {actual:#010x}",
                loc.segment, loc.offset
            )));
        }
        record.drain(..header);
        Ok(Some(record))
    }

    /// The open handle of segment `id`, opened on first use, holding at
    /// least `end` bytes. A segment shorter than the record is looked at
    /// again (a put may have appended since it was opened) before the
    /// read is refused, so no location allocates past the file's end.
    fn segment(&self, id: u32, end: u64) -> Result<Arc<File>, StoreError> {
        let path = || segment_path(&self.store.root, id);
        let mut files = self.files.lock();
        let (file, len) = match files.entry(id) {
            Entry::Occupied(open) => open.into_mut(),
            Entry::Vacant(slot) => {
                let file = File::open(path()).map_err(|e| StoreError::io(&path(), e))?;
                store_metrics().segment_opens.inc();
                let len = file
                    .metadata()
                    .map_err(|e| StoreError::io(&path(), e))?
                    .len();
                slot.insert((Arc::new(file), len))
            }
        };
        if *len < end {
            *len = file
                .metadata()
                .map_err(|e| StoreError::io(&path(), e))?
                .len();
        }
        if *len < end {
            let short = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
            return Err(StoreError::io(&path(), short));
        }
        Ok(Arc::clone(file))
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let published = self.published.swap(0, Ordering::SeqCst);
        store_metrics().hot_bytes.add(-(published as f64));
    }
}

impl ReprStore for Store {
    fn get(&self, key: Fingerprint) -> Result<Option<Arc<EngineRecord>>, StoreError> {
        self.sweep().get(key)
    }

    fn put(&self, record: &EngineRecord) -> Result<Arc<EngineRecord>, StoreError> {
        writable("engine name", &record.name)?;
        let key = record.fingerprint;
        let payload = codec::encode_record(record);
        let canonical = Arc::new(
            codec::decode_record(&payload).expect("decoding our own encoding cannot fail"),
        );
        // Byte-identical re-puts are a no-op; anything else (e.g. an
        // engine shipped a replacement representative under the same
        // collection fingerprint) is a last-write-wins overwrite.
        if self.read_payload(key)?.as_deref() != Some(&payload[..]) {
            self.append(key, &payload)?;
            store_metrics().writes.inc();
        }
        self.admit(key, &canonical);
        Ok(canonical)
    }

    fn manifest(&self) -> Manifest {
        self.segments.lock().manifest.clone()
    }

    fn commit(&self, manifest: &Manifest) -> Result<(), StoreError> {
        let mut segments = self.segments.lock();
        let mut locations = Vec::with_capacity(manifest.entries.len());
        for entry in &manifest.entries {
            writable("engine name", &entry.name)?;
            if let EntryKind::Remote { endpoint } = &entry.kind {
                writable("endpoint", endpoint)?;
            }
            let loc = segments.index.get(&entry.fingerprint).ok_or_else(|| {
                StoreError::missing(format!(
                    "manifest entry {:?} references a payload not in the store; \
                     put its representative before committing",
                    entry.name
                ))
            })?;
            locations.push(*loc);
        }
        let active_id = segments.active_id;
        if let Some(file) = segments.active.as_mut() {
            let path = segment_path(&self.root, active_id);
            file.sync_all().map_err(|e| StoreError::io(&path, e))?;
        }
        let bytes = encode_manifest(manifest, &locations);
        let tmp = self.root.join("MANIFEST.tmp");
        let final_path = manifest_path(&self.root);
        {
            let mut file = File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
            file.write_all(&bytes)
                .map_err(|e| StoreError::io(&tmp, e))?;
            file.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
        }
        fs::rename(&tmp, &final_path).map_err(|e| StoreError::io(&final_path, e))?;
        if let Ok(dir) = File::open(&self.root) {
            // Directory fsync makes the rename itself durable; best
            // effort on filesystems that refuse to sync directories.
            let _ = dir.sync_all();
        }
        segments.manifest = manifest.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreErrorKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "seu-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fp(hash: u64) -> Fingerprint {
        Fingerprint {
            n_docs: 2,
            raw_bytes: 100,
            hash,
        }
    }

    fn entry(name: &str, key: Fingerprint) -> ManifestEntry {
        ManifestEntry {
            name: name.into(),
            seq: 1,
            epoch: 1,
            fingerprint: key,
            kind: EntryKind::Local,
            analyzer: seu_text::AnalyzerConfig::default(),
            scheme: seu_engine::WeightingScheme::CosineTf,
            repr_terms: 3,
            repr_bytes: 48,
        }
    }

    #[test]
    fn put_get_round_trip_and_last_write_wins() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root, 0).unwrap();
        let key = fp(7);
        assert!(store.read_payload(key).unwrap().is_none());
        assert_eq!(store.read_payload(key).unwrap(), None);
        store.append(key, b"hello segment").unwrap();
        assert!(store.read_payload(key).unwrap().is_some());
        assert_eq!(
            store.read_payload(key).unwrap().as_deref(),
            Some(&b"hello segment"[..])
        );
        // Last write wins: a replacement payload supersedes the first.
        store.append(key, b"replacement payload").unwrap();
        assert_eq!(
            store.read_payload(key).unwrap().as_deref(),
            Some(&b"replacement payload"[..])
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// A sweep opens each segment it reads from once, however many
    /// records it reads, and still finds a record appended to an open
    /// segment after it opened it. A location past a segment's end is
    /// refused before anything is read.
    #[test]
    fn a_sweep_opens_each_segment_once() {
        let root = tmp_root("sweep");
        let store = Store::open(&root, 0).unwrap();
        let payload = |i: u64| format!("payload {i}").into_bytes();
        for i in 0..8 {
            if i == 4 {
                store.segments.lock().active_len = SEGMENT_CAP;
            }
            store.append(fp(i), &payload(i)).unwrap();
        }
        let sweep = store.sweep();
        for _ in 0..2 {
            for i in 0..8 {
                let read = sweep.read_payload(fp(i)).unwrap();
                assert_eq!(read, Some(payload(i)));
            }
        }
        assert_eq!(sweep.files.lock().len(), 2, "one open per segment");
        store.append(fp(8), b"late").unwrap();
        let late = sweep.read_payload(fp(8)).unwrap();
        assert_eq!(late.as_deref(), Some(&b"late"[..]));
        assert_eq!(sweep.files.lock().len(), 2);
        let past_the_end = Location {
            segment: 0,
            offset: SEGMENT_HEADER_BYTES,
            len: u32::MAX,
        };
        store.segments.lock().index.insert(fp(9), past_the_end);
        let err = sweep.read_payload(fp(9)).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Io);
        drop(sweep);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn commit_then_reopen_restores_manifest_and_blobs() {
        let root = tmp_root("reopen");
        let key_a = fp(1);
        let key_b = fp(2);
        {
            let store = Store::open(&root, 0).unwrap();
            store.append(key_a, b"alpha payload").unwrap();
            store.append(key_b, b"beta payload").unwrap();
            let manifest = Manifest {
                epoch: 9,
                shard_epochs: vec![4, 5],
                next_seq: 3,
                entries: vec![entry("a", key_a), entry("b", key_b)],
            };
            store.commit(&manifest).unwrap();
        }
        let store = Store::open(&root, 0).unwrap();
        let manifest = store.manifest();
        assert_eq!(manifest.epoch, 9);
        assert_eq!(manifest.shard_epochs, vec![4, 5]);
        assert_eq!(manifest.next_seq, 3);
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[0].name, "a");
        assert_eq!(
            store.read_payload(key_a).unwrap().as_deref(),
            Some(&b"alpha payload"[..])
        );
        assert_eq!(
            store.read_payload(key_b).unwrap().as_deref(),
            Some(&b"beta payload"[..])
        );
        assert!(!root.join("MANIFEST.tmp").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn uncommitted_blobs_are_orphaned_on_reopen_but_appends_still_work() {
        let root = tmp_root("orphan");
        let committed = fp(1);
        let orphan = fp(2);
        {
            let store = Store::open(&root, 0).unwrap();
            store.append(committed, b"kept").unwrap();
            let manifest = Manifest {
                epoch: 1,
                shard_epochs: vec![1],
                next_seq: 2,
                entries: vec![entry("kept", committed)],
            };
            store.commit(&manifest).unwrap();
            store.append(orphan, b"tail").unwrap();
        }
        let store = Store::open(&root, 0).unwrap();
        assert!(store.read_payload(committed).unwrap().is_some());
        assert!(
            store.read_payload(orphan).unwrap().is_none(),
            "orphan tail must be invisible"
        );
        // New appends land after the orphan tail without clobbering it.
        let fresh = fp(3);
        store.append(fresh, b"fresh payload").unwrap();
        assert_eq!(
            store.read_payload(fresh).unwrap().as_deref(),
            Some(&b"fresh payload"[..])
        );
        assert_eq!(
            store.read_payload(committed).unwrap().as_deref(),
            Some(&b"kept"[..])
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_payload_byte_is_detected() {
        let root = tmp_root("corrupt");
        let key = fp(11);
        {
            let store = Store::open(&root, 0).unwrap();
            store.append(key, b"precious representative bytes").unwrap();
            let manifest = Manifest {
                epoch: 1,
                shard_epochs: vec![1],
                next_seq: 2,
                entries: vec![entry("x", key)],
            };
            store.commit(&manifest).unwrap();
        }
        // Flip one payload byte on disk (past header + record header).
        let seg = segment_path(&root, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let at = (SEGMENT_HEADER_BYTES + RECORD_HEADER_BYTES) as usize + 3;
        bytes[at] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let store = Store::open(&root, 0).unwrap();
        let err = store.read_payload(key).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Corrupt);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn commit_refuses_manifest_entries_without_blobs() {
        let root = tmp_root("missing");
        let store = Store::open(&root, 0).unwrap();
        let manifest = Manifest {
            epoch: 1,
            shard_epochs: vec![1],
            next_seq: 2,
            entries: vec![entry("ghost", fp(99))],
        };
        let err = store.commit(&manifest).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Missing);
        // Failed commit must not clobber the (empty) manifest.
        assert_eq!(store.manifest(), Manifest::default());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_manifest_is_rejected_on_open() {
        let root = tmp_root("badmanifest");
        let key = fp(5);
        {
            let store = Store::open(&root, 0).unwrap();
            store.append(key, b"payload").unwrap();
            let manifest = Manifest {
                epoch: 1,
                shard_epochs: vec![1],
                next_seq: 2,
                entries: vec![entry("e", key)],
            };
            store.commit(&manifest).unwrap();
        }
        let mpath = manifest_path(&root);
        let mut bytes = fs::read(&mpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&mpath, &bytes).unwrap();
        let err = Store::open(&root, 0).expect_err("corrupt manifest must fail open");
        assert_eq!(err.kind, StoreErrorKind::Corrupt);
        // Truncation is also rejected rather than partially applied.
        let full = fs::read(&mpath).unwrap();
        fs::write(&mpath, &full[..full.len() / 2]).unwrap();
        assert!(Store::open(&root, 0).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_codec_round_trips_all_entry_kinds() {
        let manifest = Manifest {
            epoch: 42,
            shard_epochs: vec![10, 12, 20],
            next_seq: 7,
            entries: vec![
                entry("local", fp(1)),
                ManifestEntry {
                    kind: EntryKind::Remote {
                        endpoint: "127.0.0.1:7070".into(),
                    },
                    scheme: seu_engine::WeightingScheme::PivotedLogTf { slope: 0.25 },
                    ..entry("remote", fp(2))
                },
            ],
        };
        let locations = vec![
            Location {
                segment: 0,
                offset: 6,
                len: 10,
            };
            2
        ];
        let bytes = encode_manifest(&manifest, &locations);
        let (decoded, locs) = decode_manifest(&bytes).unwrap();
        assert_eq!(decoded, manifest);
        assert_eq!(locs.len(), 2);
        // A lying entry count cannot overallocate past the real bytes.
        let mut lying = bytes.clone();
        // entry count sits after magic+version+epoch+count+3*u64+next_seq.
        let count_at = 4 + 2 + 8 + 4 + 24 + 8;
        lying[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_manifest(&lying).is_err());
        let _ = decoded;
    }

    #[test]
    fn retired_entry_kind_tag_is_corrupt() {
        let manifest = Manifest {
            epoch: 1,
            shard_epochs: vec![1],
            next_seq: 1,
            entries: vec![entry("e", fp(1))],
        };
        let location = Location {
            segment: 0,
            offset: 6,
            len: 10,
        };
        let mut bytes = encode_manifest(&manifest, &[location]);
        // The kind tag follows the header (magic, version, epoch, one
        // shard epoch, next_seq, entry count) and the entry's name, seq,
        // epoch and fingerprint.
        let kind_at = (4 + 2 + 8 + 4 + 8 + 8 + 4) + (2 + 1) + 8 + 8 + 24;
        assert_eq!(bytes[kind_at], 0, "a local entry's tag");
        // Tag 2 once marked a representative handed in without a full
        // fingerprint; no writer ever put it on disk.
        bytes[kind_at] = 2;
        let body = bytes.len() - 4;
        let crc = crate::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_be_bytes());
        let err = decode_manifest(&bytes).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Corrupt);
        assert!(err.detail.contains("unknown entry kind tag 2"), "{err}");
    }
}
