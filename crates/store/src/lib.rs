//! Tiered persistent store for portable engine representatives.
//!
//! A broker restart used to rebuild (or re-ship) every representative —
//! at the 10k–1M engine scale, cold start *is* the availability story.
//! This crate gives the broker a content-hash-addressed on-disk store it
//! can snapshot its whole registry into and restore from in manifest
//! time, hydrating representatives lazily on first touch:
//!
//! * **Cold tier** — append-only segment files holding each
//!   representative in the paper's §3.2 one-byte quantized codec
//!   ([`seu_repr::QuantizedRepresentative`] over
//!   [`seu_stats::ByteQuantizer`]), CRC-checked and keyed by the
//!   engine's [`Fingerprint`] content hash. Quantization changes
//!   estimates essentially not at all (Tables 7–9) and halves storage —
//!   the compressed format comes for free from the paper.
//! * **Hot tier** — decoded [`EngineRecord`]s behind a byte-budgeted
//!   segmented-LRU cache, so repeated hydrations of the same engines
//!   stay in memory. The replacement policy is [`Slru`], written once
//!   in [`slru`] and exported because this is the one crate both of its
//!   users depend on: [`CachedStore`] wraps one, and the broker's query
//!   cache (`seu_metasearch::cache`) wraps eight.
//! * **Manifest** — a versioned, fsync'd, atomically swapped file
//!   recording a consistent per-shard epoch cut of the registry plus the
//!   segment location of every entry's payload.
//!
//! The store is layered in the prism-storage style: [`LocalStore`]
//! implements the byte-level [`BlobStore`]; [`CompressedStore`] adapts
//! it to the record-level [`ReprStore`] via the quantized codec;
//! [`CachedStore`] adds the hot tier. [`open_tiered`] assembles the
//! full [`TieredStore`] stack.
//!
//! **Canonicalization contract:** [`ReprStore::put`] returns the exact
//! record a later [`ReprStore::get`] will serve — the quantized
//! *round-trip* of the input, not the input itself. A broker that
//! installs the returned record serves bit-identical estimates before
//! and after a snapshot/restore cycle, because both sides decode the
//! same canonical bytes.
//!
//! Every untrusted length decoded from disk is capped against the
//! remaining input before allocation, mirroring
//! `FrozenSummary::from_bytes`, so corrupt or adversarial files cannot
//! drive huge allocations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cached;
pub mod codec;
pub mod compressed;
pub mod local;
pub mod slru;

pub use cached::CachedStore;
pub use codec::EngineRecord;
pub use compressed::CompressedStore;
pub use local::LocalStore;
pub use slru::Slru;

use seu_engine::Fingerprint;
use seu_text::AnalyzerConfig;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// What went wrong in a store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// The underlying filesystem operation failed.
    Io,
    /// Bytes on disk failed validation (bad magic/version, CRC
    /// mismatch, length lies, out-of-range ids).
    Corrupt,
    /// A required key or file is absent.
    Missing,
    /// The operation is not valid in the caller's current state (e.g.
    /// restoring into a non-empty broker, or snapshotting a broker
    /// built without a store).
    Invalid,
}

/// A store operation failed; carries the failure class and a
/// human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The failure class.
    pub kind: StoreErrorKind,
    /// Human-readable context (path, key, expected-vs-got).
    pub detail: String,
}

impl StoreError {
    /// Builds an error of the given kind.
    pub fn new(kind: StoreErrorKind, detail: impl Into<String>) -> Self {
        StoreError {
            kind,
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`StoreErrorKind::Corrupt`] error.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        StoreError::new(StoreErrorKind::Corrupt, detail)
    }

    /// Shorthand for a [`StoreErrorKind::Missing`] error.
    pub fn missing(detail: impl Into<String>) -> Self {
        StoreError::new(StoreErrorKind::Missing, detail)
    }

    /// Shorthand for a [`StoreErrorKind::Invalid`] error.
    pub fn invalid(detail: impl Into<String>) -> Self {
        StoreError::new(StoreErrorKind::Invalid, detail)
    }

    /// Wraps an I/O error with the path it occurred on.
    pub fn io(path: &Path, err: std::io::Error) -> Self {
        StoreError::new(StoreErrorKind::Io, format!("{}: {err}", path.display()))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            StoreErrorKind::Io => "io",
            StoreErrorKind::Corrupt => "corrupt",
            StoreErrorKind::Missing => "missing",
            StoreErrorKind::Invalid => "invalid",
        };
        write!(f, "store {kind} error: {}", self.detail)
    }
}

impl std::error::Error for StoreError {}

/// How the broker reached a persisted engine when it was snapshotted,
/// so a restore can report (and later reattach) it faithfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// The engine lived in the broker's process.
    Local,
    /// The engine was reached over a transport.
    Remote {
        /// The transport endpoint at snapshot time.
        endpoint: String,
    },
    /// The engine shipped its representative (no full fingerprint
    /// provenance; staleness is judged on the shipped totals).
    Shipped,
}

/// One engine's row in the [`Manifest`]: everything the broker needs to
/// start serving registry statuses *without* touching the cold tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Engine name (registration key).
    pub name: String,
    /// Broker-wide registration sequence number.
    pub seq: u64,
    /// The entry's lifecycle epoch at the cut.
    pub epoch: u64,
    /// Content fingerprint of the summarized collection — also the
    /// payload's key in the cold tier.
    pub fingerprint: Fingerprint,
    /// How the engine was reached at snapshot time.
    pub kind: EntryKind,
    /// Analyzer configuration of the engine (drives shared analysis
    /// before the payload is hydrated).
    pub analyzer: AnalyzerConfig,
    /// Weighting scheme of the engine.
    pub scheme: seu_engine::WeightingScheme,
    /// Distinct terms in the representative (status reporting while
    /// cold).
    pub repr_terms: u64,
    /// Approximate resident bytes of the decoded representative.
    pub repr_bytes: u64,
}

/// A consistent cut of a broker registry, persisted alongside the
/// segment files. `epoch` is the sum of `shard_epochs`; each shard's
/// entries and epoch were read under one lock acquisition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Broker-global registry epoch at the cut.
    pub epoch: u64,
    /// Per-shard epochs at the cut (the shard count the snapshotting
    /// broker ran with; a restoring broker may re-shard freely).
    pub shard_epochs: Vec<u64>,
    /// The registration sequence counter's next value, so restored
    /// registrations keep globally increasing sequence numbers.
    pub next_seq: u64,
    /// Per-engine rows, in registration (sequence) order.
    pub entries: Vec<ManifestEntry>,
}

/// Byte-level tier: opaque payloads addressed by content fingerprint.
///
/// `put_bytes` is append-only on disk with last-write-wins addressing:
/// re-putting a key appends a fresh record and repoints the index at it
/// (the old record becomes an unreferenced tail). Durability is
/// deferred to [`BlobStore::commit`], which must flush segments and
/// atomically swap the manifest before returning.
pub trait BlobStore: Send + Sync {
    /// Fetches the payload stored under `key`, verifying integrity.
    fn get_bytes(&self, key: Fingerprint) -> Result<Option<Vec<u8>>, StoreError>;
    /// Stores a payload under `key`, replacing any previous payload
    /// (last write wins; the append-only segment keeps the old bytes as
    /// an unreferenced record).
    fn put_bytes(&self, key: Fingerprint, bytes: &[u8]) -> Result<(), StoreError>;
    /// Whether a payload is stored under `key`.
    fn contains(&self, key: Fingerprint) -> bool;
    /// The last committed manifest.
    fn manifest(&self) -> Manifest;
    /// Durably persists `manifest`: flushes pending segment writes,
    /// writes the manifest to a temp file, fsyncs, and renames it over
    /// the live one. Fails if any entry's payload is absent.
    fn commit(&self, manifest: &Manifest) -> Result<(), StoreError>;
}

/// Record-level tier: decoded representatives addressed by fingerprint.
pub trait ReprStore: Send + Sync {
    /// Fetches the canonical decoded record stored under `key`.
    fn get(&self, key: Fingerprint) -> Result<Option<Arc<EngineRecord>>, StoreError>;
    /// Stores `record` under its fingerprint and returns the
    /// **canonical** record a later [`ReprStore::get`] will serve — the
    /// quantized round-trip of the input, not the input itself. Callers
    /// that keep serving the representative must install the returned
    /// record to stay bit-identical with a later restore. Re-putting a
    /// byte-identical record is a no-op; putting a *different* record
    /// under the same fingerprint (an engine shipped a replacement
    /// representative for the same collection) replaces the stored one
    /// (last write wins).
    fn put(&self, record: &EngineRecord) -> Result<Arc<EngineRecord>, StoreError>;
    /// Whether a record is stored under `key`.
    fn contains(&self, key: Fingerprint) -> bool;
    /// The last committed manifest.
    fn manifest(&self) -> Manifest;
    /// Durably persists `manifest` (see [`BlobStore::commit`]).
    fn commit(&self, manifest: &Manifest) -> Result<(), StoreError>;
}

impl<S: ReprStore + ?Sized> ReprStore for Arc<S> {
    fn get(&self, key: Fingerprint) -> Result<Option<Arc<EngineRecord>>, StoreError> {
        (**self).get(key)
    }
    fn put(&self, record: &EngineRecord) -> Result<Arc<EngineRecord>, StoreError> {
        (**self).put(record)
    }
    fn contains(&self, key: Fingerprint) -> bool {
        (**self).contains(key)
    }
    fn manifest(&self) -> Manifest {
        (**self).manifest()
    }
    fn commit(&self, manifest: &Manifest) -> Result<(), StoreError> {
        (**self).commit(manifest)
    }
}

/// The full store stack: hot tier over quantized cold tier over local
/// segment files.
pub type TieredStore = CachedStore<CompressedStore<LocalStore>>;

/// Opens (or creates) the full tiered store at `root` with the given
/// hot-tier byte budget.
pub fn open_tiered(root: impl AsRef<Path>, hot_budget: usize) -> Result<TieredStore, StoreError> {
    Ok(CachedStore::new(
        CompressedStore::new(LocalStore::open(root)?),
        hot_budget,
    ))
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// segment payloads and the manifest. Bitwise (table-free): store
/// payloads are small enough that simplicity beats a lookup table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Instrument handles cached once per process (`broker_store_*`
/// family).
pub(crate) struct StoreMetrics {
    pub(crate) hot_hits: Arc<seu_obs::Counter>,
    pub(crate) hot_misses: Arc<seu_obs::Counter>,
    pub(crate) cold_hits: Arc<seu_obs::Counter>,
    pub(crate) cold_misses: Arc<seu_obs::Counter>,
    pub(crate) writes: Arc<seu_obs::Counter>,
    pub(crate) hot_bytes: Arc<seu_obs::Gauge>,
    pub(crate) cold_bytes: Arc<seu_obs::Gauge>,
}

pub(crate) fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StoreMetrics {
        hot_hits: seu_obs::counter("broker_store_hot_hits_total"),
        hot_misses: seu_obs::counter("broker_store_hot_misses_total"),
        cold_hits: seu_obs::counter("broker_store_cold_hits_total"),
        cold_misses: seu_obs::counter("broker_store_cold_misses_total"),
        writes: seu_obs::counter("broker_store_writes_total"),
        hot_bytes: seu_obs::gauge("broker_store_hot_bytes_resident"),
        cold_bytes: seu_obs::gauge("broker_store_cold_bytes_on_disk"),
    })
}

/// Forces creation of the store's instruments so expositions include
/// the whole `broker_store_*` family even before the first access.
pub fn register_metrics() {
    let _ = store_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn store_error_display_names_kind() {
        let e = StoreError::corrupt("bad magic");
        assert!(e.to_string().contains("corrupt"));
        assert!(e.to_string().contains("bad magic"));
        let e = StoreError::missing("no manifest");
        assert!(e.to_string().contains("missing"));
    }
}
