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
//!   users depend on: the [`Store`] wraps one, and the broker's query
//!   cache (`seu_metasearch::cache`) wraps eight.
//! * **Manifest** — a versioned, fsync'd, atomically swapped file
//!   recording a consistent per-shard epoch cut of the registry plus the
//!   segment location of every entry's payload.
//!
//! All three are one type, [`Store`], opened by [`open_tiered`]: its
//! `get` looks in the hot tier, then reads the segment, decodes the
//! payload and checks its embedded fingerprint; its `put` encodes,
//! appends unless the stored bytes are already identical, and admits
//! the decoded round trip. [`EngineRecord`] is the one in-memory
//! description of an engine the broker does not hold in process — the
//! store's value and the broker's planning record alike.
//!
//! **Canonicalization contract:** [`ReprStore::put`] returns the exact
//! record a later [`ReprStore::get`] will serve — the quantized
//! *round-trip* of the input, not the input itself. A broker that
//! installs the returned record serves bit-identical estimates before
//! and after a snapshot/restore cycle, because both sides decode the
//! same canonical bytes.
//!
//! Every untrusted length decoded from disk is checked against the
//! remaining input before allocation by [`seu_engine::binary`], the one
//! checked reader the engine file and the wire use too, so corrupt or
//! adversarial files cannot drive huge allocations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod slru;
mod store;

pub use codec::EngineRecord;
pub use slru::Slru;
pub use store::{Store, Sweep};

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

/// Bytes that did not decode are corrupt.
impl From<seu_engine::binary::DecodeError> for StoreError {
    fn from(e: seu_engine::binary::DecodeError) -> Self {
        StoreError::corrupt(e.to_string())
    }
}

/// How the broker reached a persisted engine when it was snapshotted,
/// so a restore can report (and later reattach) it faithfully. Either
/// way the entry's fingerprint is the full content fingerprint its
/// representative was built from. (Manifest tag 2, for a representative
/// handed in without one, is retired: a manifest carrying it is
/// refused as corrupt.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// The engine lived in the broker's process (built from its
    /// collection).
    Local,
    /// The engine was reached over a transport (installed from its
    /// snapshot).
    Remote {
        /// The transport endpoint at snapshot time.
        endpoint: String,
    },
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

/// Decoded representatives addressed by fingerprint, plus the manifest
/// that names them. [`Store`] is the implementation.
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
    /// (last write wins). A name over `u16::MAX` bytes, which no store
    /// format can write, is [`StoreErrorKind::Invalid`] and nothing is
    /// written.
    fn put(&self, record: &EngineRecord) -> Result<Arc<EngineRecord>, StoreError>;
    /// The last committed manifest.
    fn manifest(&self) -> Manifest;
    /// Durably persists `manifest`: flushes pending segment writes,
    /// writes the manifest to a temp file, fsyncs, and renames it over
    /// the live one. Fails if any entry's record is absent, or if a
    /// name or endpoint is over `u16::MAX` bytes
    /// ([`StoreErrorKind::Invalid`]).
    fn commit(&self, manifest: &Manifest) -> Result<(), StoreError>;
}

/// Opens (or creates) the store at `root` with a hot tier of
/// `hot_budget` resident bytes (0 caches nothing).
pub fn open_tiered(root: impl AsRef<Path>, hot_budget: usize) -> Result<Store, StoreError> {
    Store::open(root.as_ref(), hot_budget)
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// segment payloads and the manifest. Slicing-by-8 over tables built at
/// compile time: eight bytes a step, eight lookups. Every cold read
/// checks its whole payload, and the bitwise form (kept in the tests as
/// the reference this one must equal) took 13.6 µs of a 28.8 µs cold
/// read of a 2 059-byte record; the tables cost 8 KiB of read-only data.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(8);
    for b in &mut steps {
        let low = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[7][usize::from(low as u8)]
            ^ t[6][usize::from((low >> 8) as u8)]
            ^ t[5][usize::from((low >> 16) as u8)]
            ^ t[4][usize::from((low >> 24) as u8)]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through it; `CRC_TABLES[k][b]` the same followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Instrument handles cached once per process (`broker_store_*`
/// family).
pub(crate) struct StoreMetrics {
    pub(crate) hot_hits: Arc<seu_obs::Counter>,
    pub(crate) hot_misses: Arc<seu_obs::Counter>,
    pub(crate) cold_hits: Arc<seu_obs::Counter>,
    pub(crate) cold_misses: Arc<seu_obs::Counter>,
    pub(crate) writes: Arc<seu_obs::Counter>,
    /// Segment files opened for reading: once per segment per sweep.
    pub(crate) segment_opens: Arc<seu_obs::Counter>,
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
        segment_opens: seu_obs::counter("broker_store_segment_opens_total"),
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
    use proptest::prelude::*;

    /// The bitwise CRC-32, one bit a step: the reference the table form
    /// must equal. `state` is the register before the final inversion,
    /// so one pass gives the CRC of every prefix.
    fn crc32_bitwise_step(mut state: u32, byte: u8) -> u32 {
        state ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The table CRC equals the bitwise one on every length from 0 to
        /// 4 096 bytes of seeded input, at every alignment of a step.
        #[test]
        fn table_crc_is_the_bitwise_crc(seed in 0u64..u64::MAX, skew in 0usize..8) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bytes: Vec<u8> = (0..4096 + skew).map(|_| rng.gen::<u32>() as u8).collect();
            let bytes = &bytes[skew..];
            let mut state = 0xFFFF_FFFFu32;
            prop_assert_eq!(crc32(&[]), !state);
            for len in 1..=bytes.len() {
                state = crc32_bitwise_step(state, bytes[len - 1]);
                prop_assert_eq!(crc32(&bytes[..len]), !state, "length {}", len);
            }
        }
    }

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
