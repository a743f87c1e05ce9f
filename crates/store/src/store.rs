//! The on-disk artifact store.
//!
//! Layout (content-addressed, two-level):
//!
//! ```text
//! <root>/
//!   .tmp/                 in-flight writes (unique names, renamed away)
//!   quarantine/           corrupt artifacts moved aside (never scanned)
//!   <2-hex>/              shard = first byte of the key
//!     <32-hex>.bin        one artifact: header + checksummed payload
//! ```
//!
//! Writes are tmp-file + `rename`, which is atomic on POSIX filesystems:
//! concurrent harness *processes* may both compute the same artifact, but a
//! reader only ever observes either no file or a complete one — never a
//! torn write. Both writers produce identical bytes (the key commits to all
//! compute inputs), so the race is benign.
//!
//! Artifact container format (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "LPST"
//!      4     1  frame version (1 = legacy, 2 = trailer, 3 = numerics)
//!      5     1  artifact kind
//!      6     1  (v3) format id + 1; 0 = no format (reserved zero in v1/v2)
//!      7     1  reserved (zero)
//!      8    16  key (must match the file name)
//!     24    16  SipHash-2-4-128 checksum of the payload
//!     40     8  payload length
//!     48     …  payload
//!      …     2  (v3 only) numerics section length, u16
//!      …     …  (v3 only) numerics section: the producing NumericsConfig,
//!               canonically serialized (lpa-numerics `to_bytes`)
//!      …    16  (v2/v3) SipHash-2-4-128 of everything above the trailer
//! ```
//!
//! v2 frames added the whole-frame trailer so header corruption — not just
//! payload corruption — is detected. v3 frames (every new write) also
//! record the producing format id and numerics-feature table, so
//! `lpa-store stats`/`verify` can break a store down by numerics version
//! and `gc --stale-numerics` can drop exactly the slices a feature bump
//! invalidated. v1/v2 frames are still read (format/config unknown), so
//! stores written before these fields existed stay warm.
//!
//! ## Self-healing
//!
//! A corrupt or mislabelled artifact never panics a run: the decode returns
//! a typed [`StoreError`], the reader treats the key as a miss (single-flight
//! recompute rewrites it), and the bad file is moved to `quarantine/` for
//! post-mortem (`lpa-store verify --repair` does the same offline). Raw
//! I/O failures are retried with backoff ([`Store::set_io_retries`]).
//!
//! Fault points (`lpa-faults`): `store.io.transient` makes a raw read/write
//! fail retryably, `store.read.corrupt` flips a byte of the frame after the
//! read, `store.write.torn` truncates the frame before the write.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::{ShardedCache, Slot};
use crate::hash::{hash128, Key};
use crate::stats::StoreStats;

pub(crate) const MAGIC: [u8; 4] = *b"LPST";
pub(crate) const HEADER_LEN: usize = 48;
/// Length of the v2 whole-frame checksum trailer.
pub(crate) const TRAILER_LEN: usize = 16;
/// Legacy frame: no trailer.
pub(crate) const FRAME_V1: u8 = 1;
/// Legacy frame: whole-frame SipHash trailer after the payload.
pub(crate) const FRAME_V2: u8 = 2;
/// Current frame: format byte + numerics section + whole-frame trailer.
pub(crate) const FRAME_V3: u8 = 3;
/// Length prefix of the v3 numerics section.
pub(crate) const NUMERICS_LEN_LEN: usize = 2;
/// Corrupt artifacts are moved here (not a 2-hex name, so scans skip it).
pub const QUARANTINE_DIR: &str = "quarantine";

/// Default [`Store::set_io_retries`] budget.
pub const DEFAULT_IO_RETRIES: u32 = 2;

/// Typed failure of a store read/decode path. Every malformed input maps
/// to `Truncated` or `Corrupt` — never a panic — so a damaged store
/// degrades into recomputes instead of killing the harness.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed (after retries).
    Io(io::Error),
    /// Fewer bytes than the frame claims (torn write, truncated file).
    Truncated { expected: usize, got: usize },
    /// Structurally invalid bytes (bad magic/version/kind/checksum…).
    Corrupt(String),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O failed: {e}"),
            StoreError::Truncated { expected, got } => {
                write!(f, "truncated frame: {got} bytes where at least {expected} are needed")
            }
            StoreError::Corrupt(reason) => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What an artifact holds; stored in the header so `lpa-store stats` can
/// break a store down without decoding payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A matrix's double-double reference solution (or its recorded failure).
    Reference = 0,
    /// One (matrix, format) outcome.
    Outcome = 1,
}

impl ArtifactKind {
    pub const COUNT: usize = 2;
    pub const ALL: [ArtifactKind; 2] = [ArtifactKind::Reference, ArtifactKind::Outcome];

    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Reference => "reference",
            ArtifactKind::Outcome => "outcome",
        }
    }

    pub fn from_u8(x: u8) -> Option<ArtifactKind> {
        match x {
            0 => Some(ArtifactKind::Reference),
            1 => Some(ArtifactKind::Outcome),
            _ => None,
        }
    }
}

/// A fully decoded artifact container.
pub struct Artifact {
    pub kind: ArtifactKind,
    pub key: Key,
    pub payload: Vec<u8>,
    /// Stable wire format id the artifact was computed for (outcomes).
    /// `None` for references and for v1/v2 frames, which predate the field.
    pub format: Option<u8>,
    /// The producing numerics table, canonically serialized
    /// (`lpa_numerics::NumericsConfig::to_bytes`). `None` for v1/v2
    /// frames — by the byte-stability contract those were produced at the
    /// baseline table.
    pub numerics: Option<Vec<u8>>,
}

/// Serialize an artifact container (v3: header + payload + numerics
/// section + whole-frame trailer).
pub(crate) fn encode_artifact(
    kind: ArtifactKind,
    key: Key,
    payload: &[u8],
    format: Option<u8>,
    numerics: &[u8],
) -> Vec<u8> {
    assert!(numerics.len() <= u16::MAX as usize, "numerics section too large");
    let mut out = Vec::with_capacity(
        HEADER_LEN + payload.len() + NUMERICS_LEN_LEN + numerics.len() + TRAILER_LEN,
    );
    out.extend_from_slice(&MAGIC);
    out.push(FRAME_V3);
    out.push(kind as u8);
    // Format ids are stable wire values starting at 0, so the byte stores
    // id + 1 and keeps 0 as "no format" (references, pre-v3 frames).
    out.push(format.map_or(0, |id| id.checked_add(1).expect("format id below 255")));
    out.push(0);
    out.extend_from_slice(&key.0);
    out.extend_from_slice(&hash128(payload).0);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&(numerics.len() as u16).to_le_bytes());
    out.extend_from_slice(numerics);
    let trailer = hash128(&out);
    out.extend_from_slice(&trailer.0);
    out
}

/// Parse and validate an artifact container (magic, version, length,
/// whole-frame trailer for v2, payload checksum). Reads both frame
/// versions; the error describes the corruption for `lpa-store verify`.
pub(crate) fn decode_artifact(bytes: &[u8]) -> Result<Artifact, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated { expected: HEADER_LEN, got: bytes.len() });
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreError::Corrupt("bad magic".to_string()));
    }
    let version = bytes[4];
    if version != FRAME_V1 && version != FRAME_V2 && version != FRAME_V3 {
        return Err(StoreError::Corrupt(format!(
            "frame version {version} (this build reads {FRAME_V1} through {FRAME_V3})"
        )));
    }
    let kind = ArtifactKind::from_u8(bytes[5])
        .ok_or_else(|| StoreError::Corrupt(format!("unknown artifact kind {}", bytes[5])))?;
    let key = Key(bytes[8..24].try_into().expect("16-byte slice"));
    let checksum = Key(bytes[24..40].try_into().expect("16-byte slice"));
    let len = u64::from_le_bytes(bytes[40..48].try_into().expect("8-byte slice"));
    let trailer_len = if version == FRAME_V1 { 0 } else { TRAILER_LEN };
    // Everything the frame carries beyond the payload, before the
    // variable-length v3 numerics section is known.
    let fixed_extra = trailer_len + if version == FRAME_V3 { NUMERICS_LEN_LEN } else { 0 };
    if bytes.len() < HEADER_LEN + fixed_extra {
        return Err(StoreError::Truncated { expected: HEADER_LEN + fixed_extra, got: bytes.len() });
    }
    // Cap the claimed length against what is actually present before any
    // arithmetic on it: a corrupt header must not drive allocations.
    let present = (bytes.len() - HEADER_LEN).saturating_sub(fixed_extra);
    if len > present as u64 {
        let expected = (HEADER_LEN + fixed_extra).saturating_add(len.min(usize::MAX as u64) as usize);
        return Err(StoreError::Truncated { expected, got: bytes.len() });
    }
    let len = len as usize;
    let numerics_range = if version == FRAME_V3 {
        let at = HEADER_LEN + len;
        let nlen = u16::from_le_bytes(bytes[at..at + 2].try_into().expect("2-byte slice")) as usize;
        let total = at + NUMERICS_LEN_LEN + nlen + TRAILER_LEN;
        if bytes.len() < total {
            return Err(StoreError::Truncated { expected: total, got: bytes.len() });
        }
        if bytes.len() > total {
            return Err(StoreError::Corrupt(format!(
                "frame claims {total} bytes but {} are present",
                bytes.len()
            )));
        }
        Some(at + NUMERICS_LEN_LEN..at + NUMERICS_LEN_LEN + nlen)
    } else {
        if len != present {
            return Err(StoreError::Corrupt(format!(
                "payload length {len} but {present} bytes present"
            )));
        }
        None
    };
    if trailer_len > 0 {
        let body = bytes.len() - TRAILER_LEN;
        let trailer = Key(bytes[body..].try_into().expect("16-byte slice"));
        if hash128(&bytes[..body]) != trailer {
            return Err(StoreError::Corrupt("frame checksum mismatch".to_string()));
        }
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
    if hash128(payload) != checksum {
        return Err(StoreError::Corrupt("payload checksum mismatch".to_string()));
    }
    let format = match (version, bytes[6]) {
        (FRAME_V3, 0) => None,
        (FRAME_V3, b) => Some(b - 1),
        _ => None,
    };
    Ok(Artifact {
        kind,
        key,
        payload: payload.to_vec(),
        format,
        numerics: numerics_range.map(|r| bytes[r].to_vec()),
    })
}

/// A content-addressed artifact store rooted at one directory.
///
/// Safe to share across threads (`&Store` is all the driver's rayon workers
/// need) and safe to open from several processes at once.
pub struct Store {
    root: PathBuf,
    cache: ShardedCache,
    stats: StoreStats,
    io_retries: AtomicU32,
    /// Serialized numerics table stamped into every frame this handle
    /// writes ([`lpa_numerics::NumericsConfig::to_bytes`] of the effective
    /// table at open; [`Store::set_numerics`] overrides it for tests).
    numerics: std::sync::Mutex<Arc<Vec<u8>>>,
}

/// Sequence number of this process's tmp files.  Process-wide, not per
/// handle: two handles on one directory in one process would otherwise
/// hand the same `<key>.<pid>.<n>` name to concurrent writers of one key,
/// and one of their renames would find its tmp file already gone.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// A fresh tmp path for a write of `key`, unique per (process, write)
    /// so concurrent writers never share a tmp file; the rename is atomic.
    fn tmp_path(&self, key: Key) -> PathBuf {
        self.root.join(".tmp").join(format!(
            "{}.{}.{}.tmp",
            key.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ))
    }

    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join(".tmp"))?;
        Ok(Store {
            root,
            cache: ShardedCache::new(),
            stats: StoreStats::default(),
            io_retries: AtomicU32::new(DEFAULT_IO_RETRIES),
            numerics: std::sync::Mutex::new(Arc::new(
                lpa_numerics::NumericsConfig::current().to_bytes(),
            )),
        })
    }

    /// Durability barrier: fsync the store's directories so every
    /// artifact rename performed so far survives a crash of the host.
    /// Individual writes are already atomic (tmp + rename); what a
    /// rename alone does not guarantee is that the *directory entry* hit
    /// the platter. Batch callers that must not lose work on power loss
    /// — the `lpa-serve` graceful shutdown is the canonical one — call
    /// this once at the end instead of paying an fsync per artifact.
    pub fn flush(&self) -> io::Result<()> {
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.is_dir() {
                std::fs::File::open(&path)?.sync_all()?;
            }
        }
        std::fs::File::open(&self.root)?.sync_all()
    }

    /// Override the numerics table recorded in frames written through this
    /// handle (tests and migration tooling; processes normally stamp the
    /// effective table captured at [`Store::open`]).
    pub fn set_numerics(&self, config: &lpa_numerics::NumericsConfig) {
        *self.numerics.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(config.to_bytes());
    }

    fn numerics_bytes(&self) -> Arc<Vec<u8>> {
        self.numerics.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Live counters of this store handle (per artifact kind).
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Set the retry budget for raw I/O operations (reads and writes that
    /// fail with anything but `NotFound` are retried with exponential
    /// backoff up to this many times). Default [`DEFAULT_IO_RETRIES`].
    pub fn set_io_retries(&self, retries: u32) {
        self.io_retries.store(retries, Ordering::Relaxed);
    }

    /// The current raw-I/O retry budget.
    pub fn io_retries(&self) -> u32 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Final path of an artifact.
    pub fn path_of(&self, key: Key) -> PathBuf {
        self.root.join(key.shard()).join(format!("{}.bin", key.to_hex()))
    }

    /// Run a raw I/O operation with the configured retry budget. `NotFound`
    /// is never retried (absence is an answer, not a fault); everything
    /// else — including the injected `store.io.transient` error — backs
    /// off briefly and retries.
    fn with_io_retries<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let budget = self.io_retries.load(Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if e.kind() != io::ErrorKind::NotFound && attempt < budget => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1u64 << attempt.min(6)));
                }
                other => return other,
            }
        }
    }

    /// Move a corrupt artifact file aside to `quarantine/` and bump the
    /// per-kind counters. Failure to move (e.g. a racing writer already
    /// replaced the file) is ignored: quarantine is best-effort forensics,
    /// the authoritative recovery is the recompute-and-rewrite.
    fn quarantine(&self, kind: ArtifactKind, path: &Path) {
        self.stats.record_corrupt(kind);
        let dir = self.root.join(QUARANTINE_DIR);
        let Some(name) = path.file_name() else { return };
        if std::fs::create_dir_all(&dir).is_ok()
            && std::fs::rename(path, quarantine_dest(&dir, name)).is_ok()
        {
            self.stats.record_quarantined(kind);
        }
    }

    fn read_disk(
        &self,
        kind: ArtifactKind,
        key: Key,
        format: Option<u8>,
    ) -> io::Result<Option<Arc<Vec<u8>>>> {
        let path = self.path_of(key);
        let mut bytes = match self.with_io_retries(|| {
            if lpa_faults::fired(lpa_faults::STORE_IO_TRANSIENT) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected fault: store.io.transient",
                ));
            }
            std::fs::read(&path)
        }) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        lpa_faults::corrupt_if(lpa_faults::STORE_READ_CORRUPT, &mut bytes);
        // A frame is mislabelled when its recorded format contradicts the
        // expected one; either side being unknown (references, v1/v2
        // frames, format-agnostic callers) is not a contradiction.
        let format_matches = |a: &Artifact| match (a.format, format) {
            (Some(got), Some(want)) => got == want,
            _ => true,
        };
        match decode_artifact(&bytes) {
            Ok(a) if a.kind == kind && a.key == key && format_matches(&a) => {
                Ok(Some(Arc::new(a.payload)))
            }
            // Corrupt or mislabelled: quarantine the bad file and treat the
            // key as a miss; the caller recomputes and the rewrite heals it.
            _ => {
                self.quarantine(kind, &path);
                Ok(None)
            }
        }
    }

    fn write_disk(
        &self,
        kind: ArtifactKind,
        key: Key,
        payload: &[u8],
        format: Option<u8>,
    ) -> io::Result<u64> {
        let mut bytes = encode_artifact(kind, key, payload, format, &self.numerics_bytes());
        if lpa_faults::fired(lpa_faults::STORE_WRITE_TORN) {
            // Simulate a torn write: the file appears, the frame is cut
            // short, and the *writer still reports success* — exactly the
            // failure the v2 trailer and quarantine path must absorb.
            bytes.truncate(HEADER_LEN + (bytes.len() - HEADER_LEN) / 2);
        }
        let final_path = self.path_of(key);
        std::fs::create_dir_all(final_path.parent().expect("artifact path has a shard parent"))?;
        let tmp = self.tmp_path(key);
        self.with_io_retries(|| {
            if lpa_faults::fired(lpa_faults::STORE_IO_TRANSIENT) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected fault: store.io.transient",
                ));
            }
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, &final_path)
        })?;
        Ok(bytes.len() as u64)
    }

    /// Look an artifact up (single-flight slot, then disk). `Ok(None)`
    /// means not present; corrupt on-disk artifacts also read as absent
    /// (and are quarantined).
    pub fn get(&self, kind: ArtifactKind, key: Key) -> io::Result<Option<Arc<Vec<u8>>>> {
        self.get_for(kind, key, None)
    }

    /// [`Store::get`] with the expected format id: a frame whose recorded
    /// format contradicts it is treated as mislabelled (quarantined, miss).
    pub fn get_for(
        &self,
        kind: ArtifactKind,
        key: Key,
        format: Option<u8>,
    ) -> io::Result<Option<Arc<Vec<u8>>>> {
        let _span = lpa_obs::span(lpa_obs::STORE_GET);
        let slot = self.cache.slot(key);
        let _cleanup = SlotCleanup { cache: &self.cache, key };
        let mut filled = lock_slot(&slot);
        if let Some(payload) = filled.as_ref() {
            self.stats.kind(kind).record_hit_mem();
            return Ok(Some(payload.clone()));
        }
        let result = self.read_disk(kind, key, format)?;
        if let Some(payload) = &result {
            self.stats.kind(kind).record_hit_disk(payload.len() as u64);
            *filled = Some(payload.clone());
        }
        Ok(result)
    }

    /// Insert an artifact unconditionally (atomic write, counted as a
    /// miss/recompute).
    pub fn put(&self, kind: ArtifactKind, key: Key, payload: Vec<u8>) -> io::Result<Arc<Vec<u8>>> {
        self.put_for(kind, key, payload, None)
    }

    /// [`Store::put`] recording the format id the artifact was computed
    /// for in the frame (outcomes; references pass `None`).
    pub fn put_for(
        &self,
        kind: ArtifactKind,
        key: Key,
        payload: Vec<u8>,
        format: Option<u8>,
    ) -> io::Result<Arc<Vec<u8>>> {
        let _span = lpa_obs::span(lpa_obs::STORE_PUT);
        let slot = self.cache.slot(key);
        let _cleanup = SlotCleanup { cache: &self.cache, key };
        let mut filled = lock_slot(&slot);
        let written = self.write_disk(kind, key, &payload, format)?;
        self.stats.kind(kind).record_miss(written);
        let payload = Arc::new(payload);
        *filled = Some(payload.clone());
        Ok(payload)
    }

    /// The store's reason to exist: return the stored payload for `key`, or
    /// run `compute` exactly once (per process — concurrent threads block on
    /// the same key's slot and read the filled value), persist its result,
    /// and return it.
    ///
    /// The slot is dropped from the in-process map once resolved (the
    /// driver touches each key exactly once per run, so holding payloads
    /// for the store's lifetime would be pure memory overhead); a repeated
    /// lookup through the same handle is served by the checksummed disk
    /// copy, never by a recompute.
    pub fn get_or_compute(
        &self,
        kind: ArtifactKind,
        key: Key,
        compute: impl FnOnce() -> Vec<u8>,
    ) -> io::Result<Arc<Vec<u8>>> {
        enum Never {}
        match self.get_or_try_compute(kind, key, || Ok::<_, Never>(compute()))? {
            Ok(payload) => Ok(payload),
            Err(never) => match never {},
        }
    }

    /// [`Store::get_or_compute`] for fallible computes: when `compute`
    /// returns `Err`, **nothing is persisted** and the error is handed
    /// back through the outer `Ok` — the key stays absent and a later call
    /// may try again. This is what keeps crashed or timed-out experiment
    /// cells out of the store (the driver's `catch_unwind` converts a
    /// panicking cell into an `Err` here).
    ///
    /// The single-flight slot is released even if `compute` unwinds, so a
    /// panicking compute cannot wedge later lookups of the same key.
    pub fn get_or_try_compute<E>(
        &self,
        kind: ArtifactKind,
        key: Key,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> io::Result<Result<Arc<Vec<u8>>, E>> {
        self.get_or_try_compute_for(kind, key, None, compute)
    }

    /// [`Store::get_or_try_compute`] with the artifact's format id: reads
    /// reject frames recorded for a different format, and a recompute
    /// stamps the format (plus this handle's numerics table) into the new
    /// frame.
    pub fn get_or_try_compute_for<E>(
        &self,
        kind: ArtifactKind,
        key: Key,
        format: Option<u8>,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> io::Result<Result<Arc<Vec<u8>>, E>> {
        let slot = self.cache.slot(key);
        // Resolved, failed or unwound: the map entry must not linger —
        // blocked racers keep their slot Arc, later callers go to disk, and
        // an I/O failure leaves the key retryable.
        let _cleanup = SlotCleanup { cache: &self.cache, key };
        let mut filled = lock_slot(&slot);
        // The `store.get` span covers only the lookup side (cache check +
        // disk read) so it never swallows the compute closure's solve time;
        // the persist side gets its own `store.put` span below.
        {
            let _span = lpa_obs::span(lpa_obs::STORE_GET);
            if let Some(payload) = filled.as_ref() {
                self.stats.kind(kind).record_hit_mem();
                return Ok(Ok(payload.clone()));
            }
            if let Some(payload) = self.read_disk(kind, key, format)? {
                self.stats.kind(kind).record_hit_disk(payload.len() as u64);
                *filled = Some(payload.clone());
                return Ok(Ok(payload));
            }
        }
        match compute() {
            Err(e) => Ok(Err(e)),
            Ok(payload) => {
                let _span = lpa_obs::span(lpa_obs::STORE_PUT);
                let written = self.write_disk(kind, key, &payload, format)?;
                self.stats.kind(kind).record_miss(written);
                let payload = Arc::new(payload);
                *filled = Some(payload.clone());
                Ok(Ok(payload))
            }
        }
    }
}

/// First free destination for quarantining `name` into `dir`: the bare
/// name if unused, else `name.1`, `name.2`, … — a repeated corruption of
/// the same key must not overwrite the earlier quarantined copy (each one
/// is distinct forensic evidence). Best-effort under races, like the
/// quarantine move itself.
pub(crate) fn quarantine_dest(dir: &Path, name: &std::ffi::OsStr) -> PathBuf {
    let bare = dir.join(name);
    if !bare.exists() {
        return bare;
    }
    let name = name.to_string_lossy();
    (1u64..)
        .map(|i| dir.join(format!("{name}.{i}")))
        .find(|p| !p.exists())
        .expect("some numbered quarantine name is free")
}

/// Lock a single-flight slot, surviving poison: the `Option` inside is
/// only ever `None` or a complete payload, so a panic elsewhere (e.g. an
/// unwound compute) never leaves it half-written.
fn lock_slot(slot: &Slot) -> std::sync::MutexGuard<'_, Option<Arc<Vec<u8>>>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Removes a key's cache entry on scope exit — including panic unwinds —
/// so a crashed compute cannot pin a poisoned slot in the map.
struct SlotCleanup<'a> {
    cache: &'a ShardedCache,
    key: Key,
}

impl Drop for SlotCleanup<'_> {
    fn drop(&mut self) {
        self.cache.remove(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash128;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lpa-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn two_handles_on_one_directory_get_distinct_tmp_paths_for_one_key() {
        let dir = scratch_dir("tmp-names");
        let (a, b) = (Store::open(&dir).unwrap(), Store::open(&dir).unwrap());
        let key = hash128(b"shared-key");
        // Interleaved like two racing writers of the same key.
        let paths = [a.tmp_path(key), b.tmp_path(key), a.tmp_path(key), b.tmp_path(key)];
        for (i, p) in paths.iter().enumerate() {
            assert!(p.starts_with(dir.join(".tmp")), "{p:?}");
            for q in &paths[i + 1..] {
                assert_ne!(p, q, "two writes of one key share a tmp file");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_and_counters() {
        let dir = scratch_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"round-trip");
        assert!(store.get(ArtifactKind::Reference, key).unwrap().is_none());

        let got = store
            .get_or_compute(ArtifactKind::Reference, key, || b"payload".to_vec())
            .unwrap();
        assert_eq!(&**got, b"payload");
        // Second lookup through the same handle: the slot was dropped after
        // resolution, so this is a (checksummed) disk read, not a recompute.
        let again = store.get_or_compute(ArtifactKind::Reference, key, || panic!("must not recompute")).unwrap();
        assert_eq!(&**again, b"payload");
        let s = store.stats().snapshot(ArtifactKind::Reference);
        assert_eq!((s.misses, s.hits_mem, s.hits_disk), (1, 0, 1));
        assert!(s.bytes_written >= b"payload".len() as u64);

        // A fresh handle (second process in spirit) reads it from disk.
        let store2 = Store::open(&dir).unwrap();
        let from_disk = store2
            .get_or_compute(ArtifactKind::Reference, key, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(&**from_disk, b"payload");
        let s2 = store2.stats().snapshot(ArtifactKind::Reference);
        assert_eq!((s2.misses, s2.hits_disk), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifacts_read_as_absent_and_are_quarantined_then_healed() {
        let dir = scratch_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"heal-me");
        store.put(ArtifactKind::Outcome, key, b"good".to_vec()).unwrap();

        // Flip a payload byte on disk, then look up through a fresh handle.
        let path = store.path_of(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + 1;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let store2 = Store::open(&dir).unwrap();
        assert!(store2.get(ArtifactKind::Outcome, key).unwrap().is_none());
        assert_eq!(store2.stats().corrupt(), 1);
        let snap = store2.stats().snapshot(ArtifactKind::Outcome);
        assert_eq!((snap.corrupt, snap.quarantined), (1, 1));
        // The bad file was moved aside, not deleted.
        assert!(!path.exists());
        let quarantined = dir.join(QUARANTINE_DIR).join(format!("{}.bin", key.to_hex()));
        assert!(quarantined.exists(), "bad artifact is preserved for forensics");

        let healed =
            store2.get_or_compute(ArtifactKind::Outcome, key, || b"good".to_vec()).unwrap();
        assert_eq!(&**healed, b"good");
        // And the disk copy is valid again.
        let store3 = Store::open(&dir).unwrap();
        assert_eq!(&**store3.get(ArtifactKind::Outcome, key).unwrap().unwrap(), b"good");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let dir = scratch_dir("kind");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"kinded");
        store.put(ArtifactKind::Reference, key, b"ref".to_vec()).unwrap();
        let store2 = Store::open(&dir).unwrap();
        assert!(store2.get(ArtifactKind::Outcome, key).unwrap().is_none());
        assert_eq!(store2.stats().corrupt(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn container_encoding_is_self_describing() {
        let key = hash128(b"container");
        let numerics = lpa_numerics::NumericsConfig::baseline().to_bytes();
        let bytes = encode_artifact(ArtifactKind::Outcome, key, b"xyz", Some(6), &numerics);
        assert_eq!(bytes[4], FRAME_V3);
        assert_eq!(
            bytes.len(),
            HEADER_LEN + 3 + NUMERICS_LEN_LEN + numerics.len() + TRAILER_LEN
        );
        let a = decode_artifact(&bytes).unwrap();
        assert_eq!(a.kind, ArtifactKind::Outcome);
        assert_eq!(a.key, key);
        assert_eq!(a.payload, b"xyz");
        assert_eq!(a.format, Some(6));
        assert_eq!(a.numerics.as_deref(), Some(numerics.as_slice()));
        // A reference frame records no format.
        let r = decode_artifact(&encode_artifact(ArtifactKind::Reference, key, b"r", None, &numerics)).unwrap();
        assert_eq!(r.format, None);
        assert!(matches!(
            decode_artifact(&bytes[..HEADER_LEN - 1]),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_artifact(&bad), Err(StoreError::Corrupt(_))));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(decode_artifact(&wrong_version).is_err());
        // A truncated v3 frame (lost trailer bytes) is Truncated, and a
        // header-only corruption (format byte) is caught by the trailer.
        assert!(matches!(
            decode_artifact(&bytes[..bytes.len() - 4]),
            Err(StoreError::Truncated { .. })
        ));
        let mut header_flip = bytes.clone();
        header_flip[6] ^= 0x10; // format byte: invisible to the payload checksum
        assert!(matches!(decode_artifact(&header_flip), Err(StoreError::Corrupt(_))));
        // A corrupt numerics-section length is caught (shorter claims are
        // excess bytes, longer claims are truncation).
        let nlen_at = HEADER_LEN + 3;
        let mut nlen_flip = bytes.clone();
        nlen_flip[nlen_at] = nlen_flip[nlen_at].wrapping_add(7);
        assert!(decode_artifact(&nlen_flip).is_err());
    }

    /// Hand-build a legacy frame: v1 (no trailer) or v2 (whole-frame
    /// trailer), neither carrying format or numerics fields.
    fn legacy_frame(version: u8, kind: ArtifactKind, key: Key, payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.push(version);
        f.push(kind as u8);
        f.extend_from_slice(&[0, 0]);
        f.extend_from_slice(&key.0);
        f.extend_from_slice(&hash128(payload).0);
        f.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        f.extend_from_slice(payload);
        if version == FRAME_V2 {
            let trailer = hash128(&f);
            f.extend_from_slice(&trailer.0);
        }
        f
    }

    #[test]
    fn v1_and_v2_frames_are_still_readable() {
        // Old stores must stay warm across both container upgrades.
        let key = hash128(b"legacy");
        let payload = b"old data";
        for version in [FRAME_V1, FRAME_V2] {
            let frame = legacy_frame(version, ArtifactKind::Reference, key, payload);
            let a = decode_artifact(&frame).unwrap();
            assert_eq!(a.kind, ArtifactKind::Reference);
            assert_eq!(a.key, key);
            assert_eq!(a.payload, payload);
            assert_eq!(a.format, None, "legacy frames predate the format field");
            assert_eq!(a.numerics, None, "legacy frames predate the numerics field");

            // And through a Store: plant the legacy file, read it back —
            // even through the format-checked path (None is not a
            // contradiction).
            let dir = scratch_dir(&format!("legacy-v{version}"));
            let store = Store::open(&dir).unwrap();
            let path = store.path_of(key);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &frame).unwrap();
            let got = store
                .get_for(ArtifactKind::Reference, key, Some(3))
                .unwrap()
                .expect("legacy readable");
            assert_eq!(&**got, payload);
            assert_eq!(store.stats().corrupt(), 0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn format_mismatch_is_mislabelling() {
        let dir = scratch_dir("format-mismatch");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"formatted");
        store.put_for(ArtifactKind::Outcome, key, b"p16".to_vec(), Some(6)).unwrap();

        // The right format (or a format-agnostic read) hits.
        let store2 = Store::open(&dir).unwrap();
        assert!(store2.get_for(ArtifactKind::Outcome, key, Some(6)).unwrap().is_some());
        assert!(store2.get(ArtifactKind::Outcome, key).unwrap().is_some());

        // A contradicting format quarantines the frame as mislabelled.
        let store3 = Store::open(&dir).unwrap();
        assert!(store3.get_for(ArtifactKind::Outcome, key, Some(7)).unwrap().is_none());
        assert_eq!(store3.stats().corrupt(), 1);
        assert!(!store.path_of(key).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_corruption_preserves_every_quarantined_copy() {
        let dir = scratch_dir("requarantine");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"twice-corrupt");

        // Corrupt, read (quarantines), heal, corrupt again, read again.
        for round in 0..2u8 {
            store.put(ArtifactKind::Outcome, key, b"good".to_vec()).unwrap();
            let path = store.path_of(key);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[HEADER_LEN] ^= 0x01 << round; // distinct corruption per round
            std::fs::write(&path, &bytes).unwrap();
            let fresh = Store::open(&dir).unwrap();
            assert!(fresh.get(ArtifactKind::Outcome, key).unwrap().is_none());
        }

        // Both bad copies survive for forensics: the bare name, then `.1`.
        let qdir = dir.join(QUARANTINE_DIR);
        let name = format!("{}.bin", key.to_hex());
        assert!(qdir.join(&name).exists(), "first quarantined copy kept");
        assert!(qdir.join(format!("{name}.1")).exists(), "second copy deduped, not overwritten");
        // And the two preserved frames differ (distinct evidence).
        assert_ne!(
            std::fs::read(qdir.join(&name)).unwrap(),
            std::fs::read(qdir.join(format!("{name}.1"))).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_compute_persists_nothing_and_stays_retryable() {
        let dir = scratch_dir("trycompute");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"fallible");
        let failed = store
            .get_or_try_compute(ArtifactKind::Outcome, key, || Err::<Vec<u8>, _>("cell crashed"))
            .unwrap();
        assert_eq!(failed.unwrap_err(), "cell crashed");
        // Nothing on disk, nothing counted as a miss.
        assert!(store.get(ArtifactKind::Outcome, key).unwrap().is_none());
        assert_eq!(store.stats().snapshot(ArtifactKind::Outcome).misses, 0);
        // The key is retryable: a later successful compute persists.
        let ok = store
            .get_or_try_compute(ArtifactKind::Outcome, key, || Ok::<_, &str>(b"fine".to_vec()))
            .unwrap()
            .unwrap();
        assert_eq!(&**ok, b"fine");
        assert_eq!(&**store.get(ArtifactKind::Outcome, key).unwrap().unwrap(), b"fine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_compute_releases_the_single_flight_slot() {
        let dir = scratch_dir("panic-slot");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"panicky");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_compute(ArtifactKind::Outcome, key, || panic!("injected"))
        }));
        assert!(unwound.is_err());
        // The same key must still be resolvable afterwards.
        let ok = store.get_or_compute(ArtifactKind::Outcome, key, || b"recovered".to_vec()).unwrap();
        assert_eq!(&**ok, b"recovered");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_io_faults_are_retried_away() {
        let dir = scratch_dir("transient");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.io_retries(), DEFAULT_IO_RETRIES);
        let key = hash128(b"flaky-io");
        {
            let _faults = lpa_faults::FaultScope::arm("store.io.transient=once");
            // The first raw write fails, the retry succeeds.
            store.put(ArtifactKind::Reference, key, b"made it".to_vec()).unwrap();
        }
        assert_eq!(&**store.get(ArtifactKind::Reference, key).unwrap().unwrap(), b"made it");

        // With the budget at zero the same fault surfaces as an error.
        store.set_io_retries(0);
        let key2 = hash128(b"flaky-io-2");
        {
            let _faults = lpa_faults::FaultScope::arm("store.io.transient=once");
            let err = store.put(ArtifactKind::Reference, key2, b"nope".to_vec()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_writes_are_caught_on_read_and_healed() {
        let dir = scratch_dir("torn");
        let store = Store::open(&dir).unwrap();
        let key = hash128(b"torn-victim");
        {
            let _faults = lpa_faults::FaultScope::arm("store.write.torn=once");
            // The torn write itself reports success — that is the point.
            store.put(ArtifactKind::Outcome, key, b"will be torn".to_vec()).unwrap();
        }
        // A fresh handle sees the torn frame, quarantines it, recomputes.
        let store2 = Store::open(&dir).unwrap();
        let healed = store2
            .get_or_compute(ArtifactKind::Outcome, key, || b"will be torn".to_vec())
            .unwrap();
        assert_eq!(&**healed, b"will be torn");
        assert_eq!(store2.stats().snapshot(ArtifactKind::Outcome).corrupt, 1);
        assert_eq!(&**Store::open(&dir).unwrap().get(ArtifactKind::Outcome, key).unwrap().unwrap(), b"will be torn");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
