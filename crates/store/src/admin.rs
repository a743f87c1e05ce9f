//! Offline store administration: scanning, verification and garbage
//! collection. These walk the directory tree directly (no `Store` handle
//! needed) and back the `lpa-store` CLI.

use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use lpa_numerics::{NumericsConfig, RecordedNumerics, Slice};

use crate::hash::Key;
use crate::store::{decode_artifact, quarantine_dest, ArtifactKind, QUARANTINE_DIR};

/// Invalid files found during a [`scan`], each with its reason.
pub type InvalidFiles = Vec<(PathBuf, String)>;

/// One artifact file as found on disk (header metadata only).
pub struct ArtifactInfo {
    pub path: PathBuf,
    pub kind: ArtifactKind,
    pub key: Key,
    /// Whole-file size (header + payload).
    pub file_len: u64,
    pub modified: SystemTime,
    /// Recorded format id (v3 frames; `None` for references and legacy).
    pub format: Option<u8>,
    /// Serialized producing numerics table (v3 frames).
    pub numerics: Option<Vec<u8>>,
}

impl ArtifactInfo {
    /// The (kind, format) slice this artifact's address lives in.
    fn slice(&self) -> Slice {
        match self.kind {
            ArtifactKind::Reference => Slice::Reference,
            ArtifactKind::Outcome => Slice::Outcome { format: self.format },
        }
    }

    /// The producing numerics table, decoded. Legacy v1/v2 frames were
    /// produced at the baseline table by the byte-stability contract;
    /// `None` means the recorded section is undecodable.
    fn recorded_numerics(&self) -> Option<RecordedNumerics> {
        match &self.numerics {
            None => Some(RecordedNumerics::legacy_baseline()),
            Some(bytes) => RecordedNumerics::from_bytes(bytes).ok(),
        }
    }

    /// Slice label for per-numerics-version reporting: the recorded
    /// table's fingerprint, `legacy` for pre-v3 frames, `undecodable`
    /// when the recorded section cannot be parsed.
    fn numerics_label(&self) -> String {
        match &self.numerics {
            None => "legacy".to_string(),
            Some(_) => match self.recorded_numerics() {
                Some(rec) => rec.fingerprint(),
                None => "undecodable".to_string(),
            },
        }
    }
}

/// Artifact counts per (kind, numerics label), sorted — the per-version
/// slice breakdown `lpa-store stats`/`verify` report.
pub fn numerics_slice_counts(artifacts: &[ArtifactInfo]) -> Vec<(ArtifactKind, String, u64)> {
    let mut counts: Vec<(ArtifactKind, String, u64)> = Vec::new();
    for a in artifacts {
        let label = a.numerics_label();
        match counts.iter_mut().find(|(k, l, _)| *k == a.kind && *l == label) {
            Some((_, _, n)) => *n += 1,
            None => counts.push((a.kind, label, 1)),
        }
    }
    counts.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
    counts
}

/// Walk every `<2-hex>/<hash>.bin` under `root`, decoding and validating
/// each artifact. Invalid files are returned separately with a reason.
pub fn scan(root: &Path) -> io::Result<(Vec<ArtifactInfo>, InvalidFiles)> {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    let mut shards: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() && name.len() == 2 && name.chars().all(|c| c.is_ascii_hexdigit()) {
            shards.push(entry.path());
        }
    }
    shards.sort();
    for shard in shards {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&shard)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "bin"))
            .collect();
        files.sort();
        for path in files {
            match check_file(&path) {
                Ok(info) => ok.push(info),
                Err(reason) => bad.push((path, reason)),
            }
        }
    }
    Ok((ok, bad))
}

/// Validate one artifact file: container decode (magic, version, checksum)
/// plus the content-addressing invariants — the file name is the key and
/// the shard directory is the key's first byte.
fn check_file(path: &Path) -> Result<ArtifactInfo, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("stat failed: {e}"))?;
    let bytes = std::fs::read(path).map_err(|e| format!("read failed: {e}"))?;
    let artifact = decode_artifact(&bytes).map_err(|e| e.to_string())?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| "non-UTF-8 file name".to_string())?;
    if Key::from_hex(stem) != Some(artifact.key) {
        return Err(format!("file name {stem} does not match embedded key {}", artifact.key));
    }
    let shard = path.parent().and_then(|p| p.file_name()).and_then(|s| s.to_str());
    if shard != Some(artifact.key.shard().as_str()) {
        return Err(format!("sharded under {shard:?} but key {} expects {}", artifact.key, artifact.key.shard()));
    }
    Ok(ArtifactInfo {
        path: path.to_path_buf(),
        kind: artifact.kind,
        key: artifact.key,
        file_len: meta.len(),
        modified: meta.modified().map_err(|e| format!("no mtime: {e}"))?,
        format: artifact.format,
        numerics: artifact.numerics,
    })
}

/// Result of [`verify`].
pub struct VerifyReport {
    pub ok: usize,
    pub bytes: u64,
    pub corrupt: InvalidFiles,
    /// Corrupt-file counts per artifact kind; the extra last slot counts
    /// files whose header is too damaged to even name a kind.
    pub corrupt_per_kind: [usize; ArtifactKind::COUNT + 1],
    /// Valid-artifact counts per (kind, recorded numerics table).
    pub numerics_slices: Vec<(ArtifactKind, String, u64)>,
}

/// Best-effort kind of a *corrupt* file, from the header's kind byte. The
/// frame failed validation, so this is a label for reporting, not a fact.
fn sniff_kind(path: &Path) -> Option<ArtifactKind> {
    let bytes = std::fs::read(path).ok()?;
    ArtifactKind::from_u8(*bytes.get(5)?)
}

fn count_per_kind(corrupt: &InvalidFiles) -> [usize; ArtifactKind::COUNT + 1] {
    let mut counts = [0usize; ArtifactKind::COUNT + 1];
    for (path, _) in corrupt {
        match sniff_kind(path) {
            Some(kind) => counts[kind as usize] += 1,
            None => counts[ArtifactKind::COUNT] += 1,
        }
    }
    counts
}

impl VerifyReport {
    /// The report as named counters, for rendering in the shared
    /// `lpa-obs-registry/v1` schema (`lpa-store verify --json`). The
    /// `store.<kind>.corrupt` names match the live [`crate::StoreStats`]
    /// registry; scan-only facts get their own `store.verify.*` namespace.
    pub fn to_counters(&self) -> Vec<(String, u64)> {
        let mut counters = vec![
            ("store.verify.ok".to_string(), self.ok as u64),
            ("store.verify.bytes".to_string(), self.bytes),
            ("store.verify.corrupt".to_string(), self.corrupt.len() as u64),
        ];
        for kind in ArtifactKind::ALL {
            counters.push((
                format!("store.{}.corrupt", kind.name()),
                self.corrupt_per_kind[kind as usize] as u64,
            ));
        }
        counters.push((
            "store.unknown.corrupt".to_string(),
            self.corrupt_per_kind[ArtifactKind::COUNT] as u64,
        ));
        for (kind, label, count) in &self.numerics_slices {
            counters.push((format!("store.numerics.{}.{label}", kind.name()), *count));
        }
        counters
    }
}

/// Re-hash and structurally check every artifact in the store.
pub fn verify(root: &Path) -> io::Result<VerifyReport> {
    let (ok, corrupt) = scan(root)?;
    let corrupt_per_kind = count_per_kind(&corrupt);
    Ok(VerifyReport {
        ok: ok.len(),
        bytes: ok.iter().map(|a| a.file_len).sum(),
        numerics_slices: numerics_slice_counts(&ok),
        corrupt,
        corrupt_per_kind,
    })
}

/// Result of [`repair`].
pub struct RepairReport {
    pub verify: VerifyReport,
    /// How many corrupt files were actually moved to `quarantine/`.
    pub quarantined: usize,
}

/// [`verify`], then move every corrupt file into `<root>/quarantine/` so
/// the next harness run recomputes those keys instead of tripping over
/// the bad bytes. Idempotent: a clean store repairs to a no-op.
pub fn repair(root: &Path) -> io::Result<RepairReport> {
    let report = verify(root)?;
    let mut quarantined = 0;
    if !report.corrupt.is_empty() {
        let dir = root.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&dir)?;
        for (path, _) in &report.corrupt {
            let Some(name) = path.file_name() else { continue };
            if std::fs::rename(path, quarantine_dest(&dir, name)).is_ok() {
                quarantined += 1;
            }
        }
    }
    Ok(RepairReport { verify: report, quarantined })
}

/// `(file count, total bytes)` of the quarantine directory.
pub fn quarantine_usage(root: &Path) -> io::Result<(u64, u64)> {
    let dir = root.join(QUARANTINE_DIR);
    let (mut count, mut bytes) = (0u64, 0u64);
    if dir.is_dir() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                count += 1;
                bytes += entry.metadata()?.len();
            }
        }
    }
    Ok((count, bytes))
}

/// Per-kind store usage summary.
pub struct StatsReport {
    /// `(count, file bytes)` indexed by `ArtifactKind as usize`.
    pub per_kind: [(u64, u64); ArtifactKind::COUNT],
    pub invalid: usize,
    /// `(count, file bytes)` sitting in `quarantine/`.
    pub quarantine: (u64, u64),
    /// Artifact counts per (kind, recorded numerics table).
    pub numerics_slices: Vec<(ArtifactKind, String, u64)>,
}

impl StatsReport {
    pub fn total_count(&self) -> u64 {
        self.per_kind.iter().map(|(c, _)| c).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.per_kind.iter().map(|(_, b)| b).sum()
    }

    /// The report as named counters, for rendering in the shared
    /// `lpa-obs-registry/v1` schema (`lpa-store stats --json`).
    pub fn to_counters(&self) -> Vec<(String, u64)> {
        let mut counters = Vec::new();
        for kind in ArtifactKind::ALL {
            let (count, bytes) = self.per_kind[kind as usize];
            counters.push((format!("store.{}.artifacts", kind.name()), count));
            counters.push((format!("store.{}.bytes", kind.name()), bytes));
        }
        counters.push(("store.invalid".to_string(), self.invalid as u64));
        counters.push(("store.quarantine.files".to_string(), self.quarantine.0));
        counters.push(("store.quarantine.bytes".to_string(), self.quarantine.1));
        for (kind, label, count) in &self.numerics_slices {
            counters.push((format!("store.numerics.{}.{label}", kind.name()), *count));
        }
        counters
    }
}

pub fn stats_report(root: &Path) -> io::Result<StatsReport> {
    let (ok, bad) = scan(root)?;
    let mut per_kind = [(0u64, 0u64); ArtifactKind::COUNT];
    for a in &ok {
        let slot = &mut per_kind[a.kind as usize];
        slot.0 += 1;
        slot.1 += a.file_len;
    }
    Ok(StatsReport {
        per_kind,
        invalid: bad.len(),
        quarantine: quarantine_usage(root)?,
        numerics_slices: numerics_slice_counts(&ok),
    })
}

/// Result of [`gc`].
pub struct GcReport {
    pub kept: usize,
    pub kept_bytes: u64,
    pub deleted: usize,
    pub deleted_bytes: u64,
    pub tmp_removed: usize,
    /// Artifacts dropped by the `stale_numerics` pass (not counted in
    /// `deleted`, which covers the age/budget/invalid passes).
    pub stale: usize,
    pub stale_bytes: u64,
}

/// What [`gc`] deletes. The limits compose: the stale-numerics pass runs
/// first (drop artifacts whose recorded feature versions no longer match
/// the given table on any relevant feature), then age (drop everything
/// not touched within `max_age`), then the byte budget shrinks whatever
/// survived, oldest first. At least one limit must be set — an empty
/// policy would be a no-op that *looks* like a cleanup.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcPolicy {
    /// Keep total artifact bytes at or below this budget.
    pub max_bytes: Option<u64>,
    /// Delete artifacts whose mtime is older than this.
    pub max_age: Option<std::time::Duration>,
    /// Delete artifacts whose recorded numerics table differs from this
    /// one on a feature relevant to their (kind, format) slice.
    pub stale_numerics: Option<NumericsConfig>,
}

impl GcPolicy {
    pub fn max_bytes(n: u64) -> GcPolicy {
        GcPolicy { max_bytes: Some(n), ..Default::default() }
    }

    pub fn max_age(age: std::time::Duration) -> GcPolicy {
        GcPolicy { max_age: Some(age), ..Default::default() }
    }

    pub fn stale_numerics(config: NumericsConfig) -> GcPolicy {
        GcPolicy { stale_numerics: Some(config), ..Default::default() }
    }

    pub fn is_empty(&self) -> bool {
        self.max_bytes.is_none() && self.max_age.is_none() && self.stale_numerics.is_none()
    }
}

/// Shrink the store per `policy`: delete artifacts invalidated by a
/// numerics-feature bump, then those older than `max_age`, then the least
/// recently modified ones until under `max_bytes`, and sweep leftover
/// `.tmp` files (from crashed writers). Invalid artifacts are always
/// deleted. Not safe to run concurrently with an *actively writing*
/// harness — a live tmp file could be swept — but readers are unaffected.
pub fn gc(root: &Path, policy: &GcPolicy) -> io::Result<GcReport> {
    if policy.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "gc policy sets neither max_bytes, max_age nor stale_numerics",
        ));
    }
    let (mut ok, bad) = scan(root)?;
    let mut report = GcReport {
        kept: 0,
        kept_bytes: 0,
        deleted: 0,
        deleted_bytes: 0,
        tmp_removed: 0,
        stale: 0,
        stale_bytes: 0,
    };
    for (path, _) in &bad {
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(path)?;
        report.deleted += 1;
        report.deleted_bytes += len;
    }
    // Stale-numerics pass first: these artifacts can never be addressed
    // again (their keys were derived under versions that no longer match),
    // so no other limit should spend budget keeping them. An artifact
    // whose recorded table cannot be decoded is stale too — it is
    // unattributable and safely recomputable. Legacy pre-v3 frames decode
    // as the baseline table.
    if let Some(config) = &policy.stale_numerics {
        let (stale, live): (Vec<_>, Vec<_>) = ok.into_iter().partition(|a| {
            a.recorded_numerics()
                .is_none_or(|rec| config.invalidates(a.slice(), &rec))
        });
        for a in &stale {
            std::fs::remove_file(&a.path)?;
            report.stale += 1;
            report.stale_bytes += a.file_len;
        }
        ok = live;
    }
    // Age limit next: everything past the horizon goes, regardless of the
    // byte budget.
    let now = SystemTime::now();
    if let Some(max_age) = policy.max_age {
        // A horizon longer than representable time means nothing can be
        // old enough: explicitly keep everything rather than letting the
        // unrepresentable cutoff silently skip the pass.
        if let Some(cutoff) = now.checked_sub(max_age) {
            let (expired, fresh): (Vec<_>, Vec<_>) =
                ok.into_iter().partition(|a| a.modified < cutoff);
            for a in &expired {
                std::fs::remove_file(&a.path)?;
                report.deleted += 1;
                report.deleted_bytes += a.file_len;
            }
            ok = fresh;
        }
    }
    // Then the byte budget on the survivors, oldest first; ties broken by
    // the (stable, sorted) scan order. A future mtime (clock skew, bogus
    // timestamp) sorts as the epoch so such files are evicted first —
    // trusting it would pin them as "newest" forever.
    ok.sort_by_key(|a| if a.modified > now { std::time::UNIX_EPOCH } else { a.modified });
    let total: u64 = ok.iter().map(|a| a.file_len).sum();
    let mut excess = total.saturating_sub(policy.max_bytes.unwrap_or(u64::MAX));
    for a in &ok {
        if excess > 0 {
            std::fs::remove_file(&a.path)?;
            report.deleted += 1;
            report.deleted_bytes += a.file_len;
            excess = excess.saturating_sub(a.file_len);
        } else {
            report.kept += 1;
            report.kept_bytes += a.file_len;
        }
    }
    let tmp = root.join(".tmp");
    if tmp.is_dir() {
        for entry in std::fs::read_dir(&tmp)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                std::fs::remove_file(entry.path())?;
                report.tmp_removed += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash128;
    use crate::store::{Store, HEADER_LEN};

    fn scratch_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!(
            "lpa-store-admin-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn fill(store: &Store, n: usize) {
        for i in 0..n {
            let key = hash128(format!("artifact-{i}").as_bytes());
            let kind = if i % 2 == 0 { ArtifactKind::Reference } else { ArtifactKind::Outcome };
            store.put(kind, key, vec![i as u8; 64 + i]).unwrap();
        }
    }

    #[test]
    fn verify_passes_on_a_healthy_store_and_flags_corruption() {
        let (dir, store) = scratch_store("verify");
        fill(&store, 8);
        let report = verify(&dir).unwrap();
        assert_eq!(report.ok, 8);
        assert!(report.corrupt.is_empty());
        assert!(report.bytes > 8 * (HEADER_LEN as u64 + 64));

        // Corrupt one payload byte.
        let victim = hash128(b"artifact-3");
        let path = store.path_of(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        // And plant a file whose name is not its key.
        let stray = dir.join(victim.shard()).join(format!("{}.bin", hash128(b"liar")));
        std::fs::copy(store.path_of(hash128(b"artifact-2")), &stray).unwrap();

        let report = verify(&dir).unwrap();
        assert_eq!(report.ok, 7);
        assert_eq!(report.corrupt.len(), 2);
        assert_eq!(report.corrupt_per_kind.iter().sum::<usize>(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_quarantines_exactly_the_damaged_files() {
        let (dir, store) = scratch_store("repair");
        fill(&store, 6);

        // Damage two artifacts in different ways: a payload bit-flip and a
        // header so mangled the kind can't even be sniffed.
        let flipped = store.path_of(hash128(b"artifact-1"));
        let mut bytes = std::fs::read(&flipped).unwrap();
        bytes[HEADER_LEN] ^= 0x80;
        std::fs::write(&flipped, bytes).unwrap();
        let mangled = store.path_of(hash128(b"artifact-4"));
        std::fs::write(&mangled, b"not even close").unwrap();

        let report = repair(&dir).unwrap();
        assert_eq!(report.verify.ok, 4);
        assert_eq!(report.verify.corrupt.len(), 2);
        assert_eq!(report.quarantined, 2);
        // Corrupt kinds: artifact-1 is an Outcome (odd index); the mangled
        // file lands in the "unknown" slot.
        assert_eq!(report.verify.corrupt_per_kind[ArtifactKind::Outcome as usize], 1);
        assert_eq!(report.verify.corrupt_per_kind[ArtifactKind::COUNT], 1);
        assert!(!flipped.exists() && !mangled.exists());
        assert_eq!(quarantine_usage(&dir).unwrap().0, 2);

        // The healthy artifacts were untouched, and repair is idempotent.
        let clean = repair(&dir).unwrap();
        assert_eq!(clean.verify.ok, 4);
        assert!(clean.verify.corrupt.is_empty());
        assert_eq!(clean.quarantined, 0);

        // Quarantine shows up in the stats report, not as store contents.
        let stats = stats_report(&dir).unwrap();
        assert_eq!(stats.total_count(), 4);
        assert_eq!(stats.invalid, 0);
        assert_eq!(stats.quarantine.0, 2);
        assert!(stats.quarantine.1 > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_report_breaks_down_by_kind() {
        let (dir, store) = scratch_store("stats");
        fill(&store, 6);
        let report = stats_report(&dir).unwrap();
        assert_eq!(report.per_kind[ArtifactKind::Reference as usize].0, 3);
        assert_eq!(report.per_kind[ArtifactKind::Outcome as usize].0, 3);
        assert_eq!(report.total_count(), 6);
        assert_eq!(report.invalid, 0);
        assert!(report.total_bytes() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_deletes_oldest_until_under_budget() {
        let (dir, store) = scratch_store("gc");
        fill(&store, 6);
        // Age the first two artifacts by rewriting the rest later is not
        // reliable timing-wise; instead set the budget so only some survive.
        let total = verify(&dir).unwrap().bytes;
        let report = gc(&dir, &GcPolicy::max_bytes(total / 2)).unwrap();
        assert!(report.deleted > 0 && report.kept > 0, "deleted {} kept {}", report.deleted, report.kept);
        assert!(report.kept_bytes <= total / 2);
        let after = verify(&dir).unwrap();
        assert_eq!(after.ok, report.kept);
        assert!(after.corrupt.is_empty());

        // max_bytes 0 empties the store; a stale tmp file is swept too.
        std::fs::write(dir.join(".tmp").join("stale.tmp"), b"zzz").unwrap();
        let report = gc(&dir, &GcPolicy::max_bytes(0)).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(verify(&dir).unwrap().ok, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Backdate an artifact's mtime by `secs` seconds.
    fn backdate(path: &Path, secs: u64) {
        let old = SystemTime::now() - std::time::Duration::from_secs(secs);
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_times(std::fs::FileTimes::new().set_modified(old)).unwrap();
    }

    #[test]
    fn gc_age_policy_deletes_expired_and_composes_with_bytes() {
        use std::time::Duration;
        let (dir, store) = scratch_store("gc-age");
        fill(&store, 6);
        // Artifacts 0 and 1 are an hour old; the rest are fresh.
        for i in 0..2 {
            backdate(&store.path_of(hash128(format!("artifact-{i}").as_bytes())), 3600);
        }

        // Pure age policy: exactly the two backdated artifacts go.
        let report = gc(&dir, &GcPolicy::max_age(Duration::from_secs(60))).unwrap();
        assert_eq!(report.deleted, 2, "expired artifacts deleted");
        assert_eq!(report.kept, 4);
        assert_eq!(verify(&dir).unwrap().ok, 4);

        // Composed policy: age expires one more backdated artifact, then
        // the byte budget shrinks the fresh survivors too.
        backdate(&store.path_of(hash128(b"artifact-2")), 3600);
        let expired_path = store.path_of(hash128(b"artifact-2"));
        let survivors_bytes: u64 = scan(&dir)
            .unwrap()
            .0
            .iter()
            .filter(|a| a.path != expired_path)
            .map(|a| a.file_len)
            .sum();
        let policy = GcPolicy {
            max_age: Some(Duration::from_secs(60)),
            max_bytes: Some(survivors_bytes / 2),
            ..Default::default()
        };
        let report = gc(&dir, &policy).unwrap();
        assert!(report.deleted >= 2, "age victim plus at least one budget victim");
        assert!(report.kept_bytes <= survivors_bytes / 2);
        assert_eq!(verify(&dir).unwrap().ok, report.kept);

        // An empty policy is rejected, not a silent no-op.
        assert!(gc(&dir, &GcPolicy::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_with_unrepresentable_age_horizon_keeps_everything() {
        use std::time::Duration;
        let (dir, store) = scratch_store("gc-age-overflow");
        fill(&store, 4);
        backdate(&store.path_of(hash128(b"artifact-0")), 3600);
        // A horizon longer than representable time: `SystemTime::now() -
        // max_age` has no answer, so nothing can provably be that old —
        // the pass must keep everything, not silently skip into the
        // partition with an arbitrary outcome.
        let report = gc(&dir, &GcPolicy::max_age(Duration::MAX)).unwrap();
        assert_eq!(report.deleted, 0);
        assert_eq!(report.kept, 4);
        assert_eq!(verify(&dir).unwrap().ok, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Push an artifact's mtime `secs` seconds into the future.
    fn future_date(path: &Path, secs: u64) {
        let skewed = SystemTime::now() + std::time::Duration::from_secs(secs);
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_times(std::fs::FileTimes::new().set_modified(skewed)).unwrap();
    }

    #[test]
    fn gc_byte_budget_evicts_future_dated_files_first() {
        let (dir, store) = scratch_store("gc-future");
        fill(&store, 2);
        // artifact-1 claims to be modified an hour from now (clock skew).
        // Trusting that timestamp would rank it newest and pin it forever;
        // the clamp ranks it below every honestly-dated file instead.
        let honest = store.path_of(hash128(b"artifact-0"));
        let skewed = store.path_of(hash128(b"artifact-1"));
        future_date(&skewed, 3600);
        let keep_one = std::fs::metadata(&honest).unwrap().len();
        let report = gc(&dir, &GcPolicy::max_bytes(keep_one)).unwrap();
        assert_eq!((report.deleted, report.kept), (1, 1));
        assert!(honest.exists(), "honestly-dated artifact survives");
        assert!(!skewed.exists(), "future-dated artifact is evicted first");
        // And the age pass never deletes a future-dated file (its age is
        // unprovable), so age-only policies leave it alone.
        future_date(&honest, 3600);
        let report = gc(&dir, &GcPolicy::max_age(std::time::Duration::from_secs(1))).unwrap();
        assert_eq!((report.deleted, report.kept), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_stale_numerics_drops_exactly_the_bumped_slice() {
        use lpa_numerics::{NumericsConfig, BATCH_ROUND};
        let (dir, store) = scratch_store("gc-stale");
        // A baseline store: one reference, one outcome per format class —
        // LUT8 (posit8, id 2), soft-float (posit16, id 6), native
        // (float64, id 11) — plus one legacy v1 outcome frame with no
        // recorded format or table.
        store.put(ArtifactKind::Reference, hash128(b"ref"), b"r".to_vec()).unwrap();
        store.put_for(ArtifactKind::Outcome, hash128(b"o-p8"), b"a".to_vec(), Some(2)).unwrap();
        store.put_for(ArtifactKind::Outcome, hash128(b"o-p16"), b"b".to_vec(), Some(6)).unwrap();
        store.put_for(ArtifactKind::Outcome, hash128(b"o-f64"), b"c".to_vec(), Some(11)).unwrap();
        let legacy_key = hash128(b"o-legacy");
        let legacy_path = store.path_of(legacy_key);
        std::fs::create_dir_all(legacy_path.parent().unwrap()).unwrap();
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"LPST\x01");
        v1.push(ArtifactKind::Outcome as u8);
        v1.extend_from_slice(&[0, 0]);
        v1.extend_from_slice(&legacy_key.0);
        v1.extend_from_slice(&hash128(b"d").0);
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(b"d");
        std::fs::write(&legacy_path, &v1).unwrap();

        // The stats breakdown labels the slices before any gc.
        let stats = stats_report(&dir).unwrap();
        assert!(stats
            .numerics_slices
            .iter()
            .any(|(k, l, n)| *k == ArtifactKind::Outcome && l == "legacy" && *n == 1));
        assert!(stats
            .numerics_slices
            .iter()
            .any(|(k, l, n)| *k == ArtifactKind::Outcome && l == "baseline" && *n == 3));

        // Bump batch_round: exactly the soft-float posit16 outcome is
        // stale. The reference, the LUT8 and native outcomes, and the
        // legacy frame (unknown format → only universal features
        // attributable) all survive.
        let bumped = NumericsConfig::baseline().with_version(BATCH_ROUND, 2);
        let report = gc(&dir, &GcPolicy::stale_numerics(bumped)).unwrap();
        assert_eq!((report.stale, report.deleted), (1, 0));
        assert!(report.stale_bytes > 0);
        assert_eq!(report.kept, 4);
        assert!(!store.path_of(hash128(b"o-p16")).exists());
        assert!(store.path_of(hash128(b"o-p8")).exists());
        assert!(store.path_of(hash128(b"o-f64")).exists());
        assert!(store.path_of(hash128(b"ref")).exists());
        assert!(legacy_path.exists());

        // A matching table is a no-op for frames recorded under it: write
        // the posit16 outcome back under the bumped table, then gc with
        // that same table again.
        let store2 = Store::open(&dir).unwrap();
        store2.set_numerics(&bumped);
        store2.put_for(ArtifactKind::Outcome, hash128(b"o-p16"), b"b2".to_vec(), Some(6)).unwrap();
        let report = gc(&dir, &GcPolicy::stale_numerics(bumped)).unwrap();
        assert_eq!((report.stale, report.kept), (0, 5));
        // But a universally relevant bump clears everything — legacy and
        // the just-rewritten batch frame included (dd_reference reaches
        // every slice).
        let dd_bump =
            NumericsConfig::baseline().with_version(lpa_numerics::DD_REFERENCE, 2);
        let report = gc(&dir, &GcPolicy::stale_numerics(dd_bump)).unwrap();
        assert_eq!((report.stale, report.kept), (5, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
