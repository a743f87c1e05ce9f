//! # lpa-numerics — the versioned numerics-feature table
//!
//! The store's content addresses used to fold in one monolithic
//! `CODE_VERSION_SALT`: any numerics change invalidated *every* cached
//! reference and outcome at once. This crate replaces the salt with a
//! structured table (in the spirit of Sui's `sui-protocol-config`): every
//! numerics-relevant feature — the double-double reference solver, the
//! Arnoldi restart scheme, the shared soft-float kernel, the `Decoded<T>`
//! rounders, the 8-bit result LUTs, and one codec feature per number
//! format — carries an integer version, and each artifact's key hashes only
//! the versions that can affect *that* artifact's kind and format (its
//! [`Slice`]). One id is retired: `dec16_tables` versioned the 16-bit
//! decode tables, which are gone, so no slice depends on it.
//!
//! ## Byte stability
//!
//! The key material of a slice is [`BASE_SALT`] (little-endian, the old
//! salt's exact bytes) followed by `name NUL version_le` for every
//! *relevant* feature whose version differs from [`BASELINE_VERSION`], in
//! feature-id order. At the baseline table the material is therefore
//! byte-identical to the old `write_u64(CODE_VERSION_SALT)`, so every
//! pre-table store address reproduces exactly; bumping one feature appends
//! bytes only for the slices it is relevant to, invalidating exactly those.
//!
//! ## Bump policy (replaces the salt-bump rule)
//!
//! A PR that changes computed numerics bumps the version of the *feature it
//! changed* — `batch_round` for the `Decoded<T>` rounders, `lut8_tables`
//! for the 8-bit result tables, `fmt_posit16` for a posit16 codec fix, and
//! so on — in [`builtin`](NumericsConfig::builtin). Only the affected
//! (kind, format) slices then miss; everything else stays warm. Changes
//! that cannot affect results must not bump anything.
//!
//! ## The `LPA_NUMERICS_BUMP` knob
//!
//! Per the harness knob discipline the environment variable is read in
//! exactly one place — this crate ([`NumericsConfig::current`]). A spec
//! like `batch_round=2,fmt_posit16=3` overlays the builtin table, which is
//! how CI simulates a version bump against a real store without editing
//! source; an unknown feature name or unparsable version panics (a typo
//! must not silently address the wrong slice).

use std::sync::OnceLock;

/// The historical `CODE_VERSION_SALT` value; every key still starts with
/// its little-endian bytes so baseline addresses match pre-table stores.
pub const BASE_SALT: u64 = 0x6c70_6131_0000_0001;

/// Every feature starts here; versions only ever grow.
pub const BASELINE_VERSION: u32 = 1;

/// Serialization format tag of [`NumericsConfig::to_bytes`].
const SER_VERSION: u8 = 1;

/// Number of named (non-per-format) features.
const NAMED_FEATURES: usize = 6;
/// Number of per-format codec features (one per stable wire format id).
pub const FORMAT_COUNT: usize = 14;
/// Total feature count.
pub const FEATURE_COUNT: usize = NAMED_FEATURES + FORMAT_COUNT;

/// One numerics-relevant feature, identified by a stable id (the index
/// into [`FEATURE_NAMES`]). **Append-only**: ids appear inside persisted
/// frames, so renumbering orphans recorded configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Feature(u8);

/// The double-double reference solver (tolerance, Dd arithmetic, matching).
pub const DD_REFERENCE: Feature = Feature(0);
/// The Krylov–Schur restart iteration (affects every solve).
pub const ARNOLDI_RESTART: Feature = Feature(1);
/// The shared integer soft-float kernel every emulated format rounds through.
pub const SOFTFLOAT_KERNEL: Feature = Feature(2);
/// Retired: the 16-bit decode tables this versioned are gone, and no slice
/// depends on it any more, so bumping it moves no key. The id and name stay
/// reserved (both are append-only: persisted in frames, hashed into keys).
pub const DEC16_TABLES: Feature = Feature(3);
/// The value-level and fused rounders every `Decoded<T>` op rounds through
/// (the name predates `Decoded<T>` and stays: names are key material).
pub const BATCH_ROUND: Feature = Feature(4);
/// The 8-bit full-result lookup tables.
pub const LUT8_TABLES: Feature = Feature(5);

/// Feature names, indexed by feature id. Names are key material (they are
/// hashed into addresses when non-baseline), so they are as append-only as
/// the ids.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "dd_reference",
    "arnoldi_restart",
    "softfloat_kernel",
    "dec16_tables",
    "batch_round",
    "lut8_tables",
    // Per-format codec features, in stable wire format-id order (must
    // match `lpa_experiments::persist::format_id`).
    "fmt_ofp8_e4m3",
    "fmt_ofp8_e5m2",
    "fmt_posit8",
    "fmt_takum8",
    "fmt_float16",
    "fmt_bfloat16",
    "fmt_posit16",
    "fmt_takum16",
    "fmt_float32",
    "fmt_posit32",
    "fmt_takum32",
    "fmt_float64",
    "fmt_posit64",
    "fmt_takum64",
];

/// Which arithmetic backend serves a format's outcomes — this decides
/// which shared-kernel features are relevant to the format's slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormatClass {
    /// 8-bit formats: full-result LUTs (built by the soft-float kernel).
    Lut8,
    /// Hardware `f32`/`f64`: no emulation feature can affect them.
    Native,
    /// 16/32/64-bit emulated formats: the posits and takums run soft-float
    /// ops, solved at `Decoded<T>`.  float16 and bfloat16 run on the
    /// host's binary32 unit but stay in this class: their results equal
    /// the soft-float kernel's bit for bit (by test, exhaustively), so the
    /// kernel's features still describe them and no store key moves.
    Soft,
}

/// Backend class per stable wire format id.
pub const FORMAT_CLASSES: [FormatClass; FORMAT_COUNT] = [
    FormatClass::Lut8,   // 0  OFP8 E4M3
    FormatClass::Lut8,   // 1  OFP8 E5M2
    FormatClass::Lut8,   // 2  posit8
    FormatClass::Lut8,   // 3  takum8
    FormatClass::Soft,   // 4  float16
    FormatClass::Soft,   // 5  bfloat16
    FormatClass::Soft,   // 6  posit16
    FormatClass::Soft,   // 7  takum16
    FormatClass::Native, // 8  float32
    FormatClass::Soft,   // 9  posit32
    FormatClass::Soft,   // 10 takum32
    FormatClass::Native, // 11 float64
    FormatClass::Soft,   // 12 posit64
    FormatClass::Soft,   // 13 takum64
];

impl Feature {
    /// Stable id of this feature.
    pub fn id(self) -> u8 {
        self.0
    }

    /// The feature with this id, if it exists in this build.
    pub fn from_id(id: u8) -> Option<Feature> {
        ((id as usize) < FEATURE_COUNT).then_some(Feature(id))
    }

    /// The per-format codec feature of a stable wire format id.
    pub fn for_format(format_id: u8) -> Option<Feature> {
        ((format_id as usize) < FORMAT_COUNT)
            .then(|| Feature(NAMED_FEATURES as u8 + format_id))
    }

    pub fn name(self) -> &'static str {
        FEATURE_NAMES[self.0 as usize]
    }

    /// Look a feature up by name (the `LPA_NUMERICS_BUMP` vocabulary).
    pub fn from_name(name: &str) -> Option<Feature> {
        FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| Feature(i as u8))
    }

    /// Every feature, in id order.
    pub fn all() -> impl Iterator<Item = Feature> {
        (0..FEATURE_COUNT as u8).map(Feature)
    }
}

/// The address space an artifact lives in: its kind plus (for outcomes)
/// its stable wire format id. `Outcome { format: None }` describes a
/// legacy frame whose format was not recorded — only the features relevant
/// to *every* outcome slice can be attributed to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slice {
    Reference,
    Outcome { format: Option<u8> },
}

/// The features whose versions can affect artifacts of `slice`, in
/// feature-id order.
pub fn relevant_features(slice: Slice) -> Vec<Feature> {
    // The reference solve and the error computation against it reach every
    // artifact; everything else is format-class specific.
    let mut set = vec![DD_REFERENCE, ARNOLDI_RESTART];
    // An `Outcome { format: None }` (legacy frame, format not recorded)
    // keeps only the universally relevant features above.
    if let Slice::Outcome { format: Some(id) } = slice {
        match FORMAT_CLASSES.get(id as usize) {
            Some(FormatClass::Lut8) => set.extend([SOFTFLOAT_KERNEL, LUT8_TABLES]),
            Some(FormatClass::Soft) => set.extend([SOFTFLOAT_KERNEL, BATCH_ROUND]),
            // Native formats round in hardware; unknown ids (a newer
            // binary's format) contribute nothing attributable.
            Some(FormatClass::Native) | None => {}
        }
        if let Some(f) = Feature::for_format(id) {
            set.push(f);
        }
    }
    set.sort();
    set
}

/// The full feature-version table one binary (or one recorded frame)
/// computes under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumericsConfig {
    versions: [u32; FEATURE_COUNT],
}

impl Default for NumericsConfig {
    fn default() -> NumericsConfig {
        NumericsConfig::baseline()
    }
}

impl NumericsConfig {
    /// Every feature at [`BASELINE_VERSION`] — the table whose key
    /// material is byte-identical to the historical salt.
    pub fn baseline() -> NumericsConfig {
        NumericsConfig { versions: [BASELINE_VERSION; FEATURE_COUNT] }
    }

    /// The table this build implements. Bump the feature you changed here,
    /// in the same commit as the numerics change (see the module docs).
    /// The arithmetic tiers declare the versions they implement
    /// (`lpa_arith::numerics_versions`, `lpa_arnoldi::NUMERICS_VERSIONS`)
    /// and `lpa_experiments::numerics` cross-checks them against this
    /// table in one place.
    pub fn builtin() -> NumericsConfig {
        NumericsConfig::baseline()
    }

    /// The effective table of this process: [`builtin`] overlaid with the
    /// `LPA_NUMERICS_BUMP` spec, read once (this crate's only `std::env`
    /// read). Panics on an unknown feature name or unparsable version.
    pub fn current() -> NumericsConfig {
        static CURRENT: OnceLock<NumericsConfig> = OnceLock::new();
        *CURRENT.get_or_init(|| {
            let mut cfg = NumericsConfig::builtin();
            if let Ok(spec) = std::env::var("LPA_NUMERICS_BUMP") {
                if !spec.trim().is_empty() {
                    cfg = cfg.with_bump_spec(&spec).unwrap_or_else(|e| {
                        panic!("LPA_NUMERICS_BUMP: {e} (spec {spec:?})")
                    });
                }
            }
            cfg
        })
    }

    /// Apply a `feature=version[,feature=version...]` spec.
    pub fn with_bump_spec(&self, spec: &str) -> Result<NumericsConfig, String> {
        let mut cfg = *self;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, version) = part
                .split_once('=')
                .ok_or_else(|| format!("expected feature=version, got {part:?}"))?;
            let feature = Feature::from_name(name.trim())
                .ok_or_else(|| format!("unknown feature {name:?}"))?;
            let version: u32 = version
                .trim()
                .parse()
                .map_err(|_| format!("unparsable version {version:?} for {name}"))?;
            cfg = cfg.with_version(feature, version);
        }
        Ok(cfg)
    }

    pub fn version(&self, feature: Feature) -> u32 {
        self.versions[feature.0 as usize]
    }

    pub fn with_version(&self, feature: Feature, version: u32) -> NumericsConfig {
        let mut cfg = *self;
        cfg.versions[feature.0 as usize] = version;
        cfg
    }

    /// `(name, version)` pairs in feature-id order — the run manifest's
    /// `plan.numerics` section.
    pub fn to_pairs(&self) -> Vec<(&'static str, u32)> {
        Feature::all().map(|f| (f.name(), self.version(f))).collect()
    }

    /// The bytes a key hashes for one slice: [`BASE_SALT`] little-endian,
    /// then `name NUL version_le` per non-baseline relevant feature in id
    /// order. At the baseline table this is exactly the old salt's bytes.
    pub fn key_material(&self, slice: Slice) -> Vec<u8> {
        let mut out = BASE_SALT.to_le_bytes().to_vec();
        for f in relevant_features(slice) {
            let v = self.version(f);
            if v != BASELINE_VERSION {
                out.extend_from_slice(f.name().as_bytes());
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Canonical frame serialization: `[SER_VERSION, n]` then `(id,
    /// version_le)` per non-baseline feature in id order. The baseline
    /// table is two bytes; absent features decode as baseline, so older
    /// and newer binaries read each other's frames.
    pub fn to_bytes(&self) -> Vec<u8> {
        let non_baseline: Vec<Feature> =
            Feature::all().filter(|&f| self.version(f) != BASELINE_VERSION).collect();
        let mut out = Vec::with_capacity(2 + 5 * non_baseline.len());
        out.push(SER_VERSION);
        out.push(non_baseline.len() as u8);
        for f in non_baseline {
            out.push(f.id());
            out.extend_from_slice(&self.version(f).to_le_bytes());
        }
        out
    }

    /// Does moving from `recorded` (the table an artifact was produced
    /// under) to this table invalidate artifacts of `slice`? True iff a
    /// relevant feature's version differs. Feature ids recorded by a newer
    /// binary that this build does not know are ignored — their relevance
    /// cannot be established, and keeping a warm artifact is the safe side.
    pub fn invalidates(&self, slice: Slice, recorded: &RecordedNumerics) -> bool {
        relevant_features(slice)
            .into_iter()
            .any(|f| recorded.version(f) != self.version(f))
    }

    /// Human/counter-friendly rendering of the non-baseline entries
    /// (`"baseline"` when there are none) — the per-version slice label
    /// `lpa-store stats`/`verify` group by.
    pub fn fingerprint(&self) -> String {
        fingerprint_of(
            Feature::all()
                .filter(|&f| self.version(f) != BASELINE_VERSION)
                .map(|f| (f.id(), self.version(f))),
        )
    }
}

fn fingerprint_of(pairs: impl Iterator<Item = (u8, u32)>) -> String {
    let parts: Vec<String> = pairs
        .map(|(id, v)| match Feature::from_id(id) {
            Some(f) => format!("{}={v}", f.name()),
            None => format!("feature#{id}={v}"),
        })
        .collect();
    if parts.is_empty() {
        "baseline".to_string()
    } else {
        parts.join(",")
    }
}

/// A numerics table decoded from a frame. Kept separate from
/// [`NumericsConfig`] because a frame written by a newer binary may carry
/// feature ids this build does not know; they are preserved for reporting
/// but excluded from staleness decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedNumerics {
    /// `(feature id, version)` non-baseline entries, id-sorted.
    pairs: Vec<(u8, u32)>,
}

impl RecordedNumerics {
    /// The table a frame without a recorded config (v1/v2 legacy frames)
    /// was produced under: everything baseline, by the byte-stability
    /// contract.
    pub fn legacy_baseline() -> RecordedNumerics {
        RecordedNumerics { pairs: Vec::new() }
    }

    /// Decode a frame's numerics section.
    pub fn from_bytes(bytes: &[u8]) -> Result<RecordedNumerics, String> {
        let [version, count, rest @ ..] = bytes else {
            return Err(format!("numerics section of {} bytes", bytes.len()));
        };
        if *version != SER_VERSION {
            return Err(format!("numerics serialization version {version}"));
        }
        if rest.len() != *count as usize * 5 {
            return Err(format!(
                "numerics section claims {count} entries but has {} entry bytes",
                rest.len()
            ));
        }
        let mut pairs = Vec::with_capacity(*count as usize);
        for chunk in rest.chunks_exact(5) {
            let id = chunk[0];
            let v = u32::from_le_bytes(chunk[1..5].try_into().expect("4-byte slice"));
            pairs.push((id, v));
        }
        pairs.sort();
        Ok(RecordedNumerics { pairs })
    }

    /// Recorded version of a feature (absent = baseline).
    pub fn version(&self, feature: Feature) -> u32 {
        self.pairs
            .iter()
            .find(|(id, _)| *id == feature.id())
            .map(|(_, v)| *v)
            .unwrap_or(BASELINE_VERSION)
    }

    /// The non-baseline entries as a slice label (see
    /// [`NumericsConfig::fingerprint`]); unknown ids render as
    /// `feature#<id>=<v>`.
    pub fn fingerprint(&self) -> String {
        fingerprint_of(self.pairs.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_key_material_is_exactly_the_old_salt() {
        let cfg = NumericsConfig::baseline();
        for slice in [
            Slice::Reference,
            Slice::Outcome { format: None },
            Slice::Outcome { format: Some(0) },
            Slice::Outcome { format: Some(6) },
            Slice::Outcome { format: Some(11) },
        ] {
            assert_eq!(cfg.key_material(slice), BASE_SALT.to_le_bytes().to_vec(), "{slice:?}");
        }
    }

    #[test]
    fn bumps_touch_exactly_the_relevant_slices() {
        let base = NumericsConfig::baseline();
        let outcome = |id: u8| Slice::Outcome { format: Some(id) };

        // batch_round reaches exactly the soft-float (16/32/64-bit
        // emulated) outcome slices, never references, natives or 8-bit LUT
        // formats.
        let bumped = base.with_version(BATCH_ROUND, 2);
        assert_eq!(bumped.key_material(Slice::Reference), base.key_material(Slice::Reference));
        for id in 0..FORMAT_COUNT as u8 {
            let changed = bumped.key_material(outcome(id)) != base.key_material(outcome(id));
            let soft = FORMAT_CLASSES[id as usize] == FormatClass::Soft;
            assert_eq!(changed, soft, "format id {id}");
        }

        // The retired dec16_tables feature moves no key at all.
        let bumped = base.with_version(DEC16_TABLES, 2);
        assert_eq!(bumped.key_material(Slice::Reference), base.key_material(Slice::Reference));
        for id in 0..FORMAT_COUNT as u8 {
            assert_eq!(
                bumped.key_material(outcome(id)),
                base.key_material(outcome(id)),
                "format id {id}"
            );
        }

        // dd_reference reaches everything.
        let bumped = base.with_version(DD_REFERENCE, 2);
        assert_ne!(bumped.key_material(Slice::Reference), base.key_material(Slice::Reference));
        for id in 0..FORMAT_COUNT as u8 {
            assert_ne!(bumped.key_material(outcome(id)), base.key_material(outcome(id)));
        }

        // A per-format codec feature reaches only its own outcome slice.
        let bumped = base.with_version(Feature::for_format(6).unwrap(), 3);
        assert_eq!(bumped.key_material(Slice::Reference), base.key_material(Slice::Reference));
        for id in 0..FORMAT_COUNT as u8 {
            assert_eq!(
                bumped.key_material(outcome(id)) != base.key_material(outcome(id)),
                id == 6,
                "format id {id}"
            );
        }
    }

    #[test]
    fn serialization_round_trips_and_tolerates_unknown_ids() {
        let base = NumericsConfig::baseline();
        assert_eq!(base.to_bytes(), vec![SER_VERSION, 0]);
        let rec = RecordedNumerics::from_bytes(&base.to_bytes()).unwrap();
        assert_eq!(rec, RecordedNumerics::legacy_baseline());
        assert_eq!(rec.fingerprint(), "baseline");

        let bumped = base.with_version(BATCH_ROUND, 2).with_version(DEC16_TABLES, 7);
        let rec = RecordedNumerics::from_bytes(&bumped.to_bytes()).unwrap();
        assert_eq!(rec.version(BATCH_ROUND), 2);
        assert_eq!(rec.version(DEC16_TABLES), 7);
        assert_eq!(rec.version(DD_REFERENCE), BASELINE_VERSION);
        assert_eq!(rec.fingerprint(), "dec16_tables=7,batch_round=2");

        // A frame from a newer binary: unknown id 200 is preserved in the
        // fingerprint but never drives staleness.
        let mut bytes = bumped.to_bytes();
        bytes[1] += 1;
        bytes.extend_from_slice(&[200, 9, 0, 0, 0]);
        let rec = RecordedNumerics::from_bytes(&bytes).unwrap();
        assert!(rec.fingerprint().contains("feature#200=9"));
        assert!(!NumericsConfig::baseline()
            .with_version(BATCH_ROUND, 2)
            .with_version(DEC16_TABLES, 7)
            .invalidates(Slice::Outcome { format: Some(6) }, &rec));

        // Structural garbage is rejected, not misread.
        assert!(RecordedNumerics::from_bytes(&[]).is_err());
        assert!(RecordedNumerics::from_bytes(&[2, 0]).is_err());
        assert!(RecordedNumerics::from_bytes(&[1, 2, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn invalidation_matches_relevance() {
        let legacy = RecordedNumerics::legacy_baseline();
        let current = NumericsConfig::baseline().with_version(BATCH_ROUND, 2);
        assert!(!current.invalidates(Slice::Reference, &legacy));
        assert!(current.invalidates(Slice::Outcome { format: Some(4) }, &legacy));
        assert!(!current.invalidates(Slice::Outcome { format: Some(0) }, &legacy));
        assert!(!current.invalidates(Slice::Outcome { format: Some(8) }, &legacy));
        // A legacy outcome frame without a recorded format: batch_round is
        // not universally relevant, so it survives (conservative keep)...
        assert!(!current.invalidates(Slice::Outcome { format: None }, &legacy));
        // ...but a universally relevant bump does reach it.
        let current = NumericsConfig::baseline().with_version(ARNOLDI_RESTART, 2);
        assert!(current.invalidates(Slice::Outcome { format: None }, &legacy));
        assert!(current.invalidates(Slice::Reference, &legacy));

        // Matching recorded/current non-baseline versions are not stale.
        let rec = RecordedNumerics::from_bytes(
            &NumericsConfig::baseline().with_version(BATCH_ROUND, 2).to_bytes(),
        )
        .unwrap();
        let current = NumericsConfig::baseline().with_version(BATCH_ROUND, 2);
        assert!(!current.invalidates(Slice::Outcome { format: Some(4) }, &rec));
        // And going back down (current baseline, recorded bumped) is stale.
        assert!(NumericsConfig::baseline().invalidates(Slice::Outcome { format: Some(4) }, &rec));
    }

    #[test]
    fn bump_spec_parses_and_rejects_typos() {
        let cfg = NumericsConfig::baseline()
            .with_bump_spec("batch_round=2, fmt_posit16=3")
            .unwrap();
        assert_eq!(cfg.version(BATCH_ROUND), 2);
        assert_eq!(cfg.version(Feature::from_name("fmt_posit16").unwrap()), 3);
        assert_eq!(cfg.version(DD_REFERENCE), 1);
        assert!(NumericsConfig::baseline().with_bump_spec("batch_rond=2").is_err());
        assert!(NumericsConfig::baseline().with_bump_spec("batch_round=x").is_err());
        assert!(NumericsConfig::baseline().with_bump_spec("batch_round").is_err());
    }

    #[test]
    fn feature_table_is_consistent() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        for f in Feature::all() {
            assert_eq!(Feature::from_name(f.name()), Some(f));
            assert_eq!(Feature::from_id(f.id()), Some(f));
        }
        assert_eq!(Feature::from_id(FEATURE_COUNT as u8), None);
        assert_eq!(Feature::for_format(13).map(|f| f.name()), Some("fmt_takum64"));
        assert_eq!(Feature::for_format(14), None);
        // Relevance sets are id-sorted and deduplicated.
        for slice in (0..FORMAT_COUNT as u8).map(|id| Slice::Outcome { format: Some(id) }) {
            let set = relevant_features(slice);
            let mut sorted = set.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(set, sorted);
        }
    }
}
