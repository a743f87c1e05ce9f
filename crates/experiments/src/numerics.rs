//! Harness-side view of the versioned numerics table.
//!
//! `lpa_numerics` owns the table itself; this module is the single place
//! where the versions the arithmetic tiers *declare*
//! (`lpa_arith::numerics_versions`, `lpa_arnoldi::ARNOLDI_RESTART_VERSION`)
//! are checked against the versions the table *claims*
//! ([`NumericsConfig::builtin`]). A one-sided bump — changing a kernel and
//! bumping only the tier constant, or only the table — fails here loudly
//! before any key is derived, instead of silently serving stale cached
//! artifacts.

pub use lpa_numerics::{
    relevant_features, Feature, FormatClass, NumericsConfig, RecordedNumerics, Slice,
    ARNOLDI_RESTART, BATCH_ROUND, DD_REFERENCE, LUT8_TABLES, SOFTFLOAT_KERNEL,
};

/// The builtin table's version of each feature a tier declares, checked
/// against the tier constant. Panics (once, with the offending feature
/// named) on mismatch.
fn check_declared(builtin: &NumericsConfig) {
    let declared = [
        (DD_REFERENCE, lpa_arith::numerics_versions::DD_REFERENCE),
        (ARNOLDI_RESTART, lpa_arnoldi::ARNOLDI_RESTART_VERSION),
        (SOFTFLOAT_KERNEL, lpa_arith::numerics_versions::SOFTFLOAT_KERNEL),
        (BATCH_ROUND, lpa_arith::numerics_versions::BATCH_ROUND),
        (LUT8_TABLES, lpa_arith::numerics_versions::LUT8_TABLES),
    ];
    for (feature, tier_version) in declared {
        assert_eq!(
            builtin.version(feature),
            tier_version,
            "numerics version mismatch for {:?}: NumericsConfig::builtin says {}, \
             the implementing tier declares {} — bump both in the same commit",
            feature.name(),
            builtin.version(feature),
            tier_version,
        );
    }
}

/// This process's effective numerics table ([`NumericsConfig::current`]),
/// with the tier-declaration cross-check run once per process.
pub fn checked_current() -> NumericsConfig {
    use std::sync::Once;
    static CHECK: Once = Once::new();
    CHECK.call_once(|| check_declared(&NumericsConfig::builtin()));
    NumericsConfig::current()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_table_matches_tier_declarations() {
        check_declared(&NumericsConfig::builtin());
    }

    #[test]
    fn format_ids_line_up_with_persist() {
        use crate::formats::FormatTag;
        // The per-format feature names in lpa_numerics are ordered by the
        // stable wire ids persist::format_id assigns; a drift here would
        // attribute a codec bump to the wrong format's slice.
        let expect = [
            (FormatTag::Ofp8E4M3, "fmt_ofp8_e4m3"),
            (FormatTag::Ofp8E5M2, "fmt_ofp8_e5m2"),
            (FormatTag::Posit8, "fmt_posit8"),
            (FormatTag::Takum8, "fmt_takum8"),
            (FormatTag::Float16, "fmt_float16"),
            (FormatTag::Bfloat16, "fmt_bfloat16"),
            (FormatTag::Posit16, "fmt_posit16"),
            (FormatTag::Takum16, "fmt_takum16"),
            (FormatTag::Float32, "fmt_float32"),
            (FormatTag::Posit32, "fmt_posit32"),
            (FormatTag::Takum32, "fmt_takum32"),
            (FormatTag::Float64, "fmt_float64"),
            (FormatTag::Posit64, "fmt_posit64"),
            (FormatTag::Takum64, "fmt_takum64"),
        ];
        for (tag, name) in expect {
            let id = crate::persist::format_id(tag);
            assert_eq!(Feature::for_format(id).map(|f| f.name()), Some(name), "{tag:?}");
        }
    }

    #[test]
    fn native_formats_are_immune_to_kernel_bumps() {
        // f32/f64 round in hardware; no emulated-kernel feature may reach
        // their outcome slices.
        for id in [8u8, 11] {
            let slice = Slice::Outcome { format: Some(id) };
            let relevant = relevant_features(slice);
            for f in [SOFTFLOAT_KERNEL, BATCH_ROUND, LUT8_TABLES] {
                assert!(!relevant.contains(&f), "format id {id} vs {:?}", f.name());
            }
        }
    }
}
