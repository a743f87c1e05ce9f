//! Golden pin of the computed numerics.
//!
//! Every other identity test in the workspace compares two code paths
//! inside one build, so a change that moves *both* paths the same way goes
//! unnoticed.  This test compares against values committed to the tree
//! instead (`tests/fixtures/numerics_golden.txt`):
//!
//! * **cells** — a small (2 matrices × all 14 formats) figure grid; each
//!   cell is pinned by the hex of its `persist::encode_outcome` bytes, the
//!   exact payload the store persists;
//! * **schur** — the bits of `T` and `Z` from `lpa_dense::schur` plus one
//!   `reorder_schur`, for fixed matrices with complex pairs, deflated
//!   zero blocks and saturating entries, in every format at the element
//!   type the pipeline solves it at (`Decoded<T>` for the 16/32/64-bit
//!   posits and takums, the format's own type for the rest), or the error
//!   it returns.
//!
//! A mismatch means the numerics changed.  If that was intended, bump the
//! owning feature in `lpa_numerics` (and the tier's declared constant) so
//! stores rekey, then regenerate the fixture with
//! `cargo test -p lpa-experiments --test numerics_golden -- --ignored`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use lpa_arith::{
    Bf16, Decoded, Posit16, Posit32, Posit64, Posit8, Real, Takum16, Takum32, Takum64, Takum8,
    UnpackedReal, E4M3, E5M2, F16,
};
use lpa_datagen::{general_corpus, CorpusConfig, TestMatrix};
use lpa_dense::ordschur::reorder_schur;
use lpa_dense::schur::{block_structure, schur};
use lpa_dense::DMatrix;
use lpa_experiments::{persist, ExperimentConfig, ExperimentPlan, FormatTag};
use lpa_store::Hasher128;

const BUMP_HINT: &str =
    "numerics changed: bump the owning feature in `lpa_numerics` and regenerate";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/numerics_golden.txt")
}

/// Raw storage bits of a scalar, for hashing exact outputs.
trait Bits: Real {
    fn bits(self) -> u64;
}

/// A decoded value hashes as the bits it encodes to.
impl<T: UnpackedReal + Bits> Bits for Decoded<T> {
    fn bits(self) -> u64 {
        self.encode().bits()
    }
}

macro_rules! bits_via_to_bits {
    ($($t:ty),*) => {$(
        impl Bits for $t {
            fn bits(self) -> u64 {
                self.to_bits() as u64
            }
        }
    )*};
}

bits_via_to_bits!(
    E4M3, E5M2, Posit8, Takum8, F16, Bf16, Posit16, Takum16, f32, Posit32, Takum32, f64, Posit64,
    Takum64
);

fn hash_matrices<T: Bits>(ms: &[&DMatrix<T>]) -> String {
    let mut h = Hasher128::new();
    for m in ms {
        h.write_usize(m.nrows());
        h.write_usize(m.ncols());
        for &x in m.as_slice() {
            h.write_u64(x.bits());
        }
    }
    h.finish().to_hex()
}

/// `schur` then `reorder_schur` (every other diagonal block to the front),
/// pinned by the bits of both factors after each step.
fn schur_pin<T: Bits>(a: &DMatrix<f64>) -> String {
    let a: DMatrix<T> = a.convert();
    let s = match schur(&a) {
        Ok(s) => s,
        Err(e) => return format!("schur-err:{e:?}"),
    };
    let after_schur = hash_matrices(&[&s.t, &s.z]);
    let (mut t, mut z) = (s.t, s.z);
    let select: Vec<bool> = (0..block_structure(&t).len()).map(|i| i % 2 == 1).collect();
    match reorder_schur(&mut t, &mut z, &select) {
        Ok(rows) => format!("{after_schur}:{rows}:{}", hash_matrices(&[&t, &z])),
        Err(e) => format!("{after_schur}:reorder-err:{e:?}"),
    }
}

fn schur_pin_all(a: &DMatrix<f64>) -> Vec<(&'static str, String)> {
    vec![
        ("ofp8-e4m3", schur_pin::<E4M3>(a)),
        ("ofp8-e5m2", schur_pin::<E5M2>(a)),
        ("posit8", schur_pin::<Posit8>(a)),
        ("takum8", schur_pin::<Takum8>(a)),
        ("float16", schur_pin::<F16>(a)),
        ("bfloat16", schur_pin::<Bf16>(a)),
        ("posit16", schur_pin::<Decoded<Posit16>>(a)),
        ("takum16", schur_pin::<Decoded<Takum16>>(a)),
        ("float32", schur_pin::<f32>(a)),
        ("posit32", schur_pin::<Decoded<Posit32>>(a)),
        ("takum32", schur_pin::<Decoded<Takum32>>(a)),
        ("float64", schur_pin::<f64>(a)),
        ("posit64", schur_pin::<Decoded<Posit64>>(a)),
        ("takum64", schur_pin::<Decoded<Takum64>>(a)),
    ]
}

/// Deterministic values in [-1, 1) (a fixed LCG, independent of the
/// vendored `rand`).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// The fixed dense inputs: the shapes the projected phase sees, plus the
/// edge cases that exercise deflation and saturation.
fn schur_inputs() -> Vec<(&'static str, DMatrix<f64>)> {
    let mut r = lcg(11);
    // Dense nonsymmetric: complex pairs.
    let nonsym = DMatrix::from_fn(14, 14, |_, _| r());
    // A Krylov–Schur restart matrix: quasi-triangular leading block plus
    // a spike row, like `b` after a restart.
    let mut r = lcg(23);
    let n = 21;
    let spike_row = 12;
    let restart = DMatrix::from_fn(n, n, |i, j| {
        let v = r();
        if i == spike_row && j < spike_row {
            0.1 * v
        } else if i <= j || i > spike_row {
            if i == j {
                4.0 - 0.3 * i as f64 + 0.1 * v
            } else {
                v
            }
        } else {
            0.0
        }
    });
    // Zero-heavy with exact zero subdiagonals (immediate deflations and
    // several active windows).
    let mut r = lcg(5);
    let zero_heavy = DMatrix::from_fn(16, 16, |i, j| {
        let v = r();
        if (i == j + 1 && i % 4 == 0) || v.abs() < 0.55 {
            0.0
        } else {
            3.0 * v
        }
    });
    // Saturating: entries spanning ten decades, so the narrow formats
    // overflow (IEEE) or saturate (posit/takum) inside the QR sweeps.
    let mut r = lcg(97);
    let saturating = DMatrix::from_fn(12, 12, |i, j| {
        let v = r();
        v * 10f64.powi(((i * 7 + j * 3) % 11) as i32 - 5)
    });
    // In range for the narrow formats, but the sweeps' shift polynomial
    // and updates overflow E4M3 (|h|² > 448) and float16 (> 65504): the
    // non-finite paths through the Francis step.
    let mut r = lcg(41);
    let overflow8 = DMatrix::from_fn(10, 10, |_, _| 24.0 * r());
    let mut r = lcg(43);
    let overflow16 = DMatrix::from_fn(10, 10, |_, _| 300.0 * r());
    vec![
        ("nonsym14", nonsym),
        ("overflow8", overflow8),
        ("overflow16", overflow16),
        ("restart21", restart),
        ("zeroheavy16", zero_heavy),
        ("saturating12", saturating),
    ]
}

/// The grid's matrices: a well-conditioned one and one whose entries span
/// a wide dynamic range (out of range for some 8-bit formats).
const GRID_MATRICES: [&str; 2] = ["diagdom-000", "widerange-extreme-000"];

/// The small figure grid: two general matrices (n 24–36) × all 14 formats,
/// at the figure benches' solver settings.
fn grid_lines() -> Vec<String> {
    let corpus: Vec<TestMatrix> = general_corpus(&CorpusConfig {
        scale: 1,
        size_range: (24, 36),
        ..CorpusConfig::tiny()
    })
    .into_iter()
    .filter(|m| GRID_MATRICES.contains(&m.name.as_str()))
    .collect();
    assert_eq!(
        corpus.len(),
        GRID_MATRICES.len(),
        "golden grid matrices missing from the corpus"
    );
    let cfg = ExperimentConfig {
        max_restarts: 80,
        ..Default::default()
    };
    let results = ExperimentPlan::over(&corpus)
        .formats(&FormatTag::all())
        .config(cfg)
        .threads(1)
        .run();
    assert_eq!(
        results.matrices.len(),
        2,
        "a reference solve failed in the golden grid"
    );
    let mut lines = Vec::new();
    for m in &results.matrices {
        for (format, outcome) in &m.outcomes {
            let hex: String = persist::encode_outcome(outcome)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            lines.push(format!(
                "cell {} {} {hex}",
                m.name,
                format.name().replace(' ', "-")
            ));
        }
    }
    lines
}

fn schur_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, a) in schur_inputs() {
        for (format, pin) in schur_pin_all(&a) {
            lines.push(format!("schur {name} {format} {pin}"));
        }
    }
    lines
}

fn current_lines() -> Vec<String> {
    let mut lines = grid_lines();
    lines.extend(schur_lines());
    lines
}

/// `key -> value` where the key is everything before the last field.
fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.rsplit_once(' ').expect("fixture line has a value field");
            (k.to_string(), v.to_string())
        })
        .collect()
}

#[test]
fn numerics_match_the_committed_golden_fixture() {
    let text = std::fs::read_to_string(fixture_path()).expect("read the golden fixture");
    let expected = parse(&text);
    let actual = parse(&current_lines().join("\n"));
    assert!(!expected.is_empty(), "the golden fixture is empty");
    let mut diffs = Vec::new();
    for (key, want) in &expected {
        match actual.get(key) {
            Some(got) if got == want => {}
            Some(got) => diffs.push(format!("{key}: expected {want}, got {got}")),
            None => diffs.push(format!("{key}: missing from this build")),
        }
    }
    for key in actual.keys().filter(|k| !expected.contains_key(*k)) {
        diffs.push(format!("{key}: not in the fixture"));
    }
    assert!(diffs.is_empty(), "{BUMP_HINT}\n{}", diffs.join("\n"));
}

/// Rewrites the fixture from this build.  Only for an intended numerics
/// change that has bumped its feature version (see the module docs).
#[test]
#[ignore]
fn regenerate_numerics_golden_fixture() {
    let mut text = String::from(
        "# Golden numerics: `cell <matrix> <format> <encode_outcome hex>` and\n\
         # `schur <input> <format> <T,Z hash>:<reordered rows>:<T,Z hash>`.\n\
         # Regenerate only together with an lpa_numerics feature bump.\n",
    );
    for line in current_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, text).unwrap();
}
