//! Corpus assembly: the synthetic equivalents of the paper's two datasets.
//!
//! * [`general_corpus`] — symmetric "general matrices" (SuiteSparse
//!   substitute), filtered to at most `max_nnz` non-zeros exactly like the
//!   paper's ≤ 20 000 rule.
//! * [`graph_corpus`] — graphs organized in the Network Repository's 31
//!   categories and aggregated into the paper's four classes (Table 1); each
//!   graph is stored as its adjacency matrix and converted to a symmetric
//!   normalized Laplacian by [`graph_laplacian_corpus`].

use lpa_sparse::{normalized_laplacian, CsrMatrix};

use crate::general;
use crate::graphs;
use crate::testmatrix::{GraphClass, Source, TestMatrix};

/// Configuration of the synthetic corpora.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Base RNG seed; every matrix derives its own seed from it.
    pub seed: u64,
    /// Scale factor applied to the number of matrices per family/category.
    pub scale: usize,
    /// Matrix dimension range (min, max).
    pub size_range: (usize, usize),
    /// Largest admissible number of stored non-zeros (the paper uses 20 000).
    pub max_nnz: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { seed: 0x5EED, scale: 1, size_range: (48, 128), max_nnz: 20_000 }
    }
}

impl CorpusConfig {
    /// A small configuration for unit tests and quick benchmark runs.
    pub fn tiny() -> Self {
        CorpusConfig { seed: 7, scale: 1, size_range: (36, 60), max_nnz: 20_000 }
    }

    fn size(&self, index: usize, total: usize) -> usize {
        let (lo, hi) = self.size_range;
        if total <= 1 {
            return lo;
        }
        lo + (hi - lo) * index / (total - 1)
    }
}

/// The Network Repository's 31 categories with the class each one is
/// aggregated into (Table 1 of the paper) and the number of graphs generated
/// per unit of `scale`.  Categories that are empty in the paper (because of
/// its 500 kB size cap) stay empty here.
pub const GRAPH_CATEGORIES: &[(&str, GraphClass, usize)] = &[
    ("bio", GraphClass::Biological, 2),
    ("eco", GraphClass::Biological, 1),
    ("protein", GraphClass::Biological, 5),
    ("bn", GraphClass::Biological, 1),
    ("inf", GraphClass::Infrastructure, 1),
    ("massive", GraphClass::Infrastructure, 0),
    ("power", GraphClass::Infrastructure, 2),
    ("road", GraphClass::Infrastructure, 2),
    ("tech", GraphClass::Infrastructure, 1),
    ("web", GraphClass::Infrastructure, 2),
    ("ca", GraphClass::Social, 1),
    ("cit", GraphClass::Social, 1),
    ("dynamic", GraphClass::Social, 2),
    ("econ", GraphClass::Social, 1),
    ("email", GraphClass::Social, 1),
    ("ia", GraphClass::Social, 1),
    ("proximity", GraphClass::Social, 1),
    ("rec", GraphClass::Social, 1),
    ("retweet_graphs", GraphClass::Social, 2),
    ("rt", GraphClass::Social, 2),
    ("soc", GraphClass::Social, 2),
    ("socfb", GraphClass::Social, 2),
    ("tscc", GraphClass::Social, 1),
    ("dimacs", GraphClass::Miscellaneous, 2),
    ("dimacs10", GraphClass::Miscellaneous, 1),
    ("graph500", GraphClass::Miscellaneous, 0),
    ("heter", GraphClass::Miscellaneous, 0),
    ("labeled", GraphClass::Miscellaneous, 2),
    ("misc", GraphClass::Miscellaneous, 5),
    ("rand", GraphClass::Miscellaneous, 3),
    ("sc", GraphClass::Miscellaneous, 0),
];

fn mix_seed(base: u64, tag: &str, k: usize) -> u64 {
    let mut h = base ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15);
    for b in tag.bytes() {
        h = h.rotate_left(7) ^ (b as u64);
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// Generate one adjacency matrix for a given category.
fn graph_for_category(category: &str, n: usize, seed: u64) -> CsrMatrix<f64> {
    match category {
        "bio" | "bn" => graphs::stochastic_block_model(n, 5, 0.35, 0.02, seed),
        "eco" => graphs::bipartite(n / 2, n - n / 2, 0.15, seed),
        "protein" => graphs::protein_like(n, seed),
        "inf" | "power" => graphs::ring_with_chords(n, n / 6, seed),
        "road" => graphs::grid_2d((n as f64).sqrt() as usize + 1, (n as f64).sqrt() as usize, 3, seed),
        "tech" | "web" => graphs::barabasi_albert(n, 2, seed),
        "ca" | "cit" => graphs::barabasi_albert(n, 3, seed),
        "dynamic" | "ia" | "proximity" => graphs::watts_strogatz(n, 3, 0.2, seed),
        "econ" | "rec" => graphs::bipartite(n / 3, n - n / 3, 0.12, seed),
        "email" | "soc" | "socfb" | "tscc" => graphs::stochastic_block_model(n, 4, 0.3, 0.03, seed),
        "retweet_graphs" | "rt" => graphs::hub_and_spokes(n, 1 + n / 40, seed),
        "dimacs" | "dimacs10" | "labeled" => graphs::erdos_renyi(n, 0.12, seed),
        "misc" => match seed % 4 {
            0 => graphs::erdos_renyi(n, 0.08, seed),
            1 => graphs::watts_strogatz(n, 2, 0.4, seed),
            2 => graphs::barabasi_albert(n, 2, seed),
            _ => graphs::grid_2d(n / 8 + 2, 8, 6, seed),
        },
        "rand" => graphs::erdos_renyi(n, 0.15, seed),
        _ => graphs::erdos_renyi(n, 0.1, seed),
    }
}

/// Synthetic graph corpus: adjacency matrices grouped by category and class.
pub fn graph_corpus(cfg: &CorpusConfig) -> Vec<TestMatrix> {
    let mut out = Vec::new();
    for &(category, class, per_scale) in GRAPH_CATEGORIES {
        let count = per_scale * cfg.scale;
        for k in 0..count {
            let n = cfg.size(k, count.max(2));
            let seed = mix_seed(cfg.seed, category, k);
            let adjacency = graph_for_category(category, n, seed);
            if adjacency.nnz() == 0 || adjacency.nnz() > cfg.max_nnz {
                continue;
            }
            out.push(TestMatrix::new(
                format!("{category}/{category}-{k:03}"),
                category,
                Source::Graph(class),
                adjacency,
            ));
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The graph corpus with every adjacency matrix replaced by its symmetric
/// normalized Laplacian (the input the eigenvalue experiments actually use).
pub fn graph_laplacian_corpus(cfg: &CorpusConfig) -> Vec<TestMatrix> {
    graph_corpus(cfg)
        .into_iter()
        .map(|tm| {
            let lap = normalized_laplacian(&tm.matrix.symmetrize());
            TestMatrix::new(tm.name.clone(), tm.category.clone(), tm.source, lap)
        })
        .collect()
}

/// One generator family: label, `(size, seed, max_nnz) -> matrix` builder
/// (the dense random families give up with `None` as soon as they pass
/// `max_nnz`; the others are small-banded and filtered afterwards), and the
/// number of size variants drawn from it per scale unit.
type MatrixFamily = (&'static str, fn(usize, u64, usize) -> Option<CsrMatrix<f64>>, usize);

/// Synthetic general-matrix corpus (SuiteSparse substitute).
pub fn general_corpus(cfg: &CorpusConfig) -> Vec<TestMatrix> {
    let families: &[MatrixFamily] = &[
        ("lap1d", |n, _s, _c| Some(general::laplacian_1d(n, 1.0)), 2),
        ("lap1d-scaled", |n, _s, _c| Some(general::laplacian_1d(n, 1.0e4)), 1),
        ("lap2d", |n, _s, _c| Some(general::laplacian_2d(n / 8 + 2, 8, 1.0)), 2),
        ("toeplitz", |n, _s, _c| Some(general::banded_toeplitz(n, &[4.0, -2.0, 1.0, -0.5])), 2),
        ("randsym", |n, s, c| general::random_sparse_symmetric_within(n, 0.1, 0.0, s, c), 3),
        (
            "randsym-shifted",
            |n, s, c| general::random_sparse_symmetric_within(n, 0.1, 4.0, s, c),
            2,
        ),
        ("diagdom", |n, s, c| general::diagonally_dominant_within(n, 0.15, s, c), 2),
        ("widerange-mild", |n, s, _c| Some(general::wide_dynamic_range(n, 3.0, s)), 2),
        ("widerange-extreme", |n, s, _c| Some(general::wide_dynamic_range(n, 9.0, s)), 2),
        ("spring", |n, s, _c| Some(general::spring_chain(n, 3.0, s)), 2),
        ("spring-stiff", |n, s, _c| Some(general::spring_chain(n, 6.0, s)), 1),
    ];
    let mut out = Vec::new();
    for &(family, gen, per_scale) in families {
        let count = per_scale * cfg.scale;
        for k in 0..count {
            let n = cfg.size(k, count.max(2));
            let seed = mix_seed(cfg.seed ^ 0xABCD, family, k);
            let Some(m) = gen(n, seed, cfg.max_nnz) else {
                continue;
            };
            if m.nnz() == 0 || m.nnz() > cfg.max_nnz {
                continue;
            }
            debug_assert!(m.is_symmetric(0.0));
            out.push(TestMatrix::new(format!("{family}-{k:03}"), family, Source::General, m));
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Per-category counts of the graph corpus, the data behind the Table 1
/// reproduction.
pub fn category_counts(corpus: &[TestMatrix]) -> Vec<(String, GraphClass, usize)> {
    GRAPH_CATEGORIES
        .iter()
        .map(|&(cat, class, _)| {
            let count = corpus.iter().filter(|t| t.category == cat).count();
            (cat.to_string(), class, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_corpus_is_deterministic_and_classified() {
        let cfg = CorpusConfig::tiny();
        let a = graph_corpus(&cfg);
        let b = graph_corpus(&cfg);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix, y.matrix);
        }
        // Every populated class is present.
        for class in GraphClass::all() {
            assert!(a.iter().any(|t| t.class() == Some(class)), "missing class {class:?}");
        }
    }

    #[test]
    fn laplacian_corpus_has_unit_diagonals_and_bounded_entries() {
        let cfg = CorpusConfig::tiny();
        let laps = graph_laplacian_corpus(&cfg);
        assert_eq!(laps.len(), graph_corpus(&cfg).len());
        for t in laps.iter().take(8) {
            assert!(t.matrix.is_symmetric(1e-12), "{}", t.name);
            assert!(t.matrix.max_abs() <= 1.0 + 1e-12, "{}", t.name);
        }
    }

    #[test]
    fn general_corpus_respects_nnz_cap_and_symmetry() {
        let cfg = CorpusConfig::tiny();
        let gen = general_corpus(&cfg);
        assert!(gen.len() >= 15);
        for t in &gen {
            assert!(t.nnz() <= cfg.max_nnz);
            assert!(t.matrix.is_symmetric(0.0), "{}", t.name);
            assert_eq!(t.class(), None);
        }
        // The wide-range family must actually span many decades.
        let wide = gen.iter().find(|t| t.category == "widerange-extreme").unwrap();
        let ratio = wide.matrix.max_abs() / wide.matrix.min_abs_nonzero().unwrap();
        assert!(ratio > 1e12);
    }

    #[test]
    fn general_corpus_gives_up_on_oversized_matrices_without_changing_the_rest() {
        // The old way: every matrix built in full, then the nnz filter.
        fn built_in_full_then_filtered(cfg: &CorpusConfig) -> Vec<TestMatrix> {
            general_corpus(&CorpusConfig { max_nnz: usize::MAX, ..cfg.clone() })
                .into_iter()
                .filter(|t| t.nnz() <= cfg.max_nnz)
                .collect()
        }
        let configs = [
            CorpusConfig::tiny(),
            CorpusConfig::default(),
            // The figure-1 grid's corpus and the large-n one.
            CorpusConfig { seed: 3, scale: 1, size_range: (40, 72), max_nnz: 20_000 },
            CorpusConfig { size_range: (1000, 1500), ..CorpusConfig::default() },
        ];
        for cfg in &configs {
            let new = general_corpus(cfg);
            let old = built_in_full_then_filtered(cfg);
            let names = |c: &[TestMatrix]| c.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(&new), names(&old), "{cfg:?}");
            for (a, b) in new.iter().zip(&old) {
                assert_eq!(a.matrix, b.matrix, "{} in {cfg:?}", a.name);
            }
        }
    }

    #[test]
    fn category_counts_reflect_table_structure() {
        let cfg = CorpusConfig::tiny();
        let corpus = graph_corpus(&cfg);
        let counts = category_counts(&corpus);
        assert_eq!(counts.len(), 31);
        // Categories that are empty in the paper stay empty here.
        for empty in ["massive", "graph500", "heter", "sc"] {
            let (_, _, c) = counts.iter().find(|(n, _, _)| n == empty).unwrap();
            assert_eq!(*c, 0);
        }
        // The four classes all have at least one populated category.
        for class in GraphClass::all() {
            assert!(counts.iter().any(|(_, cl, c)| *cl == class && *c > 0));
        }
    }

    #[test]
    fn scale_increases_corpus_size() {
        let small = graph_corpus(&CorpusConfig { scale: 1, ..CorpusConfig::tiny() });
        let large = graph_corpus(&CorpusConfig { scale: 2, ..CorpusConfig::tiny() });
        assert!(large.len() > small.len());
    }
}
