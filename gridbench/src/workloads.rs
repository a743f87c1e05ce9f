//! The benchmark's workloads: which matrices each grid runs and whether it
//! is served from a store.

use lpa_datagen::{general_corpus, CorpusConfig, TestMatrix};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The figure-1 grid, computed from scratch.
    Fig1Cold,
    /// Two tridiagonals with n = 1000 and 1500, computed from scratch.
    LargeNCold,
    /// The figure-1 grid, replayed from a store populated during set-up.
    Fig1Warm,
}

/// Matrices of the figure-1 grid (the `reproduce` default of 6).
const FIG1_MATRICES: usize = 6;

/// Figure-1 corpora per `fig1-cold` round. Which matrices a corpus seed
/// draws moves a grid's solver work by several percent, so a round times
/// the grid on several corpora and reports the mean.
const FIG1_CORPORA: u64 = 3;

/// The large-n matrices: general-corpus families whose double-double
/// reference still converges at n ≈ 1000–1500 within the restart budget.
const LARGE_N_MATRICES: [&str; 2] = ["spring-stiff-000", "widerange-mild-001"];

/// The corpus seed of the large-n matrices (the figure harness's). It does
/// not follow `--seed`: at this size one random draw moves the grid's wall
/// time by a quartile spread of 10–40% of its median (whether and how fast
/// the 32-bit cells converge depends on the draw), wider than any bound the
/// benchmark could keep.
const LARGE_N_SEED: u64 = 0x5EED;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig1Cold, Workload::LargeNCold, Workload::Fig1Warm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Cold => "fig1-cold",
            Workload::LargeNCold => "large-n-cold",
            Workload::Fig1Warm => "fig1-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the measured grid is served from a store.
    pub fn warm(self) -> bool {
        self == Workload::Fig1Warm
    }

    /// The corpora whose grids one round runs, for benchmark seed `seed`:
    /// `fig1-cold` uses corpus seeds `3·seed`, `3·seed + 1` and
    /// `3·seed + 2`, `fig1-warm` the first of them, and `large-n-cold` its
    /// fixed seed (see [`LARGE_N_SEED`]).
    pub fn corpora(self, seed: u64) -> Vec<Vec<TestMatrix>> {
        let first = seed.wrapping_mul(FIG1_CORPORA);
        match self {
            Workload::Fig1Cold => (0..FIG1_CORPORA)
                .map(|k| fig1_corpus(first.wrapping_add(k)))
                .collect(),
            Workload::Fig1Warm => vec![fig1_corpus(first)],
            Workload::LargeNCold => {
                vec![general_corpus(&corpus_config(LARGE_N_SEED, (1000, 1500)))
                    .into_iter()
                    .filter(|t| LARGE_N_MATRICES.contains(&t.name.as_str()))
                    .collect()]
            }
        }
    }
}

/// The figure-1 grid's matrices: evenly spaced picks in name order from
/// the general corpus at n 40–72, as the figure harness subsamples it.
fn fig1_corpus(seed: u64) -> Vec<TestMatrix> {
    let corpus = general_corpus(&corpus_config(seed, (40, 72)));
    let step = corpus.len() as f64 / FIG1_MATRICES as f64;
    let picks: Vec<usize> = (0..FIG1_MATRICES)
        .map(|i| (i as f64 * step) as usize)
        .collect();
    corpus
        .into_iter()
        .enumerate()
        .filter(|(i, _)| picks.contains(i))
        .map(|(_, t)| t)
        .collect()
}

fn corpus_config(seed: u64, size_range: (usize, usize)) -> CorpusConfig {
    CorpusConfig {
        seed,
        scale: 1,
        size_range,
        max_nnz: 20_000,
    }
}
