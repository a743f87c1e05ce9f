//! Ablation: does exploiting symmetry (dense tridiagonal path) change the
//! format ranking relative to the untailored general Krylov-Schur path?
//! Both paths run at the element type the experiment pipeline solves each
//! format at: float16 at its own (binary32-carrier) type, the tapered
//! formats at `Decoded<T>`.
use lpa_arith::types::{Posit16, Takum16, F16};
use lpa_arith::Decoded;

use lpa_arnoldi::{partial_schur, ArnoldiOptions};
use lpa_dense::eigen_sym::symmetric_eigenvalues;
use lpa_datagen::{general_corpus, CorpusConfig};

fn spectrum_error<T: lpa_arith::Real>(m: &lpa_sparse::CsrMatrix<f64>, via_arnoldi: bool) -> Option<f64> {
    let reference = {
        let mut e = symmetric_eigenvalues(&m.to_dense()).ok()?;
        e.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        e.truncate(6);
        e
    };
    let computed: Vec<f64> = if via_arnoldi {
        let a = m.convert::<T>();
        let opts = ArnoldiOptions { nev: 6, tol: 1e-4, max_restarts: 60, ..Default::default() };
        let (ps, _) = partial_schur(&a, &opts).ok()?;
        let mut e: Vec<f64> = ps.real_eigenvalues().iter().map(|x| x.to_f64()).collect();
        e.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        e.truncate(6);
        e
    } else {
        let a = m.to_dense().convert::<T>();
        let mut e: Vec<f64> =
            symmetric_eigenvalues(&a).ok()?.iter().map(|x| x.to_f64()).collect();
        e.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        e.truncate(6);
        e
    };
    let num: f64 = reference.iter().zip(&computed).map(|(r, c)| (r - c).powi(2)).sum();
    let den: f64 = reference.iter().map(|r| r * r).sum();
    Some((num / den).sqrt())
}

fn main() {
    println!("=== ablation: general Krylov-Schur vs symmetry-exploiting dense path ===");
    let corpus = general_corpus(&CorpusConfig { size_range: (40, 56), ..CorpusConfig::tiny() });
    let corpus: Vec<_> = corpus.into_iter().take(6).collect();
    println!("{:<12} {:>16} {:>16}", "format", "arnoldi(med)", "symmetric(med)");
    macro_rules! row {
        ($t:ty, $name:expr) => {{
            let mut a: Vec<f64> = corpus.iter().filter_map(|t| spectrum_error::<$t>(&t.matrix, true)).collect();
            let mut s: Vec<f64> = corpus.iter().filter_map(|t| spectrum_error::<$t>(&t.matrix, false)).collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            s.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let med = |v: &Vec<f64>| if v.is_empty() { f64::NAN } else { v[v.len() / 2] };
            println!("{:<12} {:>16.3e} {:>16.3e}", $name, med(&a), med(&s));
        }};
    }
    row!(F16, "float16");
    row!(Decoded<Posit16>, "posit16");
    row!(Decoded<Takum16>, "takum16");
    println!("(the format ranking should agree between the two paths)");
}
