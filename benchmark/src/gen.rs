//! Seeded input generators and the fingerprint used to compare outputs
//! bit for bit. The program under test receives only generated inputs;
//! `--seed` never reaches it any other way.

use linalg::Matrix;

/// SplitMix64: tiny, seedable, and good enough to draw graph shapes and
/// matrix entries. Owned by the benchmark so the inputs cannot change
/// under it when a library swaps its RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// FNV-1a over 64-bit words: the bit-identity currency for matrices and
/// label vectors (a differing bit anywhere changes the hash).
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn matrix_fingerprint(m: &Matrix) -> u64 {
    let mut fp = Fingerprint::new();
    fp.word(m.rows() as u64);
    fp.f64s(m.as_slice());
    fp.finish()
}

/// Dependency lists of the `sched_fine` DAG phase: task `i` reads
/// between one and `max_deps` distinct tasks among the `window` before
/// it (task 0 reads the root datum, encoded as an empty list).
pub fn fine_dag(seed: u64, tasks: usize, window: usize, max_deps: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed ^ 0xDA6);
    (0..tasks)
        .map(|i| {
            let reach = i.min(window);
            if reach == 0 {
                return Vec::new();
            }
            let want = 1 + rng.below(max_deps);
            let mut deps: Vec<u32> = (0..want)
                .map(|_| (i - 1 - rng.below(reach)) as u32)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        })
        .collect()
}

/// Depth of every task of [`fine_dag`] when each body returns
/// `max(inputs) + 1` and the root datum is 0 — the oracle of the phase.
pub fn fine_dag_depths(dag: &[Vec<u32>]) -> Vec<u64> {
    let mut depth = Vec::with_capacity(dag.len());
    for deps in dag {
        let d = deps.iter().map(|&j| depth[j as usize]).max().unwrap_or(0) + 1;
        depth.push(d);
    }
    depth
}

/// The `pca_dist` input: a low-rank signal plus noise, so the leading
/// eigenvalues are well separated and the projection is well defined.
pub fn dist_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    const RANK: usize = 24;
    let mut rng = Rng::new(seed ^ 0xD157);
    let basis: Vec<f64> = (0..RANK * cols).map(|_| rng.unit()).collect();
    let mut m = Matrix::zeros(rows, cols);
    let mut weights = [0.0; RANK];
    for r in 0..rows {
        for (k, w) in weights.iter_mut().enumerate() {
            *w = rng.unit() * (RANK - k) as f64;
        }
        for (c, v) in m.row_mut(r).iter_mut().enumerate() {
            let signal: f64 = (0..RANK).map(|k| weights[k] * basis[k * cols + c]).sum();
            *v = signal + 0.1 * rng.unit();
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dag_fp(dag: &[Vec<u32>]) -> u64 {
        let mut fp = Fingerprint::new();
        for deps in dag {
            fp.word(deps.len() as u64);
            deps.iter().for_each(|&d| fp.word(u64::from(d)));
        }
        fp.finish()
    }

    #[test]
    fn dag_is_deterministic_per_seed_and_well_formed() {
        let a = fine_dag(1, 5000, 64, 8);
        assert_eq!(dag_fp(&a), dag_fp(&fine_dag(1, 5000, 64, 8)));
        assert_ne!(dag_fp(&a), dag_fp(&fine_dag(2, 5000, 64, 8)));
        assert!(a[0].is_empty());
        for (i, deps) in a.iter().enumerate().skip(1) {
            assert!((1..=8).contains(&deps.len()));
            assert!(deps.windows(2).all(|w| w[0] < w[1]), "distinct, sorted");
            assert!(deps
                .iter()
                .all(|&d| (d as usize) < i && i - d as usize <= 64));
        }
        let depths = fine_dag_depths(&a);
        assert_eq!(depths[0], 1);
        assert!(depths
            .iter()
            .zip(&a)
            .skip(1)
            .all(|(&d, deps)| deps.iter().all(|&j| depths[j as usize] < d)));
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let a = dist_matrix(1, 64, 12);
        assert_eq!(
            matrix_fingerprint(&a),
            matrix_fingerprint(&dist_matrix(1, 64, 12))
        );
        assert_ne!(
            matrix_fingerprint(&a),
            matrix_fingerprint(&dist_matrix(2, 64, 12))
        );
        assert_eq!(a.shape(), (64, 12));
        assert!(a.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fingerprint_sees_single_bit_and_length() {
        let fp = |xs: &[f64]| {
            let mut f = Fingerprint::new();
            f.f64s(xs);
            f.finish()
        };
        assert_ne!(fp(&[0.0]), fp(&[-0.0]));
        assert_ne!(fp(&[1.0, 2.0]), fp(&[2.0, 1.0]));
        assert_ne!(fp(&[]), fp(&[0.0]));
    }
}
