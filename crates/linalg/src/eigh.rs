//! Symmetric eigendecomposition (`numpy.linalg.eigh` replacement).
//!
//! The classical two-phase dense symmetric solver (the EISPACK/JAMA
//! `tred2` + `tql2` recurrences), laid out for the row-major [`Matrix`]
//! it runs on:
//!
//! 1. **Householder tridiagonalization** ([`reduce`], [`accumulate`]):
//!    reduce the symmetric input `A` to tridiagonal form `T = Q^T A Q`,
//!    then accumulate the orthogonal transform `Q`.
//! 2. **Implicit-shift QL iteration** ([`ql_implicit`]): diagonalize `T`,
//!    applying the Givens rotations to `Q` so it ends up holding the
//!    eigenvectors.
//!
//! **Transposed storage.** Both phases only ever combine *columns* of
//! `Q` (a column dotted with a vector, a column updated by a vector, two
//! columns rotated against each other). The working matrix therefore
//! holds `Q^T`: column `j` of `Q` is the contiguous row `j`, and every
//! O(n^3) inner loop is a [`dot`], an AXPY or a two-row rotation over
//! slices that the compiler vectorizes. The input is symmetric, so
//! starting from the transpose costs nothing, and the transpose is
//! undone for free inside the final sort's permutation copy.
//!
//! [`eigh`] returns every eigenpair, eigenvalues in **ascending** order
//! (as `numpy.linalg.eigh` does); [`eigh_top`] the leading `k` in the
//! descending order PCA wants, forming those `k` vectors only.
//!
//! Both run their body, and every helper it inlines, through
//! [`crate::sgemm::wide!`]: eight `f64` lanes on AVX-512F hosts, four
//! on AVX2 hosts, the same bits as the baseline build.

use crate::matrix::{dot, Matrix};
use crate::sgemm::wide;

/// Result of [`eigh`]: `a = vectors * diag(values) * vectors^T`.
#[derive(Debug, Clone)]
pub struct EighResult {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per **column**, aligned with
    /// `values`.
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a real symmetric matrix.
///
/// The input is symmetrized internally (`(A + A^T) / 2`), so slight
/// asymmetry from floating-point accumulation is tolerated.
///
/// # Panics
/// Panics if `a` is not square, or with `eigh: non-finite input at
/// (r, c)` if it holds a NaN or an infinity.
pub fn eigh(a: &Matrix) -> EighResult {
    wide!(eigh_body(a))
}

/// [`eigh`], for [`wide!`] to inline.
#[inline(always)]
fn eigh_body(a: &Matrix) -> EighResult {
    let Some(mut qt) = symmetrized(a) else {
        return EighResult {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        };
    };
    let n = qt.rows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    reduce(&mut qt, &mut d, &mut e);
    accumulate(&mut qt, &mut d);
    ql_implicit(&mut d, &mut e, |i, c, s| rotate_rows(&mut qt, i, c, s));
    let order = ascending(&d);
    let vectors = sorted_columns(qt, &order);
    EighResult {
        values: order.iter().map(|&i| d[i]).collect(),
        vectors,
    }
}

/// The leading eigenpairs only — what PCA keeps — for a fraction of
/// [`eigh`]'s vector work. `keep` sees every eigenvalue in
/// **descending** order and returns how many pairs `k` to return: those
/// values and, as `n x k` columns, the last `k` columns of
/// `eigh(a).vectors` reversed — up to rounding.
///
/// `Q` is never accumulated and the QL rotations are logged, not
/// applied: the full solver ends with `V^T = G_R .. G_1 Q^T`, so the
/// wanted columns are `V S = Q G_1^T .. G_R^T S` for the selector `S` —
/// the log replayed in reverse over `k`-wide rows, then the `n - 1`
/// reflectors applied to those `k` columns.
///
/// # Panics
/// As [`eigh`], and if `keep` returns 0 or more than the matrix order.
pub fn eigh_top(a: &Matrix, keep: impl FnOnce(&[f64]) -> usize) -> (Vec<f64>, Matrix) {
    wide!(eigh_top_body(a, keep))
}

/// [`eigh_top`], for [`wide!`] to inline.
#[inline(always)]
fn eigh_top_body(a: &Matrix, keep: impl FnOnce(&[f64]) -> usize) -> (Vec<f64>, Matrix) {
    let Some(mut qt) = symmetrized(a) else {
        return (vec![], Matrix::zeros(0, 0));
    };
    let n = qt.rows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    reduce(&mut qt, &mut d, &mut e);
    // `d` leaves the reduction holding each step's `h`; the diagonal of
    // the tridiagonal form is still on the diagonal of `qt`.
    let h = std::mem::replace(&mut d, (0..n).map(|i| qt.get(i, i)).collect());
    let log = ql_logged(&mut d, &mut e);

    let order = ascending(&d);
    let mut values: Vec<f64> = order.iter().rev().map(|&i| d[i]).collect();
    let k = keep(&values);
    assert!((1..=n).contains(&k), "eigh_top: k={k} outside 1..={n}");
    let mut v = Matrix::zeros(n, k);
    for (c, &src) in order.iter().rev().take(k).enumerate() {
        v.set(src, c, 1.0);
    }
    // The transpose of the rotation `(c, s)` is the rotation `(c, -s)`.
    for &(i, c, s) in log.iter().rev() {
        rotate_rows(&mut v, i, c, -s);
    }
    // Q = H_{n-1} .. H_1, and H_i = I - u u^T / h reflects the first i
    // coordinates with the u parked in row i of `qt`.
    let mut w = vec![0.0; k];
    for (i, &hi) in h.iter().enumerate().skip(1) {
        if hi == 0.0 {
            continue;
        }
        let u = &qt.row(i)[..i];
        let rows = &mut v.as_mut_slice()[..i * k];
        w.fill(0.0);
        for (row, &ur) in rows.chunks_exact(k).zip(u) {
            axpy(&mut w, ur, row);
        }
        for (row, &ur) in rows.chunks_exact_mut(k).zip(u) {
            axpy(row, -ur / hi, &w);
        }
    }
    qt.into_pool();
    values.truncate(k);
    (values, v)
}

/// The symmetrized working copy `(A + A^T) / 2` of a square input
/// (`None` if empty), from the buffer pool: repeated fits — CV folds,
/// benches — recycle this n*n scratch. Exactly symmetric, so it is its
/// own transpose and doubles as the initial `Q^T`.
#[inline(always)]
fn symmetrized(a: &Matrix) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "eigh requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return None;
    }
    if let Some(i) = a.as_slice().iter().position(|v| !v.is_finite()) {
        panic!("eigh: non-finite input at ({}, {})", i / n, i % n);
    }
    let mut qt = Matrix::from_pool(n, n);
    for r in 0..n {
        for c in r..n {
            let s = 0.5 * (a.get(r, c) + a.get(c, r));
            qt.set(r, c, s);
            qt.set(c, r, s);
        }
    }
    Some(qt)
}

/// Givens rotation of rows `i` and `i + 1` of `m`.
#[inline(always)]
fn rotate_rows(m: &mut Matrix, i: usize, c: f64, s: f64) {
    let w = m.cols();
    let (lo, hi) = m.as_mut_slice()[i * w..(i + 2) * w].split_at_mut(w);
    for (x, y) in lo.iter_mut().zip(hi) {
        let (xi, yi) = (*x, *y);
        *y = s * xi + c * yi;
        *x = c * xi - s * yi;
    }
}

/// `y += alpha * x` over equal-length slices.
#[inline(always)]
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yk, &xk) in y.iter_mut().zip(x) {
        *yk += alpha * xk;
    }
}

/// Householder reduction to tridiagonal form. `qt` enters as the
/// symmetric input and leaves with the tridiagonal's diagonal on its own
/// diagonal; `e` gets the sub-diagonal (`e[0] == 0`) and `d[i]` the
/// scalar `h` of step `i`.
///
/// Only the upper triangle of the shrinking active block is read (its
/// row `j` from the diagonal on is the JAMA code's column `j` from the
/// diagonal down); the Householder vector of step `i` is parked in the
/// lower part of row `i`, for [`accumulate`] or [`eigh_top`] to consume.
#[inline(always)]
fn reduce(qt: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    d.copy_from_slice(qt.row(n - 1));

    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|v| v.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for (j, dj) in d[..i].iter_mut().enumerate() {
                *dj = qt.get(j, i - 1);
                qt.set(j, i, 0.0);
            }
            qt.row_mut(i)[..i].fill(0.0);
        } else {
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // e = A * d over the active block, from its upper triangle:
            // row j contributes its dot with d to e[j] and an AXPY to
            // the e[k] below it.
            qt.row_mut(i)[..i].copy_from_slice(&d[..i]);
            for j in 0..i {
                let f = d[j];
                let row = &qt.row(j)[..i];
                let g = e[j] + row[j] * f;
                e[j] = g + dot(&row[j + 1..], &d[j + 1..i]);
                axpy(&mut e[j + 1..i], f, &row[j + 1..]);
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            axpy(&mut e[..i], -hh, &d[..i]);
            // Rank-2 update of the active block's upper triangle.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut qt.row_mut(j)[j..i];
                for ((v, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *v -= f * ek + g * dk;
                }
                d[j] = qt.get(j, i - 1);
                qt.set(j, i, 0.0);
            }
        }
        d[i] = h;
    }
    e[0] = 0.0;
}

/// Accumulates the parked reflectors into `Q^T` and moves the
/// tridiagonal's diagonal into `d`: row i + 1 still holds the
/// Householder vector of step i + 1, which is applied to rows 0..=i.
#[inline(always)]
fn accumulate(qt: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    for i in 0..n - 1 {
        let diag = qt.get(i, i);
        qt.set(i, n - 1, diag);
        qt.set(i, i, 1.0);
        let h = d[i + 1];
        let (done, rest) = qt.as_mut_slice().split_at_mut((i + 1) * n);
        let u = &mut rest[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for row in done.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let g = dot(u, row);
                axpy(row, -g, &d[..=i]);
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = qt.get(j, n - 1);
        qt.set(j, n - 1, 0.0);
    }
    qt.set(n - 1, n - 1, 1.0);
}

/// Implicit-shift QL iteration on the tridiagonal (`d`, `e`). Each
/// Givens rotation `(i, c, s)` of rows `i` and `i + 1` of `Q^T` goes to
/// `rotate`, in the order the eigenvectors need them.
#[inline(always)]
fn ql_implicit(d: &mut [f64], e: &mut [f64], mut rotate: impl FnMut(usize, f64, f64)) {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    let eps = f64::EPSILON;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let m = (l..n)
            .find(|&m| e[m].abs() <= eps * tst1)
            .expect("the scan stops at e[n - 1] == 0");
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                assert!(iter <= 50, "eigh: QL iteration failed to converge");

                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;

                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rotate(i, c, s);
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

/// [`ql_implicit`] with its rotations logged for replay. The log grows
/// with what QL produces (0.5-1.2 n^2 rotations, at most 50 n^2 / 2).
#[inline(always)]
fn ql_logged(d: &mut [f64], e: &mut [f64]) -> Vec<(usize, f64, f64)> {
    let mut log = Vec::new();
    ql_implicit(d, e, |i, c, s| log.push((i, c, s)));
    log
}

/// The (stable) permutation that sorts the eigenvalues ascending.
fn ascending(d: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("finite eigenvalues"));
    order
}

/// The eigenvectors as **columns** in `order`: one pass both permutes
/// the rows of `qt` and undoes its transposed storage. Eight output
/// columns are filled together, so every write completes a cache line
/// while the eight source rows stream contiguously.
fn sorted_columns(qt: Matrix, order: &[usize]) -> Matrix {
    const TILE: usize = 8;
    let n = order.len();
    // Every element is assigned below, so the pool need not zero it.
    let mut v = Matrix::from_pool_full_overwrite(n, n);
    for (tile, srcs) in order.chunks(TILE).enumerate() {
        let c0 = tile * TILE;
        for r in 0..n {
            let out = &mut v.row_mut(r)[c0..c0 + srcs.len()];
            for (o, &src) in out.iter_mut().zip(srcs) {
                *o = qt.get(src, r);
            }
        }
    }
    qt.into_pool();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgemm::{supported_arms, with_arm};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The column-walking EISPACK/JAMA `tred2` + `tql2` this module
    /// shipped before the transposed-storage rewrite, kept verbatim as
    /// the eigenvalue oracle.
    mod jama {
        use crate::matrix::Matrix;

        /// Ascending eigenvalues of the symmetric matrix `a`.
        pub fn eigenvalues(a: &Matrix) -> Vec<f64> {
            let n = a.rows();
            let mut v = a.clone();
            let mut d = vec![0.0; n];
            let mut e = vec![0.0; n];
            tred2(&mut v, &mut d, &mut e);
            tql2(&mut v, &mut d, &mut e);
            d.sort_by(f64::total_cmp);
            d
        }

        // Index-based loops below mirror the EISPACK/JAMA reference code; the
        // clippy `needless_range_loop` shape is kept intentionally for auditability.
        #[allow(clippy::needless_range_loop)]
        /// Householder reduction to tridiagonal form. On exit `v` holds the
        /// accumulated orthogonal transform, `d` the diagonal and `e` the
        /// sub-diagonal (`e[0] == 0`).
        fn tred2(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
            let n = d.len();
            for j in 0..n {
                d[j] = v.get(n - 1, j);
            }

            for i in (1..n).rev() {
                let mut scale = 0.0;
                let mut h = 0.0;
                for k in 0..i {
                    scale += d[k].abs();
                }
                if scale == 0.0 {
                    e[i] = d[i - 1];
                    for j in 0..i {
                        d[j] = v.get(i - 1, j);
                        v.set(i, j, 0.0);
                        v.set(j, i, 0.0);
                    }
                } else {
                    for k in 0..i {
                        d[k] /= scale;
                        h += d[k] * d[k];
                    }
                    let mut f = d[i - 1];
                    let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
                    e[i] = scale * g;
                    h -= f * g;
                    d[i - 1] = f - g;
                    for ej in e.iter_mut().take(i) {
                        *ej = 0.0;
                    }

                    for j in 0..i {
                        f = d[j];
                        v.set(j, i, f);
                        g = e[j] + v.get(j, j) * f;
                        for k in (j + 1)..i {
                            g += v.get(k, j) * d[k];
                            e[k] += v.get(k, j) * f;
                        }
                        e[j] = g;
                    }
                    f = 0.0;
                    for j in 0..i {
                        e[j] /= h;
                        f += e[j] * d[j];
                    }
                    let hh = f / (h + h);
                    for j in 0..i {
                        e[j] -= hh * d[j];
                    }
                    for j in 0..i {
                        f = d[j];
                        g = e[j];
                        for k in j..i {
                            let val = v.get(k, j) - (f * e[k] + g * d[k]);
                            v.set(k, j, val);
                        }
                        d[j] = v.get(i - 1, j);
                        v.set(i, j, 0.0);
                    }
                }
                d[i] = h;
            }

            // Accumulate transformations.
            for i in 0..n.saturating_sub(1) {
                v.set(n - 1, i, v.get(i, i));
                v.set(i, i, 1.0);
                let h = d[i + 1];
                if h != 0.0 {
                    for k in 0..=i {
                        d[k] = v.get(k, i + 1) / h;
                    }
                    for j in 0..=i {
                        let mut g = 0.0;
                        for k in 0..=i {
                            g += v.get(k, i + 1) * v.get(k, j);
                        }
                        for k in 0..=i {
                            let val = v.get(k, j) - g * d[k];
                            v.set(k, j, val);
                        }
                    }
                }
                for k in 0..=i {
                    v.set(k, i + 1, 0.0);
                }
            }
            for j in 0..n {
                d[j] = v.get(n - 1, j);
                v.set(n - 1, j, 0.0);
            }
            v.set(n - 1, n - 1, 1.0);
            e[0] = 0.0;
        }

        #[allow(clippy::needless_range_loop)]
        /// Implicit-shift QL iteration on the tridiagonal (`d`, `e`), rotating
        /// the columns of `v` into eigenvectors.
        fn tql2(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
            let n = d.len();
            for i in 1..n {
                e[i - 1] = e[i];
            }
            e[n - 1] = 0.0;

            let mut f = 0.0;
            let mut tst1: f64 = 0.0;
            let eps = 2.0_f64.powi(-52);
            for l in 0..n {
                tst1 = tst1.max(d[l].abs() + e[l].abs());
                let mut m = l;
                while m < n {
                    if e[m].abs() <= eps * tst1 {
                        break;
                    }
                    m += 1;
                }
                if m > l {
                    let mut iter = 0;
                    loop {
                        iter += 1;
                        assert!(iter <= 50, "eigh: QL iteration failed to converge");

                        let mut g = d[l];
                        let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                        let mut r = p.hypot(1.0);
                        if p < 0.0 {
                            r = -r;
                        }
                        d[l] = e[l] / (p + r);
                        d[l + 1] = e[l] * (p + r);
                        let dl1 = d[l + 1];
                        let mut h = g - d[l];
                        for di in d.iter_mut().take(n).skip(l + 2) {
                            *di -= h;
                        }
                        f += h;

                        p = d[m];
                        let mut c = 1.0;
                        let mut c2 = c;
                        let mut c3 = c;
                        let el1 = e[l + 1];
                        let mut s = 0.0;
                        let mut s2 = 0.0;
                        for i in (l..m).rev() {
                            c3 = c2;
                            c2 = c;
                            s2 = s;
                            g = c * e[i];
                            h = c * p;
                            r = p.hypot(e[i]);
                            e[i + 1] = s * r;
                            s = e[i] / r;
                            c = p / r;
                            p = c * d[i] - s * g;
                            d[i + 1] = h + s * (c * g + s * d[i]);
                            for k in 0..n {
                                h = v.get(k, i + 1);
                                v.set(k, i + 1, s * v.get(k, i) + c * h);
                                v.set(k, i, c * v.get(k, i) - s * h);
                            }
                        }
                        p = -s * s2 * c3 * el1 * e[l] / dl1;
                        e[l] = s * p;
                        d[l] = c * p;

                        if e[l].abs() <= eps * tst1 {
                            break;
                        }
                    }
                }
                d[l] += f;
                e[l] = 0.0;
            }
        }
    }

    fn reconstruct(res: &EighResult) -> Matrix {
        let n = res.values.len();
        let mut lam = Matrix::zeros(n, n);
        for (i, &v) in res.values.iter().enumerate() {
            lam.set(i, i, v);
        }
        res.vectors.matmul(&lam).matmul(&res.vectors.transpose())
    }

    /// Seeded uniform noise in `[-0.5, 0.5)` (a `sin(r + c)` table
    /// would have rank 2).
    fn noise(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-0.5..0.5))
    }

    fn symmetric(n: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(n, n, |r, c| f(r.min(c), r.max(c)))
    }

    /// Every property a decomposition must have, and agreement with
    /// the JAMA oracle's eigenvalues.
    fn check_decomposition(a: &Matrix) -> EighResult {
        let n = a.rows();
        let res = eigh(a);
        let amax = a.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            res.values.windows(2).all(|w| w[0] <= w[1]),
            "n={n}: eigenvalues not ascending"
        );
        let mut vl = res.vectors.clone();
        for r in 0..n {
            for (x, lam) in vl.row_mut(r).iter_mut().zip(&res.values) {
                *x *= lam;
            }
        }
        let residual = a.matmul(&res.vectors).max_abs_diff(&vl);
        assert!(residual <= 1e-9 * amax, "n={n}: |AV - VL| = {residual:e}");
        let vtv = res.vectors.t_matmul(&res.vectors);
        let ortho = vtv.max_abs_diff(&Matrix::identity(n));
        assert!(ortho <= 1e-10, "n={n}: |VtV - I| = {ortho:e}");
        let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let sum: f64 = res.values.iter().sum();
        assert!(
            (trace - sum).abs() <= 1e-9 * amax * n as f64,
            "n={n}: trace {trace} vs eigenvalue sum {sum}"
        );
        let lmax = res.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (got, want) in res.values.iter().zip(jama::eigenvalues(a)) {
            assert!(
                (got - want).abs() <= 1e-10 * lmax,
                "n={n}: eigenvalue {got} vs JAMA {want}"
            );
        }
        res
    }

    #[test]
    fn eigh_properties_across_sizes() {
        // Sizes straddle the 4-lane `dot` chunks, the 8-column sort
        // tile, and reach the benchmark's 384-feature covariance.
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 17, 64, 384] {
            let raw = noise(n, n, n as u64);
            let a = symmetric(n, |r, c| raw.get(r, c));
            check_decomposition(&a);
        }
    }

    #[test]
    fn eigh_rank_deficient_covariance() {
        // 40 samples of 48 features: the covariance has rank <= 39, so
        // at least 9 eigenvalues are zero up to rounding (the af_*
        // workloads' 400x481 design matrix in miniature).
        let x = noise(40, 48, 7);
        let mean = x.col_means();
        let xc = Matrix::from_fn(40, 48, |r, c| x.get(r, c) - mean[c]);
        let mut cov = xc.t_matmul(&xc);
        cov.scale(1.0 / 39.0);
        let res = check_decomposition(&cov);
        let top = res.values[47];
        assert!(res.values[..9].iter().all(|v| v.abs() <= 1e-12 * top));
        assert!(res.values[9] > 1e-6 * top, "rank should be 39");
    }

    #[test]
    fn eigh_zero_diagonal_and_repeated_eigenvalues() {
        let zero = check_decomposition(&Matrix::zeros(6, 6));
        assert!(zero.values.iter().all(|&v| v == 0.0));

        let diag = symmetric(5, |r, c| {
            if r == c {
                [3.0, -1.0, 2.0, 0.0, 7.5][r]
            } else {
                0.0
            }
        });
        assert_eq!(
            check_decomposition(&diag).values,
            [-1.0, 0.0, 2.0, 3.0, 7.5]
        );

        // 2*I + ones has eigenvalue 2 with multiplicity n-1 and n+2 once.
        let n = 9;
        let rep = symmetric(n, |r, c| if r == c { 3.0 } else { 1.0 });
        let res = check_decomposition(&rep);
        for v in &res.values[..n - 1] {
            assert!((v - 2.0).abs() < 1e-12, "repeated eigenvalue {v}");
        }
        assert!((res.values[n - 1] - (n as f64 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn eigh_symmetrizes_its_input() {
        let a = Matrix::from_fn(7, 7, |r, c| ((r * 7 + c) as f64 * 0.41).cos());
        let sym = Matrix::from_fn(7, 7, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let (ra, rs) = (eigh(&a), eigh(&sym));
        assert_eq!(ra.values, rs.values);
        assert_eq!(ra.vectors, rs.vectors);
    }

    #[test]
    #[should_panic(expected = "eigh: non-finite input at (2, 1)")]
    fn eigh_rejects_non_finite_input() {
        let mut a = Matrix::identity(4);
        a.set(2, 1, f64::NAN);
        let _ = eigh(&a);
    }

    #[test]
    #[should_panic(expected = "eigh: non-finite input at (0, 3)")]
    fn eigh_rejects_infinite_input() {
        let mut a = Matrix::identity(4);
        a.set(0, 3, f64::INFINITY);
        let _ = eigh(&a);
    }

    /// `eigh_top(a, k)` against the full decomposition: the same
    /// eigenvalue bits (both run one reduction and one QL recurrence),
    /// a small residual, orthonormal columns and — with `columns` —
    /// the full solver's vectors up to sign wherever the spectrum
    /// separates them.
    fn check_top(a: &Matrix, k: usize, columns: bool) {
        let n = a.rows();
        let full = eigh(a);
        let (values, v) = eigh_top(a, |all| {
            assert!(all.iter().eq(full.values.iter().rev()), "n={n}: values");
            k
        });
        assert_eq!(v.shape(), (n, k));
        assert_eq!(
            values[..],
            full.values
                .iter()
                .rev()
                .take(k)
                .copied()
                .collect::<Vec<_>>()[..]
        );
        let amax = a.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let mut vl = v.clone();
        for r in 0..n {
            for (x, lam) in vl.row_mut(r).iter_mut().zip(&values) {
                *x *= lam;
            }
        }
        let residual = a.matmul(&v).max_abs_diff(&vl);
        assert!(
            residual <= 1e-9 * amax,
            "n={n} k={k}: |AV - VL| = {residual:e}"
        );
        let ortho = v.t_matmul(&v).max_abs_diff(&Matrix::identity(k));
        assert!(ortho <= 1e-10, "n={n} k={k}: |VtV - I| = {ortho:e}");
        let lmax = values[0].abs().max(full.values[0].abs());
        for c in 0..k.min(if columns { n } else { 0 }) {
            let j = n - 1 - c;
            let gap = [j.checked_sub(1), (j + 1 < n).then_some(j + 1)]
                .into_iter()
                .flatten()
                .map(|o| (full.values[o] - full.values[j]).abs())
                .fold(f64::INFINITY, f64::min);
            if gap <= 1e-3 * lmax {
                continue;
            }
            let (got, want) = (v.col(c), full.vectors.col(j));
            let sign = dot(&got, &want).signum();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - sign * w).abs() <= 1e-9, "n={n} k={k}: column {c}");
            }
        }
    }

    #[test]
    fn eigh_top_matches_the_full_decomposition() {
        for n in [1usize, 2, 5, 9, 17, 64, 384] {
            let raw = noise(n, n, n as u64);
            let a = symmetric(n, |r, c| raw.get(r, c));
            for k in [1, n.div_ceil(3), n] {
                check_top(&a, k, true);
            }
        }
        // Rank 39 of 48, as in `eigh_rank_deficient_covariance`: the
        // nine-fold zero eigenvalue is skipped by the gap rule.
        let x = noise(40, 48, 7);
        let mean = x.col_means();
        let xc = Matrix::from_fn(40, 48, |r, c| x.get(r, c) - mean[c]);
        let cov = xc.t_matmul(&xc);
        for k in [1, 16, 48] {
            check_top(&cov, k, true);
        }
        // Repeated eigenvalues and the zero matrix leave the basis of
        // an eigenspace free: residual and orthonormality only.
        let rep = symmetric(9, |r, c| if r == c { 4.0 } else { 1.0 });
        for k in [1, 3, 9] {
            check_top(&rep, k, false);
            check_top(&Matrix::zeros(9, 9), k, false);
        }
        assert_eq!(eigh_top(&Matrix::zeros(0, 0), |_| 0).0, Vec::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "eigh: non-finite input at (2, 1)")]
    fn eigh_top_rejects_non_finite_input() {
        let mut a = Matrix::identity(4);
        a.set(2, 1, f64::NAN);
        let _ = eigh_top(&a, |_| 1);
    }

    #[test]
    fn rotation_log_grows_with_what_ql_produced() {
        let n = 64;
        let raw = noise(n, n, 3);
        let mut qt = symmetric(n, |r, c| raw.get(r, c));
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
        reduce(&mut qt, &mut d, &mut e);
        let mut d: Vec<f64> = (0..n).map(|i| qt.get(i, i)).collect();
        let log = ql_logged(&mut d, &mut e);
        let per_n2 = log.len() as f64 / (n * n) as f64;
        assert!((0.4..1.6).contains(&per_n2), "{per_n2} n^2 rotations");
        // Doubling growth, not a `50 n^2 / 2` worst-case reservation.
        assert!(log.capacity() <= 2 * log.len().next_power_of_two());
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let a = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let r = eigh(&a);
        assert!((r.values[0] - 1.0).abs() < 1e-12);
        assert!((r.values[1] - 2.0).abs() < 1e-12);
        assert!((r.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let r = eigh(&a);
        assert!((r.values[0] - 1.0).abs() < 1e-12);
        assert!((r.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_reconstructs_input() {
        let a = Matrix::from_fn(6, 6, |r, c| {
            let x = (r as f64 + 1.0) * (c as f64 + 1.0);
            (x * 0.37).sin() + if r == c { 4.0 } else { 0.0 }
        });
        let sym = Matrix::from_fn(6, 6, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let res = eigh(&sym);
        let back = reconstruct(&res);
        assert!(
            sym.max_abs_diff(&back) < 1e-9,
            "diff={}",
            sym.max_abs_diff(&back)
        );
    }

    #[test]
    fn eigh_vectors_orthonormal() {
        let a = Matrix::from_fn(5, 5, |r, c| 1.0 / (1.0 + r as f64 + c as f64));
        let res = eigh(&a);
        let vtv = res.vectors.t_matmul(&res.vectors);
        let eye = Matrix::identity(5);
        assert!(vtv.max_abs_diff(&eye) < 1e-10);
    }

    #[test]
    fn eigh_empty_and_single() {
        let r = eigh(&Matrix::zeros(0, 0));
        assert!(r.values.is_empty());
        let r = eigh(&Matrix::from_vec(1, 1, vec![7.5]));
        assert_eq!(r.values, vec![7.5]);
    }

    #[test]
    fn eigh_trace_equals_eigenvalue_sum() {
        let a = Matrix::from_fn(8, 8, |r, c| ((r * c) as f64 * 0.11).cos());
        let sym = Matrix::from_fn(8, 8, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let res = eigh(&sym);
        let trace: f64 = (0..8).map(|i| sym.get(i, i)).sum();
        let sum: f64 = res.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `eigh` and `eigh_top` (at `k` = 1, n / 3 and n) as dispatched
    /// through `wide!` on each arm this CPU supports, against their
    /// bodies called directly: every eigenvalue and eigenvector bit.
    /// Every arm is one codegen in the dev profile; the release run on
    /// an AVX-512F host compares three.
    fn assert_wide_parity(a: &Matrix) {
        let n = a.rows();
        let full = eigh_body(a);
        let keeps: Vec<usize> = [1, n.div_ceil(3), n].map(|k| k.clamp(1, n.max(1))).to_vec();
        let keep = |k: usize| move |_: &[f64]| if n == 0 { 0 } else { k };
        let tops: Vec<_> = keeps.iter().map(|&k| eigh_top_body(a, keep(k))).collect();
        let vectors = |r: &EighResult| bits(r.vectors.as_slice());
        for arm in supported_arms() {
            with_arm(arm, || {
                let got = eigh(a);
                assert_eq!(
                    bits(&got.values),
                    bits(&full.values),
                    "eigh values, n={n} on {arm:?}"
                );
                assert_eq!(
                    vectors(&got),
                    vectors(&full),
                    "eigh vectors, n={n} on {arm:?}"
                );
                for (&k, want) in keeps.iter().zip(&tops) {
                    let got = eigh_top(a, keep(k));
                    assert_eq!(
                        bits(&got.0),
                        bits(&want.0),
                        "eigh_top values, n={n} k={k} on {arm:?}"
                    );
                    assert_eq!(
                        bits(got.1.as_slice()),
                        bits(want.1.as_slice()),
                        "eigh_top vectors, n={n} k={k} on {arm:?}"
                    );
                }
            });
        }
    }

    /// A centred `rows x cols` sample's covariance: rank `rows - 1` when
    /// `rows <= cols`.
    fn covariance(rows: usize, cols: usize, seed: u64) -> Matrix {
        let x = noise(rows, cols, seed);
        let mean = x.col_means();
        let xc = Matrix::from_fn(rows, cols, |r, c| x.get(r, c) - mean[c]);
        let mut cov = xc.t_matmul(&xc);
        cov.scale(1.0 / (rows as f64 - 1.0));
        cov
    }

    #[test]
    fn wide_eigensolvers_bitwise_match_their_bodies() {
        // Orders straddle the 4-lane `dot` chunks; 0 is the empty input.
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 9, 17, 64] {
            let raw = noise(n, n, n as u64);
            assert_wide_parity(&symmetric(n, |r, c| raw.get(r, c)));
        }
        assert_wide_parity(&covariance(40, 48, 7));
        assert_wide_parity(&Matrix::zeros(9, 9));
        assert_wide_parity(&symmetric(9, |r, c| if r == c { 4.0 } else { 1.0 }));
    }

    /// The two orders the benchmark solves: the AF pipeline's 481-feature
    /// covariance of 400 samples (rank 399) and `pca_dist`'s 384-feature
    /// one of a 256-row block (rank 255).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "one codegen without optimization: run with `cargo test --release`"
    )]
    fn wide_eigensolvers_bitwise_match_their_bodies_at_the_workload_orders() {
        assert_wide_parity(&covariance(400, 481, 11));
        assert_wide_parity(&covariance(256, 384, 12));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_eigh_reconstruction(seed_vals in proptest::collection::vec(-3.0f64..3.0, 16)) {
            let raw = Matrix::from_vec(4, 4, seed_vals);
            let sym = Matrix::from_fn(4, 4, |r, c| 0.5 * (raw.get(r, c) + raw.get(c, r)));
            let res = eigh(&sym);
            let back = reconstruct(&res);
            prop_assert!(sym.max_abs_diff(&back) < 1e-8);
        }

        #[test]
        fn prop_eigh_values_sorted(seed_vals in proptest::collection::vec(-3.0f64..3.0, 25)) {
            let raw = Matrix::from_vec(5, 5, seed_vals);
            let sym = Matrix::from_fn(5, 5, |r, c| 0.5 * (raw.get(r, c) + raw.get(c, r)));
            let res = eigh(&sym);
            for w in res.values.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }
}
