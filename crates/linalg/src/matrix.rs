//! Dense row-major `f64` matrix.
//!
//! [`Matrix`] is the local (per-block) numeric container of the
//! workspace; the distributed `dsarray` crate stores one `Matrix` per
//! block. The multiply kernels are cache-blocked and register-tiled:
//! they stream `KC`-deep, `NC`-wide panels of the right operand through
//! cache while updating [`MR`] output rows per pass, and the innermost
//! loop stays a contiguous AXPY the compiler vectorizes. Blocking never
//! reorders the per-element summation (contributions arrive in
//! ascending-`k` order), so results are bitwise identical to the naive
//! triple loop.
//!
//! The row-by-row products ([`Matrix::matmul_nt`], and through it
//! [`pairwise_sq_dists`] and `Kernel::gram`) run a register tile of
//! [`dot`]s instead: `NT_ROWS x NT_COLS` row pairs advance together so
//! each loaded chunk feeds several accumulators, while every single dot
//! keeps [`dot`]'s exact lane order and therefore its exact bits.
//!
//! **Symmetric fast paths.** A product of a matrix with *itself*
//! (`m.t_matmul(m)`, `x.matmul_nt(x)`, `pairwise_sq_dists(x, x)`,
//! `Kernel::gram(x, x)` — detected by `std::ptr::eq`) is exactly
//! symmetric, because element `(i, j)` and element `(j, i)` sum the same
//! commuted products in the same order. Those calls compute the upper
//! triangle only and mirror it: half the flops, the same bits.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Depth (`k`) blocking factor: a `KC x NC` panel of the right operand
/// is reused across all output rows before moving on.
const KC: usize = 256;
/// Column (`j`) blocking factor, keeping the streamed panel (`KC * NC`
/// doubles = 1 MiB) within L2.
const NC: usize = 512;
/// Register tile height: output rows updated simultaneously, so each
/// loaded element of the right operand feeds `MR` multiply-adds.
const MR: usize = 4;
/// Register tile of [`Matrix::matmul_nt`]: the dots of `NT_ROWS` rows
/// of the left operand with `NT_COLS` rows of the right one advance
/// together.
const NT_ROWS: usize = 2;
/// See [`NT_ROWS`].
const NT_COLS: usize = 4;
/// Edge of the square tiles [`Matrix::transpose`] and the triangle
/// mirror move at a time: one cache line of `f64`.
const TB: usize = 8;

/// Dot product over two equal-length slices with four independent
/// partial accumulators (fixed summation order, so `dot(a, b)` and
/// `dot(b, a)` are bitwise equal and repeated calls are deterministic).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (qa, qb) in ca.zip(cb) {
        acc[0] += qa[0] * qb[0];
        acc[1] += qa[1] * qb[1];
        acc[2] += qa[2] * qb[2];
        acc[3] += qa[3] * qb[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

/// Squared Euclidean distances between every row of `x` and every row
/// of `y` via the expansion `|xi|^2 + |yj|^2 - 2 xi.yj` (one GEMM
/// instead of `rows_x * rows_y` subtract-square passes). Distances are
/// clamped at zero, and a row paired with an identical row yields
/// exactly `0.0` because norms and cross terms share one summation
/// order.
pub fn pairwise_sq_dists(x: &Matrix, y: &Matrix) -> Matrix {
    sq_dists_map(x, y, |d| d)
}

/// [`pairwise_sq_dists`] with `f` applied to every (clamped) distance;
/// the RBF kernel is `f = exp(-gamma * d)`.
pub(crate) fn sq_dists_map(x: &Matrix, y: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    assert_eq!(
        x.cols(),
        y.cols(),
        "pairwise_sq_dists dimension mismatch: {} vs {} columns",
        x.cols(),
        y.cols()
    );
    let xn = x.row_sq_norms();
    let yn = y.row_sq_norms();
    x.matmul_nt_map(y, |i, j, v| f((xn[i] + yn[j] - 2.0 * v).max(0.0)))
}

/// `R x C` block of [`dot`] products, `out[r][c] = dot(a[r], b[c])`,
/// advanced together so every loaded chunk feeds `R` or `C`
/// accumulators. Each product keeps [`dot`]'s lane assignment, combine
/// order and remainder loop, so it is bitwise equal to calling [`dot`].
#[inline]
fn dot_tile<const R: usize, const C: usize>(a: [&[f64]; R], b: [&[f64]; C]) -> [[f64; C]; R] {
    let k = a[0].len();
    let a = a.map(|s| &s[..k]);
    let b = b.map(|s| &s[..k]);
    let body = k - k % 4;
    let mut acc = [[[0.0f64; 4]; C]; R];
    for q in (0..body).step_by(4) {
        for r in 0..R {
            for c in 0..C {
                for l in 0..4 {
                    acc[r][c][l] += a[r][q + l] * b[c][q + l];
                }
            }
        }
    }
    let mut out = [[0.0f64; C]; R];
    for r in 0..R {
        for c in 0..C {
            let t = &acc[r][c];
            let mut s = (t[0] + t[1]) + (t[2] + t[3]);
            for q in body..k {
                s += a[r][q] * b[c][q];
            }
            out[r][c] = s;
        }
    }
    out
}

/// A dense, row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a zero-filled `rows x cols` matrix whose storage comes
    /// from the thread-local [`crate::pool`] when a recycled buffer of
    /// sufficient capacity is available. Bitwise identical to
    /// [`Matrix::zeros`]; only the allocation source differs.
    pub fn from_pool(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: crate::pool::acquire(rows * cols),
        }
    }

    /// Creates a `rows x cols` matrix from the pool **without** the
    /// zero-fill of [`Matrix::from_pool`], for constructors that prove
    /// they assign every element before any read (pure-overwrite
    /// kernels like [`Matrix::matmul_nt`]). A recycled buffer may
    /// carry stale values until the caller's writes land; see
    /// [`crate::pool::acquire_full_overwrite`].
    pub(crate) fn from_pool_full_overwrite(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: crate::pool::acquire_full_overwrite(rows * cols),
        }
    }

    /// Consumes the matrix, handing its storage back to the
    /// thread-local [`crate::pool`] for reuse by a later
    /// [`Matrix::from_pool`].
    pub fn into_pool(self) {
        crate::pool::release(self.data);
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(r, c)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Builds a matrix whose rows are the given equally-long slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (`debug_assert`-checked in release-hot paths).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Column `c` gathered into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix transpose, moved in `TB`-row strips: the `TB` source rows
    /// stream contiguously and every write completes one cache line of
    /// the output, instead of one strided store per element.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TB) {
            let r1 = (r0 + TB).min(self.rows);
            for (c, dst) in out.data.chunks_exact_mut(self.rows).enumerate() {
                for (d, r) in dst[r0..r1].iter_mut().zip(r0..r1) {
                    *d = self.data[r * self.cols + c];
                }
            }
        }
        out
    }

    /// Copies the upper triangle of a square matrix onto its lower
    /// triangle (`self[j][i] = self[i][j]` for `j > i`), `TB x TB` tiles
    /// at a time so neither side is walked with a full-row stride.
    fn mirror_upper(&mut self) {
        debug_assert_eq!(self.rows, self.cols);
        let n = self.rows;
        for i0 in (0..n).step_by(TB) {
            let i1 = (i0 + TB).min(n);
            for j0 in (i0..n).step_by(TB) {
                for j in j0..(j0 + TB).min(n) {
                    for i in i0..i1.min(j) {
                        self.data[j * n + i] = self.data[i * n + j];
                    }
                }
            }
        }
    }

    /// Matrix product `self * rhs`, cache-blocked and register-tiled.
    ///
    /// The kernel blocks over columns (`NC`) and depth (`KC`) so the
    /// streamed panel of `rhs` stays cache-resident, and processes
    /// [`MR`] output rows at once so every loaded `rhs` row feeds `MR`
    /// accumulating AXPY streams (the inner loop stays the contiguous
    /// `ikj` AXPY the compiler vectorizes). Per output element the
    /// contributions still arrive in ascending-`k` order, so results
    /// are bitwise identical to the naive triple loop.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (kdim, n) = (self.cols, rhs.cols);
        let mut out = Matrix::from_pool(self.rows, n);
        if n == 0 || kdim == 0 {
            return out;
        }
        for j0 in (0..n).step_by(NC) {
            let j1 = (j0 + NC).min(n);
            for k0 in (0..kdim).step_by(KC) {
                let k1 = (k0 + KC).min(kdim);
                for (ib, out_chunk) in out.data.chunks_mut(MR * n).enumerate() {
                    let i0 = ib * MR;
                    if out_chunk.len() == MR * n {
                        // Register-tiled micro-panel: MR rows at once.
                        let (o0, r) = out_chunk.split_at_mut(n);
                        let (o1, r) = r.split_at_mut(n);
                        let (o2, o3) = r.split_at_mut(n);
                        let (o0, o1) = (&mut o0[j0..j1], &mut o1[j0..j1]);
                        let (o2, o3) = (&mut o2[j0..j1], &mut o3[j0..j1]);
                        for k in k0..k1 {
                            let b = &rhs.data[k * n + j0..k * n + j1];
                            let a0 = self.data[i0 * kdim + k];
                            let a1 = self.data[(i0 + 1) * kdim + k];
                            let a2 = self.data[(i0 + 2) * kdim + k];
                            let a3 = self.data[(i0 + 3) * kdim + k];
                            for (j, &bkj) in b.iter().enumerate() {
                                o0[j] += a0 * bkj;
                                o1[j] += a1 * bkj;
                                o2[j] += a2 * bkj;
                                o3[j] += a3 * bkj;
                            }
                        }
                    } else {
                        // Remainder rows: plain AXPY per row.
                        for (ri, o) in out_chunk.chunks_mut(n).enumerate() {
                            let i = i0 + ri;
                            let o = &mut o[j0..j1];
                            for k in k0..k1 {
                                let aik = self.data[i * kdim + k];
                                let b = &rhs.data[k * n + j0..k * n + j1];
                                for (j, &bkj) in b.iter().enumerate() {
                                    o[j] += aik * bkj;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Computes `self^T * rhs` without materializing the transpose; used
    /// by the PCA covariance step (`x.T @ x`). Depth-blocked with the
    /// same `MR`-row register tiling as [`Matrix::matmul`] (here the
    /// tile runs over columns of `self`, i.e. rows of the output).
    ///
    /// When `rhs` *is* `self` (every PCA gram) each tile only computes
    /// the columns from its first row's diagonal on, and the lower
    /// triangle is mirrored at the end: same bits, half the flops.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.cols, rhs.cols);
        let mut out = Matrix::from_pool(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        let symmetric = std::ptr::eq(self, rhs);
        for k0 in (0..self.rows).step_by(KC) {
            let k1 = (k0 + KC).min(self.rows);
            for (ib, out_chunk) in out.data.chunks_mut(MR * n).enumerate() {
                let i0 = ib * MR;
                // First output column this tile owes.
                let j0 = if symmetric { i0 } else { 0 };
                if out_chunk.len() == MR * n {
                    let (o0, r) = out_chunk.split_at_mut(n);
                    let (o1, r) = r.split_at_mut(n);
                    let (o2, o3) = r.split_at_mut(n);
                    let (o0, o1) = (&mut o0[j0..], &mut o1[j0..]);
                    let (o2, o3) = (&mut o2[j0..], &mut o3[j0..]);
                    for k in k0..k1 {
                        let a = &self.data[k * self.cols..(k + 1) * self.cols];
                        let b = &rhs.data[k * n + j0..(k + 1) * n];
                        let (a0, a1, a2, a3) = (a[i0], a[i0 + 1], a[i0 + 2], a[i0 + 3]);
                        for (j, &bkj) in b.iter().enumerate() {
                            o0[j] += a0 * bkj;
                            o1[j] += a1 * bkj;
                            o2[j] += a2 * bkj;
                            o3[j] += a3 * bkj;
                        }
                    }
                } else {
                    for (ri, o) in out_chunk.chunks_mut(n).enumerate() {
                        let i = i0 + ri;
                        let o = &mut o[j0..];
                        for k in k0..k1 {
                            let aki = self.data[k * self.cols + i];
                            let b = &rhs.data[k * n + j0..(k + 1) * n];
                            for (j, &bkj) in b.iter().enumerate() {
                                o[j] += aki * bkj;
                            }
                        }
                    }
                }
            }
        }
        if symmetric {
            out.mirror_upper();
        }
        out
    }

    /// Computes `self * rhs^T` (both operands row-major, so every dot
    /// product runs over two contiguous rows). This is the kernel-matrix
    /// building block: Gram matrices are `x.matmul_nt(y)`.
    ///
    /// Each element is bitwise [`dot`]`(self.row(i), rhs.row(j))`; when
    /// `rhs` *is* `self` only the upper triangle is computed and the
    /// rest mirrored.
    ///
    /// # Panics
    /// Panics if the operands disagree on column count.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        self.matmul_nt_map(rhs, |_, _, v| v)
    }

    /// [`Matrix::matmul_nt`] with `f(i, j, dot)` applied to every
    /// element. For the symmetric fast path (`rhs` is `self`) `f` must
    /// be symmetric too, `f(i, j, v) == f(j, i, v)` bitwise, as it runs
    /// on the upper triangle only.
    pub(crate) fn matmul_nt_map(
        &self,
        rhs: &Matrix,
        f: impl Fn(usize, usize, f64) -> f64,
    ) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = rhs.rows;
        // Every output element is assigned (`=`, never `+=`; the
        // symmetric path's lower triangle by the mirror), so the pool's
        // zero-fill would be pure waste.
        let mut out = Matrix::from_pool_full_overwrite(self.rows, n);
        let symmetric = std::ptr::eq(self, rhs);
        for i0 in (0..self.rows).step_by(NT_ROWS) {
            let i1 = (i0 + NT_ROWS).min(self.rows);
            let mut put = |i: usize, j: usize, v: f64| out.data[i * n + j] = f(i, j, v);
            // Tiles sit on the NT_COLS grid; the symmetric path starts at
            // the last grid line at or left of the diagonal.
            let mut j0 = if symmetric { i0 - i0 % NT_COLS } else { 0 };
            while j0 + NT_COLS <= n {
                let b: [&[f64]; NT_COLS] = std::array::from_fn(|c| rhs.row(j0 + c));
                if i1 - i0 == NT_ROWS {
                    let a: [&[f64]; NT_ROWS] = std::array::from_fn(|r| self.row(i0 + r));
                    for (r, tile_row) in dot_tile(a, b).iter().enumerate() {
                        for (c, &v) in tile_row.iter().enumerate() {
                            put(i0 + r, j0 + c, v);
                        }
                    }
                } else {
                    for i in i0..i1 {
                        let [tile_row] = dot_tile([self.row(i)], b);
                        for (c, &v) in tile_row.iter().enumerate() {
                            put(i, j0 + c, v);
                        }
                    }
                }
                j0 += NT_COLS;
            }
            for j in j0..n {
                for i in i0..i1 {
                    put(i, j, dot(self.row(i), rhs.row(j)));
                }
            }
        }
        if symmetric {
            out.mirror_upper();
        }
        out
    }

    /// Squared Euclidean norm of every row, computed with the same
    /// summation order as [`dot`] — so `pairwise_sq_dists` between a
    /// row and itself is exactly zero.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| dot(self.row(r), self.row(r)))
            .collect()
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise in-place scaling.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns the sub-matrix of rows `r0..r1` (half-open).
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row slice out of bounds");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Returns the sub-matrix of columns `c0..c1` (half-open).
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "col slice out of bounds");
        let mut out = Matrix::zeros(self.rows, c1 - c0);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Gathers the given rows (by index, with repetition allowed) into a
    /// new matrix.
    pub fn take_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < self.rows, "row index {r} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Vertically stacks `self` on top of `rhs`.
    pub fn vstack(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for s in &mut sums {
            *s /= n;
        }
        sums
    }

    /// Per-column population standard deviations around the given means.
    pub fn col_stds(&self, means: &[f64]) -> Vec<f64> {
        assert_eq!(means.len(), self.cols);
        let mut acc = vec![0.0; self.cols];
        for r in 0..self.rows {
            for ((a, &m), &v) in acc.iter_mut().zip(means).zip(self.row(r)) {
                let d = v - m;
                *a += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        for a in &mut acc {
            *a = (*a / n).sqrt();
        }
        acc
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element-wise difference against `rhs`.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Approximate heap size of the matrix in bytes, used by the
    /// runtime's transfer model.
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    /// Reference triple loop (the seed implementation) — the blocked
    /// kernel must reproduce it bitwise.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let aik = a.get(i, k);
                for j in 0..b.cols() {
                    out[(i, j)] += aik * b.get(k, j);
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_bitwise_matches_naive_across_block_edges() {
        // Sizes straddle every blocking boundary: rows 6 = one full
        // MR=4 tile + 2 remainder rows, depth 300 > KC=256, and
        // cols 530 > NC=512.
        let a = Matrix::from_fn(6, 300, |r, c| ((r * 300 + c) as f64 * 0.013).sin());
        let b = Matrix::from_fn(300, 530, |r, c| ((r + 3 * c) as f64 * 0.007).cos());
        let fast = a.matmul(&b);
        let slow = matmul_naive(&a, &b);
        assert_eq!(fast, slow, "blocking must not change summation order");
    }

    #[test]
    fn t_matmul_blocked_matches_transpose_across_block_edges() {
        let a = Matrix::from_fn(300, 6, |r, c| ((r + c) as f64 * 0.011).sin());
        let b = Matrix::from_fn(300, 5, |r, c| ((2 * r + c) as f64 * 0.017).cos());
        let got = a.t_matmul(&b);
        let expect = matmul_naive(&a.transpose(), &b);
        assert!(expect.max_abs_diff(&got) < 1e-12);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 7, |r, c| (r as f64 - c as f64) * 0.3);
        let b = Matrix::from_fn(9, 7, |r, c| ((r * c) as f64).sqrt());
        let got = a.matmul_nt(&b);
        let expect = a.matmul(&b.transpose());
        assert!(expect.max_abs_diff(&got) < 1e-12);
    }

    #[test]
    fn pooled_matmul_bitwise_stable_across_reuse() {
        // Run the same product twice, recycling the first output's
        // storage in between: the pooled second run must be bitwise
        // identical (acquire zero-fills, so dirty buffers can't leak).
        let a = Matrix::from_fn(9, 40, |r, c| ((r * 40 + c) as f64 * 0.003).sin());
        let b = Matrix::from_fn(40, 17, |r, c| ((r + 5 * c) as f64 * 0.009).cos());
        let first = a.matmul(&b);
        let reference = matmul_naive(&a, &b);
        assert_eq!(first, reference);
        first.into_pool();
        let (hits0, _, _) = crate::pool::stats();
        let second = a.matmul(&b);
        let (hits1, _, _) = crate::pool::stats();
        assert!(
            hits1 > hits0,
            "second matmul should reuse the pooled buffer"
        );
        assert_eq!(second, reference);
    }

    #[test]
    fn matmul_nt_full_overwrite_bitwise_stable_across_dirty_reuse() {
        // matmul_nt takes its output from the pool *without* zeroing
        // (pure-assignment kernel). Poison the pool with a larger
        // dirty buffer first: the recycled-storage product must still
        // be bitwise identical to the fresh-allocation one.
        let a = Matrix::from_fn(9, 40, |r, c| ((r * 40 + c) as f64 * 0.003).sin());
        let b = Matrix::from_fn(17, 40, |r, c| ((r + 5 * c) as f64 * 0.009).cos());
        let reference = a.matmul_nt(&b);
        let mut dirty = crate::pool::acquire(9 * 17 + 30);
        dirty.iter_mut().for_each(|x| *x = f64::NAN);
        crate::pool::release(dirty);
        let (hits0, _, _) = crate::pool::stats();
        let second = a.matmul_nt(&b);
        let (hits1, _, _) = crate::pool::stats();
        assert!(hits1 > hits0, "matmul_nt should reuse the dirty buffer");
        assert_eq!(second, reference);
    }

    /// Shapes `(rows, cols)` straddling every edge the Gram kernels
    /// have: the 2x4 `matmul_nt` tile and its 4-lane chunks, `MR = 4`
    /// and `KC = 256` of `t_matmul`, and the 8x8 mirror tile.
    const GRAM_SHAPES: [(usize, usize); 6] =
        [(1, 1), (5, 3), (61, 161), (257, 386), (300, 7), (7, 300)];

    fn wavy(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f64 * 0.37).sin() * 3.0
        })
    }

    #[test]
    fn t_matmul_with_itself_bitwise_matches_general_path() {
        for (rows, cols) in GRAM_SHAPES {
            let a = wavy(rows, cols);
            let general = a.t_matmul(&a.clone());
            assert_eq!(a.t_matmul(&a), general, "{rows}x{cols}");
            assert_eq!(general, general.transpose(), "{rows}x{cols} not symmetric");
        }
    }

    #[test]
    fn matmul_nt_tiles_bitwise_match_per_element_dot() {
        for (rows, cols) in GRAM_SHAPES {
            let a = wavy(rows, cols);
            let b = Matrix::from_fn(rows / 2 + 3, cols, |r, c| ((r + 7 * c) as f64 * 0.11).cos());
            let expect = Matrix::from_fn(a.rows(), b.rows(), |i, j| dot(a.row(i), b.row(j)));
            assert_eq!(a.matmul_nt(&b), expect, "{rows}x{cols}");
            let expect = Matrix::from_fn(rows, rows, |i, j| dot(a.row(i), a.row(j)));
            assert_eq!(a.matmul_nt(&a), expect, "{rows}x{cols} with itself");
        }
    }

    #[test]
    fn pairwise_sq_dists_with_itself_bitwise_matches_general_path() {
        for (rows, cols) in GRAM_SHAPES {
            let x = wavy(rows, cols);
            assert_eq!(
                pairwise_sq_dists(&x, &x),
                pairwise_sq_dists(&x, &x.clone()),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn matmul_nt_with_itself_overwrites_a_dirty_pooled_buffer() {
        // The symmetric path fills the lower triangle by mirroring, not
        // by computing: no stale pooled value may survive there either.
        let a = wavy(13, 9);
        let reference = a.matmul_nt(&a.clone());
        let mut dirty = crate::pool::acquire(13 * 13 + 5);
        dirty.iter_mut().for_each(|x| *x = f64::NAN);
        crate::pool::release(dirty);
        assert_eq!(a.matmul_nt(&a), reference);
    }

    #[test]
    fn transpose_matches_elementwise_across_strip_edges() {
        for (rows, cols) in [(1, 1), (8, 8), (9, 17), (23, 5), (3, 40)] {
            let a = wavy(rows, cols);
            let t = a.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), a.get(r, c));
                }
            }
        }
    }

    #[test]
    fn dot_is_bitwise_symmetric() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 1.3).cos()).collect();
        assert_eq!(dot(&a, &b).to_bits(), dot(&b, &a).to_bits());
    }

    #[test]
    fn pairwise_self_distance_exactly_zero() {
        let x = Matrix::from_fn(4, 11, |r, c| (r as f64 + 0.5) * (c as f64 - 3.7));
        let d = pairwise_sq_dists(&x, &x);
        for i in 0..4 {
            assert_eq!(d.get(i, i), 0.0, "self-distance of row {i}");
        }
    }

    #[test]
    fn degenerate_dims_are_empty() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (3, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(4, 2, |r, c| (3 * r + c) as f64 * 0.5);
        let expect = a.transpose().matmul(&b);
        let got = a.t_matmul(&b);
        assert!(expect.max_abs_diff(&got) < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(5, 2, |r, c| (r as f64).sin() + c as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn slicing_and_stacking_roundtrip() {
        let a = Matrix::from_fn(6, 3, |r, c| (r * 10 + c) as f64);
        let top = a.slice_rows(0, 2);
        let bottom = a.slice_rows(2, 6);
        assert_eq!(top.vstack(&bottom), a);
    }

    #[test]
    fn take_rows_with_repetition() {
        let a = Matrix::from_fn(3, 2, |r, _| r as f64);
        let t = a.take_rows(&[2, 0, 2]);
        assert_eq!(t.col(0), vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn col_means_and_stds() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 14.0]);
        let m = a.col_means();
        assert_eq!(m, vec![2.0, 12.0]);
        let s = a.col_stds(&m);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slice_cols_extracts_expected() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f64);
        let s = a.slice_cols(1, 3);
        assert_eq!(s.as_slice(), &[1., 2., 5., 6.]);
    }

    proptest! {
        #[test]
        fn prop_matmul_associative(
            a in proptest::collection::vec(-10.0f64..10.0, 6),
            b in proptest::collection::vec(-10.0f64..10.0, 6),
            c in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = Matrix::from_vec(2, 3, a);
            let b = Matrix::from_vec(3, 2, b);
            let c = Matrix::from_vec(2, 2, c);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!(left.max_abs_diff(&right) < 1e-8);
        }

        #[test]
        fn prop_transpose_reverses_matmul(
            a in proptest::collection::vec(-5.0f64..5.0, 6),
            b in proptest::collection::vec(-5.0f64..5.0, 6),
        ) {
            let a = Matrix::from_vec(2, 3, a);
            let b = Matrix::from_vec(3, 2, b);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
        }

        #[test]
        fn prop_vstack_preserves_rows(
            rows_a in 1usize..5, rows_b in 1usize..5, cols in 1usize..5,
        ) {
            let a = Matrix::from_fn(rows_a, cols, |r, c| (r + c) as f64);
            let b = Matrix::from_fn(rows_b, cols, |r, c| (r * c) as f64);
            let s = a.vstack(&b);
            prop_assert_eq!(s.rows(), rows_a + rows_b);
            for r in 0..rows_a {
                prop_assert_eq!(s.row(r), a.row(r));
            }
            for r in 0..rows_b {
                prop_assert_eq!(s.row(rows_a + r), b.row(r));
            }
        }
    }
}
