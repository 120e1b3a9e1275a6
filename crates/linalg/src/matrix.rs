//! Dense row-major `f64` matrix.
//!
//! [`Matrix`] is the local (per-block) numeric container of the
//! workspace; the distributed `dsarray` crate stores one `Matrix` per
//! block. The multiply kernels ([`Matrix::matmul`], [`Matrix::t_matmul`])
//! are cache-blocked and register-tiled: they copy `KC`-deep blocks of
//! both operands into contiguous panels and keep an `MR x NR` block of
//! the output in registers for a whole depth block. Blocking never
//! reorders the per-element summation (contributions arrive in
//! ascending-`k` order, one `*` then one `+` each), so results are
//! bitwise identical to the naive triple loop.
//!
//! The row-by-row products ([`Matrix::matmul_nt`], and through it
//! [`pairwise_sq_dists`] and `Kernel::gram`; `Kernel::eval_pairs`) run
//! the f64 pair tile of [`crate::sgemm`] instead: 4 rows of the left
//! operand against a packed strip of 8 rows of the right one, in
//! AVX-512F or AVX2 intrinsics or a portable loop, while every single
//! sum keeps [`dot`]'s four lanes, combine order and remainder loop
//! (or [`crate::euclidean_sq`]'s) and therefore its exact bits.
//!
//! **Symmetric fast paths.** A product of a matrix with *itself*
//! (`m.t_matmul(m)`, `x.matmul_nt(x)`, `pairwise_sq_dists(x, x)`,
//! `Kernel::gram(x, x)` — detected by `std::ptr::eq`) is exactly
//! symmetric, because element `(i, j)` and element `(j, i)` sum the same
//! commuted products in the same order. Those calls compute the upper
//! triangle only and mirror it: half the flops, the same bits.
//!
//! **Same source, three codegens.** Each other public kernel calls its
//! `#[inline(always)]` body through `crate::sgemm::wide!`, which
//! compiles it eight `f64` lanes wide on AVX-512F hosts, four on AVX2
//! hosts, and two at baseline. The bits do not depend on that choice
//! (see `wide!`), and the `*_body` methods stay callable directly so
//! the tests can hold every build equal to them.

use crate::sgemm::{wide, PairSum};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Depth (`k`) blocking factor of the register-tiled GEMMs: an output
/// tile stays in registers for `KC` steps, against a `KC x NR` strip of
/// the right operand (16 KiB, held in L1).
const KC: usize = 256;
/// Row blocking factor of the register-tiled GEMMs: the packed
/// `MC x KC` block of the left operand (256 KiB) stays in L2 while
/// every strip of the right operand runs against it.
const MC: usize = 128;
/// Register tile height: output rows updated simultaneously, so each
/// loaded element of the right operand feeds `MR` multiply-adds.
const MR: usize = 4;
/// Register tile width: output columns each tile row keeps in
/// registers, two four-lane vectors. `MR x NR` accumulators fill 8 of
/// AVX2's 16 `ymm` registers and leave room for the `rhs` vectors and
/// the broadcast; 4 x 4, 4 x 12, 4 x 16 and 6 x 8 tiles measured slower
/// (DESIGN §5.17).
const NR: usize = 8;
/// Edge of the square tiles [`Matrix::transpose`] and the triangle
/// mirror move at a time: one cache line of `f64`.
const TB: usize = 8;

/// Dot product over two equal-length slices with four independent
/// partial accumulators (fixed summation order, so `dot(a, b)` and
/// `dot(b, a)` are bitwise equal and repeated calls are deterministic).
///
/// Always inlined, so it takes its caller's codegen: AVX2 or AVX-512F
/// inside the kernels `crate::sgemm::wide!` runs, with the same bits.
#[inline(always)]
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
    x.pair_map(y, PairSum::Dot, |i, j, v| {
        f((xn[i] + yn[j] - 2.0 * v).max(0.0))
    })
}

/// `a * rhs`, or `a^T * rhs` when `transposed`: the one loop nest
/// behind [`Matrix::matmul`] and [`Matrix::t_matmul`]. Call the left
/// operand `A` (`m x k`, with `k = rhs.rows`).
///
/// Per `KC`-deep block, `MC` rows of `A` are copied once into
/// contiguous `KC x MR` panels ([`pack_panel`]); per `NR`-wide column
/// strip, `KC` rows of `rhs` are copied into one `KC x NR` strip, which
/// then stays in L1 while [`tile`] runs it against every panel.
/// (Unpacked, a row stride of a few KiB maps every `rhs` row of a strip
/// onto a handful of L1 sets.) When `a^T * a` is asked for (`rhs` *is*
/// `a`), a strip only meets the row tiles whose diagonal lies in it or
/// left of it, and the upper triangle is mirrored at the end.
#[inline(always)]
fn gemm(a: &Matrix, transposed: bool, rhs: &Matrix) -> Matrix {
    let (m, kdim, n) = (if transposed { a.cols } else { a.rows }, rhs.rows, rhs.cols);
    let symmetric = transposed && std::ptr::eq(a, rhs);
    let mut out = Matrix::from_pool(m, n);
    if m == 0 || n == 0 || kdim == 0 {
        return out;
    }
    let mut a_buf =
        crate::pool::acquire_full_overwrite(KC.min(kdim) * MC.min(m).next_multiple_of(MR));
    let mut b_strip = [[0.0; NR]; KC];
    for k0 in (0..kdim).step_by(KC) {
        let ks = k0..(k0 + KC).min(kdim);
        let b_strip = &mut b_strip[..ks.len()];
        for ic in (0..m).step_by(MC) {
            let i1 = (ic + MC).min(m);
            let panels = &mut a_buf.as_chunks_mut().0[..ks.len() * (i1 - ic).div_ceil(MR)];
            for (t, panel) in panels.chunks_exact_mut(ks.len()).enumerate() {
                pack_panel(a, transposed, ic + t * MR, ks.clone(), panel);
            }
            for j in (if symmetric { ic } else { 0 }..n).step_by(NR) {
                let cols = j..(j + NR).min(n);
                for (dst, row) in b_strip.iter_mut().zip(rhs.data[k0 * n..].chunks_exact(n)) {
                    *dst = zero_padded(&row[cols.clone()]);
                }
                let i1 = if symmetric { i1.min(j + NR) } else { i1 };
                for (i0, panel) in (ic..i1).step_by(MR).zip(panels.chunks_exact(ks.len())) {
                    let rows = i0..(i0 + MR).min(m);
                    tile(&mut out.data, n, rows, cols.clone(), panel, b_strip);
                }
            }
        }
    }
    crate::pool::release(a_buf);
    if symmetric {
        out.mirror_upper();
    }
    out
}

/// Writes `panel[kk][r] = A[i0 + r][ks.start + kk]` for [`gemm`]'s left
/// operand `A` (`a`, or `a^T` when `transposed`), and zero for rows
/// past the last. A function, not a closure `gemm` takes: `gemm` is
/// inlined twice (baseline and AVX2), and a closure with two callers
/// is left out of line, at baseline width.
#[inline(always)]
fn pack_panel(
    a: &Matrix,
    transposed: bool,
    i0: usize,
    ks: std::ops::Range<usize>,
    panel: &mut [[f64; MR]],
) {
    if transposed {
        let i1 = (i0 + MR).min(a.cols);
        for (dst, row) in panel
            .iter_mut()
            .zip(a.data[ks.start * a.cols..].chunks_exact(a.cols))
        {
            *dst = zero_padded(&row[i0..i1]);
        }
    } else {
        for r in 0..MR {
            if i0 + r < a.rows {
                for (dst, &v) in panel.iter_mut().zip(&a.row(i0 + r)[ks.clone()]) {
                    dst[r] = v;
                }
            } else {
                panel.iter_mut().for_each(|dst| dst[r] = 0.0);
            }
        }
    }
}

/// One register tile: loads `out[rows][cols]` (row stride `n`) into
/// `MR x NR` accumulators, adds `a[kk][r] * b[kk][c]` for every `kk` in
/// ascending order, one `*` then one `+` each, and stores the tile
/// once. That is the per-element order and rounding of the naive
/// triple loop, so the bits are its bits. A tile short of `MR` rows or
/// `NR` columns computes zero-padded lanes and stores only its own.
#[inline(always)]
fn tile(
    out: &mut [f64],
    n: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    a: &[[f64; MR]],
    b: &[[f64; NR]],
) {
    let at = |r: usize| rows.start * n + r * n + cols.start;
    if rows.len() == MR && cols.len() == NR {
        let acc = std::array::from_fn(|r| out[at(r)..at(r) + NR].try_into().unwrap());
        let acc = tile_products(acc, a, b);
        for (r, acc) in acc.iter().enumerate() {
            out[at(r)..at(r) + NR].copy_from_slice(acc);
        }
    } else {
        let mut acc = [[0.0; NR]; MR];
        for (r, acc) in acc.iter_mut().enumerate().take(rows.len()) {
            acc[..cols.len()].copy_from_slice(&out[at(r)..at(r) + cols.len()]);
        }
        let acc = tile_products(acc, a, b);
        for (r, acc) in acc.iter().enumerate().take(rows.len()) {
            out[at(r)..at(r) + cols.len()].copy_from_slice(&acc[..cols.len()]);
        }
    }
}

/// `src` followed by zeros up to `W` elements (`src` is at most `W`
/// long); a full-width `src` is one fixed-size copy.
#[inline(always)]
fn zero_padded<const W: usize>(src: &[f64]) -> [f64; W] {
    src.try_into().unwrap_or_else(|_| {
        let mut v = [0.0; W];
        v[..src.len()].copy_from_slice(src);
        v
    })
}

/// [`tile`]'s depth loop. A function, not a closure: a closure called
/// from both of `tile`'s branches would be left out of line, at
/// baseline width.
#[inline(always)]
fn tile_products(mut acc: [[f64; NR]; MR], a: &[[f64; MR]], b: &[[f64; NR]]) -> [[f64; NR]; MR] {
    for (a, b) in a.iter().zip(b) {
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] += a[r] * b[c];
            }
        }
    }
    acc
}

/// A dense, row-major matrix of `f64`.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// A clone's storage comes from the thread-local [`crate::pool`] when a
/// recycled buffer fits, so a copy lands in warm memory; the elements
/// are the same bits either way.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = crate::pool::acquire_capacity(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
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
    /// Each `MR` x `NR` block of the output is loaded into registers
    /// once per `KC`-deep block, takes one product per `k` there and
    /// is stored once, instead of reloading and restoring `MR` output
    /// rows around every streamed `rhs` row (5 loads and 4 stores per 8
    /// flops). Per output element the contributions still arrive in
    /// ascending-`k` order, one `*` then one `+` each, so results are
    /// bitwise identical to the naive triple loop. On the PCA projection
    /// (256x384 times 384x16) that runs 2x faster than the row-AXPY
    /// kernel it replaced.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        wide!(self.matmul_body(rhs))
    }

    /// [`Matrix::matmul`] after its shape check, for [`wide!`] to inline.
    #[inline(always)]
    fn matmul_body(&self, rhs: &Matrix) -> Matrix {
        gemm(self, false, rhs)
    }

    /// Computes `self^T * rhs` without materializing the transpose; used
    /// by the PCA covariance step (`x.T @ x`). The same register-tiled
    /// loop nest as [`Matrix::matmul`]: columns of `self` are packed into
    /// the `MR`-row panels (they are rows of the output), and each
    /// `MR x NR` output tile stays in registers across a `KC`-deep
    /// block. Same ascending-`k` order, so the naive loop's bits; on the
    /// 256x384 PCA block gram 1.7x faster than the row-AXPY kernel it
    /// replaced.
    ///
    /// When `rhs` *is* `self` (every PCA gram) each tile only computes
    /// the columns from the `NR`-wide strip holding its diagonal on,
    /// and the lower triangle is mirrored at the end: same bits, about
    /// half the flops.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        wide!(self.t_matmul_body(rhs))
    }

    /// [`Matrix::t_matmul`] after its shape check, for [`wide!`] to inline.
    #[inline(always)]
    fn t_matmul_body(&self, rhs: &Matrix) -> Matrix {
        gemm(self, true, rhs)
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
        self.pair_map(rhs, PairSum::Dot, |_, _, v| v)
    }

    /// `f(i, j, s)` for every row `i` of `self` and row `j` of `rhs`,
    /// `s` their [`PairSum`]: bitwise [`dot`] (so with `PairSum::Dot`
    /// this is [`Matrix::matmul_nt`] mapped by `f`) or
    /// [`crate::euclidean_sq`] of the two rows, on every arm. For the
    /// symmetric fast path (`rhs` *is* `self`) `f` must be symmetric
    /// too, `f(i, j, v) == f(j, i, v)` bitwise, as it runs on the upper
    /// triangle only and the rest is mirrored.
    ///
    /// # Panics
    /// Panics if the operands disagree on column count.
    pub(crate) fn pair_map(
        &self,
        rhs: &Matrix,
        sum: PairSum,
        f: impl Fn(usize, usize, f64) -> f64,
    ) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "row-pair product dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = rhs.rows;
        // Every output element is assigned (`=`, never `+=`; the
        // symmetric path's lower triangle by the mirror), so the pool's
        // zero-fill would be pure waste.
        let mut out = Matrix::from_pool_full_overwrite(self.rows, n);
        let symmetric = std::ptr::eq(self, rhs);
        crate::sgemm::pair_sums(
            sum,
            (self.rows, self.cols, n),
            (&self.data, &rhs.data),
            symmetric,
            |i, j, v| out.data[i * n + j] = f(i, j, v),
        );
        if symmetric {
            out.mirror_upper();
        }
        out
    }

    /// Squared Euclidean norm of every row, computed with the same
    /// summation order as [`dot`] — so `pairwise_sq_dists` between a
    /// row and itself is exactly zero.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        wide!(self.row_sq_norms_body())
    }

    /// [`Matrix::row_sq_norms`], for [`wide!`] to inline.
    #[inline(always)]
    fn row_sq_norms_body(&self) -> Vec<f64> {
        // A loop, not `map().collect()`: `collect` would stay out of line.
        let mut norms = vec![0.0; self.rows];
        for (r, v) in norms.iter_mut().enumerate() {
            *v = dot(self.row(r), self.row(r));
        }
        norms
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
    use crate::sgemm::{supported_arms, with_arm};
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
        // cols 530 = 66 NR=8 strips + 2 remainder columns.
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

    #[test]
    fn clone_draws_a_dirty_pooled_buffer_and_keeps_every_bit() {
        let m = Matrix::from_fn(9, 17, |r, c| {
            f64::from_bits((r * 17 + c) as u64 * 0x9E37_79B9)
        });
        let mut dirty = crate::pool::acquire(9 * 17 + 30);
        dirty.iter_mut().for_each(|x| *x = f64::NAN);
        crate::pool::release(dirty);
        let (hits0, _, _) = crate::pool::stats();
        let copy = m.clone();
        let (hits1, _, _) = crate::pool::stats();
        assert_eq!(hits1, hits0 + 1, "the clone should reuse the pooled buffer");
        assert_eq!(copy.shape(), m.shape());
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&copy), bits(&m));
        assert!(Matrix::zeros(0, 3).clone().as_slice().is_empty());
    }

    /// Shapes `(rows, cols)` straddling every edge the Gram kernels
    /// have: the 4x8 pair tile and its four depth lanes, `MR = 4` and
    /// `KC = 256` of `t_matmul`, and the 8x8 mirror tile.
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

    fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
        (m.rows, m.cols, m.data.iter().map(|v| v.to_bits()).collect())
    }

    /// Every GEMM-family kernel, dispatched on each arm this CPU
    /// supports, bit for bit: the `wide!` kernels against their bodies
    /// called directly (`matmul`, general and symmetric `t_matmul`, the
    /// row norms and `dot`), and the pair-tile kernels (`matmul_nt`, its
    /// map, pairwise distances; general and symmetric) against [`dot`]
    /// per element. `x` is `m x k`, `y` is `n x k`. (Every `wide!` arm
    /// is one codegen in the dev profile, and the release run on an
    /// AVX-512F host compares three; the pair tile's arms are intrinsics
    /// in both profiles.)
    fn assert_wide_parity(x: &Matrix, y: &Matrix) {
        let shape = (x.shape(), y.shape());
        let (yt, z) = (y.transpose(), wavy(x.rows, y.rows));
        let poly = |_: usize, _: usize, v: f64| (v + 0.5).powi(3);
        let (xn, yn) = (x.row_sq_norms_body(), y.row_sq_norms_body());
        let sq_dist = |i: usize, j: usize, v: f64| (xn[i] + yn[j] - 2.0 * v).max(0.0);
        let per_pair = |a: &Matrix, b: &Matrix, f: &dyn Fn(usize, usize, f64) -> f64| {
            Matrix::from_fn(a.rows, b.rows, |i, j| f(i, j, dot(a.row(i), b.row(j))))
        };
        let direct = [
            per_pair(x, y, &sq_dist),
            x.matmul_body(&yt),
            x.t_matmul_body(&z),
            x.t_matmul_body(x),
            per_pair(x, y, &|_, _, v| v),
            per_pair(x, x, &|_, _, v| v),
            per_pair(x, y, &poly),
            per_pair(x, x, &poly),
        ];
        let norms: Vec<u64> = x.row_sq_norms_body().iter().map(|v| v.to_bits()).collect();
        let row_pairs: Vec<(&[f64], &[f64])> = x
            .data
            .chunks_exact(x.cols.max(1))
            .zip(y.data.chunks_exact(y.cols.max(1)))
            .collect();
        let dots: Vec<u64> = row_pairs.iter().map(|(a, b)| dot(a, b).to_bits()).collect();
        for arm in supported_arms() {
            with_arm(arm, || {
                let dispatched = [
                    pairwise_sq_dists(x, y),
                    x.matmul(&yt),
                    x.t_matmul(&z),
                    x.t_matmul(x),
                    x.matmul_nt(y),
                    x.matmul_nt(x),
                    x.pair_map(y, PairSum::Dot, poly),
                    x.pair_map(x, PairSum::Dot, poly),
                ];
                for (i, (got, want)) in dispatched.iter().zip(&direct).enumerate() {
                    assert_eq!(bits(got), bits(want), "kernel {i} at {shape:?} on {arm:?}");
                }
                let got: Vec<u64> = x.row_sq_norms().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, norms, "row norms at {shape:?} on {arm:?}");
                let got: Vec<u64> = row_pairs
                    .iter()
                    .map(|(a, b)| wide!(dot(a, b)).to_bits())
                    .collect();
                assert_eq!(got, dots, "dot at {shape:?} on {arm:?}");
            });
        }
    }

    #[test]
    fn wide_kernels_bitwise_match_their_bodies_at_remainder_edges() {
        // Rows straddle MR = 4 and the pair tile's 4 rows, depth covers
        // every k % 4 (and crosses KC = 256), the right operand's rows
        // fall short of, meet and pass the pair tile's 8-row strip; 0 is
        // the empty case.
        for m in [0, 1, 2, 3, 4, 5, 7, 9] {
            for k in [0, 1, 2, 3, 4, 5, 6, 7, 258] {
                for n in [0, 1, 3, 7, 8, 9, 17] {
                    assert_wide_parity(&wavy(m, k), &wavy(n, k));
                }
            }
        }
        // 530 columns (66 NR = 8 strips + 2), MC = 128 rows past twice,
        // and KC-deep t_matmul depth.
        assert_wide_parity(&wavy(6, 300), &wavy(530, 300));
        assert_wide_parity(&wavy(261, 13), &wavy(7, 13));
    }

    /// The PCA gram of `pca_dist`: a 256-row block of 384 features.
    #[test]
    fn wide_t_matmul_bitwise_matches_its_body_at_the_pca_block_shape() {
        let (x, y) = (wavy(256, 384), wavy(256, 384));
        let (gram, cross) = (bits(&x.t_matmul_body(&x)), bits(&x.t_matmul_body(&y)));
        for arm in supported_arms() {
            with_arm(arm, || {
                assert_eq!(bits(&x.t_matmul(&x)), gram, "gram on {arm:?}");
                assert_eq!(bits(&x.t_matmul(&y)), cross, "cross on {arm:?}");
            });
        }
    }

    /// The oracle of the register tiles: an ascending-`k` triple loop
    /// that adds each product `a(i, k) * b(k, j)` in turn to a `0.0`
    /// start, one `*` then one `+`.
    fn naive_product(
        (m, depth, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f64,
        b: impl Fn(usize, usize) -> f64,
    ) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            (0..depth).fold(0.0, |acc, k| acc + a(i, k) * b(k, j))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Output rows straddle `MR = 4` (and, one case in five, the
        /// `MC = 128` row block), columns the tile width `NR = 8`, depth
        /// (one case in two) `KC = 256`; every dimension can be zero.
        #[test]
        fn prop_register_tiles_bitwise_match_the_naive_loop(
            m in 0usize..14, past_mc in 0usize..5,
            n in 0usize..20,
            depth in 0usize..12, past_kc in 0usize..2,
            seed in -3.0f64..3.0,
        ) {
            let m = if past_mc == 0 { m + 120 } else { m };
            let depth = if past_kc == 0 { depth + 250 } else { depth };
            let x = Matrix::from_fn(depth, m, |r, c| ((r * m + c) as f64 * 0.37 + seed).sin());
            let y = Matrix::from_fn(depth, n, |r, c| ((r + 7 * c) as f64 * 0.11 - seed).cos());
            let xt = x.transpose();
            let gram = naive_product((m, depth, m), |i, k| x.get(k, i), |k, j| x.get(k, j));
            let cross = naive_product((m, depth, n), |i, k| x.get(k, i), |k, j| y.get(k, j));
            let cases = [
                ("t_matmul, symmetric", x.t_matmul(&x), &gram),
                ("t_matmul_body, symmetric", x.t_matmul_body(&x), &gram),
                ("t_matmul", x.t_matmul(&y), &cross),
                ("t_matmul_body", x.t_matmul_body(&y), &cross),
                ("matmul", xt.matmul(&y), &cross),
                ("matmul_body", xt.matmul_body(&y), &cross),
            ];
            for (kernel, got, want) in cases {
                prop_assert_eq!(bits(&got), bits(want), "{} at {}x{}x{}", kernel, m, depth, n);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_wide_kernels_bitwise_match_their_bodies(
            m in 0usize..12, k in 0usize..40, n in 0usize..12,
            seed in -3.0f64..3.0,
        ) {
            let x = Matrix::from_fn(m, k, |r, c| ((r * k + c) as f64 * 0.37 + seed).sin());
            let y = Matrix::from_fn(n, k, |r, c| ((r + 7 * c) as f64 * 0.11 - seed).cos());
            assert_wide_parity(&x, &y);
        }
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
