//! Single-precision (f32) GEMM kernels over raw slices.
//!
//! The neural-network layers keep their activations and weights in flat
//! `Vec<f32>` buffers, so promoting through [`crate::Matrix`] (f64)
//! would spend more time converting than multiplying. All three
//! variants **accumulate** into `out` (`out += op(a) * op(b)`), which is
//! what the convolution backward pass needs for its gradient buffers;
//! pass a zeroed `out` for a plain product.
//!
//! Two implementations live side by side:
//!
//! * **Scalar oracles** ([`sgemm_nn_scalar`] / [`sgemm_nt_scalar`] /
//!   [`sgemm_tn_scalar`]): the original blocked register-tiled loops.
//!   Per output element the contributions arrive in ascending-`k`
//!   order, so `sgemm_nn_scalar` is bitwise identical to a scalar
//!   `ikj` triple loop. These stay as the parity reference.
//! * **Packed SIMD path** (the private `packed::gemm`): operands are
//!   repacked into MR×KC / KC×NR panels — straight from the operand
//!   slices, as `copy_from_slice` runs where a panel row is contiguous
//!   in the source and as a sequential-read / strided-write sweep
//!   where the operand is transposed, so that at the conv layers'
//!   shapes (N or K of a few dozen) packing stays cheaper than the
//!   FMAs it feeds — and multiplied by an explicit
//!   [`MR`]×[`NR`] register-tiled microkernel — a bounds-check-free
//!   `chunks_exact` loop the compiler autovectorizes, with a
//!   runtime-dispatched `std::arch` AVX2+FMA variant on x86-64. The
//!   microkernel keeps the whole tile in accumulator registers across a
//!   depth panel and flushes once per panel, so per-element summation
//!   is reassociated (panel partial sums, FMA contraction): results
//!   match the scalar oracle to ≤1e-4 relative, not bitwise.
//!
//! The public entry points [`sgemm_nn`] / [`sgemm_nt`] / [`sgemm_tn`]
//! dispatch to the packed path unless `LINALG_FORCE_SCALAR` is set in
//! the environment (checked once); [`backend`] reports the choice.
//!
//! This module is also the crate's one runtime-dispatched island: the
//! f64 kernels of [`crate::matrix`] and [`crate::eigh`] run their
//! unchanged bodies through [`wide`], which compiles them for AVX2 on
//! hosts that have it. `LINALG_FORCE_SCALAR` pins those to baseline
//! codegen too (same bits, two lanes). This is the only place in the
//! workspace that holds `unsafe` code or a `#[target_feature]`.

use std::sync::OnceLock;

/// Depth blocking factor (f32: 256 elements = 1 KiB per panel row).
const KC: usize = 256;
/// Register tile height: output rows updated per microkernel call.
const MR: usize = 4;
/// Register tile width: two 8-lane f32 vectors per accumulator row.
const NR: usize = 16;

/// True unless `LINALG_FORCE_SCALAR` is set (to anything but `0`), which
/// sends sgemm to its scalar oracles and the f64 kernels to baseline
/// codegen.
fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("LINALG_FORCE_SCALAR").is_none_or(|v| v == *"0"))
}

/// True when the CPU supports the AVX2+FMA microkernel (cached).
fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Which kernel the public entry points dispatch to on this host:
/// `"avx2+fma"`, `"packed-generic"` (autovectorized portable
/// microkernel), or `"scalar-forced"` (`LINALG_FORCE_SCALAR` set).
///
/// The f64 kernels follow the same switch: under `"avx2+fma"` they run
/// through [`wide`] four lanes wide, otherwise — `LINALG_FORCE_SCALAR`
/// included — with baseline codegen. Their bits are the same either way.
pub fn backend() -> &'static str {
    if !simd_enabled() {
        "scalar-forced"
    } else if fma_available() {
        "avx2+fma"
    } else {
        "packed-generic"
    }
}

/// True when the f64 kernels run through [`wide`]: [`backend`] is
/// `"avx2+fma"`.
#[inline]
pub(crate) fn wide_enabled() -> bool {
    simd_enabled() && fma_available()
}

/// Runs `f` compiled for AVX2+FMA.
///
/// The f64 kernels keep one scalar-source body each, marked
/// `#[inline(always)]`, and every public entry point calls it as
/// `if wide_enabled() { wide(|| body) } else { body }`. The closure is
/// then inlined into the `#[target_feature]` clone below, so the
/// autovectorizer fills four `f64` lanes instead of SSE2's two. It must
/// have no other caller: LLVM keeps a closure that is also called from
/// baseline code out of line, at baseline width.
///
/// The result is bit-identical to the baseline build, because the
/// source fixes every summation order (element-wise AXPY / rotation
/// loops, [`crate::dot`]'s four accumulator lanes) and Rust never
/// contracts a separate `*` and `+` into an FMA.
///
/// # Panics
/// Panics if the CPU lacks AVX2 or FMA.
#[inline]
pub(crate) fn wide<R>(f: impl FnOnce() -> R) -> R {
    assert!(fma_available(), "wide: this CPU lacks AVX2+FMA");
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: fma_available() detected AVX2 and FMA on this CPU.
        unsafe { avx2(f) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    f()
}

/// `out[m x n] += a[m x k] * b[k x n]` (all row-major).
///
/// Dispatches to the packed SIMD path (≤1e-4 relative of the scalar
/// oracle) unless `LINALG_FORCE_SCALAR` is set.
///
/// # Panics
/// Panics if any slice is shorter than its `m`/`k`/`n` shape implies.
pub fn sgemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    if simd_enabled() {
        packed::gemm(m, k, n, (a, false), (b, false), out)
    } else {
        sgemm_nn_scalar(m, k, n, a, b, out)
    }
}

/// `out[m x n] += a[m x k] * b[n x k]^T` — both operands row-major.
///
/// Dispatches like [`sgemm_nn`].
///
/// # Panics
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= n * k && out.len() >= m * n);
    if simd_enabled() {
        packed::gemm(m, k, n, (a, false), (b, true), out)
    } else {
        sgemm_nt_scalar(m, k, n, a, b, out)
    }
}

/// `out[m x n] += a[k x m]^T * b[k x n]` (all row-major) without
/// materializing the transpose.
///
/// Dispatches like [`sgemm_nn`].
///
/// # Panics
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= k * m && b.len() >= k * n && out.len() >= m * n);
    if simd_enabled() {
        packed::gemm(m, k, n, (a, true), (b, false), out)
    } else {
        sgemm_tn_scalar(m, k, n, a, b, out)
    }
}

/// Scalar oracle for `out += a * b`: blocked over depth (`KC`),
/// register-tiled over [`MR`] output rows, contiguous AXPY inner loop.
/// Bitwise identical to a scalar `ikj` triple loop (contributions per
/// output element arrive in ascending-`k` order).
///
/// # Panics
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_nn_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for (ib, oc) in out[..m * n].chunks_mut(MR * n).enumerate() {
            let i0 = ib * MR;
            if oc.len() == MR * n {
                let (o0, r) = oc.split_at_mut(n);
                let (o1, r) = r.split_at_mut(n);
                let (o2, o3) = r.split_at_mut(n);
                for kk in k0..k1 {
                    let brow = &b[kk * n..(kk + 1) * n];
                    let a0 = a[i0 * k + kk];
                    let a1 = a[(i0 + 1) * k + kk];
                    let a2 = a[(i0 + 2) * k + kk];
                    let a3 = a[(i0 + 3) * k + kk];
                    for (j, &bkj) in brow.iter().enumerate() {
                        o0[j] += a0 * bkj;
                        o1[j] += a1 * bkj;
                        o2[j] += a2 * bkj;
                        o3[j] += a3 * bkj;
                    }
                }
            } else {
                for (ri, o) in oc.chunks_mut(n).enumerate() {
                    let i = i0 + ri;
                    for kk in k0..k1 {
                        let aik = a[i * k + kk];
                        let brow = &b[kk * n..(kk + 1) * n];
                        for (j, &bkj) in brow.iter().enumerate() {
                            o[j] += aik * bkj;
                        }
                    }
                }
            }
        }
    }
}

/// Scalar oracle for `out += a * b^T`: every output element is a dot
/// product of two contiguous rows, four independent partial
/// accumulators per dot product (fixed order, deterministic).
///
/// # Panics
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_nt_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= n * k && out.len() >= m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, oj) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = [0.0f32; 4];
            let ca = arow.chunks_exact(4);
            let cb = brow.chunks_exact(4);
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
            *oj += s;
        }
    }
}

/// Scalar oracle for `out += a^T * b`: each depth step is a rank-1
/// update streaming contiguous rows of `a` and `b`.
///
/// # Panics
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_tn_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= k * m && b.len() >= k * n && out.len() >= m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for (ib, oc) in out[..m * n].chunks_mut(MR * n).enumerate() {
            let i0 = ib * MR;
            if oc.len() == MR * n {
                let (o0, r) = oc.split_at_mut(n);
                let (o1, r) = r.split_at_mut(n);
                let (o2, o3) = r.split_at_mut(n);
                for kk in k0..k1 {
                    let arow = &a[kk * m..(kk + 1) * m];
                    let brow = &b[kk * n..(kk + 1) * n];
                    let (a0, a1, a2, a3) = (arow[i0], arow[i0 + 1], arow[i0 + 2], arow[i0 + 3]);
                    for (j, &bkj) in brow.iter().enumerate() {
                        o0[j] += a0 * bkj;
                        o1[j] += a1 * bkj;
                        o2[j] += a2 * bkj;
                        o3[j] += a3 * bkj;
                    }
                }
            } else {
                for (ri, o) in oc.chunks_mut(n).enumerate() {
                    let i = i0 + ri;
                    for kk in k0..k1 {
                        let aki = a[kk * m + i];
                        let brow = &b[kk * n..(kk + 1) * n];
                        for (j, &bkj) in brow.iter().enumerate() {
                            o[j] += aki * bkj;
                        }
                    }
                }
            }
        }
    }
}

/// The packed panel driver shared by all three transpose variants.
///
/// Layout (BLIS-style): for each depth panel of `KC`, the right operand
/// is packed into `⌈n/NR⌉` column panels of `kb`×`NR` (k-major,
/// zero-padded past `n`), each `MR`-row stripe of the left operand into
/// a `kb`×`MR` tile (k-major, zero-padded past `m`), and an `MR`×`NR`
/// accumulator tile is produced per (stripe, panel) pair by the
/// microkernel. Zero padding is sound because padded lanes only feed
/// accumulator slots the writeback never reads; the packers write
/// every lane of the recycled scratch (data or zero), so nothing stale
/// survives a call. Accumulate semantics (`out += acc`) are preserved:
/// `out` is touched once per depth panel.
mod packed {
    use super::{fma_available, KC, MR, NR};
    use std::cell::RefCell;

    std::thread_local! {
        /// (A tile, packed B panels) reused across calls on a thread.
        static SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    }

    /// Portable microkernel: `acc[r][j] += Σ_kk ap[kk*MR+r] * bp[kk*NR+j]`.
    ///
    /// `chunks_exact` + fixed-size accumulator rows keep the inner loop
    /// free of bounds checks so it autovectorizes.
    fn microkernel_generic(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            for (r, accr) in acc.iter_mut().enumerate() {
                let ar = arow[r];
                for (av, &bv) in accr.iter_mut().zip(brow) {
                    *av += ar * bv;
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod fma {
        use super::{MR, NR};
        use std::arch::x86_64::*;

        /// AVX2+FMA microkernel: the 4×16 tile lives in eight `__m256`
        /// accumulators across the whole depth panel; one broadcast per
        /// A element, two FMAs per (row, half-tile).
        ///
        /// # Safety
        /// Caller must ensure the CPU supports AVX2 and FMA, and that
        /// `ap.len() >= kb * MR` and `bp.len() >= kb * NR` for
        /// `kb = bp.len() / NR`.
        #[target_feature(enable = "avx2,fma")]
        pub(super) unsafe fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
            let kb = bp.len() / NR;
            debug_assert!(ap.len() >= kb * MR);
            let mut c = [[_mm256_setzero_ps(); 2]; MR];
            for kk in 0..kb {
                let b0 = _mm256_loadu_ps(bp.as_ptr().add(kk * NR));
                let b1 = _mm256_loadu_ps(bp.as_ptr().add(kk * NR + 8));
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.get_unchecked(kk * MR + r));
                    cr[0] = _mm256_fmadd_ps(av, b0, cr[0]);
                    cr[1] = _mm256_fmadd_ps(av, b1, cr[1]);
                }
            }
            for (accr, cr) in acc.iter_mut().zip(&c) {
                _mm256_storeu_ps(accr.as_mut_ptr(), cr[0]);
                _mm256_storeu_ps(accr.as_mut_ptr().add(8), cr[1]);
            }
        }
    }

    #[inline]
    fn run_micro(use_fma: bool, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        #[cfg(target_arch = "x86_64")]
        if use_fma {
            // SAFETY: `use_fma` is only true when fma_available()
            // detected AVX2+FMA; ap/bp are full kb*MR / kb*NR panels.
            unsafe { fma::microkernel(ap, bp, acc) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_fma;
        microkernel_generic(ap, bp, acc);
    }

    /// Packs the `kb`×`MR` tile of A rows `i0..i0 + mr`, depth
    /// `k0..k0 + kb`: `apack[kk * MR + r] = A[i0 + r][k0 + kk]`, lanes
    /// `mr..MR` zero. `a` is `m`×`k` row-major, or `k`×`m` when
    /// `trans` (then a tile row is contiguous in `a`).
    pub(super) fn pack_a(
        (a, trans): (&[f32], bool),
        (m, k): (usize, usize),
        (i0, mr): (usize, usize),
        (k0, kb): (usize, usize),
        apack: &mut Vec<f32>,
    ) {
        apack.resize(kb * MR, 0.0);
        if trans {
            let src = a[k0 * m..(k0 + kb) * m].chunks_exact(m);
            let dst = apack.chunks_exact_mut(MR);
            // A full-width copy has a constant length and compiles to
            // one vector move instead of a `memcpy` call per depth step.
            if mr == MR {
                for (dst, arow) in dst.zip(src) {
                    dst.copy_from_slice(&arow[i0..i0 + MR]);
                }
            } else {
                for (dst, arow) in dst.zip(src) {
                    dst[..mr].copy_from_slice(&arow[i0..i0 + mr]);
                    dst[mr..].fill(0.0);
                }
            }
        } else {
            if mr < MR {
                apack.fill(0.0);
            }
            for (r, arow) in a[i0 * k..(i0 + mr) * k].chunks_exact(k).enumerate() {
                for (dst, &v) in apack.chunks_exact_mut(MR).zip(&arow[k0..k0 + kb]) {
                    dst[r] = v;
                }
            }
        }
    }

    /// Packs depth `k0..k0 + kb` of B into `⌈n/NR⌉` panels of
    /// `kb`×`NR`: `bpack[jp][kk * NR + j] = B[k0 + kk][jp * NR + j]`,
    /// lanes past `n` zero. `b` is `k`×`n` row-major, or `n`×`k` when
    /// `trans` (then a panel *column* is contiguous in `b`).
    pub(super) fn pack_b(
        (b, trans): (&[f32], bool),
        (k, n): (usize, usize),
        (k0, kb): (usize, usize),
        bpack: &mut Vec<f32>,
    ) {
        bpack.resize(n.div_ceil(NR) * kb * NR, 0.0);
        for (jp, panel) in bpack.chunks_exact_mut(kb * NR).enumerate() {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            if trans {
                if jw < NR {
                    panel.fill(0.0);
                }
                for (j, bcol) in b[j0 * k..(j0 + jw) * k].chunks_exact(k).enumerate() {
                    for (dst, &v) in panel.chunks_exact_mut(NR).zip(&bcol[k0..k0 + kb]) {
                        dst[j] = v;
                    }
                }
            } else {
                let src = b[k0 * n..(k0 + kb) * n].chunks_exact(n);
                let dst = panel.chunks_exact_mut(NR);
                if jw == NR {
                    for (dst, brow) in dst.zip(src) {
                        dst.copy_from_slice(&brow[j0..j0 + NR]);
                    }
                } else {
                    for (dst, brow) in dst.zip(src) {
                        dst[..jw].copy_from_slice(&brow[j0..j0 + jw]);
                        dst[jw..].fill(0.0);
                    }
                }
            }
        }
    }

    /// `out[m x n] += A * B`; each operand is its slice plus whether it
    /// is stored transposed (`a`: `k`×`m`, `b`: `n`×`k`).
    pub(super) fn gemm(
        m: usize,
        k: usize,
        n: usize,
        a: (&[f32], bool),
        b: (&[f32], bool),
        out: &mut [f32],
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let use_fma = fma_available();
        SCRATCH.with(|s| {
            let (apack, bpack) = &mut *s.borrow_mut();
            for k0 in (0..k).step_by(KC) {
                let kb = (k0 + KC).min(k) - k0;
                pack_b(b, (k, n), (k0, kb), bpack);
                for i0 in (0..m).step_by(MR) {
                    let mr = MR.min(m - i0);
                    pack_a(a, (m, k), (i0, mr), (k0, kb), apack);
                    for (jp, panel) in bpack.chunks_exact(kb * NR).enumerate() {
                        let j0 = jp * NR;
                        let jw = NR.min(n - j0);
                        let mut acc = [[0.0f32; NR]; MR];
                        run_micro(use_fma, apack, panel, &mut acc);
                        for (r, accr) in acc.iter().enumerate().take(mr) {
                            let o = (i0 + r) * n + j0;
                            for (ov, &av) in out[o..o + jw].iter_mut().zip(accr) {
                                *ov += av;
                            }
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
        out
    }

    /// Packed-path entries bypassing dispatch, so the parity and floor
    /// tests below compare packed against scalar under
    /// `LINALG_FORCE_SCALAR` too.
    fn sgemm_nn_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
        packed::gemm(m, k, n, (a, false), (b, false), out)
    }

    fn sgemm_nt_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert!(a.len() >= m * k && b.len() >= n * k && out.len() >= m * n);
        packed::gemm(m, k, n, (a, false), (b, true), out)
    }

    fn sgemm_tn_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert!(a.len() >= k * m && b.len() >= k * n && out.len() >= m * n);
        packed::gemm(m, k, n, (a, true), (b, false), out)
    }

    fn fill(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32 + seed) * 0.37).sin()).collect()
    }

    /// |g - w| ≤ tol·max(|w|, 1) elementwise.
    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= tol * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn scalar_nn_bitwise_matches_naive_across_block_edges() {
        // m=6 = one full MR=4 tile + 2 remainder rows, k=300 > KC=256.
        let (m, k, n) = (6, 300, 37);
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut got = vec![0.0f32; m * n];
        sgemm_nn_scalar(m, k, n, &a, &b, &mut got);
        assert_eq!(got, naive_nn(m, k, n, &a, &b));
    }

    #[test]
    fn dispatched_nn_matches_naive_across_block_edges() {
        let (m, k, n) = (6, 300, 37);
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut got = vec![0.0f32; m * n];
        sgemm_nn(m, k, n, &a, &b, &mut got);
        assert_close(&got, &naive_nn(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn packed_nn_matches_scalar_oracle() {
        // n=37 = two full NR=16 panels + 5 remainder cols; k crosses KC.
        let (m, k, n) = (7, 300, 37);
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        sgemm_nn_packed(m, k, n, &a, &b, &mut got);
        sgemm_nn_scalar(m, k, n, &a, &b, &mut want);
        assert_close(&got, &want, 1e-4);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let (m, k, n) = (5, 19, 7);
        let a = fill(m * k, 3.0);
        let bt = fill(n * k, 4.0); // n x k
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let want = naive_nn(m, k, n, &a, &b);
        let mut got = vec![0.0f32; m * n];
        sgemm_nt(m, k, n, &a, &bt, &mut got);
        assert_close(&got, &want, 1e-4);
        let mut got = vec![0.0f32; m * n];
        sgemm_nt_packed(m, k, n, &a, &bt, &mut got);
        assert_close(&got, &want, 1e-4);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let (m, k, n) = (6, 301, 5);
        let at = fill(k * m, 5.0); // k x m
        let mut a = vec![0.0f32; m * k];
        for kk in 0..k {
            for i in 0..m {
                a[i * k + kk] = at[kk * m + i];
            }
        }
        let b = fill(k * n, 6.0);
        let want = naive_nn(m, k, n, &a, &b);
        let mut got = vec![0.0f32; m * n];
        sgemm_tn(m, k, n, &at, &b, &mut got);
        assert_close(&got, &want, 1e-3);
        let mut got = vec![0.0f32; m * n];
        sgemm_tn_packed(m, k, n, &at, &b, &mut got);
        assert_close(&got, &want, 1e-3);
    }

    #[test]
    fn accumulates_into_out() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut out = vec![10.0f32];
        sgemm_nn(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, vec![10.0 + 11.0]);
        let mut out = vec![10.0f32];
        sgemm_nn_packed(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, vec![10.0 + 11.0]);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut out: Vec<f32> = vec![];
        sgemm_nn(0, 3, 0, &[], &[], &mut out);
        sgemm_tn(0, 0, 0, &[], &[], &mut out);
        sgemm_nt(0, 0, 0, &[], &[], &mut out);
        sgemm_nn_packed(0, 3, 0, &[], &[], &mut out);
        sgemm_tn_packed(0, 0, 0, &[], &[], &mut out);
        sgemm_nt_packed(0, 0, 0, &[], &[], &mut out);
    }

    #[test]
    fn backend_is_reported() {
        assert!(["avx2+fma", "packed-generic", "scalar-forced"].contains(&backend()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_nn_matches_naive(
            m in 1usize..9, k in 1usize..40, n in 1usize..9,
            seed in 0.0f32..10.0,
        ) {
            let a = fill(m * k, seed);
            let b = fill(k * n, seed + 0.5);
            let mut got = vec![0.0f32; m * n];
            sgemm_nn(m, k, n, &a, &b, &mut got);
            let want = naive_nn(m, k, n, &a, &b);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-4);
            }
        }

        /// Packed vs scalar parity across the remainder edges: m spans
        /// partial MR=4 tiles, n spans partial NR=16 panels, k crosses
        /// the KC=256 depth boundary.
        #[test]
        fn prop_packed_matches_scalar_at_remainder_edges(
            m in 1usize..10, dn in 0usize..19, dk in 0usize..9,
            seed in 0.0f32..10.0,
            which in 0usize..3,
        ) {
            let n = 1 + dn; // 1..=19 straddles the NR=16 panel edge
            let k = KC - 4 + dk; // 252..=260 straddles the KC edge
            check_packed_matches_scalar(m, k, n, which, seed);
        }

        /// The slice packers must lay out exactly the A tile and B
        /// panels the element-wise reference does, for every transpose
        /// variant, at the MR / NR / KC remainder edges and at shapes
        /// smaller than one tile (m, n < NR; k < 8).
        #[test]
        fn prop_slice_packers_match_elementwise_reference(
            small in 0usize..2,
            dm in 0usize..10, dn in 0usize..35, dk in 0usize..9,
            a_trans in 0usize..2, b_trans in 0usize..2,
            seed in 0.0f32..10.0,
        ) {
            let (a_trans, b_trans) = (a_trans == 1, b_trans == 1);
            let (m, n) = (1 + dm, 1 + dn);
            let k = if small == 1 { 1 + dk } else { KC - 4 + dk };
            let a = fill(m * k, seed);
            let b = fill(k * n, seed + 0.5);
            let at = |i: usize, kk: usize| if a_trans { a[kk * m + i] } else { a[i * k + kk] };
            let bt = |kk: usize, j: usize| if b_trans { b[j * k + kk] } else { b[kk * n + j] };
            // Dirty, oversized scratch: stale lanes must not survive.
            let (mut apack, mut bpack) = (vec![f32::NAN; 3 * KC * MR], vec![f32::NAN; 4 * KC * NR]);
            for k0 in (0..k).step_by(KC) {
                let kb = (k0 + KC).min(k) - k0;
                packed::pack_b((&b, b_trans), (k, n), (k0, kb), &mut bpack);
                prop_assert_eq!(bits(&bpack), bits(&pack_b_ref(&bt, n, k0, kb)));
                for i0 in (0..m).step_by(MR) {
                    let mr = MR.min(m - i0);
                    packed::pack_a((&a, a_trans), (m, k), (i0, mr), (k0, kb), &mut apack);
                    prop_assert_eq!(bits(&apack), bits(&pack_a_ref(&at, i0, mr, k0, kb)));
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Element-wise A-tile packing through an accessor closure: the
    /// reference layout the slice packer must reproduce.
    fn pack_a_ref(
        at: &impl Fn(usize, usize) -> f32,
        i0: usize,
        mr: usize,
        k0: usize,
        kb: usize,
    ) -> Vec<f32> {
        let mut apack = vec![0.0f32; kb * MR];
        for (kk, arow) in apack.chunks_exact_mut(MR).enumerate() {
            for (r, p) in arow[..mr].iter_mut().enumerate() {
                *p = at(i0 + r, k0 + kk);
            }
        }
        apack
    }

    /// Element-wise B-panel packing (see [`pack_a_ref`]).
    fn pack_b_ref(bt: &impl Fn(usize, usize) -> f32, n: usize, k0: usize, kb: usize) -> Vec<f32> {
        let mut bpack = vec![0.0f32; n.div_ceil(NR) * kb * NR];
        for (jp, panel) in bpack.chunks_exact_mut(kb * NR).enumerate() {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            for (kk, prow) in panel.chunks_exact_mut(NR).enumerate() {
                for (j, p) in prow[..jw].iter_mut().enumerate() {
                    *p = bt(k0 + kk, j0 + j);
                }
            }
        }
        bpack
    }

    type Sgemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

    /// `(packed, scalar)` for variant `which`: 0 = nn, 1 = nt, 2 = tn
    /// (operand element counts are `m * k` and `k * n` for all three).
    fn variant(which: usize) -> (Sgemm, Sgemm) {
        match which {
            0 => (sgemm_nn_packed, sgemm_nn_scalar),
            1 => (sgemm_nt_packed, sgemm_nt_scalar),
            _ => (sgemm_tn_packed, sgemm_tn_scalar),
        }
    }

    fn check_packed_matches_scalar(m: usize, k: usize, n: usize, which: usize, seed: f32) {
        let (packed, scalar) = variant(which);
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 0.5);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        packed(m, k, n, &a, &b, &mut got);
        scalar(m, k, n, &a, &b, &mut want);
        assert_close(&got, &want, 1e-4);
    }

    /// The GEMMs the paper's CNN lowers to at a mini-batch of 4: four
    /// shapes of a channels-first lowering, then what `nnet`'s
    /// channels-last layers issue — conv2 forward / weight gradient /
    /// input gradient, conv1 forward / weight gradient, and the first
    /// dense layer's three.
    #[test]
    fn packed_matches_scalar_at_the_cnn_shapes() {
        for (m, k, n, which) in [
            (32, 7, 208, 0),
            (32, 160, 44, 0),
            (32, 44, 160, 1),
            (160, 32, 44, 2),
            (44, 160, 32, 1),
            (32, 44, 160, 2),
            (44, 32, 160, 0),
            (208, 7, 32, 1),
            (32, 208, 7, 2),
            (4, 160, 32, 1),
            (32, 4, 160, 2),
            (4, 32, 160, 0),
        ] {
            check_packed_matches_scalar(m, k, n, which, 1.0);
        }
    }

    /// The kernel floor, as a property of the code: where the CNN calls
    /// it (and at 512³, where packing is < 3 % of the work) the packed
    /// path must not lose to the scalar oracle it replaced — and the
    /// AVX2+FMA microkernel owes a real multiple at 512³. The CNN rows
    /// are what the channels-last layers issue at a mini-batch of 4:
    /// conv2 forward / weight gradient / input gradient, its
    /// batch-of-one forward, conv1 forward / weight gradient (depth 7
    /// and width 7: measured 5.5x and 3.5x) and the first dense layer's
    /// forward and input gradient. Two calls of a batch are *not*
    /// gated, because packing is all they do: the dense weight
    /// gradient `tn` 32x4x160 (depth 4) measures 0.97-1.05x the scalar
    /// oracle (1.8 us either way) and the two-logit head `nt` 4x32x2
    /// 0.42x (0.16 against 0.07 us).
    ///
    /// At these shapes a call is microseconds long, so each sample
    /// loops enough calls to reach ~1 ms; the arms alternate and each
    /// keeps its best of 7, so a host stall has to hit one arm seven
    /// times to matter.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "times optimized code: run with `cargo test --release`"
    )]
    fn packed_beats_the_scalar_oracle_where_the_cnn_calls_it() {
        let floor_512 = if fma_available() { 1.8 } else { 1.0 };
        for (m, k, n, which, floor) in [
            (512, 512, 512, 0, floor_512),
            (44, 160, 32, 1, 1.0),
            (32, 44, 160, 2, 1.0),
            (44, 32, 160, 0, 1.0),
            (11, 160, 32, 1, 1.0),
            (208, 7, 32, 1, 1.0),
            (32, 208, 7, 2, 1.0),
            (4, 160, 32, 1, 1.0),
            (4, 32, 160, 0, 1.0),
        ] {
            let (packed, scalar) = variant(which);
            let a = fill(m * k, 1.0);
            let b = fill(k * n, 1.5);
            let mut out = vec![0.0f32; m * n];
            let calls = (2e7 / (2 * m * k * n) as f64).ceil() as usize;
            let mut time = |f: Sgemm| {
                out.fill(0.0);
                let start = std::time::Instant::now();
                for _ in 0..calls {
                    f(m, k, n, std::hint::black_box(&a), &b, &mut out);
                }
                start.elapsed().as_secs_f64()
            };
            let (mut t_packed, mut t_scalar) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..7 {
                t_scalar = t_scalar.min(time(scalar));
                t_packed = t_packed.min(time(packed));
            }
            let speedup = t_scalar / t_packed;
            assert!(
                speedup >= floor,
                "variant {which} {m}x{k}x{n}: packed is {speedup:.2}x the scalar oracle, floor {floor}x"
            );
        }
    }
}
