//! Single-precision (f32) GEMM kernels over raw slices, and the f64
//! pair tile of the row-by-row products.
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
//! * **SIMD path** (the private `packed::gemm`): an explicit
//!   `MR`×`NR` (4×32) register-tiled microkernel on the arm
//!   `arm()` picks at run time: AVX-512F (two `zmm` accumulators per
//!   row), AVX2+FMA (each 32-wide panel as two 4×16 `ymm` halves: one
//!   4×32 `ymm` tile needs 16 accumulators and spills), or portable
//!   (mul + add, autovectorized). At the CNN's shapes (N or K of a few
//!   dozen) copying operands costs as much as the FMAs they feed, so
//!   the loop nest copies as little as it can. The left operand is
//!   never packed: the microkernel broadcasts it from the slice through
//!   a row and a depth stride. The right operand is read in place when
//!   it is row-major and a depth panel of it fits in L1; only a
//!   transposed (`nt`) or large one is packed into KC×NR panels, on
//!   AVX2 hosts by 8×8 register transposes. Full tiles are added to
//!   `out` straight from the registers. A ragged product (`n < NR ≤
//!   m`) runs transposed, so that its tiles fill every lane. The
//!   microkernel keeps the tile in accumulators across a depth panel
//!   and flushes once per panel, so per-element summation is
//!   reassociated (panel partial sums, FMA contraction): results match
//!   the scalar oracle to ≤1e-4 relative, not bitwise. Both FMA arms
//!   give each output element the same chain (one FMA per depth step,
//!   ascending, from zero, then one add into `out` per panel), so they
//!   agree bit for bit, and match, per microkernel, the packing loop
//!   nest this path replaced, which a `#[cfg(test)]` oracle keeps.
//!
//! The public entry points [`sgemm_nn`] / [`sgemm_nt`] / [`sgemm_tn`]
//! dispatch to the packed path on `arm()` unless `LINALG_FORCE_SCALAR`
//! is set in the environment (checked once); [`backend`] names the arm.
//!
//! **The f64 pair tile.** `pair_sums` runs every row-by-row f64
//! product (`Matrix::matmul_nt`, and through it `Kernel::gram` and
//! `pairwise_sq_dists`; `Kernel::eval_pairs`). It broadcasts 4 rows of
//! the left operand against a strip of 8 rows of the right one, packed
//! depth-major, and keeps four accumulator sets, one per depth residue
//! mod 4: exactly [`crate::dot`]'s lanes, one `*` then one `+` per step
//! and never an FMA, combined as `(l0 + l1) + (l2 + l3)` before the
//! remainder is added in order. Every element is therefore bitwise
//! `dot` (or, with difference-square lanes, [`crate::euclidean_sq`]) on
//! every arm: AVX-512F and AVX2 intrinsics and a portable loop. The
//! autovectorizer is not relied on here: on a 2-vCPU AVX-512F host a
//! safe by-value four-lane body ran at 6–28 GFLOP/s depending on the
//! tile height and on unrelated instantiations.
//!
//! This module is also the crate's one runtime-dispatched island: the
//! other f64 kernels of [`crate::matrix`] and [`crate::eigh`](mod@crate::eigh) run their
//! unchanged bodies through `wide!`, which compiles them for AVX-512F
//! or AVX2 on hosts that have it. `LINALG_FORCE_SCALAR` pins those to
//! baseline codegen too (same bits, two lanes). This is the only place
//! in the workspace that holds `unsafe` code or a `#[target_feature]`.

use std::sync::OnceLock;

/// Depth blocking factor (f32: 256 elements = 1 KiB per panel row).
const KC: usize = 256;
/// Register tile height: output rows updated per microkernel call.
const MR: usize = 4;
/// Register tile width, and the width of a packed panel on every arm:
/// two 16-lane `zmm` per accumulator row, or two 4×16 `ymm` halves.
const NR: usize = 32;

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

/// True when the CPU supports AVX-512F as well as AVX2+FMA (cached).
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| fma_available() && is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The arm both the f32 sgemm entry points and the f64 kernels run on
/// this host: `"avx512f"`, `"avx2+fma"`, `"packed-generic"` (the
/// portable microkernel and baseline f64 codegen, on a CPU without
/// AVX2+FMA) or `"scalar-forced"` (`LINALG_FORCE_SCALAR` set: the scalar
/// sgemm oracles and baseline f64 codegen). The f64 bits are the same on
/// every arm, and so are the f32 bits of the two FMA arms.
pub fn backend() -> &'static str {
    if !simd_enabled() {
        return "scalar-forced";
    }
    match arm() {
        Arm::Avx512 => "avx512f",
        Arm::Avx2 => "avx2+fma",
        Arm::Baseline => "packed-generic",
    }
}

/// The codegen [`wide!`] runs an f64 kernel under, and the microkernel
/// the f32 entry points and [`pair_sums`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arm {
    /// AVX-512F (with AVX2 and FMA): eight `f64` lanes.
    Avx512,
    /// AVX2+FMA: four `f64` lanes.
    Avx2,
    /// The target's baseline (SSE2 on x86-64, two lanes) and the portable
    /// microkernels: CPUs without AVX2+FMA, and every CPU under
    /// `LINALG_FORCE_SCALAR`.
    Baseline,
}

/// The widest arm this CPU runs, or [`Arm::Baseline`] under
/// `LINALG_FORCE_SCALAR` (decided once per process; a test may pin
/// another arm on its thread with `with_arm`).
#[inline]
pub(crate) fn arm() -> Arm {
    #[cfg(test)]
    if let Some(arm) = FORCED_ARM.get() {
        return arm;
    }
    static ARM: OnceLock<Arm> = OnceLock::new();
    *ARM.get_or_init(|| {
        if !simd_enabled() {
            Arm::Baseline
        } else if avx512_available() {
            Arm::Avx512
        } else if fma_available() {
            Arm::Avx2
        } else {
            Arm::Baseline
        }
    })
}

#[cfg(test)]
thread_local! {
    static FORCED_ARM: std::cell::Cell<Option<Arm>> = const { std::cell::Cell::new(None) };
}

/// Every arm this CPU can run, baseline first, whatever
/// `LINALG_FORCE_SCALAR` says.
#[cfg(test)]
pub(crate) fn supported_arms() -> Vec<Arm> {
    let mut arms = vec![Arm::Baseline];
    if fma_available() {
        arms.push(Arm::Avx2);
    }
    if avx512_available() {
        arms.push(Arm::Avx512);
    }
    arms
}

/// Runs `f` with every [`arm()`] on this thread returning `arm`, so a
/// test can hold each arm's codegen and microkernels to one another.
///
/// # Panics
/// Panics if the CPU cannot run `arm`.
#[cfg(test)]
pub(crate) fn with_arm<R>(arm: Arm, f: impl FnOnce() -> R) -> R {
    assert!(supported_arms().contains(&arm), "{arm:?}: not on this CPU");
    let outer = FORCED_ARM.replace(Some(arm));
    let out = f();
    FORCED_ARM.set(outer);
    out
}

/// Runs an f64 kernel body under the widest codegen the CPU has: the
/// one dispatch of every `wide` entry point (`Matrix::{matmul,
/// t_matmul, row_sq_norms}`, `eigh`, `eigh_top`). The row-by-row
/// products run [`pair_sums`] instead, whose arms are intrinsics.
///
/// Each kernel keeps one scalar-source body, marked `#[inline(always)]`,
/// and its entry point is `wide!(body)`. That expands into a `match` on
/// [`arm()`] with three arms: the body in a closure handed to
/// [`wide_avx512`], the body in a second closure handed to
/// [`wide_avx2`], and the body itself. Each closure is then inlined
/// into its `#[target_feature]` clone, so the autovectorizer fills eight
/// or four `f64` lanes instead of SSE2's two. A closure must have no
/// other caller: LLVM keeps a closure that is also called from baseline
/// code, or from a second clone, out of line at baseline width. That is
/// why the dispatch is a macro at each entry point and not a function
/// that picks between two clones of one closure; and why the two clone
/// fns are called from here only (`tests/tests/repo_lints.rs` keeps it
/// so).
///
/// The result is bit-identical on every arm, because the source fixes
/// every summation order (element-wise AXPY / rotation loops,
/// [`crate::dot`]'s four accumulator lanes) and Rust never contracts a
/// separate `*` and `+` into an FMA.
macro_rules! wide {
    ($body:expr) => {
        match $crate::sgemm::arm() {
            $crate::sgemm::Arm::Avx512 => $crate::sgemm::wide_avx512(|| $body),
            $crate::sgemm::Arm::Avx2 => $crate::sgemm::wide_avx2(|| $body),
            $crate::sgemm::Arm::Baseline => $body,
        }
    };
}
pub(crate) use wide;

/// Runs `f` compiled for AVX-512F: [`wide!`]'s [`Arm::Avx512`]. The
/// clone is `#[inline]` so that rustc instantiates it in the caller's
/// codegen unit, beside the closure; instantiated in this module's
/// unit, it could only call the closure out of line.
///
/// # Panics
/// Panics if the CPU lacks AVX-512F, AVX2 or FMA.
#[inline]
pub(crate) fn wide_avx512<R>(f: impl FnOnce() -> R) -> R {
    assert!(avx512_available(), "wide: this CPU lacks AVX-512F+AVX2+FMA");
    #[cfg(target_arch = "x86_64")]
    {
        #[inline]
        #[target_feature(enable = "avx512f,avx2,fma")]
        fn avx512<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: avx512_available() detected AVX-512F, AVX2 and FMA.
        unsafe { avx512(f) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    f()
}

/// Runs `f` compiled for AVX2+FMA: [`wide!`]'s [`Arm::Avx2`], inlined
/// like [`wide_avx512`].
///
/// # Panics
/// Panics if the CPU lacks AVX2 or FMA.
#[inline]
pub(crate) fn wide_avx2<R>(f: impl FnOnce() -> R) -> R {
    assert!(fma_available(), "wide: this CPU lacks AVX2+FMA");
    #[cfg(target_arch = "x86_64")]
    {
        #[inline]
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
        packed::gemm(arm(), (m, k, n), (a, false), (b, false), out)
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
        packed::gemm(arm(), (m, k, n), (a, false), (b, true), out)
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
        packed::gemm(arm(), (m, k, n), (a, true), (b, false), out)
    } else {
        sgemm_tn_scalar(m, k, n, a, b, out)
    }
}

/// Scalar oracle for `out += a * b`: blocked over depth (`KC`),
/// register-tiled over `MR` output rows, contiguous AXPY inner loop.
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

/// The shipped loop nest shared by all three transpose variants.
///
/// Per depth panel of `KC`, each `MR`-row stripe of the left operand
/// meets each `NR`-column panel of the right one in one microkernel
/// call, which adds its `MR`×`NR` tile to `out` once. The left operand
/// is never copied: the microkernel broadcasts its elements straight
/// from the slice through a row and a depth stride, and rows past `m`
/// repeat the last real row (their sums are never written). The right
/// operand is read in place when it is row-major and its `kb`×`n` depth
/// panel fits in L1; otherwise, and for a ragged last panel, it is
/// packed into zero-padded `kb`×`NR` panels. Every output element thus
/// gets `out + chain(k0 → k0 + kb)` per depth panel, the same sums in
/// the same order as the `#[cfg(test)]` packing oracle, bit for bit.
mod packed {
    use super::{Arm, KC, MR, NR};
    use std::cell::RefCell;

    /// Largest `kb`×`n` depth panel (in `f32`s, 32 KiB: one L1d) of a
    /// row-major right operand that is read in place. Above it a packed
    /// panel streams better: `nn` 512³ takes 6.2 ms packed and 8.3 ms
    /// in place on a 2-vCPU AVX2 host.
    const IN_PLACE_B: usize = 8 * 1024;

    std::thread_local! {
        /// Packed right-operand panels, reused across calls on a thread.
        static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// A read-only strided matrix: element `(r, c)` is `s[r * rs + c * cs]`.
    #[derive(Clone, Copy)]
    pub(super) struct View<'s> {
        pub(super) s: &'s [f32],
        pub(super) rs: usize,
        pub(super) cs: usize,
    }

    impl View<'_> {
        /// The transpose, without moving data.
        fn t(self) -> Self {
            View {
                rs: self.cs,
                cs: self.rs,
                ..self
            }
        }
    }

    /// One microkernel call: `A(r, kk) = a[rows[r] + kk * a_cs]` and
    /// `B(kk, j) = b[kk * ldb + j]` for `r < MR`, `j < NR`, `kk < kb`.
    struct Tile<'s> {
        kb: usize,
        a: &'s [f32],
        rows: [usize; MR],
        a_cs: usize,
        b: &'s [f32],
        ldb: usize,
    }

    /// Where a tile's sums go: `out[r * rs + j * cs] += acc[r][j]` for
    /// `r < mr`, `j < jw`; `out` starts at the tile's first element.
    struct Sink<'o> {
        out: &'o mut [f32],
        rs: usize,
        cs: usize,
        mr: usize,
        jw: usize,
    }

    impl Sink<'_> {
        /// Whole `NR`-wide rows that are contiguous in `out`, so the
        /// SIMD kernels add their registers straight into them.
        fn rows_contiguous(&self) -> bool {
            self.cs == 1 && self.jw == NR
        }

        /// `out += acc` over the live `mr`×`jw` corner, one `+` per
        /// element (`out` first, as in the oracle).
        fn add(self, acc: &[[f32; NR]; MR]) {
            for (r, accr) in acc.iter().enumerate().take(self.mr) {
                let o = &mut self.out[r * self.rs..];
                if self.cs == 1 {
                    for (ov, &av) in o[..self.jw].iter_mut().zip(accr) {
                        *ov += av;
                    }
                } else {
                    for (j, &av) in accr[..self.jw].iter().enumerate() {
                        o[j * self.cs] += av;
                    }
                }
            }
        }
    }

    /// Portable microkernel: `acc[r][j] = Σ_kk A(r, kk) * B(kk, j)` as
    /// one `*` and one `+` per step, ascending `kk`, from zero.
    fn tile_generic(t: &Tile, sink: Sink) {
        let mut acc = [[0.0f32; NR]; MR];
        for kk in 0..t.kb {
            let brow: &[f32; NR] = t.b[kk * t.ldb..][..NR].try_into().expect("NR lanes");
            for (accr, &row) in acc.iter_mut().zip(&t.rows) {
                let ar = t.a[row + kk * t.a_cs];
                for (av, &bv) in accr.iter_mut().zip(brow) {
                    *av += ar * bv;
                }
            }
        }
        sink.add(&acc);
    }

    #[cfg(target_arch = "x86_64")]
    mod avx512 {
        use super::{Sink, Tile, MR, NR};
        use std::arch::x86_64::*;

        /// AVX-512F microkernel: the 4×32 tile lives in eight `__m512`
        /// accumulators across the depth panel; one broadcast per A
        /// element, two FMAs per row. Each output element gets the
        /// AVX2 kernel's chain (one FMA per ascending `kk`, from zero,
        /// then one add into `out`), so the bits are its bits.
        /// Contiguous output rows are loaded, added to and stored
        /// straight from the registers; any other tile is spilled and
        /// added by [`Sink::add`].
        ///
        /// # Safety
        /// The CPU must support AVX-512F, and every element the tile
        /// names must lie inside its slice: `rows[r] + (kb - 1) * a_cs <
        /// a.len()`, `(kb - 1) * ldb + NR <= b.len()` and, for contiguous
        /// output rows, `(mr - 1) * rs + NR <= out.len()`.
        #[target_feature(enable = "avx512f,avx2,fma")]
        pub(super) unsafe fn tile(t: &Tile, sink: Sink) {
            let (a, b) = (t.a.as_ptr(), t.b.as_ptr());
            let mut c = [[_mm512_setzero_ps(); 2]; MR];
            for kk in 0..t.kb {
                let b0 = _mm512_loadu_ps(b.add(kk * t.ldb));
                let b1 = _mm512_loadu_ps(b.add(kk * t.ldb + 16));
                for (cr, &row) in c.iter_mut().zip(&t.rows) {
                    let av = _mm512_set1_ps(*a.add(row + kk * t.a_cs));
                    cr[0] = _mm512_fmadd_ps(av, b0, cr[0]);
                    cr[1] = _mm512_fmadd_ps(av, b1, cr[1]);
                }
            }
            if sink.rows_contiguous() {
                let out = sink.out.as_mut_ptr();
                for (r, cr) in c.iter().enumerate().take(sink.mr) {
                    let o = out.add(r * sink.rs);
                    _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), cr[0]));
                    let o = o.add(16);
                    _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), cr[1]));
                }
            } else {
                let mut acc = [[0.0f32; NR]; MR];
                for (accr, cr) in acc.iter_mut().zip(&c) {
                    _mm512_storeu_ps(accr.as_mut_ptr(), cr[0]);
                    _mm512_storeu_ps(accr.as_mut_ptr().add(16), cr[1]);
                }
                sink.add(&acc);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod fma {
        use super::{Sink, Tile, MR, NR};
        use std::arch::x86_64::*;

        /// AVX2+FMA microkernel: the 4×32 tile as two 4×16 halves, each
        /// in eight `__m256` accumulators across the depth panel; one
        /// broadcast per A element, two FMAs per (row, half). A half
        /// with no live column is skipped. Contiguous output rows are
        /// loaded, added to and stored straight from the registers; any
        /// other tile is spilled and added by [`Sink::add`].
        ///
        /// # Safety
        /// As for the AVX-512F kernel, with AVX2 and FMA in its place.
        #[target_feature(enable = "avx2,fma")]
        pub(super) unsafe fn tile(t: &Tile, sink: Sink) {
            let (a, b) = (t.a.as_ptr(), t.b.as_ptr());
            let contiguous = sink.rows_contiguous();
            let mut acc = [[0.0f32; NR]; MR];
            for h in (0..sink.jw).step_by(16) {
                let mut c = [[_mm256_setzero_ps(); 2]; MR];
                for kk in 0..t.kb {
                    let b0 = _mm256_loadu_ps(b.add(kk * t.ldb + h));
                    let b1 = _mm256_loadu_ps(b.add(kk * t.ldb + h + 8));
                    for (cr, &row) in c.iter_mut().zip(&t.rows) {
                        let av = _mm256_set1_ps(*a.add(row + kk * t.a_cs));
                        cr[0] = _mm256_fmadd_ps(av, b0, cr[0]);
                        cr[1] = _mm256_fmadd_ps(av, b1, cr[1]);
                    }
                }
                if contiguous {
                    let out = sink.out.as_mut_ptr();
                    for (r, cr) in c.iter().enumerate().take(sink.mr) {
                        let o = out.add(r * sink.rs + h);
                        _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), cr[0]));
                        let o = o.add(8);
                        _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), cr[1]));
                    }
                } else {
                    for (accr, cr) in acc.iter_mut().zip(&c) {
                        _mm256_storeu_ps(accr.as_mut_ptr().add(h), cr[0]);
                        _mm256_storeu_ps(accr.as_mut_ptr().add(h + 8), cr[1]);
                    }
                }
            }
            if !contiguous {
                sink.add(&acc);
            }
        }

        /// Stores the transpose of the 8×8 block whose row `r` is the 8
        /// floats at `src + r * ld` as the 8 floats at `dst + c * NR`,
        /// for `c < 8`.
        ///
        /// # Safety
        /// The CPU must support AVX2, and those 64 reads and 64 writes
        /// must be in bounds.
        #[target_feature(enable = "avx2,fma")]
        pub(super) unsafe fn transpose8(src: *const f32, ld: usize, dst: *mut f32) {
            let mut r = [_mm256_setzero_ps(); 8];
            for (i, ri) in r.iter_mut().enumerate() {
                *ri = _mm256_loadu_ps(src.add(i * ld));
            }
            let (t0, t1) = (
                _mm256_unpacklo_ps(r[0], r[1]),
                _mm256_unpackhi_ps(r[0], r[1]),
            );
            let (t2, t3) = (
                _mm256_unpacklo_ps(r[2], r[3]),
                _mm256_unpackhi_ps(r[2], r[3]),
            );
            let (t4, t5) = (
                _mm256_unpacklo_ps(r[4], r[5]),
                _mm256_unpackhi_ps(r[4], r[5]),
            );
            let (t6, t7) = (
                _mm256_unpacklo_ps(r[6], r[7]),
                _mm256_unpackhi_ps(r[6], r[7]),
            );
            let s = [
                _mm256_shuffle_ps::<0x44>(t0, t2),
                _mm256_shuffle_ps::<0xEE>(t0, t2),
                _mm256_shuffle_ps::<0x44>(t1, t3),
                _mm256_shuffle_ps::<0xEE>(t1, t3),
                _mm256_shuffle_ps::<0x44>(t4, t6),
                _mm256_shuffle_ps::<0xEE>(t4, t6),
                _mm256_shuffle_ps::<0x44>(t5, t7),
                _mm256_shuffle_ps::<0xEE>(t5, t7),
            ];
            for (c, (&lo, &hi)) in s[..4].iter().zip(&s[4..]).enumerate() {
                _mm256_storeu_ps(dst.add(c * NR), _mm256_permute2f128_ps::<0x20>(lo, hi));
                _mm256_storeu_ps(
                    dst.add((c + 4) * NR),
                    _mm256_permute2f128_ps::<0x31>(lo, hi),
                );
            }
        }
    }

    /// Runs one tile on `arm`'s microkernel. The bounds the SIMD
    /// kernels rely on are checked here, once per tile.
    #[inline]
    fn run_tile(arm: Arm, t: &Tile, sink: Sink) {
        #[cfg(target_arch = "x86_64")]
        if arm != Arm::Baseline {
            let last = t.kb - 1;
            assert!(t.rows.iter().all(|&row| row + last * t.a_cs < t.a.len()));
            assert!(last * t.ldb + NR <= t.b.len());
            assert!(!sink.rows_contiguous() || (sink.mr - 1) * sink.rs + NR <= sink.out.len());
            // SAFETY: an arm other than `Baseline` comes from arm() (or
            // a test's with_arm), which hands out only what the CPU
            // runs: AVX-512F+AVX2+FMA for `Avx512`, AVX2+FMA for `Avx2`.
            // The asserts above are the kernels' bounds contract.
            unsafe {
                if arm == Arm::Avx512 {
                    avx512::tile(t, sink)
                } else {
                    fma::tile(t, sink)
                }
            };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = arm;
        tile_generic(t, sink);
    }

    /// Packs columns `j_from..n` of depth `k0..k0 + kb` of `b` into
    /// panels of `kb`×`NR`: `bpack[p][kk * NR + j] = B(k0 + kk, j0 + j)`
    /// for `j0 = j_from + p * NR`, lanes past `n` zero. A row-major `b`
    /// (`cs == 1`) is copied row by row. A transposed one (`rs == 1`,
    /// the `nt` weights) is transposed 8×8 at a time on the SIMD arms,
    /// and otherwise, like the ragged rest, read one contiguous column at
    /// a time and written strided.
    pub(super) fn pack_b(
        arm: Arm,
        b: View,
        (k0, kb): (usize, usize),
        (j_from, n): (usize, usize),
        bpack: &mut Vec<f32>,
    ) {
        bpack.resize((n - j_from).div_ceil(NR) * kb * NR, 0.0);
        for (p, panel) in bpack.chunks_exact_mut(kb * NR).enumerate() {
            let j0 = j_from + p * NR;
            let jw = NR.min(n - j0);
            if b.cs == 1 {
                for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    let src = &b.s[(k0 + kk) * b.rs + j0..];
                    // A full-width copy has a constant length and
                    // compiles to vector moves, not a `memcpy` call.
                    if jw == NR {
                        dst.copy_from_slice(&src[..NR]);
                    } else {
                        dst[..jw].copy_from_slice(&src[..jw]);
                        dst[jw..].fill(0.0);
                    }
                }
            } else {
                debug_assert_eq!(b.rs, 1);
                if jw < NR {
                    panel.fill(0.0);
                }
                let cols = &b.s[j0 * b.cs + k0..];
                let done = if jw == NR {
                    transpose_rows(arm, cols, b.cs, panel)
                } else {
                    0
                };
                for j in 0..jw {
                    let col = &cols[j * b.cs..][..kb];
                    for (dst, &v) in panel.chunks_exact_mut(NR).zip(col).skip(done) {
                        dst[j] = v;
                    }
                }
            }
        }
    }

    /// On a SIMD arm, fills the first `kb / 8 * 8` depth rows of a full
    /// `kb`×`NR` panel from the `NR` columns at `cols[j * ld..]` by AVX2
    /// 8×8 transposes; returns how many rows it filled.
    fn transpose_rows(arm: Arm, cols: &[f32], ld: usize, panel: &mut [f32]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if arm != Arm::Baseline {
            let done = panel.len() / NR / 8 * 8;
            assert!((NR - 1) * ld + done <= cols.len());
            for kk in (0..done).step_by(8) {
                for h in (0..NR).step_by(8) {
                    // SAFETY: both SIMD arms come from arm() (or a test's
                    // with_arm) only on a CPU with AVX2+FMA; the assert
                    // bounds the reads, and `kk + 8 <= kb` the writes.
                    unsafe {
                        fma::transpose8(
                            cols.as_ptr().add(h * ld + kk),
                            ld,
                            panel.as_mut_ptr().add(kk * NR + h),
                        )
                    };
                }
            }
            return done;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (arm, cols, ld, panel);
        0
    }

    /// `out[m x n] += A * B`; each operand is its slice plus whether it
    /// is stored transposed (`a`: `k`×`m`, `b`: `n`×`k`), on `arm`'s
    /// microkernel (callers pass [`super::arm()`]).
    pub(super) fn gemm(
        arm: Arm,
        (m, k, n): (usize, usize, usize),
        (a, ta): (&[f32], bool),
        (b, tb): (&[f32], bool),
        out: &mut [f32],
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let a = if ta {
            View { s: a, rs: 1, cs: m }
        } else {
            View { s: a, rs: k, cs: 1 }
        };
        let b = if tb {
            View { s: b, rs: 1, cs: k }
        } else {
            View { s: b, rs: n, cs: 1 }
        };
        if n < NR && NR <= m {
            // A ragged product fills only `n` of a tile's `NR` lanes;
            // its transpose `outᵀ += Bᵀ Aᵀ` fills them all. Each output
            // element keeps its chain: only the factors of every
            // product swap sides.
            tiles(arm, (n, k, m), b.t(), a.t(), (out, 1, n));
        } else {
            tiles(arm, (m, k, n), a, b, (out, n, 1));
        }
    }

    /// `C += A * B` for `A` `m`×`k`, `B` `k`×`n` and `C(i, j) =
    /// out[i * c_rs + j * c_cs]`.
    fn tiles(
        arm: Arm,
        (m, k, n): (usize, usize, usize),
        a: View,
        b: View,
        (out, c_rs, c_cs): (&mut [f32], usize, usize),
    ) {
        SCRATCH.with(|s| {
            let bpack = &mut *s.borrow_mut();
            for k0 in (0..k).step_by(KC) {
                let kb = (k0 + KC).min(k) - k0;
                // Columns before `packed_from` are read in place.
                let packed_from = if b.cs == 1 && kb * n <= IN_PLACE_B {
                    n / NR * NR
                } else {
                    0
                };
                pack_b(arm, b, (k0, kb), (packed_from, n), bpack);
                for i0 in (0..m).step_by(MR) {
                    let mr = MR.min(m - i0);
                    let rows = std::array::from_fn(|r| (i0 + r.min(mr - 1)) * a.rs + k0 * a.cs);
                    for j0 in (0..n).step_by(NR) {
                        let (b, ldb) = if j0 < packed_from {
                            (&b.s[k0 * b.rs + j0..], b.rs)
                        } else {
                            (&bpack[(j0 - packed_from) * kb..][..kb * NR], NR)
                        };
                        let tile = Tile {
                            kb,
                            a: a.s,
                            rows,
                            a_cs: a.cs,
                            b,
                            ldb,
                        };
                        let sink = Sink {
                            out: &mut out[i0 * c_rs + j0 * c_cs..],
                            rs: c_rs,
                            cs: c_cs,
                            mr,
                            jw: NR.min(n - j0),
                        };
                        run_tile(arm, &tile, sink);
                    }
                }
            }
        })
    }
}

/// What the f64 pair tile sums over the depth of a row pair `(x, y)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PairSum {
    /// `x * y`: each sum is bitwise [`crate::dot`]`(x, y)`.
    Dot,
    /// `(x - y) * (x - y)`: each sum is bitwise
    /// [`crate::euclidean_sq`]`(x, y)`.
    DiffSq,
}

/// Rows of the left operand per pair tile, each broadcast per depth
/// step.
const PAIR_ROWS: usize = 4;
/// Rows of the right operand per pair tile: the width of its packed
/// strip, one `zmm` of `f64`. Four rows times four lane sets fill 16 of
/// AVX-512's 32 registers.
const PAIR_COLS: usize = 8;

/// Calls `put(i, j, s)` with `s` the [`PairSum`] of row `i` of `a`
/// (`m`×`k`, row-major) and row `j` of `b` (`n`×`k`), bitwise what
/// [`crate::dot`] or [`crate::euclidean_sq`] returns for the two rows,
/// on every [`arm()`]. Every pair is visited once; with `upper`, only
/// the tiles that reach the diagonal or right of it are run, which
/// visits every pair `i <= j` and some below it.
///
/// Per strip of [`PAIR_COLS`] rows of `b`, packed depth-major and
/// zero-padded, each [`PAIR_ROWS`]-row tile of `a` keeps four
/// accumulator sets, one per depth residue mod 4, and combines them as
/// `(l0 + l1) + (l2 + l3)` before it adds the remainder in order: the
/// lanes, combine and remainder of `dot`. Rows past `m` repeat the last
/// real row and padded columns sum zeros; neither is put.
///
/// # Panics
/// Panics if `a` or `b` is shorter than its shape implies.
pub(crate) fn pair_sums(
    sum: PairSum,
    (m, k, n): (usize, usize, usize),
    (a, b): (&[f64], &[f64]),
    upper: bool,
    put: impl FnMut(usize, usize, f64),
) {
    assert!(a.len() >= m * k && b.len() >= n * k);
    match sum {
        PairSum::Dot => pair_tiles::<false>((m, k, n), (a, b), upper, put),
        PairSum::DiffSq => pair_tiles::<true>((m, k, n), (a, b), upper, put),
    }
}

/// [`pair_sums`] with the sum fixed at compile time (`DIFF` selects
/// [`PairSum::DiffSq`]).
fn pair_tiles<const DIFF: bool>(
    (m, k, n): (usize, usize, usize),
    (a, b): (&[f64], &[f64]),
    upper: bool,
    mut put: impl FnMut(usize, usize, f64),
) {
    let arm = arm();
    let mut strip = vec![[0.0f64; PAIR_COLS]; k];
    for j0 in (0..n).step_by(PAIR_COLS) {
        let jw = PAIR_COLS.min(n - j0);
        for c in 0..jw {
            for (dst, &v) in strip.iter_mut().zip(&b[(j0 + c) * k..][..k]) {
                dst[c] = v;
            }
        }
        if jw < PAIR_COLS {
            strip.iter_mut().for_each(|dst| dst[jw..].fill(0.0));
        }
        let i1 = if upper { m.min(j0 + PAIR_COLS) } else { m };
        for i0 in (0..i1).step_by(PAIR_ROWS) {
            let mr = PAIR_ROWS.min(m - i0);
            let rows = std::array::from_fn(|r| (i0 + r.min(mr - 1)) * k);
            let tile = pair_tile::<DIFF>(arm, a, rows, &strip);
            for (r, sums) in tile.iter().enumerate().take(mr) {
                for (c, &s) in sums.iter().enumerate().take(jw) {
                    put(i0 + r, j0 + c, s);
                }
            }
        }
    }
}

/// One pair tile on `arm`: `out[r][c]` sums rows `a[rows[r]..][..k]` and
/// column `c` of `strip` (`k` = `strip.len()`). The bounds the SIMD
/// arms rely on are checked here, once per tile.
#[inline]
fn pair_tile<const DIFF: bool>(
    arm: Arm,
    a: &[f64],
    rows: [usize; PAIR_ROWS],
    strip: &[[f64; PAIR_COLS]],
) -> [[f64; PAIR_COLS]; PAIR_ROWS] {
    #[cfg(target_arch = "x86_64")]
    if arm != Arm::Baseline {
        assert!(rows.iter().all(|&row| row + strip.len() <= a.len()));
        // SAFETY: an arm other than `Baseline` comes from arm() (or a
        // test's with_arm), which hands out only what the CPU runs:
        // AVX-512F for `Avx512`, AVX2 for `Avx2`. The assert above is
        // the kernels' bounds contract.
        return unsafe {
            if arm == Arm::Avx512 {
                pair_avx512::tile::<DIFF>(a, rows, strip)
            } else {
                pair_avx2::tile::<DIFF>(a, rows, strip)
            }
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    pair_tile_portable::<DIFF>(a, rows, strip)
}

/// The pair tile in plain Rust, for the baseline arm.
fn pair_tile_portable<const DIFF: bool>(
    a: &[f64],
    rows: [usize; PAIR_ROWS],
    strip: &[[f64; PAIR_COLS]],
) -> [[f64; PAIR_COLS]; PAIR_ROWS] {
    let term = |x: f64, y: f64| if DIFF { (x - y) * (x - y) } else { x * y };
    let k = strip.len();
    let body = k - k % 4;
    let mut acc = [[[0.0f64; PAIR_COLS]; 4]; PAIR_ROWS];
    for q in (0..body).step_by(4) {
        for (l, y) in strip[q..q + 4].iter().enumerate() {
            for (accr, &row) in acc.iter_mut().zip(&rows) {
                let x = a[row + q + l];
                for (s, &yc) in accr[l].iter_mut().zip(y) {
                    *s += term(x, yc);
                }
            }
        }
    }
    let mut out = [[0.0f64; PAIR_COLS]; PAIR_ROWS];
    for ((o, t), &row) in out.iter_mut().zip(&acc).zip(&rows) {
        for (c, oc) in o.iter_mut().enumerate() {
            let mut s = (t[0][c] + t[1][c]) + (t[2][c] + t[3][c]);
            for (q, y) in strip.iter().enumerate().skip(body) {
                s += term(a[row + q], y[c]);
            }
            *oc = s;
        }
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod pair_avx512 {
    use super::{PAIR_COLS, PAIR_ROWS};
    use std::arch::x86_64::*;

    /// One depth step's term: `x * y`, or `(x - y)²` when `DIFF`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn term<const DIFF: bool>(x: __m512d, y: __m512d) -> __m512d {
        if DIFF {
            let d = _mm512_sub_pd(x, y);
            _mm512_mul_pd(d, d)
        } else {
            _mm512_mul_pd(x, y)
        }
    }

    /// The pair tile in sixteen `__m512d` accumulators: one per (row,
    /// depth residue mod 4), each lane a column of the strip. One
    /// broadcast per A element, then one multiply and one add per
    /// accumulator and depth step.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `rows[r] + strip.len() <=
    /// a.len()` for every `r`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile<const DIFF: bool>(
        a: &[f64],
        rows: [usize; PAIR_ROWS],
        strip: &[[f64; PAIR_COLS]],
    ) -> [[f64; PAIR_COLS]; PAIR_ROWS] {
        let (a, s, k) = (a.as_ptr(), strip.as_ptr().cast::<f64>(), strip.len());
        let body = k - k % 4;
        let mut acc = [[_mm512_setzero_pd(); 4]; PAIR_ROWS];
        for q in (0..body).step_by(4) {
            for l in 0..4 {
                let y = _mm512_loadu_pd(s.add((q + l) * PAIR_COLS));
                for (accr, &row) in acc.iter_mut().zip(&rows) {
                    let x = _mm512_set1_pd(*a.add(row + q + l));
                    accr[l] = _mm512_add_pd(accr[l], term::<DIFF>(x, y));
                }
            }
        }
        let mut out = [[0.0f64; PAIR_COLS]; PAIR_ROWS];
        for ((o, t), &row) in out.iter_mut().zip(&acc).zip(&rows) {
            let mut sum = _mm512_add_pd(_mm512_add_pd(t[0], t[1]), _mm512_add_pd(t[2], t[3]));
            for q in body..k {
                let (x, y) = (
                    _mm512_set1_pd(*a.add(row + q)),
                    _mm512_loadu_pd(s.add(q * PAIR_COLS)),
                );
                sum = _mm512_add_pd(sum, term::<DIFF>(x, y));
            }
            _mm512_storeu_pd(o.as_mut_ptr(), sum);
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod pair_avx2 {
    use super::{PAIR_COLS, PAIR_ROWS};
    use std::arch::x86_64::*;

    /// One depth step's term: `x * y`, or `(x - y)²` when `DIFF`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn term<const DIFF: bool>(x: __m256d, y: __m256d) -> __m256d {
        if DIFF {
            let d = _mm256_sub_pd(x, y);
            _mm256_mul_pd(d, d)
        } else {
            _mm256_mul_pd(x, y)
        }
    }

    /// The pair tile one row at a time, in eight `__m256d` accumulators
    /// (depth residue mod 4 × two four-column halves of the strip): all
    /// four rows at once would need 32 and spill.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `rows[r] + strip.len() <= a.len()`
    /// for every `r`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile<const DIFF: bool>(
        a: &[f64],
        rows: [usize; PAIR_ROWS],
        strip: &[[f64; PAIR_COLS]],
    ) -> [[f64; PAIR_COLS]; PAIR_ROWS] {
        let (a, s, k) = (a.as_ptr(), strip.as_ptr().cast::<f64>(), strip.len());
        let body = k - k % 4;
        let mut out = [[0.0f64; PAIR_COLS]; PAIR_ROWS];
        for (o, &row) in out.iter_mut().zip(&rows) {
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            for q in (0..body).step_by(4) {
                for (l, accl) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_pd(*a.add(row + q + l));
                    for (h, acch) in accl.iter_mut().enumerate() {
                        let y = _mm256_loadu_pd(s.add((q + l) * PAIR_COLS + 4 * h));
                        *acch = _mm256_add_pd(*acch, term::<DIFF>(x, y));
                    }
                }
            }
            for (h, oh) in o.chunks_exact_mut(4).enumerate() {
                let (l01, l23) = (
                    _mm256_add_pd(acc[0][h], acc[1][h]),
                    _mm256_add_pd(acc[2][h], acc[3][h]),
                );
                let mut sum = _mm256_add_pd(l01, l23);
                for q in body..k {
                    let x = _mm256_set1_pd(*a.add(row + q));
                    let y = _mm256_loadu_pd(s.add(q * PAIR_COLS + 4 * h));
                    sum = _mm256_add_pd(sum, term::<DIFF>(x, y));
                }
                _mm256_storeu_pd(oh.as_mut_ptr(), sum);
            }
        }
        out
    }
}

/// The packing loop nest that [`packed`] replaced, kept as its bitwise
/// oracle.
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
#[cfg(test)]
mod packed_oracle {
    use super::{KC, MR};
    use std::cell::RefCell;

    /// The oracle's panel width: the 4×16 tile of its AVX2 kernel. The
    /// width decides no bit: every output element is one chain per depth
    /// panel whatever the tile it sits in.
    pub(super) const NR: usize = 16;

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
            // SAFETY: callers pass `use_fma` only when fma_available()
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
    /// is stored transposed (`a`: `k`×`m`, `b`: `n`×`k`). `use_fma`
    /// picks the AVX2+FMA microkernel.
    pub(super) fn gemm(
        use_fma: bool,
        (m, k, n): (usize, usize, usize),
        a: (&[f32], bool),
        b: (&[f32], bool),
        out: &mut [f32],
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
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

    /// The widest arm this CPU runs, whatever `LINALG_FORCE_SCALAR` says.
    fn widest() -> Arm {
        *supported_arms()
            .last()
            .expect("baseline is always supported")
    }

    /// Shipped-path entries bypassing dispatch, on the widest arm, so the
    /// parity and floor tests below compare it against scalar under
    /// `LINALG_FORCE_SCALAR` too.
    fn sgemm_nn_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
        packed::gemm(widest(), (m, k, n), (a, false), (b, false), out)
    }

    fn sgemm_nt_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert!(a.len() >= m * k && b.len() >= n * k && out.len() >= m * n);
        packed::gemm(widest(), (m, k, n), (a, false), (b, true), out)
    }

    fn sgemm_tn_packed(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert!(a.len() >= k * m && b.len() >= k * n && out.len() >= m * n);
        packed::gemm(widest(), (m, k, n), (a, true), (b, false), out)
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
        // n=37 = one full NR=32 panel + 5 remainder cols; k crosses KC.
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
        let names = ["avx512f", "avx2+fma", "packed-generic", "scalar-forced"];
        assert!(names.contains(&backend()), "{}", backend());
    }

    /// `wide!`, sgemm and the pair tile take the widest arm the CPU has,
    /// detected here afresh: AVX-512F on a host with `avx512f`, `avx2`
    /// and `fma`, AVX2 on one with the last two, baseline otherwise and
    /// under `LINALG_FORCE_SCALAR`; and [`backend`] names it.
    #[test]
    fn wide_takes_the_widest_arm_the_cpu_has() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = {
            let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            (avx2, avx2 && is_x86_feature_detected!("avx512f"))
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        let forced = std::env::var_os("LINALG_FORCE_SCALAR").is_some_and(|v| v != *"0");
        let want = match (forced, avx512, avx2) {
            (true, _, _) | (false, false, false) => Arm::Baseline,
            (false, true, _) => Arm::Avx512,
            (false, false, true) => Arm::Avx2,
        };
        assert_eq!(arm(), want);
        let name = match (forced, want) {
            (true, _) => "scalar-forced",
            (false, Arm::Avx512) => "avx512f",
            (false, Arm::Avx2) => "avx2+fma",
            (false, Arm::Baseline) => "packed-generic",
        };
        assert_eq!(
            backend(),
            name,
            "backend() must name the arm both paths run"
        );
        let arms = supported_arms();
        assert_eq!(arms.contains(&Arm::Avx512), avx512, "{arms:?}");
        assert_eq!(arms.contains(&Arm::Avx2), avx2, "{arms:?}");
        assert_eq!(with_arm(Arm::Baseline, arm), Arm::Baseline);
        assert_eq!(arm(), want, "with_arm must restore the detected arm");
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
        /// partial MR=4 tiles, n spans partial NR=32 panels (and the
        /// AVX2 kernel's 16-column halves), k crosses the KC=256 depth
        /// boundary.
        #[test]
        fn prop_packed_matches_scalar_at_remainder_edges(
            m in 1usize..10, dn in 0usize..35, dk in 0usize..9,
            seed in 0.0f32..10.0,
            which in 0usize..3,
        ) {
            let n = 1 + dn; // 1..=35 straddles the 16 and NR=32 edges
            let k = KC - 4 + dk; // 252..=260 straddles the KC edge
            check_packed_matches_scalar(m, k, n, which, seed);
        }

        /// The slice packers must lay out exactly the A tile and B
        /// panels the element-wise reference does, for every transpose
        /// variant, at the MR / NR / KC remainder edges and at shapes
        /// smaller than one tile (m, n < NR; k < 8): the shipped B
        /// packer both for all panels and for the ragged last one
        /// alone, and the oracle's two packers.
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
            let (mut apack, mut bpack) = (vec![f32::NAN; 3 * KC * MR], vec![f32::NAN; 2 * KC * NR]);
            let view = if b_trans {
                packed::View { s: &b, rs: 1, cs: k }
            } else {
                packed::View { s: &b, rs: n, cs: 1 }
            };
            for k0 in (0..k).step_by(KC) {
                let kb = (k0 + KC).min(k) - k0;
                for j_from in [0, n / NR * NR] {
                    for arm in supported_arms() {
                        bpack.fill(f32::NAN);
                        packed::pack_b(arm, view, (k0, kb), (j_from, n), &mut bpack);
                        prop_assert_eq!(bits(&bpack), bits(&pack_b_ref::<NR>(&bt, (j_from, n), k0, kb)));
                    }
                }
                packed_oracle::pack_b((&b, b_trans), (k, n), (k0, kb), &mut bpack);
                let want = pack_b_ref::<{ packed_oracle::NR }>(&bt, (0, n), k0, kb);
                prop_assert_eq!(bits(&bpack), bits(&want));
                for i0 in (0..m).step_by(MR) {
                    let mr = MR.min(m - i0);
                    packed_oracle::pack_a((&a, a_trans), (m, k), (i0, mr), (k0, kb), &mut apack);
                    prop_assert_eq!(bits(&apack), bits(&pack_a_ref(&at, i0, mr, k0, kb)));
                }
            }
        }
    }

    /// The eleven GEMMs of one mini-batch of 4 through the paper's CNN,
    /// as `(m, k, n, variant)`: conv1 forward / weight gradient (it
    /// needs no input gradient), conv2 forward / weight gradient /
    /// input gradient, and the same three for each dense layer.
    const CNN_SHAPES: [(usize, usize, usize, usize); 11] = [
        (208, 7, 32, 1),
        (32, 208, 7, 2),
        (44, 160, 32, 1),
        (32, 44, 160, 2),
        (44, 32, 160, 0),
        (4, 160, 32, 1),
        (32, 4, 160, 2),
        (4, 32, 160, 0),
        (4, 32, 2, 1),
        (2, 4, 32, 2),
        (4, 2, 32, 0),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bit parity of the shipped loop nest with the packing oracle it
        /// replaced, per microkernel (the portable one runs on AVX2 hosts
        /// too) and through the dispatched entry points. `m` and `n` cross
        /// MR and NR, `k` crosses KC twice, `ragged` forces `n < NR` so
        /// that `m ≥ NR` takes the transposed orientation, and operands are
        /// exactly `m * k` / `k * n` long, so an over-read panics (or trips
        /// AddressSanitizer inside the AVX2 kernel). Every third row of
        /// `op(a)` is zero, so its outputs get a `+0.0` sum, and `out` is
        /// seeded with `-0.0` among other values: `-0.0 + +0.0 = +0.0`
        /// only if the sum is formed apart from `out` and added once.
        #[test]
        fn prop_shipped_matches_the_packing_oracle_bit_for_bit(
            m in 0usize..=70, n in 0usize..=70, k in 0usize..=600,
            which in 0usize..3, ragged in 0usize..2, seed in 0.0f32..10.0,
        ) {
            let n = if ragged == 1 { n % NR } else { n };
            check_bits_match_oracle(m, k, n, which, seed);
        }
    }

    fn check_bits_match_oracle(m: usize, k: usize, n: usize, which: usize, seed: f32) {
        let (ta, tb) = [(false, false), (false, true), (true, false)][which];
        let mut a = fill(m * k, seed);
        for i in (0..m).step_by(3) {
            for kk in 0..k {
                a[if ta { kk * m + i } else { i * k + kk }] = 0.0;
            }
        }
        let b = fill(k * n, seed + 0.5);
        let out0: Vec<f32> = (0..m * n)
            .map(|i| {
                if i % 4 == 0 {
                    -0.0
                } else {
                    fill(1, seed + i as f32)[0] * 3.0
                }
            })
            .collect();
        // Both FMA arms against the oracle's AVX2 kernel, the portable
        // arm against its portable one.
        let oracle = |arm: Arm| {
            let mut out = out0.clone();
            packed_oracle::gemm(
                arm != Arm::Baseline,
                (m, k, n),
                (&a, ta),
                (&b, tb),
                &mut out,
            );
            bits(&out)
        };
        for arm in supported_arms() {
            let mut got = out0.clone();
            packed::gemm(arm, (m, k, n), (&a, ta), (&b, tb), &mut got);
            assert_eq!(
                bits(&got),
                oracle(arm),
                "{m}x{k}x{n} variant {which} on {arm:?}"
            );
            if simd_enabled() {
                let mut got = out0.clone();
                with_arm(arm, || {
                    [sgemm_nn, sgemm_nt, sgemm_tn][which](m, k, n, &a, &b, &mut got)
                });
                assert_eq!(
                    bits(&got),
                    oracle(arm),
                    "dispatched {m}x{k}x{n} variant {which} on {arm:?}"
                );
            }
        }
    }

    /// The eleven GEMMs of a CNN mini-batch of 4, bit for bit.
    #[test]
    fn shipped_matches_the_packing_oracle_at_the_cnn_shapes() {
        for (m, k, n, which) in CNN_SHAPES {
            check_bits_match_oracle(m, k, n, which, 1.0);
        }
    }

    /// The AVX-512F microkernel against the AVX2 one, bit for bit, each
    /// arm taken by the dispatch through `with_arm`: at the CNN shapes;
    /// across the MR / NR / KC edges and the AVX2 kernel's 16-column
    /// half; at `16 <= n < NR` with `m >= NR`, which runs transposed; and
    /// at `k < 8` and `m < MR`. `out` starts non-zero, as the gradient
    /// buffers do.
    #[test]
    fn avx512_sgemm_matches_avx2_bit_for_bit() {
        if !supported_arms().contains(&Arm::Avx512) {
            eprintln!("skipped: this CPU has no AVX-512F");
            return;
        }
        let mut shapes = CNN_SHAPES.to_vec();
        for which in 0..3 {
            for (m, k, n) in [
                (MR + 1, KC + 1, NR + 1),
                (MR - 1, KC - 1, NR - 1),
                (2 * MR, 2 * KC + 3, 2 * NR),
                (NR + 3, 40, 16),
                (NR, 33, 17),
                (2 * NR + 1, 9, NR - 1),
                (9, 7, 16),
                (1, 1, 1),
                (3, 5, 40),
                (MR - 1, 300, 16),
            ] {
                shapes.push((m, k, n, which));
            }
        }
        for (m, k, n, which) in shapes {
            let (ta, tb) = [(false, false), (false, true), (true, false)][which];
            let (a, b) = (fill(m * k, 0.3), fill(k * n, 0.7));
            let on = |wanted: Arm| {
                let mut out = fill(m * n, 1.1);
                with_arm(wanted, || {
                    packed::gemm(arm(), (m, k, n), (&a, ta), (&b, tb), &mut out)
                });
                bits(&out)
            };
            assert_eq!(
                on(Arm::Avx512),
                on(Arm::Avx2),
                "{m}x{k}x{n} variant {which}"
            );
        }
    }

    /// `m`×`k` values whose magnitudes span six decades, so that any
    /// reordered or fused sum rounds differently.
    fn spread(m: usize, k: usize, seed: f64) -> Vec<f64> {
        (0..m * k)
            .map(|i| (i as f64 * 0.37 + seed).sin() * 10f64.powi((i * 5 % 7) as i32 - 3))
            .collect()
    }

    /// Every pair `pair_sums` visits on `arm`, as bits, `None` where it
    /// visited none; a pair visited twice panics.
    fn visited(
        arm: Arm,
        sum: PairSum,
        (m, k, n): (usize, usize, usize),
        (a, b): (&[f64], &[f64]),
        upper: bool,
    ) -> Vec<Option<u64>> {
        let mut got = vec![None; m * n];
        with_arm(arm, || {
            pair_sums(sum, (m, k, n), (a, b), upper, |i, j, v| {
                let first = got[i * n + j].replace(v.to_bits()).is_none();
                assert!(first, "pair ({i}, {j}) visited twice");
            })
        });
        got
    }

    /// The f64 pair tile on every arm this CPU has, through `with_arm`,
    /// bit for bit against [`crate::dot`] and [`crate::euclidean_sq`] per
    /// pair: depth `d % 4` of 0, 1, 2 and 3 (short and long), left rows
    /// over every `m % 4`, right rows over every `n % 8`, general visits
    /// (every pair) and upper ones (a matrix with itself: every `i <=
    /// j`), and empty operands.
    #[test]
    fn pair_tile_is_bitwise_dot_and_euclidean_sq_on_every_arm() {
        for k in [0, 1, 2, 3, 4, 5, 6, 7, 160, 163] {
            for m in [0, 1, 2, 3, 4, 5, 6, 7, 13] {
                for n in [0, 1, 3, 7, 8, 9, 12, 15, 16, 17] {
                    let (a, b) = (spread(m, k, 0.5), spread(n, k, -1.5));
                    for sum in [PairSum::Dot, PairSum::DiffSq] {
                        let pair = |x: &[f64], i: usize, y: &[f64], j: usize| {
                            let (x, y) = (&x[i * k..][..k], &y[j * k..][..k]);
                            match sum {
                                PairSum::Dot => crate::dot(x, y),
                                PairSum::DiffSq => crate::euclidean_sq(x, y),
                            }
                            .to_bits()
                        };
                        for arm in supported_arms() {
                            let at = format!("{sum:?} {m}x{k}x{n} on {arm:?}");
                            let got = visited(arm, sum, (m, k, n), (&a, &b), false);
                            for (ij, g) in got.iter().enumerate() {
                                let want = pair(&a, ij / n, &b, ij % n);
                                assert_eq!(*g, Some(want), "{at}: pair {ij}");
                            }
                            let got = visited(arm, sum, (m, k, m), (&a, &a), true);
                            for (ij, g) in got.iter().enumerate() {
                                let (i, j) = (ij / m, ij % m);
                                if i <= j {
                                    assert_eq!(*g, Some(pair(&a, i, &a, j)), "{at}: upper {i},{j}");
                                }
                            }
                        }
                    }
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

    /// Element-wise packing of B's columns `j_from..n` into panels `W`
    /// wide (see [`pack_a_ref`]).
    fn pack_b_ref<const W: usize>(
        bt: &impl Fn(usize, usize) -> f32,
        (j_from, n): (usize, usize),
        k0: usize,
        kb: usize,
    ) -> Vec<f32> {
        let mut bpack = vec![0.0f32; (n - j_from).div_ceil(W) * kb * W];
        for (jp, panel) in bpack.chunks_exact_mut(kb * W).enumerate() {
            let j0 = j_from + jp * W;
            let jw = W.min(n - j0);
            for (kk, prow) in panel.chunks_exact_mut(W).enumerate() {
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
    /// it, and at 512³, the shipped path must not lose to the scalar
    /// oracle it replaced, and the AVX2+FMA microkernel owes a real
    /// multiple at 512³. The CNN rows are nine of a mini-batch's eleven
    /// GEMMs ([`CNN_SHAPES`]) and conv2's batch-of-one forward.
    ///
    /// The two-logit head is the exception. Its forward `nt` 4x32x2 is
    /// one tile of 2 live lanes whose eight outputs each need a 32-deep
    /// FMA chain, because those are the bits every backend keeps. The
    /// scalar oracle splits each dot product in four partial sums, so
    /// it wins on latency: 0.40x (0.17 against 0.07 us; the packing
    /// path measured 0.42x). Its floor of 0.3 guards only the tile
    /// path's fixed cost. Its weight and input gradients (depth 4 and
    /// 2) are all fixed cost, ≈ 0.07 us either way, and are not timed.
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
    fn shipped_holds_its_floor_over_the_scalar_oracle_at_the_cnn_shapes_and_512_cubed() {
        let floor_512 = if widest() == Arm::Baseline { 1.0 } else { 1.8 };
        for (m, k, n, which, floor) in [
            (512, 512, 512, 0, floor_512),
            (44, 160, 32, 1, 1.0),
            (32, 44, 160, 2, 1.0),
            (44, 32, 160, 0, 1.0),
            (11, 160, 32, 1, 1.0),
            (208, 7, 32, 1, 1.0),
            (32, 208, 7, 2, 1.0),
            (4, 160, 32, 1, 1.0),
            (32, 4, 160, 2, 1.0),
            (4, 32, 160, 0, 1.0),
            (4, 32, 2, 1, 0.3),
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
                "variant {which} {m}x{k}x{n}: shipped is {speedup:.2}x the scalar oracle, floor {floor}x"
            );
        }
    }
}
