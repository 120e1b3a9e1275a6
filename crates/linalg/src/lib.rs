//! # linalg — dense linear algebra and spectral transforms for `taskml`
//!
//! This crate provides the numerical kernels that the rest of the
//! workspace builds on. It replaces the NumPy / SciPy functionality used
//! by the paper's Python stack:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix with BLAS-3-style
//!   multiply ([`Matrix::matmul`]), transpose, slicing and column
//!   statistics (replaces `numpy.ndarray` usage). Products of a matrix
//!   with itself (`m.t_matmul(m)`, `x.matmul_nt(x)`, `Kernel::gram(x,
//!   x)`) compute one triangle and mirror it, bit for bit.
//! * [`eigh()`](eigh::eigh) — symmetric eigendecomposition via Householder
//!   tridiagonalization followed by the implicit-shift QL iteration,
//!   run on the transposed transform so every inner loop walks a
//!   contiguous row (replaces `numpy.linalg.eigh`);
//!   [`eigh_top()`](eigh::eigh_top) is the same solver forming only the
//!   leading `k` eigenvectors, which is what the PCA covariance method
//!   calls.
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT, plus plan-cached
//!   complex and real-input transforms ([`FftPlan`] / [`RfftPlan`])
//!   (replaces the FFT underlying `scipy.signal.spectrogram`).
//! * [`stft`] — Hann-windowed short-time Fourier transform /
//!   spectrogram (replaces `scipy.signal.spectrogram`); a
//!   [`SpectrogramPlan`] amortizes the FFT plan, window, and scratch
//!   across every window of a sweep.
//! * [`kernels`] — pairwise distances and SVM kernel functions.
//! * [`sgemm`] — blocked single-precision GEMM over raw `f32` slices,
//!   the kernel behind the convolution and dense layers of `nnet`, and
//!   the f64 pair tile behind [`Matrix::matmul_nt`] and the SVM
//!   kernels; the crate's one runtime-dispatched (AVX-512F / AVX2 /
//!   portable) and `unsafe` module.
//! * [`pool`] — thread-local recycling pool for `Vec<f64>` storage;
//!   GEMM outputs and eigensolver scratch come from
//!   [`Matrix::from_pool`] and return via [`Matrix::into_pool`].
//!
//! All routines are deterministic and allocation-conscious; hot loops are
//! written so the compiler can vectorize them (see the workspace's
//! `DESIGN.md` §5).

pub mod eigh;
pub mod fft;
pub mod kernels;
pub mod matrix;
pub mod pool;
pub mod sgemm;
pub mod stft;

pub use eigh::{eigh, eigh_top, EighResult};
pub use fft::{fft_inplace, ifft_inplace, rfft, rfft_mag, Complex, FftPlan, RfftPlan};
pub use kernels::{euclidean_sq, Kernel};
pub use matrix::{dot, pairwise_sq_dists, Matrix};
pub use sgemm::{sgemm_nn, sgemm_nn_scalar, sgemm_nt, sgemm_nt_scalar, sgemm_tn, sgemm_tn_scalar};
pub use stft::{hann_window, spectrogram, SpectrogramConfig, SpectrogramPlan};

#[cfg(test)]
mod tests {
    /// Returns `true` when `a` and `b` are equal within `tol` absolutely
    /// or relatively (whichever is looser).
    fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
        let diff = (a - b).abs();
        diff <= tol || diff <= tol * a.abs().max(b.abs())
    }

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }
}
