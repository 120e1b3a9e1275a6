//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! This replaces the FFT that backs `scipy.signal.spectrogram` in the
//! paper's pipeline. Only power-of-two lengths are handled by the core
//! transform; [`crate::stft`] always pads windows to a power of two, the
//! same strategy SciPy uses when `nfft` is rounded up.
//!
//! [`FftPlan`] / [`RfftPlan`] are plan-then-execute, FFTW-style. A plan
//! precomputes the bit-reversal permutation and a twiddle table once;
//! executing it performs no trigonometry and no allocation. The real
//! plan additionally exploits conjugate symmetry by packing the real
//! signal into a half-length complex transform (half the butterflies of
//! the complex path) and untangling the spectrum afterwards.
//! [`crate::stft`] builds one plan per spectrogram and reuses it for
//! every window. The plans are tested against a self-contained
//! reference transform that recomputes its twiddle factors with a
//! complex-multiply recurrence on every call; it is test code only.

/// A minimal complex number for the FFT; deliberately not a general
/// complex-arithmetic type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs a complex number.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Squared magnitude `re^2 + im^2`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }

    #[inline]
    fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }
}

/// A precomputed plan for FFTs of one fixed power-of-two length:
/// bit-reversal permutation plus a twiddle table (stage-concatenated,
/// `n - 1` factors total). Executing a plan performs no trigonometry
/// and no allocation, so one plan amortizes across every window of a
/// spectrogram sweep.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed counterpart of each index (swap targets).
    bitrev: Vec<u32>,
    /// Forward twiddles `exp(-2*pi*i*j/len)`, concatenated per stage
    /// (`len = 2, 4, ..., n`, `len/2` factors each).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 1 && n.is_power_of_two(),
            "fft length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                if n == 1 {
                    0
                } else {
                    (i as u32).reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            for j in 0..len / 2 {
                let ang = -2.0 * std::f64::consts::PI * j as f64 / len as f64;
                twiddles.push(Complex::new(ang.cos(), ang.sin()));
            }
            len <<= 1;
        }
        Self {
            n,
            bitrev,
            twiddles,
        }
    }

    /// Transform length the plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-1 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// In-place forward FFT using the precomputed tables.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub fn forward(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length differs from plan");
        let n = self.n;
        if n <= 1 {
            return;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies. Each block of `len` is split into its low and
        // high halves and zipped with the twiddle slice, so the inner
        // loop carries no bounds checks and no index arithmetic — the
        // compiler vectorizes the mul/add/sub lanes. The per-element
        // operation sequence is unchanged from the indexed form, so
        // transforms stay bit-exact.
        let mut stage = 0usize; // offset into the twiddle table
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let tw = &self.twiddles[stage..stage + half];
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((l, h), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let u = *l;
                    let v = h.mul(w);
                    *l = u.add(v);
                    *h = u.sub(v);
                }
            }
            stage += half;
            len <<= 1;
        }
    }
}

/// A precomputed plan for real-input FFTs of one fixed power-of-two
/// length `n`: the real signal is packed into a half-length complex
/// buffer (`z[j] = x[2j] + i*x[2j+1]`), transformed with a length-`n/2`
/// [`FftPlan`], and the one-sided spectrum (`n/2 + 1` bins, DC through
/// Nyquist) is recovered by the conjugate-symmetry untangling step —
/// half the butterfly work of the complex path. The packing scratch
/// lives inside the plan, so repeated [`RfftPlan::process`] calls
/// allocate nothing.
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    /// Half-length complex plan (absent for the degenerate `n <= 1`).
    half: Option<FftPlan>,
    /// Untangling twiddles `exp(-2*pi*i*k/n)` for `k in 0..=n/2`.
    rtw: Vec<Complex>,
    /// Packed half-length buffer, reused across calls.
    scratch: Vec<Complex>,
}

impl RfftPlan {
    /// Builds a plan for real transforms of length `n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 1 && n.is_power_of_two(),
            "rfft length must be a power of two, got {n}"
        );
        let half = (n > 1).then(|| FftPlan::new(n / 2));
        let rtw = (0..=n / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        Self {
            n,
            half,
            rtw,
            scratch: vec![Complex::default(); n / 2],
        }
    }

    /// Transform length the plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-1 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Number of one-sided output bins (`n/2 + 1`).
    #[inline]
    pub fn bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Computes the one-sided spectrum of `signal` into `out`.
    ///
    /// `signal` may be shorter than the planned length (the remainder is
    /// treated as zeros — the STFT zero-padding case); `out` must hold
    /// exactly [`Self::bins`] values.
    ///
    /// # Panics
    /// Panics if `signal` is longer than the plan or `out` is missized.
    pub fn process(&mut self, signal: &[f64], out: &mut [Complex]) {
        assert!(signal.len() <= self.n, "signal longer than planned length");
        assert_eq!(out.len(), self.bins(), "output must hold n/2 + 1 bins");
        let Some(half) = &self.half else {
            out[0] = Complex::new(signal.first().copied().unwrap_or(0.0), 0.0);
            return;
        };
        let m = self.n / 2;
        // Pack x[2j], x[2j+1] into one complex point each.
        for (j, z) in self.scratch.iter_mut().enumerate() {
            let re = signal.get(2 * j).copied().unwrap_or(0.0);
            let im = signal.get(2 * j + 1).copied().unwrap_or(0.0);
            *z = Complex::new(re, im);
        }
        half.forward(&mut self.scratch);
        // Untangle: X[k] = E[k] + W^k * O[k] with
        //   E[k] = (Z[k] + conj(Z[m-k])) / 2   (spectrum of even samples)
        //   O[k] = (Z[k] - conj(Z[m-k])) / 2i  (spectrum of odd samples)
        for (k, (o, &w)) in out.iter_mut().zip(&self.rtw).enumerate() {
            let zk = self.scratch[k % m];
            let zmk = self.scratch[(m - k % m) % m].conj();
            let e = Complex::new(0.5 * (zk.re + zmk.re), 0.5 * (zk.im + zmk.im));
            let d = zk.sub(zmk);
            let odd = Complex::new(0.5 * d.im, -0.5 * d.re); // d / 2i
            *o = e.add(w.mul(odd));
        }
    }
}

/// The reference in-place forward FFT: twiddles by recurrence, no
/// plan. What the plans (and `stft`'s per-window oracle) are tested
/// against.
///
/// # Panics
/// Panics unless `buf.len()` is a power of two (zero-length is allowed).
#[cfg(test)]
pub(crate) fn fft_inplace(buf: &mut [Complex]) {
    fft_dir(buf, false);
}

/// The reference in-place inverse FFT (including the `1/N`
/// normalization).
///
/// # Panics
/// Panics unless `buf.len()` is a power of two (zero-length is allowed).
#[cfg(test)]
fn ifft_inplace(buf: &mut [Complex]) {
    fft_dir(buf, true);
    let n = buf.len() as f64;
    if n > 0.0 {
        for v in buf.iter_mut() {
            v.re /= n;
            v.im /= n;
        }
    }
}

#[cfg(test)]
fn fft_dir(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "fft length must be a power of two, got {n}"
    );

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            buf.swap(i, j);
        }
    }

    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = buf[i + j];
                let v = buf[i + j + len / 2].mul(w);
                buf[i + j] = u.add(v);
                buf[i + j + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-shot real-input FFT over a throwaway [`RfftPlan`]: zero-pads
    /// `signal` to the next power of two and returns the one-sided
    /// spectrum (`n/2 + 1` complex bins).
    fn rfft(signal: &[f64]) -> Vec<Complex> {
        if signal.is_empty() {
            return vec![];
        }
        let n = signal.len().next_power_of_two();
        let mut plan = RfftPlan::new(n);
        let mut out = vec![Complex::default(); plan.bins()];
        plan.process(signal, &mut out);
        out
    }

    /// The `n/2 + 1` one-sided magnitudes of [`rfft`].
    fn rfft_mag(signal: &[f64]) -> Vec<f64> {
        rfft(signal).into_iter().map(Complex::abs).collect()
    }

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc = acc.add(v.mul(Complex::new(ang.cos(), ang.sin())));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut got = x.clone();
        fft_inplace(&mut got);
        let want = naive_dft(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_pure_tone_peaks_at_bin() {
        let n = 64;
        let k = 5;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| {
                let ang = 2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                Complex::new(ang.cos(), 0.0)
            })
            .collect();
        fft_inplace(&mut buf);
        let mags: Vec<f64> = buf.iter().map(|c| c.abs()).collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak.min(n - peak), k);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut buf = vec![Complex::default(); 6];
        fft_inplace(&mut buf);
    }

    #[test]
    fn rfft_mag_length_and_padding() {
        let m = rfft_mag(&[1.0, 0.0, 0.0]); // padded to 4
        assert_eq!(m.len(), 3);
        assert!(rfft_mag(&[]).is_empty());
    }

    #[test]
    fn plan_matches_legacy_fft() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()))
                .collect();
            let plan = FftPlan::new(n);
            let mut got = x.clone();
            plan.forward(&mut got);
            let mut want = x.clone();
            fft_inplace(&mut want);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
            }
            ifft_inplace(&mut got);
            for (g, w) in got.iter().zip(&x) {
                assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "differs from plan")]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex::default(); 4];
        plan.forward(&mut buf);
    }

    #[test]
    fn rfft_matches_complex_fft_on_tones() {
        for n in [2usize, 4, 16, 128] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
            let got = rfft(&x);
            let mut full: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft_inplace(&mut full);
            assert_eq!(got.len(), n / 2 + 1);
            for (g, w) in got.iter().zip(&full) {
                assert!(
                    (g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9,
                    "n={n}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn rfft_plan_zero_pads_short_signals() {
        let mut plan = RfftPlan::new(8);
        let mut out = vec![Complex::default(); plan.bins()];
        plan.process(&[1.0, 2.0, 3.0], &mut out);
        let mut full: Vec<Complex> = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            .iter()
            .map(|&v| Complex::new(v, 0.0))
            .collect();
        fft_inplace(&mut full);
        for (g, w) in out.iter().zip(&full) {
            assert!((g.re - w.re).abs() < 1e-12 && (g.im - w.im).abs() < 1e-12);
        }
    }

    #[test]
    fn rfft_length_one() {
        let mut plan = RfftPlan::new(1);
        let mut out = vec![Complex::default(); 1];
        plan.process(&[3.5], &mut out);
        assert_eq!(out[0], Complex::new(3.5, 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_fft_ifft_roundtrip(vals in proptest::collection::vec(-100.0f64..100.0, 32)) {
            let orig: Vec<Complex> = vals.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
            let mut buf = orig.clone();
            fft_inplace(&mut buf);
            ifft_inplace(&mut buf);
            for (a, b) in buf.iter().zip(&orig) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
        }

        /// The real plan must agree with the complex FFT on random real
        /// signals (the satellite parity requirement).
        #[test]
        fn prop_rfft_matches_complex_path(
            vals in proptest::collection::vec(-100.0f64..100.0, 64),
        ) {
            let got = rfft(&vals);
            let mut full: Vec<Complex> =
                vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft_inplace(&mut full);
            for (g, w) in got.iter().zip(&full) {
                prop_assert!((g.re - w.re).abs() < 1e-8);
                prop_assert!((g.im - w.im).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_parseval(vals in proptest::collection::vec(-10.0f64..10.0, 16)) {
            let time: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let mut freq = time.clone();
            fft_inplace(&mut freq);
            let e_time: f64 = time.iter().map(|c| c.norm_sq()).sum();
            let e_freq: f64 = freq.iter().map(|c| c.norm_sq()).sum::<f64>() / time.len() as f64;
            prop_assert!((e_time - e_freq).abs() < 1e-6 * e_time.max(1.0));
        }

        #[test]
        fn prop_fft_linear(
            a in proptest::collection::vec(-5.0f64..5.0, 8),
            b in proptest::collection::vec(-5.0f64..5.0, 8),
        ) {
            let xa: Vec<Complex> = a.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let xb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let sum: Vec<Complex> = xa.iter().zip(&xb).map(|(p, q)| p.add(*q)).collect();
            let mut fa = xa.clone();
            let mut fb = xb.clone();
            let mut fs = sum.clone();
            fft_inplace(&mut fa);
            fft_inplace(&mut fb);
            fft_inplace(&mut fs);
            for ((pa, pb), ps) in fa.iter().zip(&fb).zip(&fs) {
                prop_assert!((pa.re + pb.re - ps.re).abs() < 1e-9);
                prop_assert!((pa.im + pb.im - ps.im).abs() < 1e-9);
            }
        }
    }
}
