//! Short-time Fourier transform / spectrogram
//! (`scipy.signal.spectrogram` replacement).
//!
//! The paper (§III-B3) maps each zero-padded ECG recording through a
//! spectrogram, then flattens the time–frequency matrix into a feature
//! vector. This module mirrors SciPy's default behaviour: a Hann window
//! of `nperseg` samples, hop `nperseg - noverlap`, one-sided power
//! spectral density per segment.

use crate::fft::{Complex, RfftPlan};
use crate::matrix::Matrix;

/// Parameters for a [`SpectrogramPlan`], mirroring `scipy.signal.spectrogram`.
#[derive(Debug, Clone, Copy)]
pub struct SpectrogramConfig {
    /// Window length in samples (`nperseg`).
    pub nperseg: usize,
    /// Overlap between successive windows (`noverlap < nperseg`).
    pub noverlap: usize,
    /// Sampling frequency in Hz (only affects the scaling constant).
    pub fs: f64,
}

impl Default for SpectrogramConfig {
    fn default() -> Self {
        // SciPy defaults to nperseg=256, noverlap=nperseg//8... the paper
        // relies on defaults for a 300 Hz signal; 256/32 matches
        // scipy.signal.spectrogram(x) with nperseg=256.
        Self {
            nperseg: 256,
            noverlap: 32,
            fs: 300.0,
        }
    }
}

/// Periodic Hann window of length `n` (SciPy uses the periodic form for
/// spectral analysis).
pub fn hann_window(n: usize) -> Vec<f64> {
    if n == 0 {
        return vec![];
    }
    (0..n)
        .map(|i| {
            let x = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            0.5 * (1.0 - x.cos())
        })
        .collect()
}

/// A reusable spectrogram plan: the [`RfftPlan`], Hann window, PSD
/// scaling constant, and windowed-segment scratch are built once and
/// amortized over every window of every signal pushed through
/// [`SpectrogramPlan::compute`]. A dataset-wide sweep therefore
/// allocates O(1) per signal (the output matrix) instead of re-deriving
/// trigonometry per window.
#[derive(Debug, Clone)]
pub struct SpectrogramPlan {
    cfg: SpectrogramConfig,
    rplan: RfftPlan,
    window: Vec<f64>,
    /// SciPy PSD scaling: `1 / (fs * sum(win^2))`.
    scale: f64,
    /// Windowed segment, reused across windows (`nperseg` samples).
    seg_buf: Vec<f64>,
    /// One-sided spectrum output, reused across windows (`bins` values).
    spec_buf: Vec<Complex>,
}

impl SpectrogramPlan {
    /// Builds a plan for the given configuration.
    ///
    /// # Panics
    /// Panics if `noverlap >= nperseg` or `nperseg == 0`.
    pub fn new(cfg: &SpectrogramConfig) -> Self {
        assert!(cfg.nperseg > 0, "nperseg must be positive");
        assert!(cfg.noverlap < cfg.nperseg, "noverlap must be < nperseg");
        let nfft = cfg.nperseg.next_power_of_two();
        let rplan = RfftPlan::new(nfft);
        let window = hann_window(cfg.nperseg);
        let win_pow: f64 = window.iter().map(|w| w * w).sum();
        let bins = rplan.bins();
        Self {
            cfg: *cfg,
            rplan,
            window,
            scale: 1.0 / (cfg.fs * win_pow),
            seg_buf: vec![0.0; cfg.nperseg],
            spec_buf: vec![Complex::default(); bins],
        }
    }

    /// Number of frequency rows the plan produces (`nfft/2 + 1`).
    #[inline]
    pub fn bins(&self) -> usize {
        self.rplan.bins()
    }

    /// The configuration the plan was built for.
    #[inline]
    pub fn config(&self) -> &SpectrogramConfig {
        &self.cfg
    }

    /// Computes the one-sided power spectrogram of `signal`: one row
    /// per frequency bin, one column per window (SciPy's orientation).
    /// Empty when `signal` is shorter than one window.
    pub fn compute(&mut self, signal: &[f64]) -> Matrix {
        let bins = self.bins();
        let hop = self.cfg.nperseg - self.cfg.noverlap;
        if signal.len() < self.cfg.nperseg {
            return Matrix::zeros(bins, 0);
        }
        let nseg = (signal.len() - self.cfg.nperseg) / hop + 1;
        let mut out = Matrix::zeros(bins, nseg);
        for seg in 0..nseg {
            let start = seg * hop;
            for ((s, &x), &w) in self
                .seg_buf
                .iter_mut()
                .zip(&signal[start..start + self.cfg.nperseg])
                .zip(&self.window)
            {
                *s = x * w;
            }
            // The rfft plan zero-pads nperseg -> nfft internally.
            self.rplan.process(&self.seg_buf, &mut self.spec_buf);
            for (bin, c) in self.spec_buf.iter().enumerate() {
                // One-sided spectrum doubles interior bins.
                let mult = if bin == 0 || bin == bins - 1 {
                    1.0
                } else {
                    2.0
                };
                out.set(bin, seg, mult * c.norm_sq() * self.scale);
            }
        }
        out
    }
}

/// Computes the one-sided power spectrogram of `signal`.
///
/// Returns a [`Matrix`] with one **row per frequency bin**
/// (`nfft/2 + 1` rows, where `nfft = nperseg.next_power_of_two()`) and
/// one **column per time segment**, matching the orientation of
/// `scipy.signal.spectrogram`'s `Sxx` output.
///
/// Signals shorter than one window yield a `bins x 0` matrix.
///
/// Number of features [`SpectrogramPlan::compute`] + flatten produces
/// for a signal of `len` samples, without computing it.
pub fn feature_count(len: usize, cfg: &SpectrogramConfig) -> usize {
    let nfft = cfg.nperseg.next_power_of_two();
    let bins = nfft / 2 + 1;
    let hop = cfg.nperseg - cfg.noverlap;
    if len < cfg.nperseg {
        return 0;
    }
    bins * ((len - cfg.nperseg) / hop + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_inplace;
    use proptest::prelude::*;

    /// One signal's spectrogram over a throwaway plan.
    fn spectrogram(signal: &[f64], cfg: &SpectrogramConfig) -> Matrix {
        SpectrogramPlan::new(cfg).compute(signal)
    }

    /// The per-window oracle: recomputes the Hann window and PSD scaling
    /// per call and the FFT twiddle factors per *window*, and runs the
    /// full complex FFT on the zero-padded segment. [`SpectrogramPlan`]
    /// agrees to ~1e-9 relative (its tabulated twiddles avoid this
    /// recurrence's rounding drift).
    fn spectrogram_legacy(signal: &[f64], cfg: &SpectrogramConfig) -> Matrix {
        assert!(cfg.nperseg > 0, "nperseg must be positive");
        assert!(cfg.noverlap < cfg.nperseg, "noverlap must be < nperseg");
        let nfft = cfg.nperseg.next_power_of_two();
        let bins = nfft / 2 + 1;
        let hop = cfg.nperseg - cfg.noverlap;
        if signal.len() < cfg.nperseg {
            return Matrix::zeros(bins, 0);
        }
        let nseg = (signal.len() - cfg.nperseg) / hop + 1;

        let window = hann_window(cfg.nperseg);
        let win_pow: f64 = window.iter().map(|w| w * w).sum();
        // SciPy PSD scaling: 1 / (fs * sum(win^2)).
        let scale = 1.0 / (cfg.fs * win_pow);

        let mut out = Matrix::zeros(bins, nseg);
        let mut buf = vec![Complex::default(); nfft];
        for seg in 0..nseg {
            let start = seg * hop;
            for (i, b) in buf.iter_mut().enumerate() {
                *b = if i < cfg.nperseg {
                    Complex::new(signal[start + i] * window[i], 0.0)
                } else {
                    Complex::default()
                };
            }
            fft_inplace(&mut buf);
            for (bin, c) in buf[..bins].iter().enumerate() {
                // One-sided spectrum doubles interior bins.
                let mult = if bin == 0 || bin == bins - 1 {
                    1.0
                } else {
                    2.0
                };
                out.set(bin, seg, mult * c.norm_sq() * scale);
            }
        }
        out
    }

    #[test]
    fn hann_endpoints_and_symmetry() {
        let w = hann_window(8);
        assert!(w[0].abs() < 1e-12);
        // periodic window: w[k] == w[n-k] for k >= 1
        for k in 1..8 {
            assert!((w[k] - w[8 - k]).abs() < 1e-12);
        }
        assert!(hann_window(0).is_empty());
    }

    #[test]
    fn spectrogram_shape() {
        let cfg = SpectrogramConfig {
            nperseg: 64,
            noverlap: 32,
            fs: 300.0,
        };
        let sig = vec![0.0; 320];
        let sxx = spectrogram(&sig, &cfg);
        assert_eq!(sxx.rows(), 33); // 64/2 + 1
        assert_eq!(sxx.cols(), (320 - 64) / 32 + 1);
    }

    #[test]
    fn spectrogram_short_signal_is_empty() {
        let cfg = SpectrogramConfig {
            nperseg: 64,
            noverlap: 0,
            fs: 300.0,
        };
        let sxx = spectrogram(&[1.0; 10], &cfg);
        assert_eq!(sxx.cols(), 0);
    }

    #[test]
    fn spectrogram_tone_concentrates_energy() {
        // 30 Hz tone sampled at 300 Hz; with nperseg 64 (nfft 64) the bin
        // width is 300/64 = 4.69 Hz, so the tone lands near bin 6.
        let fs = 300.0;
        let sig: Vec<f64> = (0..600)
            .map(|i| (2.0 * std::f64::consts::PI * 30.0 * i as f64 / fs).sin())
            .collect();
        let cfg = SpectrogramConfig {
            nperseg: 64,
            noverlap: 32,
            fs,
        };
        let sxx = spectrogram(&sig, &cfg);
        // Column 3 peak bin.
        let col = 3;
        let mut peak = 0;
        let mut best = -1.0;
        for bin in 0..sxx.rows() {
            if sxx.get(bin, col) > best {
                best = sxx.get(bin, col);
                peak = bin;
            }
        }
        assert!((5..=7).contains(&peak), "peak bin {peak}");
    }

    #[test]
    fn feature_count_matches_flatten() {
        let cfg = SpectrogramConfig {
            nperseg: 32,
            noverlap: 8,
            fs: 300.0,
        };
        let sig = vec![1.0; 200];
        let sxx = spectrogram(&sig, &cfg);
        assert_eq!(sxx.as_slice().len(), feature_count(200, &cfg));
    }

    #[test]
    #[should_panic(expected = "noverlap")]
    fn spectrogram_rejects_bad_overlap() {
        let cfg = SpectrogramConfig {
            nperseg: 16,
            noverlap: 16,
            fs: 300.0,
        };
        let _ = spectrogram(&[0.0; 64], &cfg);
    }

    #[test]
    fn plan_matches_legacy_implementation() {
        let fs = 300.0;
        let sig: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.11).sin() + 0.3 * (i as f64 * 0.57).cos())
            .collect();
        for cfg in [
            SpectrogramConfig {
                nperseg: 64,
                noverlap: 32,
                fs,
            },
            SpectrogramConfig {
                nperseg: 100, // non-power-of-two: exercises nfft padding
                noverlap: 17,
                fs,
            },
            SpectrogramConfig::default(),
        ] {
            let new = spectrogram(&sig, &cfg);
            let old = spectrogram_legacy(&sig, &cfg);
            assert_eq!(new.shape(), old.shape());
            let scale = old.as_slice().iter().cloned().fold(0.0, f64::max);
            assert!(
                new.max_abs_diff(&old) < 1e-9 * scale.max(1e-30),
                "plan diverges from legacy for nperseg={}",
                cfg.nperseg
            );
        }
    }

    #[test]
    fn plan_reuse_across_signals_is_stable() {
        let cfg = SpectrogramConfig {
            nperseg: 32,
            noverlap: 8,
            fs: 300.0,
        };
        let mut plan = SpectrogramPlan::new(&cfg);
        let a: Vec<f64> = (0..200).map(|i| (i as f64 * 0.2).sin()).collect();
        let b: Vec<f64> = (0..150).map(|i| (i as f64 * 0.7).cos()).collect();
        // Interleave signals of different lengths through one plan; each
        // result must equal a fresh computation.
        let ra1 = plan.compute(&a);
        let rb = plan.compute(&b);
        let ra2 = plan.compute(&a);
        assert_eq!(ra1, ra2);
        assert_eq!(rb, SpectrogramPlan::new(&cfg).compute(&b));
        // Short signal through a reused plan still yields bins x 0.
        assert_eq!(plan.compute(&[1.0; 4]).cols(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_plan_matches_legacy(vals in proptest::collection::vec(-5.0f64..5.0, 200)) {
            let cfg = SpectrogramConfig { nperseg: 48, noverlap: 16, fs: 300.0 };
            let new = spectrogram(&vals, &cfg);
            let old = spectrogram_legacy(&vals, &cfg);
            let scale = old.as_slice().iter().cloned().fold(0.0, f64::max);
            prop_assert!(new.max_abs_diff(&old) <= 1e-9 * scale.max(1e-30));
        }

        #[test]
        fn prop_spectrogram_nonnegative(vals in proptest::collection::vec(-5.0f64..5.0, 128)) {
            let cfg = SpectrogramConfig { nperseg: 32, noverlap: 16, fs: 300.0 };
            let sxx = spectrogram(&vals, &cfg);
            prop_assert!(sxx.as_slice().iter().all(|&v| v >= 0.0));
        }

        #[test]
        fn prop_energy_scales_quadratically(amp in 0.1f64..4.0) {
            let base: Vec<f64> = (0..128).map(|i| (i as f64 * 0.3).sin()).collect();
            let scaled: Vec<f64> = base.iter().map(|v| v * amp).collect();
            let cfg = SpectrogramConfig { nperseg: 32, noverlap: 0, fs: 300.0 };
            let e1: f64 = spectrogram(&base, &cfg).as_slice().iter().sum();
            let e2: f64 = spectrogram(&scaled, &cfg).as_slice().iter().sum();
            prop_assert!((e2 - amp * amp * e1).abs() < 1e-6 * e2.max(1.0));
        }
    }
}
