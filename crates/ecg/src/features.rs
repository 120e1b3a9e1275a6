//! Zero-padding and STFT feature extraction (paper §III-B2, §III-B3).
//!
//! Pipeline per recording:
//!
//! 1. **Zero-padding** to the length of the longest recording in the
//!    dataset (paper: 18 300 samples = 61 s at 300 Hz), so every signal
//!    yields the same number of features.
//! 2. **Spectrogram** (Hann-window STFT) mapping the signal to the
//!    time–frequency plane.
//! 3. **Flatten** into a 1-D feature vector (paper: 18 810 features),
//!    one row of the design matrix handed to PCA and the classifiers.

use crate::synth::Recording;
use linalg::stft::{feature_count, SpectrogramConfig, SpectrogramPlan};
use linalg::Matrix;

/// Extends `signal` with zeros up to `len` samples. Signals already at
/// or beyond `len` are truncated to exactly `len` (defensive; the caller
/// normally computes `len` as the dataset maximum).
pub fn zero_pad(signal: &[f64], len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&signal[..signal.len().min(len)]);
    out.resize(len, 0.0);
    out
}

/// Number of spectrogram frequency rows kept when cropping to
/// `max_freq_hz` (always at least 1).
pub fn kept_bins(cfg: &SpectrogramConfig, max_freq_hz: Option<f64>) -> usize {
    let nfft = cfg.nperseg.next_power_of_two();
    let bins = nfft / 2 + 1;
    match max_freq_hz {
        None => bins,
        Some(f) => {
            let df = cfg.fs / nfft as f64;
            ((f / df).floor() as usize + 1).clamp(1, bins)
        }
    }
}

/// Computes the flattened STFT feature vector of one zero-padded signal.
///
/// `max_freq_hz` optionally crops the spectrogram to the physiological
/// band (ECG content sits below ~50 Hz; cropping shrinks the feature
/// count and thus the single-task PCA eigendecomposition — see
/// DESIGN.md §6 on scaled workloads). `None` keeps every bin, as the
/// paper does.
pub fn stft_features(
    signal: &[f64],
    cfg: &SpectrogramConfig,
    max_freq_hz: Option<f64>,
) -> Vec<f64> {
    stft_features_with(&mut SpectrogramPlan::new(cfg), signal, max_freq_hz)
}

/// [`stft_features`] through a caller-held [`SpectrogramPlan`], so a
/// dataset-wide sweep amortizes the FFT plan, Hann window, and scratch
/// buffers across recordings (O(1) allocations per signal).
fn stft_features_with(
    plan: &mut SpectrogramPlan,
    signal: &[f64],
    max_freq_hz: Option<f64>,
) -> Vec<f64> {
    let cfg = *plan.config();
    let sxx = plan.compute(signal);
    let keep = kept_bins(&cfg, max_freq_hz);
    let cols = sxx.cols();
    let mut out = Vec::with_capacity(keep * cols);
    for bin in 0..keep {
        // Compress the large dynamic range the same way ECG spectrogram
        // pipelines do before PCA: log power (stabilized).
        out.extend(sxx.row(bin).iter().map(|&v| (v + 1e-12).ln()));
    }
    out
}

/// Builds the design matrix and label vector from a set of recordings:
/// zero-pads every signal to the longest one, extracts flattened STFT
/// features, and stacks them row-wise.
///
/// Returns `(x, y, padded_len)` where `x` is `n_recordings x n_features`
/// and `y[i]` is 1 for AF.
pub fn build_design_matrix(
    recordings: &[Recording],
    cfg: &SpectrogramConfig,
    max_freq_hz: Option<f64>,
) -> (Matrix, Vec<u8>, usize) {
    assert!(!recordings.is_empty(), "no recordings");
    let max_len = recordings.iter().map(|r| r.samples.len()).max().unwrap();
    let full = feature_count(max_len, cfg);
    assert!(full > 0, "recordings shorter than one STFT window");
    let nfft = cfg.nperseg.next_power_of_two();
    let n_feat = full / (nfft / 2 + 1) * kept_bins(cfg, max_freq_hz);

    let mut x = Matrix::zeros(recordings.len(), n_feat);
    let mut y = Vec::with_capacity(recordings.len());
    let mut plan = SpectrogramPlan::new(cfg);
    for (i, rec) in recordings.iter().enumerate() {
        let padded = zero_pad(&rec.samples, max_len);
        let feats = stft_features_with(&mut plan, &padded, max_freq_hz);
        debug_assert_eq!(feats.len(), n_feat);
        x.row_mut(i).copy_from_slice(&feats);
        y.push(rec.class.label());
    }
    (x, y, max_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, Class, EcgConfig};
    use proptest::prelude::*;

    fn cfg() -> SpectrogramConfig {
        SpectrogramConfig {
            nperseg: 64,
            noverlap: 32,
            fs: 300.0,
        }
    }

    #[test]
    fn zero_pad_extends_and_truncates() {
        assert_eq!(zero_pad(&[1.0, 2.0], 4), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(zero_pad(&[1.0, 2.0, 3.0], 2), vec![1.0, 2.0]);
        assert_eq!(zero_pad(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn design_matrix_shape_consistent() {
        let ec = EcgConfig {
            min_duration_s: 9.0,
            max_duration_s: 14.0,
            ..EcgConfig::default()
        };
        let recs: Vec<_> = (0..6)
            .map(|s| generate(&ec, if s % 2 == 0 { Class::Normal } else { Class::Af }, s))
            .collect();
        let (x, y, max_len) = build_design_matrix(&recs, &cfg(), None);
        assert_eq!(x.rows(), 6);
        assert_eq!(y, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(x.cols(), feature_count(max_len, &cfg()));
        assert!(max_len >= (9.0 * 300.0) as usize);
    }

    #[test]
    fn features_are_finite() {
        let ec = EcgConfig {
            min_duration_s: 9.0,
            max_duration_s: 10.0,
            ..EcgConfig::default()
        };
        let recs = vec![generate(&ec, Class::Af, 3)];
        let (x, _, _) = build_design_matrix(&recs, &cfg(), None);
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "no recordings")]
    fn empty_input_panics() {
        let _ = build_design_matrix(&[], &cfg(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_zero_pad_length(len in 0usize..500, target in 1usize..600) {
            let sig = vec![1.0; len];
            prop_assert_eq!(zero_pad(&sig, target).len(), target);
        }

        #[test]
        fn prop_padding_is_zero_beyond_signal(len in 1usize..100, extra in 1usize..100) {
            let sig = vec![2.5; len];
            let padded = zero_pad(&sig, len + extra);
            prop_assert!(padded[len..].iter().all(|&v| v == 0.0));
            prop_assert!(padded[..len].iter().all(|&v| v == 2.5));
        }
    }
}
