//! End-to-end dataset assembly with `small` / `paper` scale presets.
//!
//! Mirrors the paper's data pipeline: generate (stand-in for *download*)
//! the class-imbalanced recording set, balance classes by patch-shuffle
//! augmentation, then extract zero-padded STFT features.

use crate::augment::balance_classes;
use crate::features::build_design_matrix;
use crate::synth::{generate, Class, EcgConfig, Recording};
use linalg::stft::SpectrogramConfig;
use linalg::Matrix;

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI/laptop scale: a few hundred short recordings, ~seconds to
    /// build. Default for tests and examples.
    Small,
    /// The paper's class counts (5154 Normal / 771 AF, 9–61 s at
    /// 300 Hz). Building the full design matrix natively is expensive;
    /// the benchmark harness combines this with the simulator's analytic
    /// cost model instead of materializing it.
    Paper,
}

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Number of Normal recordings before augmentation.
    pub n_normal: usize,
    /// Number of AF recordings before augmentation (the minority).
    pub n_af: usize,
    /// Signal generator settings.
    pub ecg: EcgConfig,
    /// STFT settings for feature extraction.
    pub stft: SpectrogramConfig,
    /// Optional physiological band crop in Hz applied to the
    /// spectrogram rows (None keeps every bin, as the paper does).
    pub max_freq_hz: Option<f64>,
    /// Whether to run the balancing augmentation.
    pub augment: bool,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Preset for the given scale, mirroring the paper's class ratio
    /// (~6.7 Normal per AF).
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Small => Self {
                n_normal: 200,
                n_af: 30,
                ecg: EcgConfig {
                    min_duration_s: 9.0,
                    max_duration_s: 16.0,
                    ..EcgConfig::default()
                },
                stft: SpectrogramConfig {
                    nperseg: 128,
                    noverlap: 32,
                    fs: 300.0,
                },
                // ECG content sits below ~50 Hz; cropping keeps the
                // small-scale PCA eigendecomposition tractable.
                max_freq_hz: Some(50.0),
                augment: true,
                seed: 2017,
            },
            Scale::Paper => Self {
                n_normal: 5154,
                n_af: 771,
                ecg: EcgConfig::default(), // 9-61 s at 300 Hz
                stft: SpectrogramConfig::default(),
                max_freq_hz: None,
                augment: true,
                seed: 2017,
            },
        }
    }

    /// Same spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A fully assembled dataset: recordings plus the design matrix.
pub struct Dataset {
    /// All recordings, original and augmented, Normal first.
    pub recordings: Vec<Recording>,
    /// Design matrix: one flattened STFT spectrogram per row.
    pub x: Matrix,
    /// Labels aligned with `x` rows (1 = AF).
    pub y: Vec<u8>,
    /// Zero-padding target length in samples.
    pub padded_len: usize,
}

impl Dataset {
    /// Generates recordings, balances classes (if configured), and
    /// extracts features.
    pub fn build(spec: &DatasetSpec) -> Self {
        let recordings = Self::build_recordings(spec);
        let (x, y, padded_len) = build_design_matrix(&recordings, &spec.stft, spec.max_freq_hz);
        Dataset {
            recordings,
            x,
            y,
            padded_len,
        }
    }

    /// Only the recording-generation + augmentation stage.
    pub fn build_recordings(spec: &DatasetSpec) -> Vec<Recording> {
        let mut recordings = Vec::with_capacity(spec.n_normal + spec.n_af);
        for i in 0..spec.n_normal {
            recordings.push(generate(
                &spec.ecg,
                Class::Normal,
                spec.seed.wrapping_add(i as u64),
            ));
        }
        for i in 0..spec.n_af {
            recordings.push(generate(
                &spec.ecg,
                Class::Af,
                spec.seed.wrapping_add(1_000_000 + i as u64),
            ));
        }
        if spec.augment {
            balance_classes(&mut recordings, spec.seed ^ 0xA5A5_A5A5);
        }
        recordings
    }

    /// Number of samples per class `(normal, af)`.
    pub fn class_counts(&self) -> (usize, usize) {
        let af = self.y.iter().filter(|&&l| l == 1).count();
        (self.y.len() - af, af)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            n_normal: 12,
            n_af: 4,
            ecg: EcgConfig {
                min_duration_s: 9.0,
                max_duration_s: 11.0,
                ..EcgConfig::default()
            },
            stft: SpectrogramConfig {
                nperseg: 64,
                noverlap: 0,
                fs: 300.0,
            },
            max_freq_hz: Some(50.0),
            augment: true,
            seed: 1,
        }
    }

    #[test]
    fn build_balances_classes() {
        let ds = Dataset::build(&tiny_spec());
        let (normal, af) = ds.class_counts();
        assert_eq!(normal, 12);
        assert_eq!(af, 12);
        assert_eq!(ds.x.rows(), 24);
        assert_eq!(ds.y.len(), 24);
    }

    #[test]
    fn no_augment_keeps_imbalance() {
        let spec = DatasetSpec {
            augment: false,
            ..tiny_spec()
        };
        let ds = Dataset::build(&spec);
        let (normal, af) = ds.class_counts();
        assert_eq!((normal, af), (12, 4));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Dataset::build(&tiny_spec());
        let b = Dataset::build(&tiny_spec());
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        let c = Dataset::build(&tiny_spec().with_seed(2));
        assert_ne!(a.x.as_slice(), c.x.as_slice());
    }

    #[test]
    fn padded_len_is_max_recording_len() {
        let ds = Dataset::build(&tiny_spec());
        let max = ds.recordings.iter().map(|r| r.samples.len()).max().unwrap();
        assert_eq!(ds.padded_len, max);
    }

    #[test]
    fn small_preset_ratio_matches_paper() {
        let spec = DatasetSpec::at_scale(Scale::Small);
        let ratio = spec.n_normal as f64 / spec.n_af as f64;
        // Paper ratio 5154/771 = 6.68
        assert!((ratio - 6.68).abs() < 0.7, "ratio {ratio}");
        let paper = DatasetSpec::at_scale(Scale::Paper);
        assert_eq!(paper.n_normal, 5154);
        assert_eq!(paper.n_af, 771);
    }
}
