//! # ecg — synthetic single-lead ECG data and the paper's preprocessing
//! pipeline
//!
//! The paper trains on the PhysioNet CinC-2017 challenge dataset: 300 Hz
//! single-lead recordings of 9–61 s, classes *Normal* (5154) and *AF*
//! (771). That data cannot ship with this repository, so this crate
//! provides a physiologically-motivated **synthetic substitute**
//! (DESIGN.md §1) plus every preprocessing step of §III-B:
//!
//! * [`synth`] — ECGSYN-style generator: Gaussian-bump P-QRS-T beat
//!   morphology; Normal rhythm with respiratory sinus arrhythmia; AF
//!   rhythm with irregular RR intervals, absent P waves and 4–9 Hz
//!   fibrillatory f-waves.
//! * [`rpeaks`] — R-peak detection (Gamboa-segmenter replacement).
//! * [`augment`] — the shuffling-based data augmentation of Fig. 2:
//!   patches of 6 contiguous R peaks are permuted to create synthetic
//!   minority-class recordings until classes balance.
//! * [`features`] — zero-padding and STFT spectrogram feature extraction
//!   (§III-B2, §III-B3).
//! * [`dataset`] — end-to-end dataset assembly with `small` and `paper`
//!   scale presets.

pub mod augment;
pub mod dataset;
pub mod features;
pub mod rpeaks;
pub mod synth;

pub use dataset::{Dataset, DatasetSpec, Scale};
pub use synth::{Class, EcgConfig, Recording};

/// Standard normal sample via Box–Muller (the `rand` crate alone ships
/// no Gaussian distribution; `rand_distr` is outside the dependency
/// whitelist).
pub fn randn<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    use rand::RngExt as _;
    loop {
        let u1 = rng.random::<f64>();
        let u2 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
