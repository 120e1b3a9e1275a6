//! R-peak detection (BioSPPy Gamboa-segmenter replacement).
//!
//! The paper uses the Gamboa segmenter only to find R peaks for the
//! patch-shuffling augmentation (§III-B1). This detector follows the
//! same spirit: normalize the signal against its amplitude histogram,
//! emphasize the QRS complex with a squared derivative, threshold
//! adaptively, and enforce a physiological refractory period.

/// Detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct RPeakConfig {
    /// Fraction of the maximum of the squared-derivative envelope used
    /// as the detection threshold.
    pub threshold_frac: f64,
    /// Minimum spacing between consecutive peaks in seconds (ventricular
    /// refractory period).
    pub refractory_s: f64,
}

impl Default for RPeakConfig {
    fn default() -> Self {
        Self {
            threshold_frac: 0.25,
            refractory_s: 0.25,
        }
    }
}

/// Detects R-peak sample indices in `signal` sampled at `fs` Hz.
///
/// Returns indices in increasing order. Empty or constant signals yield
/// no peaks.
pub fn detect_r_peaks(signal: &[f64], fs: f64, cfg: &RPeakConfig) -> Vec<usize> {
    if signal.len() < 3 {
        return vec![];
    }

    // Gamboa-style amplitude normalization: clamp to the 2nd-98th
    // percentile range to suppress outliers, then scale to [0, 1].
    let mut sorted: Vec<f64> = signal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
    let (lo, hi) = (p(0.02), p(0.98));
    if (hi - lo).abs() < f64::EPSILON {
        return vec![];
    }
    let norm: Vec<f64> = signal
        .iter()
        .map(|&v| ((v - lo) / (hi - lo)).clamp(0.0, 1.0))
        .collect();

    // Squared derivative emphasizes QRS slopes.
    let mut env: Vec<f64> = vec![0.0; norm.len()];
    for i in 1..norm.len() - 1 {
        let d = norm[i + 1] - norm[i - 1];
        env[i] = d * d;
    }
    // Short moving average smoothing (~30 ms window).
    let w = ((0.03 * fs) as usize).max(1);
    let mut smooth = vec![0.0; env.len()];
    let mut acc = 0.0;
    for i in 0..env.len() {
        acc += env[i];
        if i >= w {
            acc -= env[i - w];
        }
        smooth[i] = acc / w as f64;
    }

    let max = smooth.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return vec![];
    }
    let thr = cfg.threshold_frac * max;
    let refractory = (cfg.refractory_s * fs) as usize;

    // Above-threshold regions -> local maximum of the *original* signal
    // inside a small neighbourhood is the R peak.
    let mut peaks: Vec<usize> = Vec::new();
    let half = ((0.05 * fs) as usize).max(1);
    let mut i = 0;
    while i < smooth.len() {
        if smooth[i] >= thr {
            // Locate the apex within +-half samples.
            let lo_i = i.saturating_sub(half);
            let hi_i = (i + half).min(signal.len() - 1);
            let apex = (lo_i..=hi_i)
                .max_by(|&a, &b| signal[a].total_cmp(&signal[b]))
                .expect("non-empty window");
            if peaks.last().is_none_or(|&last| apex > last + refractory) {
                peaks.push(apex);
            }
            // Skip past the refractory window.
            i = apex + refractory;
        } else {
            i += 1;
        }
    }
    peaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, Class, EcgConfig};

    fn cfg() -> EcgConfig {
        EcgConfig {
            min_duration_s: 20.0,
            max_duration_s: 22.0,
            noise_sd: 0.04,
            ..EcgConfig::default()
        }
    }

    #[test]
    fn detects_expected_beat_count_normal() {
        let rec = generate(&cfg(), Class::Normal, 5);
        let peaks = detect_r_peaks(&rec.samples, rec.fs, &RPeakConfig::default());
        // ~75 bpm over ~21 s -> ~26 beats; allow slack.
        let dur = rec.duration_s();
        let expected = dur / 0.82;
        assert!(
            (peaks.len() as f64 - expected).abs() < expected * 0.3,
            "got {} peaks, expected ~{expected:.0}",
            peaks.len()
        );
    }

    #[test]
    fn peaks_are_sorted_and_spaced() {
        let rec = generate(&cfg(), Class::Af, 9);
        let c = RPeakConfig::default();
        let peaks = detect_r_peaks(&rec.samples, rec.fs, &c);
        let refractory = (c.refractory_s * rec.fs) as usize;
        for w in peaks.windows(2) {
            assert!(w[1] > w[0] + refractory);
        }
    }

    /// Standard deviation of the RR intervals (seconds) between detected
    /// peaks — the irregularity statistic that distinguishes AF — or
    /// `None` with fewer than three peaks.
    fn rr_std(peaks: &[usize], fs: f64) -> Option<f64> {
        if peaks.len() < 3 {
            return None;
        }
        let rr: Vec<f64> = peaks
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / fs)
            .collect();
        let mean = rr.iter().sum::<f64>() / rr.len() as f64;
        let var = rr.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rr.len() as f64;
        Some(var.sqrt())
    }

    #[test]
    fn af_rr_std_exceeds_normal() {
        let c = RPeakConfig::default();
        let mut af_sd = 0.0;
        let mut n_sd = 0.0;
        let gen_cfg = EcgConfig {
            atypical_fraction: 0.0,
            ..cfg()
        };
        let mut counted = 0;
        for seed in 0..6 {
            let afr = generate(&gen_cfg, Class::Af, 300 + seed);
            let nr = generate(&gen_cfg, Class::Normal, 300 + seed);
            let pa = detect_r_peaks(&afr.samples, afr.fs, &c);
            let pn = detect_r_peaks(&nr.samples, nr.fs, &c);
            if let (Some(sa), Some(sn)) = (rr_std(&pa, afr.fs), rr_std(&pn, nr.fs)) {
                af_sd += sa;
                n_sd += sn;
                counted += 1;
            }
        }
        assert!(counted >= 4, "too few recordings with detectable rhythm");
        assert!(af_sd > 1.5 * n_sd, "AF RR std {af_sd} vs normal {n_sd}");
    }

    #[test]
    fn degenerate_inputs_yield_no_peaks() {
        let c = RPeakConfig::default();
        assert!(detect_r_peaks(&[], 300.0, &c).is_empty());
        assert!(detect_r_peaks(&[0.0; 100], 300.0, &c).is_empty());
        assert!(detect_r_peaks(&[1.0, 2.0], 300.0, &c).is_empty());
    }
}
