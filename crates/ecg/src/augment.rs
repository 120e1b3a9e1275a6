//! Shuffling-based data augmentation (paper §III-B1, Fig. 2).
//!
//! The minority AF class (771 of 5925 recordings in the paper) is
//! synthetically augmented: each source signal is segmented into
//! *patches* of **6 contiguous R peaks** — "the minimum ECG length
//! needed to detect irregular rhythms" — and the patches are shuffled to
//! produce a new signal that preserves the beat-level properties of AF
//! (irregular RR, no P waves, f-waves) while differing in global order.
//!
//! Patch boundaries are the midpoints between the 6th and 7th R peak of
//! each group, so the inter-patch "spacer" regions travel with their
//! preceding patch; the shuffled signal is an exact permutation of the
//! original samples.

use crate::rpeaks::{detect_r_peaks, RPeakConfig};
use crate::synth::Recording;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Number of R peaks per patch (paper-fixed).
const PEAKS_PER_PATCH: usize = 6;

/// Splits `signal` into patches, each containing `PEAKS_PER_PATCH`
/// consecutive R peaks. Returns the cut points (half-open segment
/// boundaries including 0 and `signal.len()`).
///
/// Signals with fewer than `2 * PEAKS_PER_PATCH` peaks yield a single
/// patch (nothing to shuffle).
fn patch_boundaries(signal_len: usize, peaks: &[usize]) -> Vec<usize> {
    let mut cuts = vec![0usize];
    if peaks.len() >= 2 * PEAKS_PER_PATCH {
        let mut g = PEAKS_PER_PATCH;
        // Cut at the midpoint between the last peak of one group and the
        // first peak of the next, while a full next group exists.
        while g + PEAKS_PER_PATCH <= peaks.len() {
            let cut = (peaks[g - 1] + peaks[g]) / 2;
            cuts.push(cut.min(signal_len));
            g += PEAKS_PER_PATCH;
        }
    }
    cuts.push(signal_len);
    cuts.dedup();
    cuts
}

/// Produces one augmented signal by shuffling the 6-R-peak patches of
/// `rec`. Deterministic for a given `seed`.
fn shuffle_patches(rec: &Recording, seed: u64) -> Recording {
    let peaks = detect_r_peaks(&rec.samples, rec.fs, &RPeakConfig::default());
    let cuts = patch_boundaries(rec.samples.len(), &peaks);
    let mut patches: Vec<&[f64]> = cuts.windows(2).map(|w| &rec.samples[w[0]..w[1]]).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    patches.shuffle(&mut rng);
    let mut samples = Vec::with_capacity(rec.samples.len());
    for p in patches {
        samples.extend_from_slice(p);
    }
    Recording {
        samples,
        fs: rec.fs,
        class: rec.class,
    }
}

/// Balances the minority class by patch-shuffling augmentation: new
/// synthetic recordings are appended until both classes have equal
/// counts (paper: AF 771 → 5154). Source recordings are picked
/// round-robin from the minority class; each synthetic copy uses a
/// fresh shuffle seed.
pub fn balance_classes(recordings: &mut Vec<Recording>, seed: u64) {
    use crate::synth::Class;
    let n_af = recordings.iter().filter(|r| r.class == Class::Af).count();
    let n_normal = recordings.len() - n_af;
    let (minority, deficit) = if n_af < n_normal {
        (Class::Af, n_normal - n_af)
    } else {
        (Class::Normal, n_af - n_normal)
    };
    if deficit == 0 {
        return;
    }
    let sources: Vec<usize> = recordings
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class == minority)
        .map(|(i, _)| i)
        .collect();
    assert!(!sources.is_empty(), "cannot balance: minority class empty");
    for k in 0..deficit {
        let src = sources[k % sources.len()];
        let aug = shuffle_patches(&recordings[src], seed.wrapping_add(k as u64));
        recordings.push(aug);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, Class, EcgConfig};
    use proptest::prelude::*;

    fn cfg() -> EcgConfig {
        EcgConfig {
            min_duration_s: 25.0,
            max_duration_s: 30.0,
            noise_sd: 0.03,
            ..EcgConfig::default()
        }
    }

    #[test]
    fn boundaries_cover_whole_signal() {
        let peaks: Vec<usize> = (0..30).map(|i| 100 + i * 240).collect();
        let cuts = patch_boundaries(8000, &peaks);
        assert_eq!(*cuts.first().unwrap(), 0);
        assert_eq!(*cuts.last().unwrap(), 8000);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
        // 30 peaks -> 5 groups of 6 -> 4 interior cuts.
        assert_eq!(cuts.len(), 6);
    }

    #[test]
    fn few_peaks_yield_single_patch() {
        let cuts = patch_boundaries(1000, &[100, 300, 500]);
        assert_eq!(cuts, vec![0, 1000]);
    }

    #[test]
    fn shuffle_preserves_sample_multiset() {
        let rec = generate(&cfg(), Class::Af, 11);
        let aug = shuffle_patches(&rec, 99);
        assert_eq!(aug.samples.len(), rec.samples.len());
        let mut a = rec.samples.clone();
        let mut b = aug.samples.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "shuffle must be a permutation of the samples");
    }

    #[test]
    fn shuffle_changes_order_for_long_signals() {
        let rec = generate(&cfg(), Class::Af, 12);
        let aug = shuffle_patches(&rec, 1);
        assert_ne!(aug.samples, rec.samples, "expected patch order to change");
    }

    #[test]
    fn shuffle_is_deterministic_in_seed() {
        let rec = generate(&cfg(), Class::Af, 13);
        assert_eq!(
            shuffle_patches(&rec, 7).samples,
            shuffle_patches(&rec, 7).samples
        );
    }

    #[test]
    fn balance_equalizes_counts() {
        let c = cfg();
        let mut recs: Vec<Recording> = Vec::new();
        for s in 0..10 {
            recs.push(generate(&c, Class::Normal, s));
        }
        for s in 0..3 {
            recs.push(generate(&c, Class::Af, 100 + s));
        }
        balance_classes(&mut recs, 0);
        let af = recs.iter().filter(|r| r.class == Class::Af).count();
        let normal = recs.len() - af;
        assert_eq!(af, normal);
        assert_eq!(recs.len(), 20);
    }

    #[test]
    fn balance_noop_when_already_balanced() {
        let c = cfg();
        let mut recs = vec![generate(&c, Class::Normal, 0), generate(&c, Class::Af, 1)];
        balance_classes(&mut recs, 0);
        assert_eq!(recs.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_boundaries_monotone(
            len in 2000usize..20_000,
            n_peaks in 0usize..60,
        ) {
            // Synthetic evenly-ish spaced peaks inside the signal.
            let peaks: Vec<usize> = (0..n_peaks)
                .map(|i| (i + 1) * len / (n_peaks + 2))
                .collect();
            let cuts = patch_boundaries(len, &peaks);
            prop_assert_eq!(*cuts.first().unwrap(), 0);
            prop_assert_eq!(*cuts.last().unwrap(), len);
            for w in cuts.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
