//! Instantaneous-frequency estimation and tone-settling detection.
//!
//! Paper Fig. 4 is about exactly this observable: with random data the
//! instantaneous frequency never settles (4a); with BLoc's long 0/1 runs it
//! converges to the f₀/f₁ tones for measurable stretches (4b). The CSI
//! extractor uses [`settled_regions`] both as a diagnostic and as a guard
//! that the stable windows advertised by the link layer really are stable
//! at the PHY output.

use bloc_num::C64;

/// Per-sample instantaneous frequency (hertz) from the phase increments of
/// an IQ stream at sample rate `fs`. Output length is `iq.len() − 1`.
pub fn instantaneous_frequency(iq: &[C64], fs: f64) -> Vec<f64> {
    iq.windows(2)
        .map(|w| (w[1] * w[0].conj()).arg() * fs / (2.0 * std::f64::consts::PI))
        .collect()
}

/// A maximal region of samples whose instantaneous frequency stays within
/// `tolerance_hz` of a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettledRegion {
    /// First sample index of the region (into the IQ stream).
    pub start: usize,
    /// Region length in samples.
    pub len: usize,
    /// Mean frequency of the region, hertz.
    pub freq_hz: f64,
}

/// Finds regions of at least `min_len` samples where the instantaneous
/// frequency varies by at most ±`tolerance_hz` around its running mean.
pub fn settled_regions(
    iq: &[C64],
    fs: f64,
    tolerance_hz: f64,
    min_len: usize,
) -> Vec<SettledRegion> {
    let inst = instantaneous_frequency(iq, fs);
    let mut regions = Vec::new();
    let mut i = 0;
    while i < inst.len() {
        // Grow a region greedily while every sample stays within tolerance
        // of the region's running mean.
        let mut j = i;
        let mut sum = 0.0;
        while j < inst.len() {
            let candidate_mean = (sum + inst[j]) / (j - i + 1) as f64;
            let ok = inst[i..=j]
                .iter()
                .all(|&f| (f - candidate_mean).abs() <= tolerance_hz);
            if ok {
                sum += inst[j];
                j += 1;
            } else {
                break;
            }
        }
        let len = j - i;
        if len >= min_len {
            regions.push(SettledRegion {
                start: i,
                len,
                freq_hz: sum / len as f64,
            });
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// Estimates the carrier frequency offset of a received packet, given the
/// known transmitted bits: the mean difference between the received and
/// reference per-sample phase increments. Data-independent (the modulation
/// cancels term by term), noise-averaged over the whole packet.
///
/// This is how a real anchor would *measure* the tag CFO that
/// `bloc-chan`'s sounder injects — and why CFO cannot simply be calibrated
/// away for tone-pair ranging: the estimate is only as fresh as the last
/// packet, while the offset drifts packet to packet.
pub fn estimate_cfo(rx: &[C64], reference: &[C64], fs: f64) -> Option<f64> {
    let n = rx.len().min(reference.len());
    if n < 2 {
        return None;
    }
    // Average the rotation of (rx · ref*) between successive samples —
    // a phase-safe mean (no unwrapping needed).
    let mut acc = bloc_num::complex::ZERO;
    for k in 1..n {
        let d = (rx[k] * reference[k].conj()) * (rx[k - 1] * reference[k - 1].conj()).conj();
        acc += d;
    }
    Some(acc.arg() * fs / (2.0 * std::f64::consts::PI))
}

/// Classifies a settled region as the f₀ tone (−deviation), the f₁ tone
/// (+deviation), or neither, with a ±30 % acceptance band.
pub fn classify_tone(region: &SettledRegion, deviation_hz: f64) -> Option<bool> {
    let rel = region.freq_hz / deviation_hz;
    if (rel - 1.0).abs() < 0.3 {
        Some(true)
    } else if (rel + 1.0).abs() < 0.3 {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::{GfskModulator, ModulatorConfig};

    fn modem() -> GfskModulator {
        GfskModulator::new(ModulatorConfig::default())
    }

    #[test]
    fn pure_tone_frequency_estimated() {
        let fs = 8e6;
        let f = 250e3;
        let iq: Vec<C64> = (0..100)
            .map(|n| C64::cis(2.0 * std::f64::consts::PI * f * n as f64 / fs))
            .collect();
        for est in instantaneous_frequency(&iq, fs) {
            assert!((est - f).abs() < 1.0);
        }
    }

    #[test]
    fn run_pattern_settles_random_data_does_not() {
        // The Fig. 4 contrast, asserted numerically.
        let m = modem();
        let fs = m.config().sample_rate();

        // (a) pseudo-random bits: no settled region of a full symbol.
        let random_bits: Vec<bool> = (0..64).map(|i| ((i * 37 + 11) % 64) % 2 == 0).collect();
        // make sure it has no run longer than 2
        let iq = m.modulate(&random_bits);
        let regions = settled_regions(&iq, fs, 5e3, 3 * 8);
        // alternating data may settle briefly; require: far fewer settled
        // samples than the run pattern achieves.
        let settled_random: usize = regions.iter().map(|r| r.len).sum();

        // (b) BLoc run pattern: long settled stretches at both tones.
        let mut run_bits = vec![false; 16];
        run_bits.extend(vec![true; 16]);
        run_bits.extend(vec![false; 16]);
        run_bits.extend(vec![true; 16]);
        let iq = m.modulate(&run_bits);
        let regions = settled_regions(&iq, fs, 5e3, 3 * 8);
        let settled_runs: usize = regions.iter().map(|r| r.len).sum();

        assert!(
            settled_runs > 4 * settled_random + 8,
            "runs settled {settled_runs} vs random {settled_random}"
        );
        // Both tones observed:
        let tones: Vec<Option<bool>> = regions.iter().map(|r| classify_tone(r, 250e3)).collect();
        assert!(
            tones.contains(&Some(true)) && tones.contains(&Some(false)),
            "{tones:?}"
        );
    }

    #[test]
    fn settled_region_frequencies_match_tones() {
        let m = modem();
        let fs = m.config().sample_rate();
        let mut bits = vec![false; 12];
        bits.extend(vec![true; 12]);
        let iq = m.modulate(&bits);
        let regions = settled_regions(&iq, fs, 2e3, 2 * 8);
        assert!(
            regions.len() >= 2,
            "expected two tone regions, got {regions:?}"
        );
        assert_eq!(classify_tone(&regions[0], 250e3), Some(false));
        assert_eq!(classify_tone(regions.last().unwrap(), 250e3), Some(true));
    }

    #[test]
    fn cfo_estimation_recovers_known_offset() {
        let m = modem();
        let fs = m.config().sample_rate();
        let bits: Vec<bool> = (0..128).map(|i| (i * 13) % 5 < 2).collect();
        let reference = m.modulate(&bits);
        for cfo in [-42e3f64, -5e3, 0.0, 12.5e3, 80e3] {
            let mut rx = reference.clone();
            crate::impairments::apply_cfo(&mut rx, cfo, fs);
            let est = estimate_cfo(&rx, &reference, fs).unwrap();
            assert!((est - cfo).abs() < 50.0, "cfo {cfo}: estimated {est}");
        }
    }

    #[test]
    fn cfo_estimation_survives_noise_and_gain() {
        use rand::SeedableRng;
        let m = modem();
        let fs = m.config().sample_rate();
        let bits: Vec<bool> = (0..256).map(|i| i % 7 < 4).collect();
        let reference = m.modulate(&bits);
        let mut rx = reference.clone();
        crate::impairments::apply_channel_gain(&mut rx, C64::from_polar(0.02, -2.0));
        crate::impairments::apply_cfo(&mut rx, 17e3, fs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        crate::impairments::awgn(&mut rx, 15.0, &mut rng);
        let est = estimate_cfo(&rx, &reference, fs).unwrap();
        assert!((est - 17e3).abs() < 1.5e3, "estimated {est}");
    }

    #[test]
    fn cfo_estimation_degenerate_inputs() {
        assert!(estimate_cfo(&[], &[], 8e6).is_none());
        assert!(estimate_cfo(&[C64::real(1.0)], &[C64::real(1.0)], 8e6).is_none());
    }

    #[test]
    fn classify_rejects_mid_transition() {
        let r = SettledRegion {
            start: 0,
            len: 10,
            freq_hz: 10e3,
        };
        assert_eq!(classify_tone(&r, 250e3), None);
    }

    #[test]
    fn empty_and_single_sample() {
        assert!(instantaneous_frequency(&[], 8e6).is_empty());
        assert!(instantaneous_frequency(&[C64::real(1.0)], 8e6).is_empty());
        assert!(settled_regions(&[], 8e6, 1e3, 4).is_empty());
    }
}
