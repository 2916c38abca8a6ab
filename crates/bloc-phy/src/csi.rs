//! CSI measurement from localization packets — paper §4.
//!
//! "The wireless channel can simply be measured by taking the ratio of the
//! received symbol to the transmitted symbol. If the transmitted symbol is
//! x₀ and it is received as y₀ at the receiver, the channel h₀ at frequency
//! f₀ can be measured as h₀ = y₀/x₀."
//!
//! Concretely: during each stable window of a localization packet (where
//! the GFSK instantaneous frequency has converged to a tone), the receiver
//! solves the one-tap least-squares `h = Σ y·x* / Σ|x|²` against the known
//! transmit waveform. The two tone estimates are then combined into a
//! single per-band value by "averaging the channel amplitude and channel
//! phase separately" (paper §5 preamble).

use crate::modulator::GfskModulator;
use bloc_ble::locpacket::LocalizationPacket;
use bloc_num::angle::circular_mean;
use bloc_num::{complex, C64};

/// The per-band CSI measured from one localization packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandCsi {
    /// Channel at the f₀ tone (0-bits).
    pub h0: C64,
    /// Channel at the f₁ tone (1-bits).
    pub h1: C64,
    /// Number of samples that entered the f₀ estimate.
    pub n0: usize,
    /// Number of samples that entered the f₁ estimate.
    pub n1: usize,
}

impl BandCsi {
    /// The single per-band channel value: amplitudes averaged
    /// arithmetically, phases averaged circularly (paper §5: "averaging the
    /// channel amplitude and channel phase separately and combining them
    /// into a single channel value"). Attributed to the band's centre
    /// frequency.
    pub fn combined(&self) -> C64 {
        let amp = (self.h0.abs() + self.h1.abs()) / 2.0;
        let phase = circular_mean(&[self.h0.arg(), self.h1.arg()]);
        C64::from_polar(amp, phase)
    }
}

/// Measures per-band CSI from the received IQ of one localization packet.
///
/// `rx_iq` must be sample-aligned with the packet's transmission (the
/// simulation provides perfect alignment; the paper's testbed achieves it
/// with shared clocks, §7). Returns `None` when no stable window produced a
/// usable estimate for *both* tones.
pub fn measure_band_csi(
    packet: &LocalizationPacket,
    rx_iq: &[C64],
    modulator: &GfskModulator,
    settle_bits: usize,
) -> Option<BandCsi> {
    let sps = modulator.config().sps;
    let reference = modulator.modulate(&packet.air_bits());
    if rx_iq.len() < reference.len() {
        return None;
    }

    // Least-squares accumulators per tone: h = Σ y·x* / Σ|x|².
    let mut num = [complex::ZERO; 2];
    let mut den = [0.0f64; 2];
    let mut count = [0usize; 2];

    for (start_bit, len_bits, tone) in packet.stable_windows(settle_bits) {
        let s = start_bit * sps;
        let e = (start_bit + len_bits) * sps;
        if e > reference.len() {
            continue;
        }
        let idx = usize::from(tone);
        for n in s..e {
            num[idx] += rx_iq[n] * reference[n].conj();
            den[idx] += reference[n].norm_sq();
            count[idx] += 1;
        }
    }

    if den[0] <= 0.0 || den[1] <= 0.0 {
        return None;
    }
    Some(BandCsi {
        h0: num[0] / den[0],
        h1: num[1] / den[1],
        n0: count[0],
        n1: count[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairments::{apply_channel_gain, apply_multipath, awgn};
    use crate::modulator::ModulatorConfig;
    use bloc_ble::access_address::AccessAddress;
    use bloc_ble::channels::Channel;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(chan: u8) -> (LocalizationPacket, GfskModulator) {
        let mut rng = StdRng::seed_from_u64(31);
        let aa = AccessAddress::generate(&mut rng);
        let packet =
            LocalizationPacket::build(Channel::new(chan).unwrap(), aa, 0x123456, 8, 8).unwrap();
        (packet, GfskModulator::new(ModulatorConfig::default()))
    }

    #[test]
    fn recovers_known_channel_exactly() {
        let (packet, modem) = setup(5);
        let h = C64::from_polar(0.031, -2.2);
        let mut rx = modem.modulate(&packet.air_bits());
        apply_channel_gain(&mut rx, h);
        let csi = measure_band_csi(&packet, &rx, &modem, 2).unwrap();
        assert!((csi.h0 - h).abs() < 1e-9, "h0 {:?} vs {:?}", csi.h0, h);
        assert!((csi.h1 - h).abs() < 1e-9);
        assert!((csi.combined() - h).abs() < 1e-9);
        assert!(csi.n0 > 0 && csi.n1 > 0);
    }

    #[test]
    fn survives_noise_with_small_error() {
        let (packet, modem) = setup(20);
        let h = C64::from_polar(0.05, 1.0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut rx = modem.modulate(&packet.air_bits());
        apply_channel_gain(&mut rx, h);
        awgn(&mut rx, 20.0, &mut rng);
        let csi = measure_band_csi(&packet, &rx, &modem, 2).unwrap();
        let err = (csi.combined() - h).abs() / h.abs();
        assert!(err < 0.1, "relative error {err}");
    }

    #[test]
    fn phase_stability_across_repeats() {
        // Fig. 8(a): repeated measurements of the same static channel give
        // consistent phase.
        let (packet, modem) = setup(16);
        let h = C64::from_polar(0.04, 0.7);
        let mut rng = StdRng::seed_from_u64(9);
        let mut phases = Vec::new();
        for _ in 0..10 {
            let mut rx = modem.modulate(&packet.air_bits());
            apply_channel_gain(&mut rx, h);
            awgn(&mut rx, 25.0, &mut rng);
            phases.push(
                measure_band_csi(&packet, &rx, &modem, 2)
                    .unwrap()
                    .combined()
                    .arg(),
            );
        }
        let spread = bloc_num::angle::circular_variance(&phases);
        assert!(spread < 1e-2, "phase spread across repeats: {spread}");
    }

    #[test]
    fn tone_estimates_differ_under_multipath_delay() {
        // A delayed path rotates differently at f₀ vs f₁ (tones 500 kHz
        // apart): h0 ≠ h1, but both remain finite and the combination is
        // sane.
        let (packet, modem) = setup(0);
        let tx = modem.modulate(&packet.air_bits());
        let rx = apply_multipath(
            &tx,
            &[
                (C64::from_polar(0.05, 0.0), 0),
                (C64::from_polar(0.04, 1.0), 40),
            ],
        );
        let csi = measure_band_csi(&packet, &rx, &modem, 2).unwrap();
        assert!(
            (csi.h0 - csi.h1).abs() > 1e-6,
            "delayed multipath must split the tones"
        );
        assert!(csi.combined().is_finite());
    }

    #[test]
    fn truncated_rx_rejected() {
        let (packet, modem) = setup(3);
        let rx = modem.modulate(&packet.air_bits());
        assert!(measure_band_csi(&packet, &rx[..rx.len() / 2], &modem, 2).is_none());
    }

    #[test]
    fn oversized_settle_leaves_no_windows() {
        let (packet, modem) = setup(3);
        let rx = modem.modulate(&packet.air_bits());
        // settle = 4 on 8-bit runs leaves zero stable bits.
        assert!(measure_band_csi(&packet, &rx, &modem, 4).is_none());
    }

    #[test]
    fn works_on_every_channel() {
        for chan in [0u8, 9, 18, 27, 36] {
            let (packet, modem) = setup(chan);
            let h = C64::from_polar(0.02, -1.0);
            let mut rx = modem.modulate(&packet.air_bits());
            apply_channel_gain(&mut rx, h);
            let csi = measure_band_csi(&packet, &rx, &modem, 2).unwrap();
            assert!((csi.combined() - h).abs() < 1e-9, "channel {chan}");
        }
    }

    #[test]
    fn combined_averages_amplitude_and_phase() {
        let csi = BandCsi {
            h0: C64::from_polar(1.0, 0.2),
            h1: C64::from_polar(3.0, 0.4),
            n0: 10,
            n1: 10,
        };
        let c = csi.combined();
        assert!((c.abs() - 2.0).abs() < 1e-12);
        assert!((c.arg() - 0.3).abs() < 1e-12);
    }
}
