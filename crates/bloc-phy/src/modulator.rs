//! GFSK modulation: bits → complex-baseband IQ samples.
//!
//! The transmitter integrates the Gaussian-shaped frequency waveform into
//! phase: `φ[n] = φ[n−1] + 2π·f_dev·w[n]/F_s`, `y[n] = e^{ιφ[n]}` — a
//! constant-envelope signal whose instantaneous frequency is `f_dev·w[n]`,
//! i.e. +250 kHz during settled 1-runs and −250 kHz during settled 0-runs
//! (the f₁/f₀ tones of paper Fig. 1b).

use crate::pulse::{ble_pulse, GaussianPulse};
use bloc_num::constants::{BLE_GFSK_DEVIATION_HZ, BLE_SYMBOL_RATE};
use bloc_num::C64;

/// Modulator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulatorConfig {
    /// Samples per symbol.
    pub sps: usize,
    /// Symbol rate, symbols/second (1 Msym/s for BLE 1M PHY).
    pub symbol_rate: f64,
    /// Peak frequency deviation, hertz (±250 kHz for BLE).
    pub deviation_hz: f64,
}

impl Default for ModulatorConfig {
    fn default() -> Self {
        Self {
            sps: 8,
            symbol_rate: BLE_SYMBOL_RATE,
            deviation_hz: BLE_GFSK_DEVIATION_HZ,
        }
    }
}

impl ModulatorConfig {
    /// Sample rate implied by the configuration, hertz.
    pub fn sample_rate(&self) -> f64 {
        self.symbol_rate * self.sps as f64
    }
}

/// A GFSK modulator (owns its pulse-shaping filter).
#[derive(Debug, Clone)]
pub struct GfskModulator {
    config: ModulatorConfig,
    pulse: GaussianPulse,
}

impl GfskModulator {
    /// A modulator with the BLE-standard Gaussian pulse (BT = 0.5).
    pub fn new(config: ModulatorConfig) -> Self {
        let pulse = ble_pulse(config.sps);
        Self { config, pulse }
    }

    /// A modulator with a custom pulse (for BT ablations).
    pub fn with_pulse(config: ModulatorConfig, pulse: GaussianPulse) -> Self {
        assert_eq!(pulse.sps(), config.sps, "pulse and config sps must agree");
        Self { config, pulse }
    }

    /// The configuration.
    pub fn config(&self) -> &ModulatorConfig {
        &self.config
    }

    /// Modulates on-air bits into unit-envelope IQ samples
    /// (`bits.len() · sps` of them), starting at phase `phase0`.
    pub fn modulate_from(&self, bits: &[bool], phase0: f64) -> Vec<C64> {
        let w = self.pulse.shape(bits);
        let dphi_scale =
            2.0 * std::f64::consts::PI * self.config.deviation_hz / self.config.sample_rate();
        let mut phase = phase0;
        w.into_iter()
            .map(|f_norm| {
                phase += dphi_scale * f_norm;
                C64::cis(phase)
            })
            .collect()
    }

    /// Modulates from phase 0.
    pub fn modulate(&self, bits: &[bool]) -> Vec<C64> {
        self.modulate_from(bits, 0.0)
    }

    /// The normalized frequency waveform (−1…+1) for a bit sequence —
    /// exposed so diagnostics (Fig. 4) can plot it without re-deriving it
    /// from phase.
    pub fn frequency_waveform(&self, bits: &[bool]) -> Vec<f64> {
        self.pulse.shape(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloc_num::fft::power_spectrum;
    use proptest::prelude::*;

    fn modulator() -> GfskModulator {
        GfskModulator::new(ModulatorConfig::default())
    }

    #[test]
    fn constant_envelope() {
        let m = modulator();
        let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        for z in m.modulate(&bits) {
            assert!(
                (z.abs() - 1.0).abs() < 1e-12,
                "GFSK must be constant-envelope"
            );
        }
    }

    #[test]
    fn settled_run_is_a_tone() {
        // During a settled 1-run the phase advances 2π·f_dev/F_s per
        // sample: an exact complex exponential at +250 kHz.
        let m = modulator();
        let iq = m.modulate(&[true; 16]);
        let fs = m.config().sample_rate();
        let expected = 2.0 * std::f64::consts::PI * 250e3 / fs;
        // Interior samples (skip 4 settling symbols):
        for pair in iq[4 * 8..12 * 8].windows(2) {
            let dphi = (pair[1] * pair[0].conj()).arg();
            assert!((dphi - expected).abs() < 1e-9, "dphi {dphi} vs {expected}");
        }
    }

    #[test]
    fn zero_run_is_negative_tone() {
        let m = modulator();
        let iq = m.modulate(&[false; 16]);
        let fs = m.config().sample_rate();
        let expected = -2.0 * std::f64::consts::PI * 250e3 / fs;
        for pair in iq[4 * 8..12 * 8].windows(2) {
            let dphi = (pair[1] * pair[0].conj()).arg();
            assert!((dphi - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn tone_separation_is_one_megahertz() {
        // Paper footnote 2: "the separation between the two data bits is
        // just 1 MHz" — i.e. 2 × 500 kHz peak-to-peak... (2 × 250 kHz
        // deviation = 500 kHz? No: f₁ − f₀ = 2·f_dev = 500 kHz at BT→∞.)
        // For BLE, deviation is 250 kHz so tones sit 500 kHz apart at the
        // modulator; the paper's 1 MHz figure counts the occupied band
        // edges. We assert the modulator-level separation here.
        let m = modulator();
        let fs = m.config().sample_rate();
        let tone = |bit: bool| {
            let iq = m.modulate(&[bit; 16]);
            let dphi = (iq[8 * 8 + 1] * iq[8 * 8].conj()).arg();
            dphi * fs / (2.0 * std::f64::consts::PI)
        };
        let sep = tone(true) - tone(false);
        assert!((sep - 500e3).abs() < 1.0, "tone separation {sep}");
    }

    #[test]
    fn phase_continuity_across_transitions() {
        // CPFSK: no phase jumps anywhere, even at bit flips.
        let m = modulator();
        let bits: Vec<bool> = (0..32).map(|i| (i / 3) % 2 == 0).collect();
        let iq = m.modulate(&bits);
        let max_step = 2.0 * std::f64::consts::PI * 250e3 / m.config().sample_rate();
        for pair in iq.windows(2) {
            let dphi = (pair[1] * pair[0].conj()).arg().abs();
            assert!(
                dphi <= max_step + 1e-9,
                "phase step {dphi} exceeds deviation bound"
            );
        }
    }

    #[test]
    fn initial_phase_respected() {
        let m = modulator();
        let bits = vec![true; 4];
        let a = m.modulate_from(&bits, 0.0);
        let b = m.modulate_from(&bits, 1.0);
        for (x, y) in a.iter().zip(&b) {
            let rel = (*y * x.conj()).arg();
            assert!(
                (rel - 1.0).abs() < 1e-9,
                "constant phase offset must persist"
            );
        }
    }

    #[test]
    fn gaussian_suppresses_out_of_band_energy() {
        // Compare GFSK (BT = 0.5) against raw FSK (huge BT ≈ rectangular
        // pulse): the Gaussian spectrum must concentrate more energy inside
        // ±1 MHz. This is the "out-of-band noise" motivation of paper §4.
        let cfg = ModulatorConfig::default();
        let bits: Vec<bool> = (0..256).map(|i| (i * 7 + i / 3) % 2 == 0).collect();

        let in_band_fraction = |mod_: &GfskModulator| {
            let iq = mod_.modulate(&bits);
            let ps = power_spectrum(&iq, 2048);
            let n = ps.len();
            let fs = cfg.sample_rate();
            let total: f64 = ps.iter().sum();
            let inband: f64 = ps
                .iter()
                .enumerate()
                .filter(|(k, _)| {
                    let f = if *k <= n / 2 {
                        *k as f64
                    } else {
                        *k as f64 - n as f64
                    } * fs
                        / n as f64;
                    f.abs() <= 1.0e6
                })
                .map(|(_, p)| p)
                .sum();
            inband / total
        };

        let gfsk = GfskModulator::new(cfg.clone());
        let fsk = GfskModulator::with_pulse(
            cfg.clone(),
            crate::pulse::GaussianPulse::new(8.0, cfg.sps, 2),
        );
        assert!(
            in_band_fraction(&gfsk) > in_band_fraction(&fsk),
            "Gaussian shaping must concentrate in-band energy"
        );
        assert!(in_band_fraction(&gfsk) > 0.99);
    }

    proptest! {
        #[test]
        fn prop_output_length(bits in proptest::collection::vec(any::<bool>(), 0..64)) {
            let m = modulator();
            prop_assert_eq!(m.modulate(&bits).len(), bits.len() * 8);
        }

        #[test]
        fn prop_unit_envelope(bits in proptest::collection::vec(any::<bool>(), 1..48), p0 in -3.0..3.0f64) {
            let m = modulator();
            for z in m.modulate_from(&bits, p0) {
                prop_assert!((z.abs() - 1.0).abs() < 1e-12);
            }
        }
    }
}
