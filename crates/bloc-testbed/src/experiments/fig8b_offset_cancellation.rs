//! Fig. 8(b): phase across subbands, with and without BLoc's offset
//! cancellation.
//!
//! "We place the target and two APs in line of sight in a relatively
//! multipath free environment… the blue curve varies randomly with
//! frequency, whereas the red curve shows linear behavior across
//! frequency."

use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::correction::correct;
use bloc_num::angle::{rad_to_deg, unwrap};
use bloc_num::linalg::linear_fit;
use bloc_num::P2;
use rand::SeedableRng;

use super::ExperimentSize;
use crate::scenario::Scenario;

/// Result of the Fig. 8(b) microbenchmark.
#[derive(Debug, Clone)]
pub struct Fig8bResult {
    /// Subband (frequency index) per sample, ascending.
    pub subbands: Vec<usize>,
    /// Unwrapped phase (degrees) without correction — garbled.
    pub raw_phase_deg: Vec<f64>,
    /// Unwrapped phase (degrees) with BLoc's correction — linear.
    pub corrected_phase_deg: Vec<f64>,
    /// Linear-fit R² of the raw series.
    pub raw_r2: f64,
    /// Linear-fit R² of the corrected series.
    pub corrected_r2: f64,
}

/// Runs the experiment in the clean-LOS scenario with two anchors.
pub fn run(size: &ExperimentSize) -> Fig8bResult {
    let scenario = Scenario::clean_los(size.seed);
    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(size.seed ^ 0x8B);
    let tag = P2::new(1.4, 2.6);

    let data = sounder
        .sound(tag, &all_data_channels(), &mut rng)
        .with_anchor_subset(&[0, 1]);

    // Sort bands by frequency for a clean x-axis.
    let mut order: Vec<usize> = (0..data.bands.len()).collect();
    order.sort_by(|&a, &b| {
        data.bands[a]
            .freq_hz
            .partial_cmp(&data.bands[b].freq_hz)
            .unwrap()
    });

    let corrected = correct(&data, true).expect("clean sounding");

    let subbands: Vec<usize> = order
        .iter()
        .map(|&k| data.bands[k].channel.freq_index())
        .collect();
    let freqs: Vec<f64> = order.iter().map(|&k| data.bands[k].freq_hz).collect();
    let raw: Vec<f64> = order
        .iter()
        .map(|&k| data.bands[k].tag_to_anchor[1][0].arg())
        .collect();
    let cor: Vec<f64> = order
        .iter()
        .map(|&k| corrected.bands[k].alpha[1][0].arg())
        .collect();

    let raw_unwrapped = unwrap(&raw);
    let cor_unwrapped = unwrap(&cor);
    let (_, _, raw_r2) = linear_fit(&freqs, &raw_unwrapped).unwrap();
    let (_, _, corrected_r2) = linear_fit(&freqs, &cor_unwrapped).unwrap();

    Fig8bResult {
        subbands,
        raw_phase_deg: raw_unwrapped.into_iter().map(rad_to_deg).collect(),
        corrected_phase_deg: cor_unwrapped.into_iter().map(rad_to_deg).collect(),
        raw_r2,
        corrected_r2,
    }
}

impl Fig8bResult {
    /// Renders the paper-style series.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fig. 8b — phase vs subband (paper: random without correction, linear with BLoc)\n",
        );
        out.push_str(&format!(
            "  linear-fit R²: without correction {:.3}   with BLoc {:.3}\n",
            self.raw_r2, self.corrected_r2
        ));
        out.push_str("  subband |  raw (°)  | corrected (°)\n");
        for ((s, r), c) in self
            .subbands
            .iter()
            .zip(&self.raw_phase_deg)
            .zip(&self.corrected_phase_deg)
        {
            out.push_str(&format!("    {s:3}   | {r:9.1} | {c:9.1}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_restores_linearity() {
        let r = run(&ExperimentSize::smoke());
        assert!(r.corrected_r2 > 0.99, "corrected R² {}", r.corrected_r2);
        assert!(r.raw_r2 < 0.9, "raw R² {} should be garbled", r.raw_r2);
        assert_eq!(r.subbands.len(), 37);
        assert!(r.subbands.windows(2).all(|w| w[0] < w[1]));
    }
}
