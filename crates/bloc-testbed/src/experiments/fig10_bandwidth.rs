//! Fig. 10: effect of stitched bandwidth on accuracy.
//!
//! Paper: median error vs bandwidth 2/20/40/80 MHz = 160/134/110/86 cm —
//! "for a bandwidth of just 2 MHz, which is equivalent to just 1 BLE
//! channel, the localization error is really high (almost 2 times that of
//! 80 MHz)."

use std::sync::Arc;

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::ErrorStats;
use crate::runner::{sweep, Method, SweepSpec};
use crate::scenario::Scenario;

/// Stats at one bandwidth.
#[derive(Debug, Clone)]
pub struct BandwidthStats {
    /// Stitched bandwidth, MHz.
    pub bandwidth_mhz: f64,
    /// Channels that fall inside the window.
    pub n_channels: usize,
    /// Error statistics (std-dev provides the paper's error bars).
    pub stats: ErrorStats,
}

/// Result of the Fig. 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// One entry per bandwidth, ascending.
    pub points: Vec<BandwidthStats>,
}

/// Runs the bandwidth sweep: contiguous windows of the stated width
/// centred on the band middle (2.441 GHz).
pub fn run(size: &ExperimentSize) -> Fig10Result {
    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0xA0);
    // Centre the window on an actual channel (2440 MHz) so the 2 MHz
    // case is "just 1 BLE channel" as in the paper.
    let band_center = 2.440e9;

    let points = [2.0f64, 20.0, 40.0, 80.0]
        .iter()
        .map(|&bw_mhz| {
            let half = bw_mhz * 1e6 / 2.0;
            let spec = SweepSpec {
                transform: Some(Arc::new(move |d: bloc_chan::sounder::SoundingData| {
                    d.with_bands_where(|b| (b.freq_hz - band_center).abs() <= half)
                })),
                ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], size.seed)
            };
            let out = sweep(&spec);
            // Count channels in the window once (same for every location).
            let n_channels = bloc_chan::sounder::all_data_channels()
                .iter()
                .filter(|c| (c.freq_hz() - band_center).abs() <= half)
                .count();
            BandwidthStats {
                bandwidth_mhz: bw_mhz,
                n_channels,
                stats: out[0].stats.clone(),
            }
        })
        .collect();

    Fig10Result { points }
}

impl Fig10Result {
    /// Renders the paper-style series.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 10 — median error vs stitched bandwidth\n");
        out.push_str("  BW (MHz) | channels | median (m) | std dev (m)\n");
        for p in &self.points {
            out.push_str(&format!(
                "   {:6.0}  |   {:3}    |   {:5.2}    |   {:5.2}\n",
                p.bandwidth_mhz, p.n_channels, p.stats.median, p.stats.std_dev
            ));
        }
        out.push_str("  (paper: 2→1.60, 20→1.34, 40→1.10, 80→0.86 m)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_bandwidth_less_error() {
        let r = run(&ExperimentSize {
            locations: 24,
            seed: 2018,
        });
        assert_eq!(r.points.len(), 4);
        let med: Vec<f64> = r.points.iter().map(|p| p.stats.median).collect();
        // End-to-end monotonic trend: 2 MHz clearly worse than 80 MHz.
        assert!(
            med[0] > 1.3 * med[3],
            "2 MHz ({}) should be much worse than 80 MHz ({})",
            med[0],
            med[3]
        );
        // Channel windows grow with bandwidth.
        let n: Vec<usize> = r.points.iter().map(|p| p.n_channels).collect();
        assert!(n.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(n[3], 37);
    }
}
