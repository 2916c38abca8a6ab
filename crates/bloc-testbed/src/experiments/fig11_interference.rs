//! Fig. 11: interference avoidance — channel blacklisting / subsampling.
//!
//! Paper §8.6: "we subsampled the available BLE channels by a factor of 2
//! and by a factor of 4… subsampling the available channels has almost no
//! effect on the localization accuracy" because the *span* (not the
//! density) of frequencies sets the resolution, and the aliasing distance
//! of even 20 MHz gaps (15 m) exceeds indoor dimensions.

use std::sync::Arc;

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::ErrorStats;
use crate::runner::{sweep, Method, SweepSpec};
use crate::scenario::Scenario;

/// Stats at one subsampling factor.
#[derive(Debug, Clone)]
pub struct SubsampleStats {
    /// Keep-every-n factor (1 = all channels).
    pub stride: usize,
    /// Channels retained.
    pub n_channels: usize,
    /// Error statistics.
    pub stats: ErrorStats,
}

/// Result of the Fig. 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// One entry per stride (1, 2, 4).
    pub points: Vec<SubsampleStats>,
}

/// Runs the subsampling sweep. Subsampling is by *frequency index* so the
/// retained channels still span the full 80 MHz.
pub fn run(size: &ExperimentSize) -> Fig11Result {
    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0xA1);

    let points = [1usize, 2, 4]
        .iter()
        .map(|&stride| {
            let spec = SweepSpec {
                transform: Some(Arc::new(move |d: bloc_chan::sounder::SoundingData| {
                    d.with_bands_where(|b| b.channel.freq_index() % stride == 0)
                })),
                ..SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], size.seed)
            };
            let out = sweep(&spec);
            let n_channels = bloc_chan::sounder::all_data_channels()
                .iter()
                .filter(|c| c.freq_index() % stride == 0)
                .count();
            SubsampleStats {
                stride,
                n_channels,
                stats: out[0].stats.clone(),
            }
        })
        .collect();

    Fig11Result { points }
}

impl Fig11Result {
    /// Renders the paper-style series.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fig. 11 — interference avoidance: channel subsampling over the full 80 MHz span\n",
        );
        out.push_str("  stride | subbands | median (m) | std dev (m)\n");
        for p in &self.points {
            out.push_str(&format!(
                "    ×{}   |   {:3}    |   {:5.2}    |   {:5.2}\n",
                p.stride, p.n_channels, p.stats.median, p.stats.std_dev
            ));
        }
        out.push_str("  (paper: subsampling ×2 and ×4 has almost no effect on accuracy)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsampling_is_nearly_free() {
        let r = run(&ExperimentSize {
            locations: 24,
            seed: 2018,
        });
        let full = r.points[0].stats.median;
        for p in &r.points[1..] {
            assert!(
                p.stats.median < full + 0.5,
                "stride ×{} median {} vs full {} — subsampling should be nearly free",
                p.stride,
                p.stats.median,
                full
            );
        }
        assert_eq!(r.points[0].n_channels, 37);
        assert!(r.points[2].n_channels <= 10);
    }
}
