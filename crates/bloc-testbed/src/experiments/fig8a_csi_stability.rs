//! Fig. 8(a): CSI phase stability across consecutive measurements.
//!
//! "We plot the CSI measured by BLoc for 10 consecutive measurements on 4
//! different frequency channels… the phase of the channel remains
//! consistent across measurements."

use bloc_ble::channels::Channel;
use bloc_chan::sounder::SounderConfig;
use bloc_num::angle::{circular_variance, rad_to_deg};
use bloc_num::P2;

use super::ExperimentSize;
use crate::scenario::Scenario;

/// Per-subband phase series.
#[derive(Debug, Clone)]
pub struct SubbandSeries {
    /// The paper's subband number (frequency index).
    pub subband: usize,
    /// Phase (degrees) of the measured CSI at each of the consecutive
    /// measurements.
    pub phases_deg: Vec<f64>,
    /// Circular variance of the series (0 = perfectly stable).
    pub circular_variance: f64,
}

/// Result of the Fig. 8(a) microbenchmark.
#[derive(Debug, Clone)]
pub struct Fig8aResult {
    /// One series per probed subband ({6, 16, 26, 36}, as in the paper).
    pub series: Vec<SubbandSeries>,
    /// Number of consecutive measurements per subband.
    pub repeats: usize,
}

/// Runs the experiment: a static tag in the paper testbed, 10 repeated
/// CSI measurements per subband within one dwell.
pub fn run(size: &ExperimentSize) -> Fig8aResult {
    let scenario = Scenario::paper_testbed(size.seed);
    let sounder = scenario.sounder(SounderConfig::default());
    let tag = P2::new(2.1, 3.3);
    let repeats = 10;

    let mut rng = rand::rngs::StdRng::seed_from_u64(size.seed ^ 0x8A);
    use rand::SeedableRng;

    let series = [6usize, 16, 26, 36]
        .iter()
        .map(|&subband| {
            let channel = Channel::from_freq_index(subband).expect("subband in range");
            let soundings = sounder.sound_repeated(tag, channel, repeats, &mut rng);
            let phases: Vec<f64> = soundings
                .iter()
                .map(|b| b.tag_to_anchor[1][0].arg())
                .collect();
            SubbandSeries {
                subband,
                circular_variance: circular_variance(&phases),
                phases_deg: phases.into_iter().map(rad_to_deg).collect(),
            }
        })
        .collect();

    Fig8aResult { series, repeats }
}

impl Fig8aResult {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Fig. 8a — CSI stability over consecutive measurements (phase °)\n");
        out.push_str(
            "  subband | measurements…                                        | circ.var\n",
        );
        for s in &self.series {
            let vals: Vec<String> = s.phases_deg.iter().map(|p| format!("{p:7.1}")).collect();
            out.push_str(&format!(
                "   {:5}  | {} | {:.4}\n",
                s.subband,
                vals.join(" "),
                s.circular_variance
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_stable_within_a_dwell() {
        let r = run(&ExperimentSize::smoke());
        assert_eq!(r.series.len(), 4);
        for s in &r.series {
            assert_eq!(s.phases_deg.len(), 10);
            assert!(
                s.circular_variance < 0.02,
                "subband {} unstable: {}",
                s.subband,
                s.circular_variance
            );
        }
    }

    #[test]
    fn different_subbands_have_different_phases() {
        // Stability is per-band; across bands the (multipath + offset)
        // phases differ — otherwise the plot would be degenerate.
        let r = run(&ExperimentSize::smoke());
        let first: Vec<f64> = r.series.iter().map(|s| s.phases_deg[0]).collect();
        let spread = first.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - first.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 5.0,
            "subband phases suspiciously aligned: {first:?}"
        );
    }
}
