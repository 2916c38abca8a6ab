//! Fig. 8(c): a sample spatial multipath profile.
//!
//! "There are multiple locations that are possible for the device due to
//! the multipath… the multipath peaks are more spread out than the direct
//! path… BLoc has predicted the right peak."

use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::{BlocConfig, BlocLocalizer};
use bloc_num::{Grid2D, P2};
use rand::SeedableRng;

use super::ExperimentSize;
use crate::metrics::ascii_heatmap;
use crate::scenario::Scenario;

/// Result of the Fig. 8(c) microbenchmark.
#[derive(Debug, Clone)]
pub struct Fig8cResult {
    /// Ground-truth tag position.
    pub truth: P2,
    /// BLoc's estimate.
    pub estimate: P2,
    /// The joint likelihood map.
    pub likelihood: Grid2D,
    /// Scored peaks: (position, likelihood p, negentropy H, score).
    pub peaks: Vec<(P2, f64, f64, f64)>,
}

/// Runs the experiment at one multipath-rich location.
pub fn run(size: &ExperimentSize) -> Fig8cResult {
    let scenario = Scenario::paper_testbed(size.seed);
    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(size.seed ^ 0x8C);
    // A location where clutter reflections compete with the (partially
    // obstructed) direct path: the profile shows several peaks and BLoc
    // must pick the right one.
    let truth = P2::new(2.5, 3.5);
    let data = sounder.sound(truth, &all_data_channels(), &mut rng);

    let localizer = BlocLocalizer::new(BlocConfig::for_room(&scenario.room));
    let est = localizer
        .localize(&data)
        .expect("profile location must localize");

    Fig8cResult {
        truth,
        estimate: est.position,
        peaks: est
            .peaks
            .iter()
            .map(|p| (p.peak.position, p.peak.value, p.entropy, p.score))
            .collect(),
        likelihood: est.likelihood,
    }
}

impl Fig8cResult {
    /// Renders the heat map and peak table.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 8c — sample multipath profile over X-Y space\n");
        out.push_str(&ascii_heatmap(&self.likelihood, 64));
        out.push_str(&format!(
            "  truth {} | BLoc estimate {} | error {:.2} m\n",
            self.truth,
            self.estimate,
            self.truth.dist(self.estimate)
        ));
        out.push_str("  peaks (pos, likelihood, negentropy H, score):\n");
        for (pos, p, h, s) in self.peaks.iter().take(6) {
            out.push_str(&format!("    {pos}  p={p:7.2}  H={h:5.2}  s={s:7.4}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_has_multiple_peaks_and_good_estimate() {
        let r = run(&ExperimentSize::smoke());
        assert!(
            r.peaks.len() >= 2,
            "multipath-rich profile should show several peaks"
        );
        assert!(
            r.truth.dist(r.estimate) < 1.0,
            "estimate {} vs truth {}",
            r.estimate,
            r.truth
        );
        // Paper's observation: the chosen (direct) peak is sharper than at
        // least one competing reflection peak.
        let chosen_h = r.peaks[0].2;
        assert!(
            r.peaks.iter().skip(1).any(|(_, _, h, _)| *h < chosen_h),
            "chosen peak should out-sharpen some reflection"
        );
        assert!(r.render().contains("truth"));
    }
}
