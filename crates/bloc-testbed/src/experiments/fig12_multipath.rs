//! Fig. 12: effect of the multipath-rejection algorithm.
//!
//! Paper §8.7: replacing the score of Eq. 18 with "a naive baseline that
//! just picks the shortest distance path" raises the median error from
//! 86 cm to 195 cm (p90 178 → 331 cm) — "the multipath rejection
//! algorithm is crucial to the accuracy of BLoc."

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::ErrorStats;
use crate::runner::{sweep, Method, SweepSpec};
use crate::scenario::Scenario;

/// Result of the Fig. 12 experiment.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Full BLoc.
    pub bloc: ErrorStats,
    /// Shortest-distance baseline.
    pub shortest: ErrorStats,
    /// Raw-argmax decider (extra ablation: no peak analysis at all).
    pub argmax: ErrorStats,
}

/// Runs the multipath-rejection ablation (4 anchors × 4 antennas × all
/// channels, as stated in §8.7).
pub fn run(size: &ExperimentSize) -> Fig12Result {
    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0xA2);
    let spec = SweepSpec::standard(
        &scenario,
        &positions,
        vec![
            Method::Bloc,
            Method::BlocShortestDistance,
            Method::BlocArgmax,
        ],
        size.seed,
    );
    let out = sweep(&spec);
    Fig12Result {
        bloc: out[0].stats.clone(),
        shortest: out[1].stats.clone(),
        argmax: out[2].stats.clone(),
    }
}

impl Fig12Result {
    /// Renders the paper-style summary and CDFs.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 12 — effect of multipath rejection\n");
        out.push_str(&format!(
            "  {:28} median {:5.2} m   p90 {:5.2} m   (paper: 0.86 / 1.78)\n",
            "BLoc (Eq. 18 score)", self.bloc.median, self.bloc.p90
        ));
        out.push_str(&format!(
            "  {:28} median {:5.2} m   p90 {:5.2} m   (paper: 1.95 / 3.31)\n",
            "Shortest-Distance Baseline", self.shortest.median, self.shortest.p90
        ));
        out.push_str(&format!(
            "  {:28} median {:5.2} m   p90 {:5.2} m   (extra ablation)\n",
            "Likelihood-Argmax", self.argmax.median, self.argmax.p90
        ));
        out.push_str(&super::format_cdf("BLoc", &self.bloc.cdf_rows(5.0, 11)));
        out.push_str(&super::format_cdf(
            "Shortest-Distance",
            &self.shortest.cdf_rows(5.0, 11),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_beats_naive_shortest_distance() {
        let r = run(&ExperimentSize::smoke());
        assert!(
            r.bloc.median < r.shortest.median,
            "BLoc {} must beat shortest-distance {}",
            r.bloc.median,
            r.shortest.median
        );
    }
}
