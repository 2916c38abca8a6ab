//! Fig. 9(a): overall localization accuracy — BLoc vs the AoA baseline.
//!
//! Paper: "BLoc achieves a median error of 86 cm, whereas the
//! AoA-combining based system achieves a median error of 242 cm. The 90th
//! percentile of the localization error is 170 cm and 340 cm."

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::ErrorStats;
use crate::runner::{sweep, Method, SweepSpec};
use crate::scenario::Scenario;

/// Result of the Fig. 9(a) experiment.
#[derive(Debug, Clone)]
pub struct Fig9aResult {
    /// BLoc error statistics.
    pub bloc: ErrorStats,
    /// AoA-baseline error statistics.
    pub aoa: ErrorStats,
    /// Locations evaluated.
    pub locations: usize,
}

/// Runs the headline accuracy experiment.
pub fn run(size: &ExperimentSize) -> Fig9aResult {
    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0x9A);
    let spec = SweepSpec::standard(
        &scenario,
        &positions,
        vec![Method::Bloc, Method::AoaBaseline],
        size.seed,
    );
    let mut out = sweep(&spec);
    let aoa = out.pop().expect("two methods").stats;
    let bloc = out.pop().expect("two methods").stats;
    Fig9aResult {
        bloc,
        aoa,
        locations: positions.len(),
    }
}

impl Fig9aResult {
    /// Renders the paper-style summary and CDFs.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 9a — localization accuracy CDFs\n");
        out.push_str(&format!(
            "  {:28} median {:5.2} m   p90 {:5.2} m   (paper: 0.86 / 1.70)\n",
            "BLoc", self.bloc.median, self.bloc.p90
        ));
        out.push_str(&format!(
            "  {:28} median {:5.2} m   p90 {:5.2} m   (paper: 2.42 / 3.40)\n",
            "AoA-baseline", self.aoa.median, self.aoa.p90
        ));
        out.push_str(&super::format_cdf("BLoc", &self.bloc.cdf_rows(6.0, 13)));
        out.push_str(&super::format_cdf(
            "AoA-baseline",
            &self.aoa.cdf_rows(6.0, 13),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloc_beats_aoa_baseline() {
        let r = run(&ExperimentSize::smoke());
        assert!(
            r.bloc.median < r.aoa.median,
            "BLoc {} vs AoA {}",
            r.bloc.median,
            r.aoa.median
        );
        assert!(
            r.bloc.median < 1.3,
            "BLoc median should be around/below 1 m: {}",
            r.bloc.median
        );
        assert!(
            r.aoa.median > 1.0,
            "AoA in heavy multipath should err > 1 m: {}",
            r.aoa.median
        );
    }
}
