//! Fig. 13: accuracy as a function of tag location.
//!
//! Paper §8.8: RMSE mapped over the room — "errors \[are\] particularly high
//! in the corner locations of the setup, which can be attributed to the
//! closely spaced values of the sinusoid at near 90° angles. Apart from
//! that … no consistent pattern."

use bloc_num::{Grid2D, P2};

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::{ascii_heatmap, RmseMap};
use crate::runner::{sweep, Method, SweepSpec};
use crate::scenario::Scenario;

/// Result of the Fig. 13 experiment.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Per-cell RMSE (0.5 m cells over the room).
    pub rmse: Grid2D,
    /// Mean RMSE over corner cells (within 1.2 m of a room corner).
    pub corner_rmse: f64,
    /// Mean RMSE over the central region.
    pub center_rmse: f64,
}

/// Runs the location-dependency experiment.
pub fn run(size: &ExperimentSize) -> Fig13Result {
    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0xA3);
    let spec = SweepSpec::standard(&scenario, &positions, vec![Method::Bloc], size.seed);
    let out = sweep(&spec);

    let mut map = RmseMap::for_room(&scenario.room, 0.5);
    for r in &out[0].records {
        if r.estimate.is_some() {
            map.record(r.truth, r.error);
        }
    }

    let room = scenario.room;
    let corners = [
        P2::new(0.0, 0.0),
        P2::new(room.width, 0.0),
        P2::new(room.width, room.height),
        P2::new(0.0, room.height),
    ];
    let corner_rmse = map.mean_rmse_where(|p| corners.iter().any(|&c| p.dist(c) < 1.2));
    let center_rmse = map.mean_rmse_where(|p| p.dist(room.center()) < 1.5);

    Fig13Result {
        rmse: map.rmse_grid(),
        corner_rmse,
        center_rmse,
    }
}

impl Fig13Result {
    /// Renders the RMSE heat map.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Fig. 13 — RMSE by tag location (0.5 m cells; darker = larger error)\n");
        out.push_str(&ascii_heatmap(&self.rmse, 40));
        out.push_str(&format!(
            "  corner-region mean RMSE {:5.2} m | central mean RMSE {:5.2} m\n",
            self.corner_rmse, self.center_rmse
        ));
        out.push_str("  (paper: corners worse; otherwise no consistent pattern)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_populated() {
        let r = run(&ExperimentSize {
            locations: 60,
            seed: 2018,
        });
        let visited = r.rmse.data().iter().filter(|v| v.is_finite()).count();
        assert!(visited > 20, "RMSE map too sparse: {visited} cells");
        assert!(r.center_rmse.is_finite());
    }
}
