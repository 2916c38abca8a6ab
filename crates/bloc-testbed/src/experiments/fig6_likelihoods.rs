//! Fig. 6: the three likelihood geometries — angle-only wedge (Eq. 15),
//! relative-distance hyperbola (Eq. 16), and the combined distribution
//! (Eq. 17) that collapses to the source.
//!
//! "The shape of the high likelihood region is hyperbolic because the
//! distances measured are relative. … Blue square marks the actual
//! location of the source."

use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::correction::correct;
use bloc_core::likelihood::{
    angle_only_likelihood, distance_only_likelihood, joint_likelihood, AntennaCombining,
};
use bloc_num::{Grid2D, GridSpec, P2};
use rand::SeedableRng;

use super::ExperimentSize;
use crate::metrics::ascii_heatmap;
use crate::scenario::Scenario;

/// Result of the Fig. 6 illustration.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// The true source position.
    pub truth: P2,
    /// Eq. 15 map (anchor 1): the angular wedge.
    pub angle_map: Grid2D,
    /// Eq. 16 map (anchor 1): the hyperbolic band.
    pub distance_map: Grid2D,
    /// Eq. 17 joint map over all anchors: the spot.
    pub joint_map: Grid2D,
    /// Spatial extent (m) of the ≥90 % region of each map, in the same
    /// order — the quantitative version of "wedge / hyperbola / spot".
    pub extents: [f64; 3],
}

/// Runs the illustration in a low-multipath setting (like the paper's
/// clean Fig. 6 panels).
pub fn run(size: &ExperimentSize) -> Fig6Result {
    let scenario = Scenario::clean_los(size.seed);
    let sounder = scenario.sounder(SounderConfig {
        antenna_phase_err_std: 0.0,
        ..Default::default()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(size.seed ^ 0x60);
    let truth = P2::new(3.2, 2.2);
    let data = sounder.sound(truth, &all_data_channels(), &mut rng);
    let corrected = correct(&data, true).expect("clean LOS sounding");

    let spec = GridSpec::covering(P2::new(-0.5, -0.5), P2::new(6.0, 7.0), 0.08);
    let angle_map = angle_only_likelihood(&corrected, 1, spec);
    let distance_map = distance_only_likelihood(&corrected, 1, spec);
    let joint_map = joint_likelihood(&corrected, spec, AntennaCombining::Coherent);

    let extents = [
        high_region_extent(&angle_map, 0.9),
        high_region_extent(&distance_map, 0.9),
        high_region_extent(&joint_map, 0.9),
    ];

    Fig6Result {
        truth,
        angle_map,
        distance_map,
        joint_map,
        extents,
    }
}

/// Max pairwise distance among cells within `frac` of the map maximum.
fn high_region_extent(g: &Grid2D, frac: f64) -> f64 {
    let spec = g.spec();
    let (_, _, max) = g.argmax().expect("non-empty grid");
    let mut cells = Vec::new();
    for iy in 0..spec.ny {
        for ix in 0..spec.nx {
            if g.get(ix, iy) >= frac * max {
                cells.push(spec.cell_center(ix, iy));
            }
        }
    }
    let mut extent = 0.0f64;
    for a in &cells {
        for b in &cells {
            extent = extent.max(a.dist(*b));
        }
    }
    extent
}

impl Fig6Result {
    /// Renders the three panels as ASCII heat maps.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 6 — CSI to location (source at the × position)\n");
        out.push_str(&format!(
            "  high-region extents: angle wedge {:.1} m | hyperbola {:.1} m | joint spot {:.1} m\n",
            self.extents[0], self.extents[1], self.extents[2]
        ));
        for (name, map) in [
            ("(a) Eq. 15 — angle only (one anchor)", &self.angle_map),
            (
                "(b) Eq. 16 — relative distance only (one anchor)",
                &self.distance_map,
            ),
            ("(c) Eq. 17 — joint, all anchors", &self.joint_map),
        ] {
            out.push_str(&format!("  {name}:\n"));
            out.push_str(&ascii_heatmap(map, 56));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wedge_hyperbola_spot_progression() {
        let r = run(&ExperimentSize::smoke());
        let [angle, dist, joint] = r.extents;
        assert!(
            angle > 2.0,
            "angle map should be a metres-long wedge, got {angle}"
        );
        assert!(
            dist > 2.0,
            "distance map should be a metres-long hyperbola, got {dist}"
        );
        assert!(
            joint < 1.5,
            "joint map should be a compact spot, got {joint}"
        );
        // Every map's high region contains the truth.
        for g in [&r.angle_map, &r.distance_map, &r.joint_map] {
            let (_, _, max) = g.argmax().unwrap();
            assert!(g.at(r.truth).unwrap() > 0.75 * max);
        }
    }
}
