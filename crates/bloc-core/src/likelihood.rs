//! Spatial likelihood maps from corrected channels — paper §5.3, Eq. 17.
//!
//! For each anchor *i*, the likelihood that the signal originated at a
//! point `x` is the coherent matched-filter correlation of the corrected
//! channels against the phases that a source at `x` *would* produce:
//!
//! `P_i(x) = | Σ_j Σ_k α^{f_k}_ij · e^{ι 2π f_k Δ_ij(x) / c} |`
//!
//! with `Δ_ij(x) = d_ij(x) − d_00(x) − d^{i0}_{00}` (Eq. 14's relative
//! distance). Evaluating per-antenna exact distances subsumes both terms
//! of the paper's Eq. 17 (AoA steering *and* relative-distance steering) —
//! the "change of coordinates" onto the X-Y plane, without a far-field
//! approximation. Per-anchor maps are summed to form the joint likelihood
//! (§5.3's final step); the hyperbolic high-likelihood contours of Fig. 6b
//! emerge from the relative-distance geometry.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::{Grid2D, GridSpec, C64};

use crate::correction::CorrectedChannels;

/// How antennas combine inside the per-anchor likelihood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AntennaCombining {
    /// Eq. 17 verbatim: antennas and bands sum coherently. Maximum
    /// resolution, but static per-antenna phase-calibration error
    /// decoheres the antenna sum.
    Coherent,
    /// Antennas combine non-coherently (`Σ_j |Σ_k …|`): each antenna's
    /// across-band (relative-distance) correlation stays fully coherent,
    /// and unknown per-antenna phases cancel — fully robust to
    /// uncalibrated arrays but blind to angle.
    NoncoherentAntennas,
    /// The sum of the two: coherent angle gain where the array phase
    /// coherence survives, plus a calibration-immune relative-distance
    /// floor. The workspace default (DESIGN.md §6 ablates all three).
    #[default]
    Hybrid,
}

/// The Eq. 17 evaluation for one cell, written the naive way: exact
/// per-antenna distances recomputed from scratch and one `C64::cis` per
/// (antenna, band). This is the ground truth every fast kernel in
/// [`crate::engine`] is verified against — change it only if the physics
/// changes.
pub fn reference_cell_value(
    corrected: &CorrectedChannels,
    i: usize,
    combining: AntennaCombining,
    x: bloc_num::P2,
) -> f64 {
    let anchor = &corrected.anchors[i];
    let master0 = corrected.anchors[0].antenna(0);
    let d_i0 = corrected.master_anchor_dist[i];
    let n_ant = anchor.n_antennas;

    let d_00 = x.dist(master0);
    let mut coherent = bloc_num::complex::ZERO;
    let mut noncoherent = 0.0;
    for j in 0..n_ant {
        let delta = x.dist(anchor.antenna(j)) - d_00 - d_i0;
        let mut per_antenna = bloc_num::complex::ZERO;
        for band in &corrected.bands {
            let phase = std::f64::consts::TAU * band.freq_hz * delta / SPEED_OF_LIGHT;
            per_antenna += band.alpha[i][j] * C64::cis(phase);
        }
        coherent += per_antenna;
        noncoherent += per_antenna.abs();
    }
    match combining {
        AntennaCombining::Coherent => coherent.abs(),
        AntennaCombining::NoncoherentAntennas => noncoherent,
        AntennaCombining::Hybrid => coherent.abs() + 0.5 * noncoherent,
    }
}

/// The per-anchor likelihood map computed by the naive reference path —
/// the original single-threaded implementation, kept verbatim as the
/// equivalence baseline for [`crate::engine`].
pub fn anchor_likelihood_reference(
    corrected: &CorrectedChannels,
    i: usize,
    spec: GridSpec,
    combining: AntennaCombining,
) -> Grid2D {
    Grid2D::from_fn(spec, |x| reference_cell_value(corrected, i, combining, x))
}

/// Computes the per-anchor likelihood map for anchor `i` over `spec`.
///
/// Delegates to the phasor-recurrence engine ([`crate::engine`]); the
/// result matches [`anchor_likelihood_reference`] to well under 1e-9
/// relative error (see `tests/kernel_equivalence.rs`). Callers issuing
/// many soundings against one deployment should hold a
/// [`crate::engine::LikelihoodEngine`] instead, which additionally caches
/// the steering geometry across calls.
pub fn anchor_likelihood(
    corrected: &CorrectedChannels,
    i: usize,
    spec: GridSpec,
    combining: AntennaCombining,
) -> Grid2D {
    crate::engine::LikelihoodEngine::recurrence().anchor_likelihood(corrected, i, spec, combining)
}

/// The angle-only likelihood of anchor `i` (paper Eq. 15 / Fig. 6a),
/// mapped over space: each band's 4-antenna Bartlett response toward each
/// cell, summed non-coherently across bands. Produces the wedge along the
/// tag's bearing — ambiguous in range.
pub fn angle_only_likelihood(corrected: &CorrectedChannels, i: usize, spec: GridSpec) -> Grid2D {
    let anchor = &corrected.anchors[i];
    let center = anchor.center();
    let n_ant = anchor.n_antennas;
    // Per band, the steering phase is linear in the antenna index j:
    // phase_j = −j · (2π·l·f/c) · sinθ. Both the wavenumber factor
    // (constant per map) and the per-antenna phasor (a constant rotation
    // per cell) are loop-invariant, so hoist them: one `k_band` table per
    // map, one `cis` per (cell, band) instead of one per (cell, band,
    // antenna).
    let k_band: Vec<f64> = corrected
        .bands
        .iter()
        .map(|b| std::f64::consts::TAU * anchor.spacing * b.freq_hz / SPEED_OF_LIGHT)
        .collect();

    Grid2D::from_fn(spec, |x| {
        let dir = x - center;
        let r = dir.norm();
        if r < 1e-6 {
            return 0.0;
        }
        let sin_theta = anchor.axis.dot(dir) / r;
        let mut total = 0.0;
        for (band, &k) in corrected.bands.iter().zip(&k_band) {
            // Antenna j is closer to a source at sinθ > 0 by j·l·sinθ
            // (phase +2πjl·sinθ/λ in its channel); correlate with the
            // conjugate steering phase, advanced across antennas by a
            // constant complex rotation.
            let step = C64::cis(-k * sin_theta);
            let mut rot = bloc_num::complex::ONE;
            let mut acc = bloc_num::complex::ZERO;
            for &a in band.alpha[i].iter().take(n_ant) {
                acc += a * rot;
                rot *= step;
            }
            total += acc.abs();
        }
        total
    })
}

/// The distance-only likelihood of anchor `i` (paper Eq. 16 / Fig. 6b):
/// per antenna, the coherent across-band correlation against the relative
/// distance `Δ_ij(x)`, summed non-coherently across antennas. Produces the
/// hyperbolic band ("because we measure relative distances as opposed to
/// absolute distances, the shape of the high probability region looks like
/// a hyperbola").
pub fn distance_only_likelihood(corrected: &CorrectedChannels, i: usize, spec: GridSpec) -> Grid2D {
    let anchor = &corrected.anchors[i];
    let master0 = corrected.anchors[0].antenna(0);
    let d_i0 = corrected.master_anchor_dist[i];
    let n_ant = anchor.n_antennas;

    Grid2D::from_fn(spec, |x| {
        let d_00 = x.dist(master0);
        let mut total = 0.0;
        for j in 0..n_ant {
            let delta = x.dist(anchor.antenna(j)) - d_00 - d_i0;
            let mut acc = bloc_num::complex::ZERO;
            for band in &corrected.bands {
                let phase = std::f64::consts::TAU * band.freq_hz * delta / SPEED_OF_LIGHT;
                acc += band.alpha[i][j] * C64::cis(phase);
            }
            total += acc.abs();
        }
        total
    })
}

/// The joint likelihood: per-anchor maps summed cell-wise (paper §5.3:
/// "we simply add the likelihood obtained from each anchor").
///
/// Each anchor's map is normalized to unit peak before summing so that an
/// anchor with more antennas/bands (or simply stronger amplitudes, when
/// correction ran unnormalized) cannot drown out the others.
///
/// Degradation-aware weighting: anchors whose measurements were masked
/// away entirely (`surviving == 0`) are excluded — their map would be the
/// all-zero grid, and normalizing it is meaningless — and each remaining
/// anchor's map is weighted by its surviving-evidence fraction relative to
/// the best-covered anchor. An anchor that kept 10% of its measurements
/// still *has* a unit-peak map after normalization, but it is built from
/// 10× less evidence and its sidelobes are commensurately less trustworthy;
/// down-weighting it keeps a mostly-deaf anchor from steering the joint
/// peak. With no masking every weight is 1 and this reduces exactly to the
/// paper's plain sum.
pub fn joint_likelihood(
    corrected: &CorrectedChannels,
    spec: GridSpec,
    combining: AntennaCombining,
) -> Grid2D {
    crate::engine::LikelihoodEngine::recurrence().joint_likelihood(corrected, spec, combining)
}

/// The joint likelihood computed through the naive reference path —
/// identical weighting contract to [`joint_likelihood`], per-anchor maps
/// from [`anchor_likelihood_reference`]. The equivalence baseline.
pub fn joint_likelihood_reference(
    corrected: &CorrectedChannels,
    spec: GridSpec,
    combining: AntennaCombining,
) -> Grid2D {
    weighted_joint(corrected, spec, |i| {
        anchor_likelihood_reference(corrected, i, spec, combining)
    })
}

/// The degradation-aware weighting shared by every joint-likelihood
/// implementation: `anchor_map(i)` produces anchor `i`'s raw map, this
/// normalizes each to unit peak, weights it by its surviving-evidence
/// fraction relative to the best-covered anchor, skips dead anchors, and
/// sums. Keeping the weighting in one place is what makes the reference
/// and engine joints differ only by kernel arithmetic.
pub(crate) fn weighted_joint(
    corrected: &CorrectedChannels,
    spec: GridSpec,
    mut anchor_map: impl FnMut(usize) -> Grid2D,
) -> Grid2D {
    let mut joint = Grid2D::zeros(spec);
    let weights = anchor_weights(corrected);
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        let mut map = anchor_map(i);
        map.normalize_peak();
        map.scale(w);
        joint.add_assign(&map);
    }
    joint
}

/// The per-anchor weights of the [`weighted_joint`] contract: each
/// anchor's surviving-evidence fraction relative to the best-covered
/// anchor, `0.0` for dead anchors (and for everyone when nothing
/// survived). Exposed so the hierarchical solver can assemble patch-level
/// joints with exactly the dense weighting.
pub(crate) fn anchor_weights(corrected: &CorrectedChannels) -> Vec<f64> {
    let fractions: Vec<f64> = (0..corrected.n_anchors())
        .map(|i| corrected.surviving_fraction(i))
        .collect();
    let best = fractions.iter().fold(0.0f64, |a, &b| a.max(b));
    if best <= 0.0 {
        return vec![0.0; fractions.len()];
    }
    fractions
        .into_iter()
        .map(|frac| if frac > 0.0 { frac / best } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::correction::correct;
    use bloc_chan::geometry::Room;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, Environment};
    use bloc_num::P2;
    use rand::{rngs::StdRng, SeedableRng};

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    fn grid_spec(room: &Room) -> GridSpec {
        GridSpec::covering(
            P2::new(-0.5, -0.5),
            P2::new(room.width + 1.0, room.height + 1.0),
            0.08,
        )
    }

    fn free_space_corrected(tag: P2, seed: u64) -> CorrectedChannels {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        correct(&sounder.sound(tag, &all_data_channels(), &mut rng), true).unwrap()
    }

    #[test]
    fn free_space_joint_peak_at_tag() {
        // With no multipath and random offsets, the joint likelihood must
        // peak at the true position — the core Eq. 17 correctness check.
        let room = Room::new(5.0, 6.0);
        let tag = P2::new(1.9, 2.7);
        let corrected = free_space_corrected(tag, 11);
        let joint = joint_likelihood(&corrected, grid_spec(&room), AntennaCombining::default());
        let (ix, iy, _) = joint.argmax().unwrap();
        let peak = joint.spec().cell_center(ix, iy);
        assert!(peak.dist(tag) < 0.15, "joint peak {peak} vs tag {tag}");
    }

    /// Spatial extent (max pairwise distance, metres) of the cells whose
    /// likelihood is within `frac` of the grid maximum — a measure of the
    /// ambiguity region's size.
    fn high_region_extent(g: &Grid2D, frac: f64) -> f64 {
        let spec = g.spec();
        let (_, _, max) = g.argmax().unwrap();
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

    /// Number of cells within `frac` of the grid maximum — the area of the
    /// high-likelihood region.
    fn high_region_area(g: &Grid2D, frac: f64) -> usize {
        let (_, _, max) = g.argmax().unwrap();
        g.data().iter().filter(|&&v| v >= frac * max).count()
    }

    #[test]
    fn angle_only_is_a_wedge_distance_only_a_hyperbola_joint_a_spot() {
        // The Fig. 6 decomposition: Eq. 15 alone (angle) and Eq. 16 alone
        // (relative distance) are each ambiguous — long high-likelihood
        // regions — while Eq. 17 with all anchors collapses to a compact
        // spot around the tag.
        let room = Room::new(5.0, 6.0);
        let tag = P2::new(3.2, 2.2);
        let corrected = free_space_corrected(tag, 12);
        let spec = grid_spec(&room);

        let angle = angle_only_likelihood(&corrected, 1, spec);
        let distance = distance_only_likelihood(&corrected, 1, spec);
        let joint = joint_likelihood(&corrected, spec, AntennaCombining::default());

        let e_angle = high_region_extent(&angle, 0.9);
        let e_dist = high_region_extent(&distance, 0.9);
        let e_joint = high_region_extent(&joint, 0.9);
        assert!(
            e_angle > 2.0,
            "angle wedge should span metres, got {e_angle}"
        );
        assert!(
            e_dist > 2.0,
            "hyperbola band should span metres, got {e_dist}"
        );
        assert!(e_joint < 1.5, "joint spot should be compact, got {e_joint}");
        assert!(e_joint < e_angle && e_joint < e_dist);

        // And each projection is still *consistent* with the tag: its
        // region contains the true position.
        for g in [&angle, &distance, &joint] {
            let (_, _, max) = g.argmax().unwrap();
            assert!(
                g.at(tag).unwrap() > 0.8 * max,
                "tag must lie in the high region"
            );
        }
    }

    #[test]
    fn fewer_bands_broader_peak() {
        // Bandwidth gives distance resolution (paper Eq. 6 / Fig. 10): with
        // one band (2 MHz) the high-likelihood area is much larger than
        // with all 37 bands (80 MHz span).
        let room = Room::new(5.0, 6.0);
        let tag = P2::new(2.4, 3.4);
        let spec = grid_spec(&room);

        let corrected_all = free_space_corrected(tag, 13);
        let mut corrected_one = corrected_all.clone();
        corrected_one.bands.truncate(1);

        let a_all = high_region_area(
            &joint_likelihood(&corrected_all, spec, AntennaCombining::default()),
            0.5,
        );
        let a_one = high_region_area(
            &joint_likelihood(&corrected_one, spec, AntennaCombining::default()),
            0.5,
        );
        assert!(
            a_one as f64 > 1.3 * a_all as f64,
            "one-band area {a_one} must exceed all-band area {a_all}"
        );
    }

    #[test]
    fn likelihood_is_nonnegative_and_finite() {
        let room = Room::new(5.0, 6.0);
        let corrected = free_space_corrected(P2::new(1.0, 1.0), 14);
        let joint = joint_likelihood(&corrected, grid_spec(&room), AntennaCombining::default());
        for &v in joint.data() {
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn dead_anchors_are_excluded_from_the_joint() {
        // Kill anchor 2's evidence entirely: the joint must be the sum of
        // the three survivors and still peak at the tag.
        let room = Room::new(5.0, 6.0);
        let tag = P2::new(2.1, 3.1);
        let mut corrected = free_space_corrected(tag, 16);
        for b in &mut corrected.bands {
            for a in &mut b.alpha[2] {
                *a = bloc_num::complex::ZERO;
            }
        }
        corrected.surviving[2] = 0;
        let spec = grid_spec(&room);
        let joint = joint_likelihood(&corrected, spec, AntennaCombining::default());
        let (_, _, max) = joint.argmax().unwrap();
        assert!(
            max <= 3.0 + 1e-9,
            "3 surviving anchors ⇒ joint max ≤ 3, got {max}"
        );
        let (ix, iy, _) = joint.argmax().unwrap();
        assert!(joint.spec().cell_center(ix, iy).dist(tag) < 0.3);
    }

    #[test]
    fn starved_anchors_are_downweighted() {
        // An anchor with a single surviving measurement contributes at most
        // its evidence fraction to the joint, not a full unit-peak map.
        let room = Room::new(5.0, 6.0);
        let tag = P2::new(2.6, 2.9);
        let mut corrected = free_space_corrected(tag, 17);
        let n_bands = corrected.bands.len();
        for (s, b) in corrected.bands.iter_mut().enumerate() {
            for (j, a) in b.alpha[1].iter_mut().enumerate() {
                if !(s == 0 && j == 0) {
                    *a = bloc_num::complex::ZERO;
                }
            }
        }
        corrected.surviving[1] = 1;
        let spec = grid_spec(&room);
        let joint = joint_likelihood(&corrected, spec, AntennaCombining::default());
        let (_, _, max) = joint.argmax().unwrap();
        let w1 = 1.0 / (n_bands as f64 * 4.0);
        assert!(
            max <= 3.0 + w1 + 1e-9,
            "starved anchor must carry weight ≤ {w1}, joint max {max}"
        );
    }

    #[test]
    fn all_dead_yields_the_zero_grid() {
        let room = Room::new(5.0, 6.0);
        let mut corrected = free_space_corrected(P2::new(1.0, 1.0), 18);
        for b in &mut corrected.bands {
            for row in &mut b.alpha {
                for a in row {
                    *a = bloc_num::complex::ZERO;
                }
            }
        }
        corrected.surviving = vec![0; 4];
        let joint = joint_likelihood(&corrected, grid_spec(&room), AntennaCombining::default());
        assert!(joint.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn anchor_maps_normalized_before_summing() {
        let room = Room::new(5.0, 6.0);
        let corrected = free_space_corrected(P2::new(2.0, 2.0), 15);
        let joint = joint_likelihood(&corrected, grid_spec(&room), AntennaCombining::default());
        let (_, _, max) = joint.argmax().unwrap();
        // With 4 anchors each normalized to peak 1, the joint max is ≤ 4
        // (and > 1 when maps overlap at the tag).
        assert!(max <= 4.0 + 1e-9 && max > 1.0, "joint max {max}");
    }
}
