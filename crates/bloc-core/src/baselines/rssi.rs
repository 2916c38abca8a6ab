//! RSSI log-distance trilateration — the pre-CSI BLE status quo (paper
//! §2.2 and §9.2: "past work on Bluetooth localization has significantly
//! relied on using RSSI… either relies on extensive fingerprinting or is
//! inaccurate").
//!
//! The model: received amplitude `|h| ≈ A₀ / d^{n/2}` (power falls as
//! `d^−n`), so `d̂ = (A₀ / |h|)^{2/n}`. Amplitudes are averaged over all
//! antennas and bands (an RSSI radio reports one number per packet), then
//! the per-anchor ranges are trilaterated by Gauss–Newton. In multipath,
//! constructive/destructive fading makes `|h|` a poor proxy for distance —
//! the paper's Eq. 2 discussion — which is exactly what this baseline
//! demonstrates.

use bloc_chan::sounder::SoundingData;
use bloc_num::linalg::trilaterate;
use bloc_num::P2;

/// Configuration of the RSSI baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssiConfig {
    /// Path-loss exponent `n` (2 = free space; 2.5–4 indoors).
    pub path_loss_exponent: f64,
    /// Reference amplitude `A₀` at 1 m. The `bloc-chan` channel model uses
    /// amplitude `1/d`, so the matched value is 1.0.
    pub ref_amplitude: f64,
}

impl Default for RssiConfig {
    fn default() -> Self {
        Self {
            path_loss_exponent: 2.0,
            ref_amplitude: 1.0,
        }
    }
}

/// The estimated range from anchor `i`, metres.
pub fn estimate_range(data: &SoundingData, i: usize, config: &RssiConfig) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for band in &data.bands {
        for &h in &band.tag_to_anchor[i] {
            sum += h.abs();
            count += 1;
        }
    }
    if count == 0 || sum <= 0.0 {
        return None;
    }
    let mean_amp = sum / count as f64;
    Some((config.ref_amplitude / mean_amp).powf(2.0 / config.path_loss_exponent))
}

/// Localizes by trilaterating the per-anchor RSSI ranges. Returns `None`
/// with fewer than two ranges or a degenerate geometry.
pub fn localize(data: &SoundingData, config: &RssiConfig) -> Option<P2> {
    let anchors_ranges: Vec<(P2, f64)> = (0..data.anchors.len())
        .filter_map(|i| estimate_range(data, i, config).map(|r| (data.anchors[i].center(), r)))
        .collect();
    if anchors_ranges.len() < 2 {
        return None;
    }
    let centroid = anchors_ranges
        .iter()
        .fold(P2::ORIGIN, |acc, (p, _)| acc + *p)
        / anchors_ranges.len() as f64;
    trilaterate(centroid, &anchors_ranges, 1e-6, 100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloc_chan::geometry::Room;
    use bloc_chan::materials::Material;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, Environment};
    use rand::{rngs::StdRng, SeedableRng};

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    #[test]
    fn free_space_ranges_are_accurate() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(51);
        let tag = P2::new(2.0, 3.0);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        for (i, anchor) in anchors.iter().enumerate() {
            let r = estimate_range(&data, i, &RssiConfig::default()).unwrap();
            let truth = tag.dist(anchor.center());
            assert!((r - truth).abs() < 0.1, "anchor {i}: range {r} vs {truth}");
        }
    }

    #[test]
    fn free_space_localization_works() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(52);
        let tag = P2::new(3.4, 2.1);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let est = localize(&data, &RssiConfig::default()).unwrap();
        assert!(
            est.dist(tag) < 0.3,
            "free-space RSSI error {}",
            est.dist(tag)
        );
    }

    #[test]
    fn multipath_breaks_rssi_ranging() {
        // The paper's §2.2 argument: fading corrupts |h|; RSSI ranges in a
        // reflective room are much worse than in free space.
        let room = Room::new(5.0, 6.0);
        let anchors = anchors(&room);
        let mut rng = StdRng::seed_from_u64(53);
        let env = Environment::in_room(room)
            .with_walls(Material::metal(), &mut rng)
            .unwrap();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut errs = Vec::new();
        for k in 0..6 {
            let tag = P2::new(1.0 + 0.5 * k as f64, 1.5 + 0.6 * k as f64 % 4.0);
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            if let Some(est) = localize(&data, &RssiConfig::default()) {
                errs.push(est.dist(tag));
            }
        }
        let med = bloc_num::stats::median(&errs);
        assert!(
            med > 0.4,
            "RSSI in multipath should err ≫ free space, got {med}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let room = Room::new(5.0, 6.0);
        let data = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        assert!(estimate_range(&data, 0, &RssiConfig::default()).is_none());
        assert!(localize(&data, &RssiConfig::default()).is_none());
    }
}
