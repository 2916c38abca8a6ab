//! Reflector material models.
//!
//! Real-life reflectors "are imperfect (and act as scatterers as well)"
//! (paper §1, §5.4) — the physical fact BLoc's spatial-entropy heuristic
//! exploits. A material here controls (a) how much energy a reflection
//! keeps, and (b) how that energy splits between a coherent specular
//! component and spatially-spread scatter points.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Reflection behaviour of a surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Total reflection loss, dB (energy not returned at all).
    pub reflection_loss_db: f64,
    /// Fraction of the reflected *amplitude* that is diffuse scatter
    /// (0 = mirror, 1 = pure scatterer).
    pub scatter_fraction: f64,
    /// Standard deviation of scatter-point placement around the specular
    /// point, metres.
    pub scatter_spread_m: f64,
    /// Number of discrete scatter points the surface is modelled with.
    pub scatter_points: usize,
}

impl Material {
    /// Amplitude factor corresponding to the reflection loss.
    pub fn amplitude_factor(&self) -> f64 {
        10f64.powf(-self.reflection_loss_db / 20.0)
    }

    /// Large metal surfaces (the VICON room's "large metal cupboards",
    /// §7): strong, fairly specular reflections with noticeable scatter.
    pub fn metal() -> Self {
        Self {
            reflection_loss_db: 0.5,
            scatter_fraction: 0.35,
            scatter_spread_m: 0.30,
            scatter_points: 5,
        }
    }

    /// Concrete / brick walls: lossier, more diffuse.
    pub fn concrete() -> Self {
        Self {
            reflection_loss_db: 6.0,
            scatter_fraction: 0.6,
            scatter_spread_m: 0.35,
            scatter_points: 5,
        }
    }

    /// Interior drywall: weak reflector.
    pub fn drywall() -> Self {
        Self {
            reflection_loss_db: 10.0,
            scatter_fraction: 0.6,
            scatter_spread_m: 0.4,
            scatter_points: 4,
        }
    }

    /// Glass: modest loss, mostly specular.
    pub fn glass() -> Self {
        Self {
            reflection_loss_db: 4.0,
            scatter_fraction: 0.2,
            scatter_spread_m: 0.1,
            scatter_points: 3,
        }
    }

    /// An idealized mirror (no scatter) — used by the ablation that shows
    /// the entropy heuristic *needs* non-ideal reflectors (DESIGN.md §6).
    pub fn ideal_mirror() -> Self {
        Self {
            reflection_loss_db: 0.5,
            scatter_fraction: 0.0,
            scatter_spread_m: 0.0,
            scatter_points: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn amplitude_factor_conversion() {
        let m = Material {
            reflection_loss_db: 6.0,
            ..Material::metal()
        };
        assert!((m.amplitude_factor() - 0.501).abs() < 1e-3);
        let lossless = Material {
            reflection_loss_db: 0.0,
            ..Material::metal()
        };
        assert_eq!(lossless.amplitude_factor(), 1.0);
    }

    #[test]
    fn presets_ordered_by_loss() {
        assert!(Material::metal().reflection_loss_db < Material::glass().reflection_loss_db);
        assert!(Material::glass().reflection_loss_db < Material::concrete().reflection_loss_db);
        assert!(Material::concrete().reflection_loss_db < Material::drywall().reflection_loss_db);
    }

    #[test]
    fn mirror_has_no_scatter() {
        let m = Material::ideal_mirror();
        assert_eq!(m.scatter_points, 0);
        assert_eq!(m.scatter_fraction, 0.0);
    }

    #[test]
    fn scatter_fractions_in_range() {
        for m in [
            Material::metal(),
            Material::concrete(),
            Material::drywall(),
            Material::glass(),
        ] {
            assert!((0.0..=1.0).contains(&m.scatter_fraction));
            assert!(m.scatter_points > 0);
        }
    }
}
