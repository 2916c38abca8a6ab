//! Non-ideal reflectors: specular component + fixed scatter points.
//!
//! Paper §5.4: "multipath reflections are bound to be spread out in space
//! as opposed to direct paths which are more peaky… they are non-ideal
//! reflectors, they can scatter some parts of the incident signal.
//! Furthermore, different anchors see reflections from different parts of
//! the reflector." The model here reproduces that: each reflector owns a
//! set of scatter points (positions and complex scatter coefficients fixed
//! at construction — the environment is static), and every tx→rx query
//! yields a specular sub-path (when the geometry allows) plus one sub-path
//! per scatter point. Different receivers naturally illuminate the scatter
//! set from different angles, spreading the apparent source.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::geometry::Segment;
use crate::materials::Material;
use bloc_num::{C64, P2};
use rand::Rng;

/// One propagation sub-path contributed by a reflector (or by LOS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubPath {
    /// Total geometric length, metres.
    pub length: f64,
    /// Complex gain *excluding* the 1/d spreading factor and the
    /// frequency-dependent propagation phase (both applied by the
    /// environment when synthesizing the channel).
    pub coeff: C64,
}

/// A scattering reflector in the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Reflector {
    /// The reflecting face.
    pub face: Segment,
    /// Surface material.
    pub material: Material,
    scatterers: Vec<Scatterer>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scatterer {
    /// Position on (or near) the face.
    pos: P2,
    /// Fixed complex scatter coefficient (random phase frozen at
    /// construction: the surface is rough but static).
    coeff: C64,
}

impl Reflector {
    /// Builds a reflector, freezing its scatter points with `rng`.
    ///
    /// Scatter points are placed at jittered regular intervals along the
    /// face (Gaussian-ish jitter via the sum of two uniforms, spread set by
    /// the material), each with a random fixed phase and amplitude.
    pub fn new<R: Rng + ?Sized>(face: Segment, material: Material, rng: &mut R) -> Self {
        let n = material.scatter_points;
        let mut scatterers = Vec::with_capacity(n);
        let amp_each = if n > 0 {
            material.scatter_fraction * material.amplitude_factor() / (n as f64).sqrt()
        } else {
            0.0
        };
        for k in 0..n {
            let t_regular = (k as f64 + 0.5) / n as f64;
            // Jitter along the face, bounded to stay on the segment.
            let jitter = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0)
                * (material.scatter_spread_m / face.length().max(1e-9));
            let t = (t_regular + jitter).clamp(0.0, 1.0);
            let phase = rng.gen::<f64>() * std::f64::consts::TAU;
            let amp = amp_each * (0.5 + rng.gen::<f64>());
            scatterers.push(Scatterer {
                pos: face.point_at(t),
                coeff: C64::from_polar(amp, phase),
            });
        }
        Self {
            face,
            material,
            scatterers,
        }
    }

    /// Number of scatter points.
    pub fn scatterer_count(&self) -> usize {
        self.scatterers.len()
    }

    /// The sub-paths from `tx` to `rx` via this reflector: the specular
    /// bounce (if it lands on the face) plus every scatter point.
    pub fn sub_paths(&self, tx: P2, rx: P2) -> Vec<SubPath> {
        let mut out = Vec::with_capacity(1 + self.scatterers.len());
        self.for_each_sub_path(tx, rx, &mut |length, coeff| {
            out.push(SubPath { length, coeff })
        });
        out
    }

    /// Visits every sub-path from `tx` to `rx` via this reflector — the
    /// specular bounce (when the geometry allows) then every scatter
    /// point, as `(length, coeff)` pairs — without allocating. This is
    /// the walk behind [`Reflector::sub_paths`] and the fast engine's
    /// geometry phase; both see exactly the same paths.
    pub fn for_each_sub_path(&self, tx: P2, rx: P2, f: &mut impl FnMut(f64, C64)) {
        if let Some(sp) = self.face.specular_point(tx, rx) {
            let length = tx.dist(sp) + sp.dist(rx);
            let amp = (1.0 - self.material.scatter_fraction) * self.material.amplitude_factor();
            if amp > 0.0 {
                f(length, C64::real(amp));
            }
        }

        for s in &self.scatterers {
            f(tx.dist(s.pos) + s.pos.dist(rx), s.coeff);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn face() -> Segment {
        Segment::new(P2::new(0.0, 0.0), P2::new(4.0, 0.0))
    }

    #[test]
    fn scatterers_are_frozen_at_construction() {
        let mut rng = StdRng::seed_from_u64(7);
        let r = Reflector::new(face(), Material::metal(), &mut rng);
        let a = r.sub_paths(P2::new(1.0, 2.0), P2::new(3.0, 2.0));
        let b = r.sub_paths(P2::new(1.0, 2.0), P2::new(3.0, 2.0));
        assert_eq!(a, b, "static environment: repeated queries identical");
    }

    #[test]
    fn specular_plus_scatter_paths() {
        let mut rng = StdRng::seed_from_u64(8);
        let r = Reflector::new(face(), Material::metal(), &mut rng);
        let paths = r.sub_paths(P2::new(1.0, 2.0), P2::new(3.0, 2.0));
        assert_eq!(paths.len(), 1 + Material::metal().scatter_points);
        // Specular path is the shortest bounce.
        let min = paths.iter().map(|p| p.length).fold(f64::INFINITY, f64::min);
        assert!(
            (paths[0].length - min).abs() < 0.5,
            "specular should be near-minimal"
        );
    }

    #[test]
    fn no_specular_when_geometry_misses_face() {
        let mut rng = StdRng::seed_from_u64(9);
        let short = Segment::new(P2::new(0.0, 0.0), P2::new(0.5, 0.0));
        let r = Reflector::new(short, Material::metal(), &mut rng);
        // Specular point would land at x = 3.0: off the face.
        let paths = r.sub_paths(P2::new(2.0, 1.0), P2::new(4.0, 1.0));
        assert_eq!(
            paths.len(),
            Material::metal().scatter_points,
            "scatter only"
        );
    }

    #[test]
    fn ideal_mirror_has_single_specular_path() {
        let mut rng = StdRng::seed_from_u64(10);
        let r = Reflector::new(face(), Material::ideal_mirror(), &mut rng);
        let paths = r.sub_paths(P2::new(1.0, 2.0), P2::new(3.0, 2.0));
        assert_eq!(paths.len(), 1);
        assert!(paths[0].coeff.im == 0.0 && paths[0].coeff.re > 0.9);
    }

    #[test]
    fn reflected_lengths_exceed_direct() {
        let mut rng = StdRng::seed_from_u64(11);
        let r = Reflector::new(face(), Material::concrete(), &mut rng);
        let tx = P2::new(1.0, 1.5);
        let rx = P2::new(3.5, 2.5);
        let direct = tx.dist(rx);
        for p in r.sub_paths(tx, rx) {
            assert!(
                p.length >= direct - 1e-9,
                "bounce cannot be shorter than LOS"
            );
        }
    }

    #[test]
    fn scatter_spread_spans_the_face() {
        // With 5 scatterers on a 4 m face, positions must not collapse to a
        // point: the spatial spread is what the entropy heuristic detects.
        let mut rng = StdRng::seed_from_u64(12);
        let r = Reflector::new(face(), Material::metal(), &mut rng);
        let tx = P2::new(2.0, 3.0);
        let rx = P2::new(2.0, 1.0);
        let lengths: Vec<f64> = r.sub_paths(tx, rx).iter().map(|p| p.length).collect();
        let min = lengths.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lengths.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.05,
            "scatter paths must differ in length (spread {})",
            max - min
        );
    }

    #[test]
    fn different_seeds_different_surfaces() {
        let r1 = Reflector::new(face(), Material::metal(), &mut StdRng::seed_from_u64(1));
        let r2 = Reflector::new(face(), Material::metal(), &mut StdRng::seed_from_u64(2));
        assert_ne!(
            r1.sub_paths(P2::new(1.0, 1.0), P2::new(3.0, 1.0)),
            r2.sub_paths(P2::new(1.0, 1.0), P2::new(3.0, 1.0))
        );
    }
}
