//! The propagation environment: LOS + reflectors + obstructions → paths →
//! complex channels.
//!
//! Channel synthesis follows paper Eq. 1/2 exactly:
//!
//! `h(f) = Σ_p (A_p / d_p) · e^{−ι 2π d_p f / c}`
//!
//! where each path's `A_p` comes from reflection/scatter coefficients
//! ([`crate::reflector`]) and LOS obstruction losses, and `d_p` is the
//! geometric length. Everything is deterministic once built.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::geometry::{Room, Segment};
use crate::materials::Material;
use crate::reflector::Reflector;
use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::{C64, P2};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global revision source: every [`Environment`] construction or
/// mutation takes a fresh value, so a revision number identifies one
/// immutable snapshot of path geometry — the key
/// [`crate::synth::PathCache`] invalidates on.
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);

fn next_revision() -> u64 {
    NEXT_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// Errors building an [`Environment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EnvironmentError {
    /// [`Environment::with_walls`] needs a bounding room to take the
    /// walls from; build with [`Environment::in_room`] first.
    NoRoom,
}

impl std::fmt::Display for EnvironmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvironmentError::NoRoom => {
                write!(f, "with_walls requires a room: build with in_room first")
            }
        }
    }
}

impl std::error::Error for EnvironmentError {}

/// A resolved propagation path between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Geometric length, metres.
    pub length: f64,
    /// Complex gain excluding spreading loss and propagation phase.
    pub coeff: C64,
    /// True for the direct (possibly obstructed) line-of-sight path.
    pub is_los: bool,
}

impl Path {
    /// The channel contribution of this path at frequency `f_hz`:
    /// `(A/d)·coeff·e^{−ι2πdf/c}` (paper Eq. 1 with A = |coeff|).
    pub fn channel_at(&self, f_hz: f64) -> C64 {
        let phase = -std::f64::consts::TAU * self.length * f_hz / SPEED_OF_LIGHT;
        self.coeff * C64::cis(phase) / self.length.max(1e-3)
    }
}

/// An obstruction: a segment that attenuates any LOS crossing it (the
/// paper's motivation for multipath rejection: "some of these reflections
/// might actually be stronger than the line-of-sight path because of
/// obstructions", §1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstruction {
    /// The blocking segment.
    pub blocker: Segment,
    /// Attenuation applied to a crossing LOS path, dB.
    pub loss_db: f64,
}

/// A static propagation environment.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Optional bounding room; its walls become reflectors when added via
    /// [`Environment::with_walls`].
    pub room: Option<Room>,
    reflectors: Vec<Reflector>,
    obstructions: Vec<Obstruction>,
    second_order: bool,
    /// Snapshot identity for path-geometry caching; bumped by every
    /// mutation, excluded from equality and serialization.
    revision: u64,
}

impl PartialEq for Environment {
    fn eq(&self, other: &Self) -> bool {
        // The revision is cache identity, not content: two structurally
        // identical environments compare equal regardless of history.
        self.room == other.room
            && self.reflectors == other.reflectors
            && self.obstructions == other.obstructions
            && self.second_order == other.second_order
    }
}

impl Environment {
    /// Free space: a single unobstructed LOS path, no reflections.
    pub fn free_space() -> Self {
        Self {
            room: None,
            reflectors: Vec::new(),
            obstructions: Vec::new(),
            second_order: false,
            revision: next_revision(),
        }
    }

    /// An empty environment bounded by `room` (walls not yet reflective).
    pub fn in_room(room: Room) -> Self {
        Self {
            room: Some(room),
            reflectors: Vec::new(),
            obstructions: Vec::new(),
            second_order: false,
            revision: next_revision(),
        }
    }

    /// Enables second-order (double-bounce) specular reflections via the
    /// image-of-image construction. Off by default: first-order paths plus
    /// scatter dominate indoor responses, and the standard testbed is
    /// calibrated without them — this is the knob for denser-multipath
    /// studies.
    pub fn with_second_order(mut self, enabled: bool) -> Self {
        self.second_order = enabled;
        self.revision = next_revision();
        self
    }

    /// Makes the room's four walls reflectors of the given material,
    /// freezing their scatter using `rng`. Fails with
    /// [`EnvironmentError::NoRoom`] when the environment has no room.
    pub fn with_walls<R: rand::Rng + ?Sized>(
        mut self,
        material: Material,
        rng: &mut R,
    ) -> Result<Self, EnvironmentError> {
        let Some(room) = self.room else {
            return Err(EnvironmentError::NoRoom);
        };
        for wall in room.walls() {
            self.reflectors.push(Reflector::new(wall, material, rng));
        }
        self.revision = next_revision();
        Ok(self)
    }

    /// Adds a free-standing reflector (cupboard, screen, robot…).
    pub fn add_reflector(&mut self, r: Reflector) {
        self.reflectors.push(r);
        self.revision = next_revision();
    }

    /// Adds an obstruction.
    pub fn add_obstruction(&mut self, o: Obstruction) {
        self.obstructions.push(o);
        self.revision = next_revision();
    }

    /// Number of reflectors.
    pub fn reflector_count(&self) -> usize {
        self.reflectors.len()
    }

    /// The geometry snapshot identity: changes on every mutation, so
    /// [`crate::synth::PathCache`] entries built against an older revision
    /// are stale by construction. Clones keep their revision (same
    /// content), fresh builds and mutations take a new one.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// An exact upper bound on the number of paths any `(tx, rx)` query
    /// can produce: LOS, plus each reflector's specular bounce and scatter
    /// points, plus the R·(R−1) ordered double bounces when second order
    /// is on. Queries whose specular geometry misses a face produce
    /// fewer — sizing buffers from this bound means the hot path never
    /// reallocates.
    pub fn path_capacity(&self) -> usize {
        let first_order: usize = self
            .reflectors
            .iter()
            .map(|r| 1 + r.scatterer_count())
            .sum();
        let second = if self.second_order {
            let n = self.reflectors.len();
            n * n.saturating_sub(1)
        } else {
            0
        };
        1 + first_order + second
    }

    /// All propagation paths from `tx` to `rx`: the LOS path (attenuated by
    /// any crossed obstruction) followed by every reflector sub-path.
    /// The LOS path is always first and flagged `is_los`.
    ///
    /// This is the **reference** geometry walk — the fast engine's
    /// [`Environment::path_set_into`] visits exactly the same paths
    /// through the same traversal, so the two cannot diverge.
    pub fn paths(&self, tx: P2, rx: P2) -> Vec<Path> {
        let mut paths = Vec::with_capacity(self.path_capacity());
        self.for_each_path(tx, rx, &mut |p| paths.push(p));
        paths
    }

    /// Fills `set` with the frequency-independent geometry of `tx → rx` —
    /// the geometry phase of the fast synthesis engine. Reuses the set's
    /// buffers: after one warm-up, repeated calls allocate nothing
    /// ([`Environment::path_capacity`] bounds the path count exactly).
    pub fn path_set_into(&self, tx: P2, rx: P2, set: &mut crate::synth::PathSet) {
        set.clear();
        set.reserve(self.path_capacity());
        self.for_each_path(tx, rx, &mut |p| set.push(p.length, p.coeff));
    }

    /// The single source of truth for path enumeration: LOS (obstruction
    /// losses applied), then every reflector's sub-paths, then optional
    /// double bounces, each handed to `f` in deterministic order.
    fn for_each_path(&self, tx: P2, rx: P2, f: &mut impl FnMut(Path)) {
        // LOS with obstruction losses.
        let mut los_amp = 1.0;
        for o in &self.obstructions {
            if o.blocker.crosses(tx, rx) {
                los_amp *= 10f64.powf(-o.loss_db / 20.0);
            }
        }
        f(Path {
            length: tx.dist(rx).max(1e-3),
            coeff: C64::real(los_amp),
            is_los: true,
        });

        for r in &self.reflectors {
            r.for_each_sub_path(tx, rx, &mut |length, coeff| {
                f(Path {
                    length,
                    coeff,
                    is_los: false,
                })
            });
        }

        if self.second_order {
            self.for_each_double_bounce(tx, rx, f);
        }
    }

    /// Visits specular double-bounce paths (tx → face A → face B → rx)
    /// via the image-of-image construction: mirror tx across A, mirror the
    /// image across B, demand the B-bounce point exists, then the A-bounce
    /// point on the segment from tx's image toward it.
    fn for_each_double_bounce(&self, tx: P2, rx: P2, f: &mut impl FnMut(Path)) {
        for (ia, ra) in self.reflectors.iter().enumerate() {
            let image_a = ra.face.mirror(tx);
            for (ib, rb) in self.reflectors.iter().enumerate() {
                if ia == ib {
                    continue;
                }
                let image_ab = rb.face.mirror(image_a);
                // Bounce point on B: intersection of image_ab → rx with B.
                let Some(qb) = rb.face.specular_point(image_a, rx) else {
                    continue;
                };
                // Bounce point on A: intersection of tx's image path —
                // equivalently, of image_a → qb traced back — with A.
                let Some(qa) = ra.face.specular_point(tx, qb) else {
                    continue;
                };
                let length = tx.dist(qa) + qa.dist(qb) + qb.dist(rx);
                debug_assert!((length - image_ab.dist(rx)).abs() < 1e-6);
                let amp = (1.0 - ra.material.scatter_fraction)
                    * ra.material.amplitude_factor()
                    * (1.0 - rb.material.scatter_fraction)
                    * rb.material.amplitude_factor();
                if amp > 1e-4 {
                    f(Path {
                        length,
                        coeff: C64::real(amp),
                        is_los: false,
                    });
                }
            }
        }
    }

    /// The complex channel from `tx` to `rx` at frequency `f_hz` (paper
    /// Eq. 2: the sum over paths).
    pub fn channel(&self, tx: P2, rx: P2, f_hz: f64) -> C64 {
        self.paths(tx, rx).iter().map(|p| p.channel_at(f_hz)).sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn with_walls_without_a_room_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let err = Environment::free_space()
            .with_walls(Material::concrete(), &mut rng)
            .unwrap_err();
        assert_eq!(err, EnvironmentError::NoRoom);
        assert!(err.to_string().contains("room"));
    }

    #[test]
    fn path_capacity_bounds_every_query_exactly() {
        // The capacity must be reached by an all-specular query and never
        // exceeded, with and without second-order bounces.
        let mut rng = StdRng::seed_from_u64(13);
        for second in [false, true] {
            let mut env = Environment::in_room(Room::new(5.0, 6.0))
                .with_second_order(second)
                .with_walls(Material::metal(), &mut rng)
                .unwrap();
            env.add_obstruction(Obstruction {
                blocker: Segment::new(P2::new(2.0, 0.0), P2::new(2.0, 6.0)),
                loss_db: 10.0,
            });
            let cap = env.path_capacity();
            let mut max_seen = 0;
            for (tx, rx) in [
                (P2::new(1.0, 1.0), P2::new(4.0, 5.0)),
                (P2::new(2.5, 3.0), P2::new(2.6, 3.1)),
                (P2::new(0.2, 0.2), P2::new(4.8, 5.8)),
            ] {
                let n = env.paths(tx, rx).len();
                assert!(n <= cap, "paths {n} must fit capacity {cap}");
                max_seen = max_seen.max(n);
            }
            // Interior points see all four specular walls: the bound is
            // tight for first order; double bounces may geometrically
            // miss, so only the ≤ holds there.
            if !second {
                assert_eq!(max_seen, cap, "first-order bound must be exact");
            }
        }
    }

    #[test]
    fn revision_changes_on_mutation_but_not_on_clone() {
        let mut rng = StdRng::seed_from_u64(14);
        let env = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let r0 = env.revision();
        let cloned = env.clone();
        assert_eq!(cloned.revision(), r0, "a clone is the same snapshot");
        assert_eq!(env, cloned, "equality ignores revision");

        let mut mutated = env.clone();
        mutated.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(1.0, 0.0), P2::new(1.0, 6.0)),
            loss_db: 3.0,
        });
        assert_ne!(mutated.revision(), r0, "mutation must bump the revision");
        assert_ne!(
            Environment::free_space().revision(),
            Environment::free_space().revision(),
            "fresh builds are distinct snapshots"
        );
    }

    #[test]
    fn free_space_matches_equation_one() {
        let env = Environment::free_space();
        let tx = P2::new(0.0, 0.0);
        let rx = P2::new(3.0, 4.0); // d = 5
        let f = 2.44e9;
        let h = env.channel(tx, rx, f);
        assert!((h.abs() - 0.2).abs() < 1e-12, "amplitude must be 1/d");
        let expected_phase = -std::f64::consts::TAU * 5.0 * f / SPEED_OF_LIGHT;
        let diff = (h.arg() - expected_phase).rem_euclid(std::f64::consts::TAU);
        assert!(diff < 1e-9 || (std::f64::consts::TAU - diff) < 1e-9);
    }

    #[test]
    fn phase_is_linear_in_frequency() {
        // The observable behind Fig. 8(b): for a single path, unwrapped
        // phase across bands is a line with slope −2πd/c.
        let env = Environment::free_space();
        let tx = P2::new(0.0, 0.0);
        let rx = P2::new(2.0, 0.0);
        let freqs: Vec<f64> = (0..40).map(|k| 2.402e9 + k as f64 * 2e6).collect();
        let phases: Vec<f64> = freqs
            .iter()
            .map(|&f| env.channel(tx, rx, f).arg())
            .collect();
        let unwrapped = bloc_num::angle::unwrap(&phases);
        let (slope, _, r2) = bloc_num::linalg::linear_fit(&freqs, &unwrapped).unwrap();
        assert!(r2 > 0.999999);
        let expected = -std::f64::consts::TAU * 2.0 / SPEED_OF_LIGHT;
        assert!((slope - expected).abs() / expected.abs() < 1e-6);
    }

    #[test]
    fn obstruction_attenuates_los_only() {
        let mut env = Environment::free_space();
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(1.0, -1.0), P2::new(1.0, 1.0)),
            loss_db: 20.0,
        });
        let tx = P2::new(0.0, 0.0);
        let blocked = env.paths(tx, P2::new(2.0, 0.0));
        let clear = env.paths(tx, P2::new(0.5, 0.5));
        assert!((blocked[0].coeff.abs() - 0.1).abs() < 1e-12);
        assert!((clear[0].coeff.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn walls_create_multipath() {
        let mut rng = StdRng::seed_from_u64(5);
        let env = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let paths = env.paths(P2::new(1.0, 1.0), P2::new(4.0, 5.0));
        assert!(
            paths.len() > 10,
            "4 walls × (specular + scatter) ⇒ many paths, got {}",
            paths.len()
        );
        assert!(paths[0].is_los);
        assert!(paths[1..].iter().all(|p| !p.is_los));
        // LOS is the shortest.
        let min = paths.iter().map(|p| p.length).fold(f64::INFINITY, f64::min);
        assert_eq!(min, paths[0].length);
    }

    #[test]
    fn multipath_causes_frequency_selective_fading() {
        // With reflections, |h(f)| varies across the 80 MHz span — the
        // physical reason RSSI-based localization fails (paper §2.2).
        let mut rng = StdRng::seed_from_u64(6);
        let env = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::metal(), &mut rng)
            .unwrap();
        let tx = P2::new(1.2, 1.7);
        let rx = P2::new(3.9, 4.1);
        let amps: Vec<f64> = (0..40)
            .map(|k| env.channel(tx, rx, 2.402e9 + k as f64 * 2e6).abs())
            .collect();
        let max = amps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = amps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 1.2,
            "expected fading, got flat response {min}..{max}"
        );
    }

    #[test]
    fn reflection_can_dominate_obstructed_los() {
        // The paper's §1 scenario: obstructed LOS weaker than a metal
        // reflection.
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = Environment::in_room(Room::new(5.0, 6.0));
        env.add_reflector(Reflector::new(
            Segment::new(P2::new(0.0, 5.9), P2::new(5.0, 5.9)),
            Material::metal(),
            &mut rng,
        ));
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(2.5, 0.0), P2::new(2.5, 3.0)),
            loss_db: 25.0,
        });
        let tx = P2::new(1.0, 1.0);
        let rx = P2::new(4.0, 1.0);
        let paths = env.paths(tx, rx);
        let los_power = (paths[0].coeff / paths[0].length).norm_sq();
        let best_refl = paths[1..]
            .iter()
            .map(|p| (p.coeff / p.length).norm_sq())
            .fold(0.0f64, f64::max);
        assert!(
            best_refl > los_power,
            "reflection must dominate blocked LOS"
        );
    }

    #[test]
    fn channel_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(8);
        let env = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::metal(), &mut rng)
            .unwrap();
        let a = env.channel(P2::new(1.0, 2.0), P2::new(4.0, 3.0), 2.44e9);
        let b = env.channel(P2::new(1.0, 2.0), P2::new(4.0, 3.0), 2.44e9);
        assert_eq!(a, b);
    }

    #[test]
    fn second_order_bounces_in_a_corridor() {
        // Two parallel mirrors: the double bounce off (bottom, top) from
        // tx to rx has the image-of-image length.
        let mut rng = StdRng::seed_from_u64(10);
        let mut env = Environment::in_room(Room::new(10.0, 2.0)).with_second_order(true);
        let bottom = Segment::new(P2::new(0.0, 0.0), P2::new(10.0, 0.0));
        let top = Segment::new(P2::new(0.0, 2.0), P2::new(10.0, 2.0));
        env.add_reflector(Reflector::new(bottom, Material::ideal_mirror(), &mut rng));
        env.add_reflector(Reflector::new(top, Material::ideal_mirror(), &mut rng));

        let tx = P2::new(1.0, 1.0);
        let rx = P2::new(9.0, 1.0);
        let paths = env.paths(tx, rx);
        // LOS + 2 single bounces + 2 double bounces (bottom→top, top→bottom).
        assert_eq!(paths.len(), 5, "paths: {paths:?}");
        // Double-bounce length: image of tx across bottom (1,-1), image of
        // that across top (1,5); distance to rx = √(64 + 16) = √80.
        let expect = 80f64.sqrt();
        let found = paths.iter().any(|p| (p.length - expect).abs() < 1e-9);
        assert!(found, "double-bounce length {expect} missing: {paths:?}");
    }

    #[test]
    fn second_order_off_by_default() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::metal(), &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let second = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::metal(), &mut rng)
            .unwrap()
            .with_second_order(true);
        let tx = P2::new(1.0, 1.0);
        let rx = P2::new(4.0, 5.0);
        assert!(second.paths(tx, rx).len() > base.paths(tx, rx).len());
    }

    #[test]
    fn channel_is_reciprocal() {
        // Physics: swapping transmitter and receiver leaves the channel
        // unchanged (all path mechanisms here — LOS, specular, scatter,
        // obstruction — are symmetric).
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::metal(), &mut rng)
            .unwrap();
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(2.0, 1.0), P2::new(2.0, 4.0)),
            loss_db: 12.0,
        });
        for (a, b) in [
            (P2::new(1.0, 1.0), P2::new(4.0, 5.0)),
            (P2::new(0.5, 3.0), P2::new(3.3, 2.2)),
            (P2::new(1.5, 2.0), P2::new(2.5, 2.0)), // crosses the blocker
        ] {
            let fwd = env.channel(a, b, 2.44e9);
            let rev = env.channel(b, a, 2.44e9);
            assert!(
                (fwd - rev).abs() < 1e-12 * fwd.abs().max(1e-12),
                "{a} ↔ {b}"
            );
        }
    }

    #[test]
    fn coincident_points_do_not_blow_up() {
        let env = Environment::free_space();
        let h = env.channel(P2::new(1.0, 1.0), P2::new(1.0, 1.0), 2.44e9);
        assert!(h.is_finite());
    }
}
