//! Oscillator phase offsets — the impairment BLoc's Eq. 10 exists to
//! cancel.
//!
//! Paper §5.1: "Every BLE device has a local oscillator responsible for
//! generating the signals… every time this oscillator is used to tune the
//! frequency, it incurs a random phase offset. … This phase offset
//! (φ_T − φ_R) is random and changes per frequency switch."
//!
//! Crucially (paper footnote 3): "Since all antennas on an anchor are
//! driven by the same oscillator, the phase offset only varies across
//! anchors and not within one anchor." The model here gives every *device*
//! (tag or anchor) one offset per retune event, shared by all its antennas.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::Rng;
/// A device identifier in the deployment: the tag or one of the anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The target BLE tag.
    Tag,
    /// Anchor `i` (anchor 0 is the master).
    Anchor(usize),
}

/// The phase offsets of every device for one tuning epoch (one frequency
/// hop). Regenerated on every retune.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningEpoch {
    tag_phase: f64,
    anchor_phases: Vec<f64>,
}

impl TuningEpoch {
    /// Draws fresh offsets for the tag and `n_anchors` anchors.
    pub fn draw<R: Rng + ?Sized>(n_anchors: usize, rng: &mut R) -> Self {
        let mut draw = || rng.gen::<f64>() * std::f64::consts::TAU;
        Self {
            tag_phase: draw(),
            anchor_phases: (0..n_anchors).map(|_| draw()).collect(),
        }
    }

    /// An epoch with all offsets zero (ideal hardware, for testing).
    pub fn zero(n_anchors: usize) -> Self {
        Self {
            tag_phase: 0.0,
            anchor_phases: vec![0.0; n_anchors],
        }
    }

    /// The oscillator phase of a device in this epoch.
    ///
    /// # Panics
    /// Panics for an anchor index outside the deployment.
    pub fn phase(&self, device: Device) -> f64 {
        match device {
            Device::Tag => self.tag_phase,
            Device::Anchor(i) => self.anchor_phases[i],
        }
    }

    /// The measurement offset applied to a channel measured at receiver
    /// `rx` for a transmission from `tx`: `φ_tx − φ_rx` (paper Eqs. 7–9).
    pub fn measurement_offset(&self, tx: Device, rx: Device) -> f64 {
        self.phase(tx) - self.phase(rx)
    }

    /// Number of anchors covered.
    pub fn n_anchors(&self) -> usize {
        self.anchor_phases.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn offsets_differ_across_epochs() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = TuningEpoch::draw(4, &mut rng);
        let b = TuningEpoch::draw(4, &mut rng);
        assert_ne!(a, b, "each retune draws fresh offsets");
    }

    #[test]
    fn measurement_offset_antisymmetric() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = TuningEpoch::draw(4, &mut rng);
        let ab = e.measurement_offset(Device::Tag, Device::Anchor(1));
        let ba = e.measurement_offset(Device::Anchor(1), Device::Tag);
        assert!((ab + ba).abs() < 1e-12);
    }

    #[test]
    fn cancellation_identity() {
        // The algebra of paper Eq. 10: (φT−φRi) − (φR0−φRi) − (φT−φR0) = 0.
        let mut rng = StdRng::seed_from_u64(3);
        let e = TuningEpoch::draw(4, &mut rng);
        for i in 1..4 {
            let tag_to_i = e.measurement_offset(Device::Tag, Device::Anchor(i));
            let master_to_i = e.measurement_offset(Device::Anchor(0), Device::Anchor(i));
            let tag_to_master = e.measurement_offset(Device::Tag, Device::Anchor(0));
            assert!((tag_to_i - master_to_i - tag_to_master).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_epoch_has_no_offsets() {
        let e = TuningEpoch::zero(3);
        assert_eq!(e.measurement_offset(Device::Tag, Device::Anchor(2)), 0.0);
    }

    #[test]
    fn same_device_offset_cancels() {
        // Two antennas on one anchor share the oscillator (footnote 3):
        // within-anchor measurements carry identical offsets.
        let mut rng = StdRng::seed_from_u64(4);
        let e = TuningEpoch::draw(2, &mut rng);
        let o1 = e.measurement_offset(Device::Tag, Device::Anchor(0));
        let o2 = e.measurement_offset(Device::Tag, Device::Anchor(0));
        assert_eq!(o1, o2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_anchor_panics() {
        TuningEpoch::zero(2).phase(Device::Anchor(5));
    }
}
