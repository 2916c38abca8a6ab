//! Packet-count localization: a reception-probability likelihood over the
//! grid that needs **no CSI at all** — only how many of the sounded slots
//! each anchor actually heard.
//!
//! When range-dependent loss is active ([`bloc_chan::RangeLoss`]), the
//! probability that anchor `i` decodes a tag packet falls with the
//! tag–anchor distance, so the per-anchor reception tally `r_i / n`
//! carries genuine location information (the packet-count /
//! reception-probability regime of De et al. and Vasisht et al. — see
//! DESIGN.md §11). The model evaluates, per candidate cell `x`, the
//! binomial log-likelihood of the observed tallies:
//!
//! ```text
//! ℓ(x) = Σ_i  r_i · ln p_i(x)  +  (n − r_i) · ln(1 − p_i(x))
//! p_i(x) = (1 − base_loss) · (1 − p_loss(‖x − a_i‖))
//! ```
//!
//! Anchors that heard *nothing* are excluded: an all-silent anchor is
//! indistinguishable from a scheduled dropout (breaker-quarantined or
//! blacked out), and treating its silence as range evidence would drag
//! every estimate toward "infinitely far from that anchor".

use bloc_chan::faults::{RangeLoss, ReceptionCensus};
use bloc_num::{Grid2D, GridSpec, P2};

use super::FallbackError;

/// Probability clamp: keeps `ln p` and `ln (1−p)` finite even at cells
/// the model considers (nearly) impossible.
const P_CLAMP: f64 = 1e-4;

/// The reception-probability likelihood model. Construction mirrors the
/// *injection truth* of the scenario's [`bloc_chan::FaultPlan`]: the model
/// is the estimator's calibrated belief about the channel's loss physics,
/// exactly as a fielded system would calibrate path-loss coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketCountModel {
    /// Distance-independent loss floor (interference, collisions).
    pub base_loss: f64,
    /// The distance-dependent loss ramp.
    pub range: RangeLoss,
}

/// A packet-count position estimate with its normalized likelihood.
#[derive(Debug, Clone, PartialEq)]
pub struct CountsEstimate {
    /// Argmax cell center of the likelihood.
    pub position: P2,
    /// Mass-normalized reception-probability likelihood over the grid.
    pub likelihood: Grid2D,
    /// Anchors whose tallies informed the likelihood (all-silent anchors
    /// are excluded).
    pub anchors_used: usize,
}

impl PacketCountModel {
    /// The model matching a fault environment with the given
    /// distance-independent loss floor and range ramp.
    pub fn new(base_loss: f64, range: RangeLoss) -> Self {
        Self { base_loss, range }
    }

    /// Reception probability at distance `d` from an anchor.
    pub fn p_receive(&self, d: f64) -> f64 {
        self.range
            .p_receive(d, self.base_loss)
            .clamp(P_CLAMP, 1.0 - P_CLAMP)
    }

    /// Evaluates the binomial reception log-likelihood of `census` over
    /// `spec`, exp-normalizes it into a likelihood surface, and returns
    /// the argmax-cell estimate.
    ///
    /// # Errors
    ///
    /// [`FallbackError::NoInformativeAnchors`] when every anchor was
    /// all-silent (or the census is empty) — there is no count evidence
    /// to localize on.
    pub fn localize(
        &self,
        census: &ReceptionCensus,
        anchors: &[P2],
        spec: GridSpec,
        threads: usize,
    ) -> Result<CountsEstimate, FallbackError> {
        let n = census.expected;
        // Anchors with at least one decoded slot: silence could be a
        // scheduled dropout, so only positive tallies are evidence.
        let informative: Vec<(P2, f64)> = anchors
            .iter()
            .zip(&census.received)
            .filter(|&(_, &r)| r > 0)
            .map(|(&a, &r)| (a, r as f64))
            .collect();
        if informative.is_empty() || n == 0 {
            return Err(FallbackError::NoInformativeAnchors);
        }
        bloc_obs::counter("fallback.counts.localizations").inc();
        bloc_obs::counter("fallback.counts.anchors_used").add(informative.len() as u64);

        let n_f = n as f64;
        let mut ll = Grid2D::from_fn_par(spec, threads, |p| {
            let mut acc = 0.0;
            for &(a, r) in &informative {
                let pr = self.p_receive(p.dist(a));
                acc += r * pr.ln() + (n_f - r) * (1.0 - pr).ln();
            }
            acc
        });

        // Exp-normalize: subtract the max log-likelihood before exp so
        // the surface is numerically tame, then normalize to unit mass.
        let (ix, iy, max_ll) = match ll.argmax() {
            Some(m) => m,
            None => return Err(FallbackError::NoInformativeAnchors),
        };
        let position = spec.cell_center(ix, iy);
        for v in ll.data_mut() {
            *v = (*v - max_ll).exp();
        }
        ll.normalize_mass();
        Ok(CountsEstimate {
            position,
            likelihood: ll,
            anchors_used: informative.len(),
        })
    }
}
