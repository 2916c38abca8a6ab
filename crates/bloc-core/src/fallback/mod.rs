//! Degraded-mode localization: fallback estimators that still produce a
//! position when the CSI pipeline cannot.
//!
//! BLoc's joint likelihood (Eq. 17) is cm-class but fragile: it needs the
//! per-band tag/master/anchor measurement triple to survive, and under
//! heavy packet loss or anchor dropouts the supervised runtime defers
//! round after round. This module supplies the two classic coarse
//! estimators that degrade *gracefully* instead:
//!
//! * [`fingerprint::FingerprintDb`] — offline-surveyed RSSI fingerprints
//!   queried with masked, distance-weighted KNN (metre-class; needs
//!   amplitudes only, tolerates arbitrary hole patterns);
//! * [`packet_count::PacketCountModel`] — a binomial
//!   reception-probability likelihood over the grid fed purely by
//!   per-anchor packet tallies (needs *no* CSI at all — the De/Vasisht
//!   packet-count regime);
//! * [`fusion`] — degradation-weighted convex blending so CSI dominates
//!   exactly when healthy and the fallbacks take over as it collapses.
//!
//! [`FallbackStack`] bundles the two estimators plus policy; the runtime
//! ([`crate::runtime::SessionSupervisor`]) consults it whenever a round
//! would otherwise defer, turning `Deferred` into
//! [`crate::runtime::RoundOutcome::Degraded`] with explicit mode
//! provenance and widened confidence.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod fingerprint;
pub mod fusion;
pub mod packet_count;

pub use fingerprint::{FingerprintDb, KnnEstimate};
pub use fusion::{FusionPolicy, FusionWeights};
pub use packet_count::{CountsEstimate, PacketCountModel};

use std::fmt;

use bloc_chan::faults::ReceptionCensus;
use bloc_chan::sounder::SoundingData;
use bloc_num::{Grid2D, GridSpec, P2};

/// Why a fallback estimator could not produce an estimate. These are
/// *evidence* problems, typed so the runtime can distinguish "fallback
/// has nothing to work with" from programmer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackError {
    /// The fingerprint database has no surveyed positions.
    EmptyDatabase,
    /// A sounding's band/anchor shape disagrees with the database.
    ShapeMismatch {
        /// Feature dimensions the database expects.
        expected: usize,
        /// Dimensions the sounding produced.
        got: usize,
    },
    /// Every feature dimension of the query was masked out by faults.
    NoSurvivingFeatures,
    /// Every anchor was all-silent — packet counts carry no evidence.
    NoInformativeAnchors,
    /// No estimator in the stack could produce anything.
    NoEstimator,
}

impl fmt::Display for FallbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDatabase => write!(f, "fingerprint database is empty"),
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "sounding shape mismatch: database expects {expected} feature dims, got {got}"
            ),
            Self::NoSurvivingFeatures => {
                write!(f, "every feature dimension of the query was masked")
            }
            Self::NoInformativeAnchors => {
                write!(f, "no anchor decoded any packet; counts carry no evidence")
            }
            Self::NoEstimator => write!(f, "no fallback estimator produced an estimate"),
        }
    }
}

impl std::error::Error for FallbackError {}

impl FallbackError {
    /// A short machine-readable reason (the `bloc-obs` counter suffix).
    pub fn reason(&self) -> &'static str {
        match self {
            Self::EmptyDatabase => "empty_database",
            Self::ShapeMismatch { .. } => "shape_mismatch",
            Self::NoSurvivingFeatures => "no_surviving_features",
            Self::NoInformativeAnchors => "no_informative_anchors",
            Self::NoEstimator => "no_estimator",
        }
    }
}

/// Which evidence produced an estimate — the provenance every degraded
/// fix must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateMode {
    /// Pure CSI joint likelihood (healthy round).
    Csi,
    /// CSI refined with fallback priors (degraded but localizable round).
    CsiFused,
    /// RSSI fingerprint KNN only.
    Fingerprint,
    /// Packet-count reception likelihood only.
    Counts,
    /// Fingerprint and counts fused (no usable CSI).
    FallbackFused,
}

impl EstimateMode {
    /// The mode's counter/event name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Csi => "csi",
            Self::CsiFused => "csi_fused",
            Self::Fingerprint => "fingerprint",
            Self::Counts => "counts",
            Self::FallbackFused => "fallback_fused",
        }
    }
}

/// Policy knobs for the fallback stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackConfig {
    /// Neighbours per KNN query.
    pub k: usize,
    /// How fusion weights derive from round health.
    pub policy: FusionPolicy,
    /// Floor on the reported uncertainty of any fallback estimate, metres
    /// — metre-class estimators must not report cm-class confidence.
    pub min_sigma_m: f64,
    /// Worker threads for grid evaluation and KNN distance fan-out.
    pub threads: usize,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        Self {
            k: 4,
            policy: FusionPolicy::default(),
            min_sigma_m: 0.35,
            threads: 1,
        }
    }
}

/// A fallback-only estimate: where, how sure, and from which evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEstimate {
    /// The estimated tag position.
    pub position: P2,
    /// Which estimator(s) produced it.
    pub mode: EstimateMode,
    /// The convex weights used (restricted to available sources).
    pub weights: FusionWeights,
    /// Reported uncertainty, metres (≥ `FallbackConfig::min_sigma_m`).
    pub sigma_m: f64,
    /// The fused (or single-source) likelihood surface, unit mass.
    pub likelihood: Grid2D,
    /// Feature dimensions surviving in the KNN query, when one ran.
    pub surviving_dims: Option<usize>,
    /// Anchors informing the counts likelihood, when it ran.
    pub counts_anchors: Option<usize>,
}

/// The runtime's bundle of fallback estimators plus policy.
#[derive(Debug, Clone, Default)]
pub struct FallbackStack {
    db: Option<FingerprintDb>,
    counts: Option<PacketCountModel>,
    /// Stack policy (public so benches can tune `k`/threads in place).
    pub config: FallbackConfig,
}

impl FallbackStack {
    /// An empty stack (no estimators — [`FallbackStack::estimate`] always
    /// fails with [`FallbackError::NoEstimator`]).
    pub fn new(config: FallbackConfig) -> Self {
        Self {
            db: None,
            counts: None,
            config,
        }
    }

    /// Attaches an offline-surveyed fingerprint database.
    pub fn with_fingerprints(mut self, db: FingerprintDb) -> Self {
        self.db = Some(db);
        self
    }

    /// Attaches a packet-count reception model.
    pub fn with_counts(mut self, model: PacketCountModel) -> Self {
        self.counts = Some(model);
        self
    }

    /// The attached fingerprint database, if any.
    pub fn fingerprints(&self) -> Option<&FingerprintDb> {
        self.db.as_ref()
    }

    /// The attached packet-count model, if any.
    pub fn counts_model(&self) -> Option<&PacketCountModel> {
        self.counts.as_ref()
    }

    /// True when at least one estimator is attached.
    pub fn has_estimators(&self) -> bool {
        self.db.is_some() || self.counts.is_some()
    }

    /// Evaluates every available fallback prior against `data` on `spec`.
    /// Estimator failures are recorded (`fallback.<est>.failed.<reason>`)
    /// and skipped, not propagated: a prior that cannot run simply
    /// contributes nothing.
    pub fn priors(
        &self,
        data: &SoundingData,
        spec: GridSpec,
    ) -> (Option<(Grid2D, KnnEstimate)>, Option<CountsEstimate>) {
        let threads = self.config.threads.max(1);
        let fp = self
            .db
            .as_ref()
            .and_then(|db| match db.query(data, self.config.k, threads) {
                Ok(est) => {
                    let sigma = est.spread_m.max(self.config.min_sigma_m);
                    let bump = fusion::gaussian_bump(spec, est.position, sigma, threads);
                    Some((bump, est))
                }
                Err(e) => {
                    bloc_obs::counter(&format!("fallback.fingerprint.failed.{}", e.reason())).inc();
                    None
                }
            });
        let counts = self.counts.as_ref().and_then(|model| {
            let census = ReceptionCensus::from_sounding(data);
            let anchors: Vec<P2> = data.anchors.iter().map(|a| a.center()).collect();
            match model.localize(&census, &anchors, spec, threads) {
                Ok(est) => Some(est),
                Err(e) => {
                    bloc_obs::counter(&format!("fallback.counts.failed.{}", e.reason())).inc();
                    None
                }
            }
        });
        (fp, counts)
    }

    /// Produces a fallback-only estimate (no CSI available this round):
    /// runs every attached estimator, fuses the survivors with the
    /// policy's non-CSI split renormalized over what actually ran, and
    /// reports the argmax with a spread-derived (floored) sigma.
    ///
    /// # Errors
    ///
    /// [`FallbackError::NoEstimator`] when nothing is attached or every
    /// attached estimator failed on this sounding.
    pub fn estimate(
        &self,
        data: &SoundingData,
        spec: GridSpec,
    ) -> Result<FallbackEstimate, FallbackError> {
        let (fp, counts) = self.priors(data, spec);
        let weights = FusionWeights::fallback_only(&self.config.policy).restrict(
            false,
            fp.is_some(),
            counts.is_some(),
        );
        let mode = match (&fp, &counts) {
            (Some(_), Some(_)) => EstimateMode::FallbackFused,
            (Some(_), None) => EstimateMode::Fingerprint,
            (None, Some(_)) => EstimateMode::Counts,
            (None, None) => return Err(FallbackError::NoEstimator),
        };
        let parts = weighted_priors(&fp, &counts, &weights);
        let mut fused = fusion::fuse_mass(&parts).ok_or(FallbackError::NoEstimator)?;
        fused.normalize_mass();
        let (ix, iy, _) = fused.argmax().ok_or(FallbackError::NoEstimator)?;
        let position = spec.cell_center(ix, iy);
        let sigma_m = fusion::grid_spread(&fused, position).max(self.config.min_sigma_m);
        bloc_obs::counter(&format!("fallback.estimates.{}", mode.name())).inc();
        Ok(FallbackEstimate {
            position,
            mode,
            weights,
            sigma_m,
            likelihood: fused,
            surviving_dims: fp.as_ref().map(|(_, e)| e.surviving_dims),
            counts_anchors: counts.as_ref().map(|c| c.anchors_used),
        })
    }
}

/// The prior surfaces [`FallbackStack::priors`] produced, each paired
/// with its fusion weight, in fusion order (fingerprint bump, then
/// packet-count likelihood).
pub(crate) fn weighted_priors<'a>(
    fp: &'a Option<(Grid2D, KnnEstimate)>,
    counts: &'a Option<CountsEstimate>,
    weights: &FusionWeights,
) -> Vec<(&'a Grid2D, f64)> {
    let mut priors: Vec<(&Grid2D, f64)> = Vec::with_capacity(2);
    if let Some((bump, _)) = fp {
        priors.push((bump, weights.fingerprint));
    }
    if let Some(c) = counts {
        priors.push((&c.likelihood, weights.counts));
    }
    priors
}
