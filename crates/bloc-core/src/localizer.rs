//! The end-to-end BLoc localizer: sounding → correction → likelihood →
//! multipath rejection → position.
//!
//! The pipeline is degradation-aware end to end: measurement holes are
//! masked in [`crate::correction`], starved anchors are down-weighted or
//! excluded in [`crate::likelihood`], and [`BlocLocalizer::localize`]
//! returns a typed [`LocalizeError`] instead of panicking (or silently
//! degrading) when a sounding cannot support a fix. Every successful
//! [`Estimate`] carries a [`DegradationReport`] describing what was
//! discarded on the way.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_chan::geometry::Room;
use bloc_chan::sounder::SoundingData;
use bloc_num::peaks::PeakOptions;
use bloc_num::{Grid2D, GridSpec, P2};

use crate::correction::{correct, CorrectedChannels};
use crate::engine::LikelihoodEngine;
use crate::error::{DegradationReport, LocalizeError};
use crate::fallback::{self, fusion, EstimateMode, FallbackStack, FusionWeights};
use crate::likelihood::AntennaCombining;
use crate::multipath::{score_peaks, ScoreConfig, ScoredPeak};

/// End-to-end pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlocConfig {
    /// The spatial grid the likelihood is evaluated on.
    pub grid: GridSpec,
    /// Multipath-rejection score parameters (paper §7: `a = 0.1`,
    /// `b = 0.05`, 7×7 circular window).
    pub score: ScoreConfig,
    /// Normalize corrected channels to unit magnitude before correlating
    /// (default true; see [`crate::correction::correct`]).
    pub normalize_alpha: bool,
    /// How antennas combine in the per-anchor likelihood (default:
    /// non-coherent across antennas, robust to array calibration error).
    pub combining: AntennaCombining,
}

impl BlocConfig {
    /// A configuration covering `room` plus a 0.5 m margin at 8 cm
    /// resolution — the workspace default for the paper's 5 m × 6 m room.
    pub fn for_room(room: &Room) -> Self {
        Self::for_region(
            P2::new(-0.5, -0.5),
            P2::new(room.width + 1.0, room.height + 1.0),
        )
    }

    /// A configuration covering an arbitrary region at 8 cm resolution.
    pub fn for_region(origin: P2, extent: P2) -> Self {
        Self {
            grid: GridSpec::covering(origin, extent, 0.08),
            score: ScoreConfig::default(),
            normalize_alpha: true,
            combining: AntennaCombining::default(),
        }
    }

    /// Returns a copy with a different grid resolution.
    pub fn with_resolution(mut self, resolution: f64) -> Self {
        let extent = P2::new(
            self.grid.nx as f64 * self.grid.resolution,
            self.grid.ny as f64 * self.grid.resolution,
        );
        self.grid = GridSpec::covering(self.grid.origin, extent, resolution);
        self
    }

    /// Returns a copy with different score weights (ablations).
    pub fn with_score_weights(mut self, a: f64, b: f64) -> Self {
        self.score.a = a;
        self.score.b = b;
        self
    }
}

/// A localization estimate with its full evidence trail.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The chosen tag position.
    pub position: P2,
    /// All scored likelihood peaks, best first.
    pub peaks: Vec<ScoredPeak>,
    /// The joint spatial likelihood (Fig. 8c material).
    pub likelihood: Grid2D,
    /// What the pipeline discarded to produce this fix. `is_clean()` on a
    /// healthy sounding.
    pub degradation: DegradationReport,
}

/// A fix with degraded-mode provenance: which evidence produced it and
/// at what convex weighting.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedFix {
    /// The estimate itself (pure CSI, refined, or fallback-synthesized).
    pub estimate: Estimate,
    /// Which evidence produced it.
    pub mode: EstimateMode,
    /// The convex weights actually used.
    pub weights: FusionWeights,
}

impl Estimate {
    /// Assembles a fix on `likelihood` at the decider's pick `position`
    /// (the best of `peaks` for every decider that scores peaks; `peaks`
    /// is empty for one that does not), with the degradation report's
    /// confidence filled in from the peak margin.
    pub(crate) fn new(
        position: P2,
        peaks: Vec<ScoredPeak>,
        likelihood: Grid2D,
        degradation: DegradationReport,
    ) -> Self {
        let mut est = Self {
            position,
            peaks,
            likelihood,
            degradation,
        };
        est.degradation.confidence = est.confidence();
        est
    }

    /// A confidence proxy in `[0, 1]`: the score margin of the chosen peak
    /// over the runner-up, `1 − s₂/s₁`. Near 0 means two locations were
    /// almost equally plausible (deep multipath ambiguity); near 1 means
    /// the chosen peak dominated. A single-peak profile is fully
    /// confident. Returns 0 when produced by a decider that keeps no peak
    /// list (`localize_shortest_distance` / `localize_argmax`). The margin
    /// is read off the peaks of the surface the fix was finally scored on:
    /// after fallback-prior refinement that is the fused surface — for a
    /// hierarchical fix, the 48 cm coarse selection surface (the seed
    /// window on a seeded round) — and for a fallback-only fix the
    /// fallback surface.
    pub fn confidence(&self) -> f64 {
        match self.peaks.as_slice() {
            [] => 0.0,
            [_] => 1.0,
            [best, second, ..] => {
                if best.score <= 0.0 {
                    0.0
                } else {
                    (1.0 - second.score / best.score).clamp(0.0, 1.0)
                }
            }
        }
    }
}

/// The BLoc localization pipeline.
///
/// Likelihood evaluation runs on a [`LikelihoodEngine`] (phasor-recurrence
/// kernel + steering-geometry cache); cloning the localizer shares the
/// cache, so per-worker clones in a sweep compute each deployment's
/// geometry once.
#[derive(Debug, Clone)]
pub struct BlocLocalizer {
    config: BlocConfig,
    engine: LikelihoodEngine,
}

impl BlocLocalizer {
    /// Builds a localizer on the default (recurrence) engine.
    pub fn new(config: BlocConfig) -> Self {
        Self {
            config,
            engine: LikelihoodEngine::default(),
        }
    }

    /// Replaces the likelihood engine (kernel choice, thread count).
    pub fn with_engine(mut self, engine: LikelihoodEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The likelihood engine in force.
    pub fn engine(&self) -> &LikelihoodEngine {
        &self.engine
    }

    /// The configuration in force.
    pub fn config(&self) -> &BlocConfig {
        &self.config
    }

    /// Runs offset correction only (exposed for microbenchmarks).
    ///
    /// # Errors
    ///
    /// See [`crate::correction::correct`].
    pub fn correct(&self, data: &SoundingData) -> Result<CorrectedChannels, LocalizeError> {
        let _span = bloc_obs::span("correct");
        correct(data, self.config.normalize_alpha)
    }

    /// The likelihood stage under its span, with its work counters.
    fn joint_likelihood_timed(&self, corrected: &CorrectedChannels) -> Grid2D {
        let _span = bloc_obs::span("likelihood");
        bloc_obs::counter("likelihood.grid_cells")
            .add((self.config.grid.nx * self.config.grid.ny) as u64);
        bloc_obs::counter("likelihood.bands").add(corrected.bands.len() as u64);
        self.engine
            .joint_likelihood(corrected, self.config.grid, self.config.combining)
    }

    /// Records what the masking pass absorbed on the global registry,
    /// under `fault.recovered.*` — the mirror of `fault.injected.*` (which
    /// `bloc_chan::FaultPlan` records at sounding time). Counted exactly
    /// once per [`Self::localize`] call so one sounding → one localize
    /// reconciles the two families exactly.
    pub(crate) fn record_recovered(corrected: &CorrectedChannels) {
        let m = &corrected.masking;
        if m.holes_masked > 0 {
            bloc_obs::counter("fault.recovered.holes").add(m.holes_masked as u64);
        }
        if m.nonfinite_masked > 0 {
            bloc_obs::counter("fault.recovered.nonfinite").add(m.nonfinite_masked as u64);
        }
        if m.bands_dropped > 0 {
            bloc_obs::counter("fault.recovered.bands_dropped").add(m.bands_dropped as u64);
        }
        let excluded = corrected.surviving.iter().filter(|&&s| s == 0).count();
        if excluded > 0 {
            bloc_obs::counter("fault.recovered.anchors_excluded").add(excluded as u64);
        }
    }

    /// The degradation evidence carried by estimates built from
    /// `corrected` (confidence is filled in once peaks are scored).
    pub(crate) fn degradation_of(corrected: &CorrectedChannels) -> DegradationReport {
        DegradationReport {
            bands_total: corrected.masking.bands_total,
            bands_dropped: corrected.masking.bands_dropped,
            holes_masked: corrected.masking.holes_masked,
            nonfinite_masked: corrected.masking.nonfinite_masked,
            anchors_total: corrected.n_anchors(),
            anchors_excluded: (0..corrected.n_anchors())
                .filter(|&i| corrected.surviving[i] == 0)
                .collect(),
            effective_span_hz: corrected.masking.effective_span_hz,
            confidence: 0.0,
        }
    }

    /// Checks that `corrected` can support a fix at all.
    pub(crate) fn check_usable(corrected: &CorrectedChannels) -> Result<(), LocalizeError> {
        if corrected.bands.is_empty() {
            return Err(LocalizeError::NoUsableBands {
                total: corrected.masking.bands_total,
                dropped: corrected.masking.bands_dropped,
            });
        }
        let usable = corrected.usable_anchors().len();
        if usable < 2 {
            return Err(LocalizeError::TooFewUsableAnchors {
                usable,
                total: corrected.n_anchors(),
            });
        }
        Ok(())
    }

    /// Full localization.
    ///
    /// # Errors
    ///
    /// A [`LocalizeError`] describing exactly why no fix was possible:
    /// structurally empty input, every band dropped by masking, fewer than
    /// two surviving anchors, or a peakless likelihood.
    pub fn localize(&self, data: &SoundingData) -> Result<Estimate, LocalizeError> {
        let start = std::time::Instant::now();
        let _span = bloc_obs::span("localize");
        bloc_obs::counter("localize.calls").inc();
        let result = self.localize_impl(data);
        bloc_obs::histogram("localize.latency_us")
            .record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        if let Err(e) = &result {
            bloc_obs::counter("localize.no_fix").inc();
            bloc_obs::emit(bloc_obs::Event::new("localize", "no_fix").field("reason", e.reason()));
        }
        result
    }

    fn localize_impl(&self, data: &SoundingData) -> Result<Estimate, LocalizeError> {
        let corrected = self.correct(data)?;
        Self::record_recovered(&corrected);
        Self::check_usable(&corrected)?;
        self.dense_fix(data, &corrected)
    }

    /// The dense fix from already-corrected channels: the joint
    /// likelihood on the full grid, then Eq. 18 peak scoring. Shared with
    /// the hierarchy's dense escapes, so an escape runs this pipeline's
    /// own code.
    pub(crate) fn dense_fix(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
    ) -> Result<Estimate, LocalizeError> {
        let grid = self.joint_likelihood_timed(corrected);
        let anchor_refs: Vec<P2> = data.anchors.iter().map(|a| a.center()).collect();
        let peaks = score_peaks(&grid, &anchor_refs, &self.config.score);
        let Some(best) = peaks.first() else {
            return Err(LocalizeError::NoPeak);
        };
        Ok(Estimate::new(
            best.peak.position,
            peaks,
            grid,
            Self::degradation_of(corrected),
        ))
    }

    /// Multi-burst localization: fuses several soundings of the *same*
    /// (static) tag by summing their joint likelihood maps before peak
    /// scoring. BLE completes a full hop cycle ~40×/s (paper §6), so a
    /// tracker can afford several bursts per fix; fusion averages out
    /// per-burst noise and per-epoch offset artifacts that survive
    /// correction. The returned [`DegradationReport`] aggregates across
    /// bursts (an anchor counts as excluded only when it survived in *no*
    /// burst).
    ///
    /// # Errors
    ///
    /// [`LocalizeError::EmptySounding`] when no burst was structurally
    /// sound, otherwise the same failures as [`Self::localize`] evaluated
    /// on the fused evidence.
    pub fn localize_fused(&self, soundings: &[SoundingData]) -> Result<Estimate, LocalizeError> {
        let _span = bloc_obs::span("localize_fused");
        bloc_obs::counter("localize_fused.calls").inc();
        let result = self.localize_fused_impl(soundings);
        if let Err(e) = &result {
            bloc_obs::counter("localize.no_fix").inc();
            bloc_obs::emit(bloc_obs::Event::new("localize", "no_fix").field("reason", e.reason()));
        }
        result
    }

    fn localize_fused_impl(&self, soundings: &[SoundingData]) -> Result<Estimate, LocalizeError> {
        let mut combined: Option<Grid2D> = None;
        let mut anchor_refs: Vec<P2> = Vec::new();
        let mut degradation = DegradationReport::default();
        let mut surviving_total: Vec<usize> = Vec::new();
        let mut structurally_sound = 0usize;
        for data in soundings {
            let Ok(corrected) = self.correct(data) else {
                continue;
            };
            structurally_sound += 1;
            bloc_obs::counter("localize_fused.bursts").inc();
            degradation.bands_total += corrected.masking.bands_total;
            degradation.bands_dropped += corrected.masking.bands_dropped;
            degradation.holes_masked += corrected.masking.holes_masked;
            degradation.nonfinite_masked += corrected.masking.nonfinite_masked;
            degradation.effective_span_hz = degradation
                .effective_span_hz
                .max(corrected.masking.effective_span_hz);
            if surviving_total.len() < corrected.surviving.len() {
                surviving_total.resize(corrected.surviving.len(), 0);
            }
            for (acc, &s) in surviving_total.iter_mut().zip(&corrected.surviving) {
                *acc += s;
            }
            if corrected.bands.is_empty() {
                continue;
            }
            let grid = self.joint_likelihood_timed(&corrected);
            match &mut combined {
                Some(acc) => acc.add_assign(&grid),
                None => {
                    anchor_refs = data.anchors.iter().map(|a| a.center()).collect();
                    degradation.anchors_total = corrected.n_anchors();
                    combined = Some(grid);
                }
            }
        }
        if structurally_sound == 0 {
            return Err(LocalizeError::EmptySounding);
        }
        let Some(grid) = combined else {
            return Err(LocalizeError::NoUsableBands {
                total: degradation.bands_total,
                dropped: degradation.bands_dropped,
            });
        };
        degradation.anchors_excluded = surviving_total
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == 0)
            .map(|(i, _)| i)
            .collect();
        let usable = surviving_total.len() - degradation.anchors_excluded.len();
        if usable < 2 {
            return Err(LocalizeError::TooFewUsableAnchors {
                usable,
                total: surviving_total.len(),
            });
        }
        let peaks = score_peaks(&grid, &anchor_refs, &self.config.score);
        let Some(best) = peaks.first() else {
            return Err(LocalizeError::NoPeak);
        };
        Ok(Estimate::new(best.peak.position, peaks, grid, degradation))
    }

    /// Blends an estimate's CSI likelihood with fallback prior surfaces
    /// (each mass-normalized, convex `csi_weight` + prior weights) and
    /// re-runs peak scoring on the fused surface. Keeps the original
    /// degradation evidence; if the fused surface yields no peak the
    /// original estimate is returned untouched (a prior must never turn
    /// a fix into a no-fix).
    pub fn refine_with_priors(
        &self,
        est: Estimate,
        priors: &[(&Grid2D, f64)],
        csi_weight: f64,
        anchor_refs: &[P2],
    ) -> Estimate {
        let mut parts: Vec<(&Grid2D, f64)> = Vec::with_capacity(priors.len() + 1);
        parts.push((&est.likelihood, csi_weight));
        parts.extend_from_slice(priors);
        let Some(fused) = fusion::fuse_mass(&parts) else {
            return est;
        };
        let peaks = score_peaks(&fused, anchor_refs, &self.config.score);
        let Some(best) = peaks.first() else {
            return est;
        };
        Estimate::new(best.peak.position, peaks, fused, est.degradation)
    }

    /// Degradation-aware localization: runs the CSI pipeline, derives
    /// fusion weights from the resulting [`DegradationReport`] (plus the
    /// caller's breaker `open_frac`), and — only when the round is below
    /// the healthy threshold — blends in whatever priors `stack` can
    /// produce. A healthy round short-circuits to the *identical*
    /// pure-CSI estimate (weights snap to `csi = 1`). When CSI fails
    /// outright, the stack's fallback-only estimate is dressed as an
    /// [`Estimate`] (synthetic degradation report counting the sounding's
    /// holes) so downstream consumers see one shape. The supervised
    /// runtime refines its fixes under the same policy.
    ///
    /// # Errors
    ///
    /// The original [`LocalizeError`] when CSI failed *and* no fallback
    /// estimator could produce anything either.
    pub fn localize_with_fallback(
        &self,
        data: &SoundingData,
        stack: &FallbackStack,
        open_frac: f64,
    ) -> Result<FusedFix, LocalizeError> {
        match self.localize(data) {
            Ok(est) => Ok(self.fuse_fallback(est, data, data, stack, open_frac)),
            Err(csi_err) => {
                let Ok(fb) = stack.estimate(data, self.config.grid) else {
                    return Err(csi_err);
                };
                Ok(FusedFix {
                    estimate: self.estimate_from_fallback(data, &fb),
                    mode: fb.mode,
                    weights: fb.weights,
                })
            }
        }
    }

    /// The fallback-fusion policy of [`Self::localize_with_fallback`] for
    /// a CSI fix `est` made from `data`, shared with the supervised
    /// runtime. A healthy round (or a stack with no estimator) keeps the
    /// *identical* pure-CSI estimate. Otherwise the stack's priors are
    /// evaluated against `prior_basis` on the estimate's own likelihood
    /// spec (the fine grid for a dense fix, the coarse selection surface
    /// — whole grid or seed window — for a hierarchical one) and blended
    /// in by [`Self::refine_with_priors`]. `prior_basis` is the
    /// full-deployment sounding when `data` is an anchor subset (the
    /// fingerprint feature shape is fixed at survey time), else `data`.
    pub(crate) fn fuse_fallback(
        &self,
        est: Estimate,
        data: &SoundingData,
        prior_basis: &SoundingData,
        stack: &FallbackStack,
        open_frac: f64,
    ) -> FusedFix {
        let weights =
            FusionWeights::from_degradation(&est.degradation, open_frac, &stack.config.policy);
        if weights.csi >= 1.0 || !stack.has_estimators() {
            return FusedFix {
                estimate: est,
                mode: EstimateMode::Csi,
                weights: FusionWeights::pure_csi(),
            };
        }
        let (fp, counts) = stack.priors(prior_basis, est.likelihood.spec());
        let weights = weights.restrict(true, fp.is_some(), counts.is_some());
        if weights.csi >= 1.0 {
            return FusedFix {
                estimate: est,
                mode: EstimateMode::Csi,
                weights,
            };
        }
        let priors = fallback::weighted_priors(&fp, &counts, &weights);
        let anchor_refs: Vec<P2> = data.anchors.iter().map(|a| a.center()).collect();
        FusedFix {
            estimate: self.refine_with_priors(est, &priors, weights.csi, &anchor_refs),
            mode: EstimateMode::CsiFused,
            weights,
        }
    }

    /// Dresses a fallback-only estimate as a pipeline [`Estimate`]: peak
    /// scoring runs on the fallback likelihood (so confidence reflects
    /// its — much broader — peak margin) and the degradation report is
    /// reconstructed from the raw sounding.
    pub fn estimate_from_fallback(
        &self,
        data: &SoundingData,
        fb: &crate::fallback::FallbackEstimate,
    ) -> Estimate {
        let anchor_refs: Vec<P2> = data.anchors.iter().map(|a| a.center()).collect();
        let peaks = score_peaks(&fb.likelihood, &anchor_refs, &self.config.score);
        let position = peaks.first().map_or(fb.position, |p| p.peak.position);
        Estimate::new(
            position,
            peaks,
            fb.likelihood.clone(),
            Self::synthetic_degradation(data),
        )
    }

    /// A degradation report for a fallback-only estimate: CSI never ran,
    /// so the report is reconstructed from the raw sounding — exact-zero
    /// holes counted directly, anchors excluded when they decoded no tag
    /// packet at all.
    fn synthetic_degradation(data: &SoundingData) -> DegradationReport {
        let census = bloc_chan::faults::ReceptionCensus::from_sounding(data);
        let holes = data
            .bands
            .iter()
            .flat_map(|b| b.tag_to_anchor.iter())
            .flat_map(|row| row.iter())
            .filter(|h| h.abs() == 0.0)
            .count();
        DegradationReport {
            bands_total: data.bands.len(),
            bands_dropped: data.bands.len(),
            holes_masked: holes,
            nonfinite_masked: 0,
            anchors_total: data.anchors.len(),
            anchors_excluded: census
                .received
                .iter()
                .enumerate()
                .filter(|(_, &r)| r == 0)
                .map(|(i, _)| i)
                .collect(),
            effective_span_hz: 0.0,
            confidence: 0.0,
        }
    }

    /// Localization with multipath rejection replaced by the naive
    /// shortest-distance peak pick — the paper's Fig. 12 baseline. Kept on
    /// the `Option` interface: it is an ablation, not a production path.
    pub fn localize_shortest_distance(&self, data: &SoundingData) -> Option<Estimate> {
        let corrected = self.correct(data).ok()?;
        if corrected.bands.is_empty() {
            return None;
        }
        let degradation = Self::degradation_of(&corrected);
        let grid =
            self.engine
                .joint_likelihood(&corrected, self.config.grid, self.config.combining);
        let anchor_refs: Vec<P2> = data.anchors.iter().map(|a| a.center()).collect();
        let pick = crate::multipath::shortest_distance_peak(
            &grid,
            &anchor_refs,
            &self.config.score.peaks,
        )?;
        Some(Estimate::new(pick.position, Vec::new(), grid, degradation))
    }

    /// Localization by raw argmax of the joint likelihood (no peak
    /// analysis at all) — the "naive way" of §5.4, exposed for ablations.
    pub fn localize_argmax(&self, data: &SoundingData) -> Option<Estimate> {
        let corrected = self.correct(data).ok()?;
        if corrected.bands.is_empty() {
            return None;
        }
        let degradation = Self::degradation_of(&corrected);
        let grid =
            self.engine
                .joint_likelihood(&corrected, self.config.grid, self.config.combining);
        let (ix, iy, max) = grid.argmax()?;
        if max <= 0.0 {
            return None;
        }
        let position = grid.spec().cell_center(ix, iy);
        Some(Estimate::new(position, Vec::new(), grid, degradation))
    }

    /// The peak-extraction options in force (exposed for the baselines).
    pub fn peak_options(&self) -> &PeakOptions {
        &self.config.score.peaks
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use bloc_chan::materials::Material;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan};
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
    fn free_space_localization_is_tight() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(21);
        for tag in [P2::new(1.0, 1.5), P2::new(2.5, 3.0), P2::new(4.0, 4.5)] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let est = localizer.localize(&data).unwrap();
            assert!(
                est.position.dist(tag) < 0.2,
                "free-space error {} at {tag}",
                est.position.dist(tag)
            );
            assert!(est.degradation.is_clean(), "{:?}", est.degradation);
        }
    }

    #[test]
    fn multipath_localization_stays_submeter() {
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(22);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let tag = P2::new(2.2, 3.6);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let est = localizer.localize(&data).unwrap();
        assert!(
            est.position.dist(tag) < 1.0,
            "multipath error {}",
            est.position.dist(tag)
        );
    }

    #[test]
    fn empty_sounding_is_a_typed_error() {
        let room = Room::new(5.0, 6.0);
        let data = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        assert_eq!(
            localizer.localize(&data).unwrap_err(),
            LocalizeError::EmptySounding
        );
        assert!(localizer.localize_shortest_distance(&data).is_none());
        assert!(localizer.localize_argmax(&data).is_none());
    }

    #[test]
    fn estimate_carries_evidence() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(23);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let est = localizer.localize(&data).unwrap();
        assert!(!est.peaks.is_empty());
        assert_eq!(est.position, est.peaks[0].peak.position);
        assert_eq!(est.likelihood.spec(), localizer.config().grid);
        assert_eq!(est.degradation.confidence, est.confidence());
        assert_eq!(est.degradation.anchors_total, 4);
    }

    #[test]
    fn confidence_reflects_peak_margin() {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(31);
        let data = sounder.sound(P2::new(2.5, 3.0), &all_data_channels(), &mut rng);
        let est = localizer.localize(&data).unwrap();
        let c = est.confidence();
        assert!((0.0..=1.0).contains(&c));
        // Free space: the true peak should clearly dominate.
        assert!(c > 0.2, "free-space confidence {c}");
        // Deciders without peak lists report zero confidence.
        let sd = localizer.localize_shortest_distance(&data).unwrap();
        assert_eq!(sd.confidence(), 0.0);
    }

    #[test]
    fn config_builders() {
        let room = Room::new(5.0, 6.0);
        let c = BlocConfig::for_room(&room)
            .with_resolution(0.16)
            .with_score_weights(0.2, 0.1);
        assert_eq!(c.score.a, 0.2);
        assert_eq!(c.score.b, 0.1);
        assert!((c.grid.resolution - 0.16).abs() < 1e-12);
        // Region still covers the room + margins.
        assert!(c.grid.nx as f64 * c.grid.resolution >= room.width + 1.0 - 1e-9);
    }

    #[test]
    fn fusion_is_at_least_as_good_as_single_bursts() {
        // In the cluttered room, fusing several bursts should not be worse
        // than the median single burst (it averages per-epoch noise).
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(77);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .unwrap();
        let anchors = anchors(&room);
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

        let tag = P2::new(1.7, 3.9);
        let bursts: Vec<_> = (0..4)
            .map(|_| sounder.sound(tag, &all_data_channels(), &mut rng))
            .collect();

        let single_errs: Vec<f64> = bursts
            .iter()
            .filter_map(|b| localizer.localize(b).ok().map(|e| e.position.dist(tag)))
            .collect();
        let fused = localizer
            .localize_fused(&bursts)
            .unwrap()
            .position
            .dist(tag);
        let med_single = bloc_num::stats::median(&single_errs);
        assert!(
            fused <= med_single + 0.15,
            "fused {fused} vs median single {med_single}"
        );
    }

    #[test]
    fn fusion_handles_empty_and_degenerate() {
        let room = Room::new(5.0, 6.0);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        assert_eq!(
            localizer.localize_fused(&[]).unwrap_err(),
            LocalizeError::EmptySounding
        );
        let empty = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        assert_eq!(
            localizer.localize_fused(&[empty]).unwrap_err(),
            LocalizeError::EmptySounding
        );
    }

    #[test]
    fn variants_agree_in_clean_conditions() {
        // With no multipath, all three deciders land on the tag.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(24);
        let tag = P2::new(3.3, 2.1);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        for est in [
            localizer.localize(&data).unwrap(),
            localizer.localize_shortest_distance(&data).unwrap(),
            localizer.localize_argmax(&data).unwrap(),
        ] {
            assert!(est.position.dist(tag) < 0.25, "{:?}", est.position);
        }
    }

    #[test]
    fn lossy_sounding_localizes_with_populated_report() {
        // 30% hop loss + a dropped-out anchor: still a fix, and the report
        // says exactly what was absorbed.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let chans = all_data_channels();
        let plan = FaultPlan {
            seed: 99,
            tag_loss: 0.3,
            master_loss: 0.1,
            dropouts: vec![AnchorDropout {
                anchor: 2,
                bands: 0..chans.len(),
            }],
            ..Default::default()
        };
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        )
        .with_faults(plan.clone());
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(40);
        let tag = P2::new(2.8, 3.3);
        let data = sounder.sound(tag, &chans, &mut rng);
        let est = localizer.localize(&data).unwrap();

        let census = plan.census(&chans, &anchors);
        assert_eq!(est.degradation.holes_masked, census.holes());
        assert_eq!(est.degradation.bands_dropped, census.master_tag_lost_bands);
        assert_eq!(est.degradation.anchors_excluded, vec![2]);
        assert!(!est.degradation.is_clean());
        assert!(
            est.position.dist(tag) < 0.6,
            "degraded free-space error {}",
            est.position.dist(tag)
        );
    }

    #[test]
    fn too_few_anchors_is_a_typed_error() {
        // Drop every slave for the whole sweep: only the master survives.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let chans = all_data_channels();
        let plan = FaultPlan {
            seed: 5,
            dropouts: (1..4)
                .map(|a| AnchorDropout {
                    anchor: a,
                    bands: 0..chans.len(),
                })
                .collect(),
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(41);
        let data = sounder.sound(P2::new(2.0, 3.0), &chans, &mut rng);
        assert_eq!(
            localizer.localize(&data).unwrap_err(),
            LocalizeError::TooFewUsableAnchors {
                usable: 1,
                total: 4
            }
        );
    }

    #[test]
    fn total_master_loss_is_a_typed_error() {
        // tag_loss = 1 at the master kills ĥ00 on every band: nothing to
        // correct against, ever.
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors = anchors(&room);
        let plan = FaultPlan {
            seed: 6,
            tag_loss: 1.0,
            ..Default::default()
        };
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default()).with_faults(plan);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut rng = StdRng::seed_from_u64(42);
        let chans = all_data_channels();
        let data = sounder.sound(P2::new(2.0, 3.0), &chans, &mut rng);
        assert_eq!(
            localizer.localize(&data).unwrap_err(),
            LocalizeError::NoUsableBands {
                total: chans.len(),
                dropped: chans.len()
            }
        );
    }
}
