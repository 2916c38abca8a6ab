//! Tag tracking across successive fixes: a constant-velocity Kalman
//! filter in the plane.
//!
//! The paper localizes a static tag per measurement burst, and notes that
//! BLE "hops through all channels 40 times every second" (§6) — so a
//! moving tag yields a dense stream of fixes. Applications from the
//! paper's introduction (pet tracking, factory-floor automation) need the
//! *track*, not isolated fixes. This module provides the standard
//! estimator for that job: a 4-state (position + velocity)
//! constant-velocity Kalman filter consuming BLoc position estimates.
//!
//! The filter is deliberately self-contained (4×4 covariance updates
//! written out — no linear-algebra dependency) and handles missed fixes
//! by predicting through them.

use bloc_num::P2;

/// Tracker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Process-noise intensity: the variance of white acceleration,
    /// (m/s²)². Larger values follow manoeuvres faster but smooth less.
    pub accel_noise: f64,
    /// Measurement noise standard deviation of a BLoc fix, metres.
    /// BLoc's ~0.9 m median error ⇒ ~0.8–1.0 m is the right magnitude.
    pub fix_sigma_m: f64,
    /// Innovation gate in Mahalanobis σ units (see [`Tracker::offer`]):
    /// a fix whose normalized innovation exceeds the velocity-scaled
    /// bound is rejected instead of updating the filter. `INFINITY`
    /// disables gating.
    pub gate_sigma: f64,
    /// Hysteresis depth K: after this many *consecutive* gate
    /// rejections, the tag is assumed to have genuinely moved and the
    /// filter re-initializes at the offending fix (re-acquisition).
    pub reacquire_after: usize,
    /// Coasting horizon, in consecutive fix-less rounds (coasts and
    /// degraded offers — anything that is not an accepted native fix).
    /// Beyond it, every further coast multiplies the covariance by
    /// [`TrackerConfig::coast_widen_factor`] on top of the CV prediction:
    /// the motion model's own inflation understates how little we know
    /// after seconds without evidence.
    pub coast_widen_after: usize,
    /// Per-coast covariance multiplier applied beyond the widening
    /// horizon (> 1).
    pub coast_widen_factor: f64,
    /// Hard lock horizon: at this many consecutive fix-less rounds the
    /// track is dropped entirely (`state()` becomes `None`, velocity is
    /// forgotten) — a stale extrapolation is worse than an honest "no
    /// track". The next fix re-initializes.
    pub coast_drop_after: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            accel_noise: 1.0,
            fix_sigma_m: 0.9,
            gate_sigma: 4.0,
            reacquire_after: 3,
            coast_widen_after: 25,
            coast_widen_factor: 1.5,
            coast_drop_after: 100,
        }
    }
}

/// State estimate: position and velocity with their standard deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackState {
    /// Estimated position, metres.
    pub position: P2,
    /// Estimated velocity, metres/second.
    pub velocity: P2,
    /// 1-σ position uncertainty, metres (per axis, averaged).
    pub position_sigma: f64,
}

/// A constant-velocity Kalman tracker over 2-D fixes.
///
/// The x and y axes are independent under the CV model, so the filter is
/// implemented as two identical 2-state (position, velocity) filters.
#[derive(Debug, Clone, PartialEq)]
pub struct Tracker {
    config: TrackerConfig,
    axis: Option<[AxisFilter; 2]>,
    /// Consecutive fixes rejected by the innovation gate (hysteresis
    /// state for re-acquisition).
    rejected_streak: usize,
    /// Consecutive rounds without an accepted *native* fix (coasts and
    /// degraded offers) — the bounded-coasting horizon state.
    fixless_streak: usize,
}

/// What [`Tracker::offer`] did with one fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FixDisposition {
    /// The fix passed the innovation gate (or initialized the filter)
    /// and updated the track.
    Accepted(TrackState),
    /// The fix failed the gate: the filter coasted through the step on
    /// its motion model and the fix was discarded.
    Rejected {
        /// The coasted state.
        state: TrackState,
        /// The fix's normalized innovation distance (σ units).
        mahalanobis: f64,
        /// The velocity-scaled bound it exceeded.
        bound: f64,
    },
    /// The fix failed the gate but completed a streak of
    /// `reacquire_after` consecutive rejections — the tag genuinely
    /// moved, so the filter re-initialized at this fix.
    Reacquired(TrackState),
}

impl FixDisposition {
    /// The track state after this disposition, whatever it was.
    pub fn state(&self) -> TrackState {
        match *self {
            Self::Accepted(s) | Self::Reacquired(s) => s,
            Self::Rejected { state, .. } => state,
        }
    }
}

/// One axis of the CV filter: state (p, v), covariance [[p00,p01],[p01,p11]].
#[derive(Debug, Clone, Copy, PartialEq)]
struct AxisFilter {
    p: f64,
    v: f64,
    c00: f64,
    c01: f64,
    c11: f64,
}

impl AxisFilter {
    fn init(measurement: f64, sigma: f64) -> Self {
        // Position known to measurement accuracy; velocity unknown.
        Self {
            p: measurement,
            v: 0.0,
            c00: sigma * sigma,
            c01: 0.0,
            c11: 4.0,
        }
    }

    /// Predict forward by `dt` seconds with acceleration intensity `q`.
    fn predict(&mut self, dt: f64, q: f64) {
        self.p += self.v * dt;
        // F·C·Fᵀ for F = [[1, dt], [0, 1]]
        let c00 = self.c00 + dt * (self.c01 + self.c01) + dt * dt * self.c11;
        let c01 = self.c01 + dt * self.c11;
        let c11 = self.c11;
        // + white-acceleration process noise (discretized)
        let dt2 = dt * dt;
        self.c00 = c00 + q * dt2 * dt2 / 4.0;
        self.c01 = c01 + q * dt2 * dt / 2.0;
        self.c11 = c11 + q * dt2;
    }

    /// Measurement update with a position observation of variance `r`.
    fn update(&mut self, z: f64, r: f64) {
        let s = self.c00 + r;
        let k0 = self.c00 / s;
        let k1 = self.c01 / s;
        let innov = z - self.p;
        self.p += k0 * innov;
        self.v += k1 * innov;
        // Joseph-free standard form: C ← (I − K·H)·C
        let c00 = (1.0 - k0) * self.c00;
        let c01 = (1.0 - k0) * self.c01;
        let c11 = self.c11 - k1 * self.c01;
        self.c00 = c00;
        self.c01 = c01;
        self.c11 = c11;
    }
}

impl Tracker {
    /// A tracker awaiting its first fix.
    pub fn new(config: TrackerConfig) -> Self {
        Self {
            config,
            axis: None,
            rejected_streak: 0,
            fixless_streak: 0,
        }
    }

    /// True until the first fix arrives.
    pub fn is_initializing(&self) -> bool {
        self.axis.is_none()
    }

    /// Feeds one fix taken `dt` seconds after the previous call (use the
    /// hop/burst period; must be positive). Returns the filtered state.
    pub fn push(&mut self, fix: P2, dt: f64) -> TrackState {
        assert!(dt > 0.0, "time step must be positive");
        self.fixless_streak = 0;
        let r = self.config.fix_sigma_m * self.config.fix_sigma_m;
        match &mut self.axis {
            None => {
                self.axis = Some([
                    AxisFilter::init(fix.x, self.config.fix_sigma_m),
                    AxisFilter::init(fix.y, self.config.fix_sigma_m),
                ]);
            }
            Some(ax) => {
                for (f, z) in ax.iter_mut().zip([fix.x, fix.y]) {
                    f.predict(dt, self.config.accel_noise);
                    f.update(z, r);
                }
            }
        }
        self.state().expect("initialized above")
    }

    /// Feeds one fix through the innovation gate. Unlike [`Tracker::push`]
    /// (which trusts every fix), `offer` first predicts the filter
    /// forward and measures the fix's innovation in Mahalanobis units,
    /// `d = √(Σ_axis innov²/s)` with `s = c00_pred + r`. The gate bound
    /// is velocity-scaled — `gate_sigma · (1 + |v|·dt/σ_fix)` — so a
    /// fast-moving track legitimately tolerates larger jumps per step. A
    /// rejected fix coasts the filter; `reacquire_after` consecutive
    /// rejections re-initialize it at the latest fix (hysteresis: a tag
    /// that truly teleported re-acquires within K rounds instead of
    /// being gated forever).
    pub fn offer(&mut self, fix: P2, dt: f64) -> FixDisposition {
        assert!(dt > 0.0, "time step must be positive");
        let Some(ax) = &mut self.axis else {
            self.rejected_streak = 0;
            return FixDisposition::Accepted(self.push(fix, dt));
        };
        let r = self.config.fix_sigma_m * self.config.fix_sigma_m;
        // Predict (time passes regardless of what we decide about the fix).
        for f in ax.iter_mut() {
            f.predict(dt, self.config.accel_noise);
        }
        let mut d_sq = 0.0;
        let mut speed_sq = 0.0;
        for (f, z) in ax.iter().zip([fix.x, fix.y]) {
            let s = f.c00 + r;
            let innov = z - f.p;
            d_sq += innov * innov / s;
            speed_sq += f.v * f.v;
        }
        let mahalanobis = d_sq.sqrt();
        let bound = self.config.gate_sigma * (1.0 + speed_sq.sqrt() * dt / self.config.fix_sigma_m);
        if mahalanobis <= bound {
            for (f, z) in ax.iter_mut().zip([fix.x, fix.y]) {
                f.update(z, r);
            }
            self.rejected_streak = 0;
            self.fixless_streak = 0;
            return FixDisposition::Accepted(self.state().expect("initialized"));
        }
        self.rejected_streak += 1;
        if self.rejected_streak >= self.config.reacquire_after {
            self.axis = Some([
                AxisFilter::init(fix.x, self.config.fix_sigma_m),
                AxisFilter::init(fix.y, self.config.fix_sigma_m),
            ]);
            self.rejected_streak = 0;
            self.fixless_streak = 0;
            return FixDisposition::Reacquired(self.state().expect("initialized"));
        }
        FixDisposition::Rejected {
            state: self.state().expect("initialized"),
            mahalanobis,
            bound,
        }
    }

    /// Consecutive gate rejections so far (resets on accept/re-acquire).
    pub fn rejected_streak(&self) -> usize {
        self.rejected_streak
    }

    /// Advances time without a fix (the tag's burst was lost): predict
    /// only, bounded by the coasting horizon — beyond
    /// `coast_widen_after` consecutive fix-less rounds each coast also
    /// multiplies the covariance by `coast_widen_factor`, and at
    /// `coast_drop_after` the lock is dropped entirely (returns `None`;
    /// the next fix re-initializes). No-op before initialization.
    pub fn coast(&mut self, dt: f64) -> Option<TrackState> {
        assert!(dt > 0.0, "time step must be positive");
        self.axis?;
        self.fixless_streak += 1;
        if self.fixless_streak >= self.config.coast_drop_after {
            self.axis = None;
            bloc_obs::counter("track.lock_dropped").inc();
            return None;
        }
        let widen = self.fixless_streak >= self.config.coast_widen_after;
        let factor = self.config.coast_widen_factor.max(1.0);
        if let Some(ax) = self.axis.as_mut() {
            for f in ax.iter_mut() {
                f.predict(dt, self.config.accel_noise);
                if widen {
                    f.c00 *= factor;
                    f.c01 *= factor;
                    f.c11 *= factor;
                }
            }
        }
        self.state()
    }

    /// Feeds a *degraded* (fallback-estimated) fix: gated and fused like
    /// [`Tracker::offer`], but with the measurement variance taken from
    /// the fallback's own `sigma_m` (floored at `fix_sigma_m`) so a
    /// metre-class estimate nudges the track instead of yanking it.
    /// Degraded fixes do **not** reset the fix-less streak — the coasting
    /// horizon keeps counting, and once it expires the track re-anchors
    /// on the degraded fix with the wide sigma (reported as
    /// [`FixDisposition::Reacquired`]: velocity is forgotten).
    pub fn offer_degraded(&mut self, fix: P2, dt: f64, sigma_m: f64) -> FixDisposition {
        assert!(dt > 0.0, "time step must be positive");
        let sigma = if sigma_m.is_finite() {
            sigma_m.max(self.config.fix_sigma_m)
        } else {
            self.config.fix_sigma_m
        };
        let r = sigma * sigma;
        self.fixless_streak += 1;
        if self.axis.is_none() {
            // A degraded fix can start a track (with its wide sigma),
            // but it is still not a native fix: the streak keeps counting.
            self.axis = Some([
                AxisFilter::init(fix.x, sigma),
                AxisFilter::init(fix.y, sigma),
            ]);
            self.rejected_streak = 0;
            return FixDisposition::Accepted(self.state().expect("initialized above"));
        }
        if self.fixless_streak >= self.config.coast_drop_after {
            // Horizon expired under sustained degraded fixes: drop the
            // stale velocity and re-anchor on this fix.
            self.axis = Some([
                AxisFilter::init(fix.x, sigma),
                AxisFilter::init(fix.y, sigma),
            ]);
            self.rejected_streak = 0;
            self.fixless_streak = 0;
            bloc_obs::counter("track.lock_dropped").inc();
            return FixDisposition::Reacquired(self.state().expect("initialized above"));
        }
        let Some(ax) = self.axis.as_mut() else {
            return FixDisposition::Accepted(self.push(fix, dt));
        };
        for f in ax.iter_mut() {
            f.predict(dt, self.config.accel_noise);
        }
        let mut d_sq = 0.0;
        let mut speed_sq = 0.0;
        for (f, z) in ax.iter().zip([fix.x, fix.y]) {
            let s = f.c00 + r;
            let innov = z - f.p;
            d_sq += innov * innov / s;
            speed_sq += f.v * f.v;
        }
        let mahalanobis = d_sq.sqrt();
        let bound = self.config.gate_sigma * (1.0 + speed_sq.sqrt() * dt / sigma);
        if mahalanobis <= bound {
            for (f, z) in ax.iter_mut().zip([fix.x, fix.y]) {
                f.update(z, r);
            }
            return FixDisposition::Accepted(self.state().expect("initialized"));
        }
        FixDisposition::Rejected {
            state: self.state().expect("initialized"),
            mahalanobis,
            bound,
        }
    }

    /// Consecutive rounds without an accepted native fix (the coasting
    /// horizon state; resets on accepted/re-acquired native fixes).
    pub fn fixless_streak(&self) -> usize {
        self.fixless_streak
    }

    /// The radius (metres) a seeded likelihood search must cover so the
    /// next fix cannot land outside it without also failing the
    /// innovation gate: the gate bound in position units
    /// (`gate_sigma · position_sigma`) plus the distance the tag can
    /// travel in `dt` at the estimated speed. Coast widening inflates
    /// `position_sigma`, so the radius grows with every fix-less round
    /// exactly as the gate does. `None` before the first fix (or after a
    /// dropped lock) — there is nothing to seed from.
    pub fn search_radius(&self, dt: f64) -> Option<f64> {
        let s = self.state()?;
        Some(self.config.gate_sigma * s.position_sigma + s.velocity.norm() * dt.max(0.0))
    }

    /// The current estimate, if initialized.
    pub fn state(&self) -> Option<TrackState> {
        let ax = self.axis.as_ref()?;
        Some(TrackState {
            position: P2::new(ax[0].p, ax[1].p),
            velocity: P2::new(ax[0].v, ax[1].v),
            position_sigma: ((ax[0].c00 + ax[1].c00) / 2.0).sqrt(),
        })
    }
}

/// A localizer and a tracker glued into one streaming consumer of
/// soundings — the shape an application actually deploys. Each sounding
/// is localized through the shared [`crate::engine::LikelihoodEngine`]
/// (so per-deployment steering geometry is computed once for the whole
/// track, not once per burst) and the resulting fix feeds the Kalman
/// filter; soundings that cannot support a fix coast the filter instead
/// of dropping the time step.
#[derive(Debug, Clone)]
pub struct TrackingPipeline {
    localizer: crate::localizer::BlocLocalizer,
    hier: Option<crate::hierarchical::HierarchicalLocalizer>,
    tracker: Tracker,
}

impl TrackingPipeline {
    /// Builds a pipeline from its two halves.
    pub fn new(localizer: crate::localizer::BlocLocalizer, config: TrackerConfig) -> Self {
        Self {
            localizer,
            hier: None,
            tracker: Tracker::new(config),
        }
    }

    /// Enables the hierarchical coarse-to-fine solver: rounds with a live
    /// track run the coarse→fine search in a window around the track
    /// prediction (bounded by [`Tracker::search_radius`]); rounds without
    /// one run it over the whole venue. The hierarchical localizer shares this
    /// pipeline's engine and steering cache.
    pub fn with_hierarchical(mut self, config: crate::hierarchical::HierarchicalConfig) -> Self {
        self.hier = Some(crate::hierarchical::HierarchicalLocalizer::new(
            self.localizer.clone(),
            config,
        ));
        self
    }

    /// The hierarchical solver, when enabled.
    pub fn hierarchical(&self) -> Option<&crate::hierarchical::HierarchicalLocalizer> {
        self.hier.as_ref()
    }

    /// The grid a fallback-only estimate is made on for this pipeline's
    /// rounds (CSI produced no surface to match): the coarse
    /// candidate-selection grid when the hierarchy is enabled, the full
    /// fine grid otherwise.
    pub fn prior_grid(&self) -> bloc_num::GridSpec {
        self.hier
            .as_ref()
            .map(|h| h.coarse_spec())
            .unwrap_or(self.localizer.config().grid)
    }

    /// Localizes one sounding the way this pipeline is configured to:
    /// dense when the hierarchy is off; seeded from the current track
    /// (with the gate-derived search radius for a round `dt` seconds
    /// after the last) when a track is live; full coarse→fine otherwise.
    /// Does **not** feed the tracker — callers on their own schedule
    /// (the runtime supervisor) gate and offer the fix themselves.
    ///
    /// # Errors
    ///
    /// The [`crate::error::LocalizeError`] of the failed fix.
    pub fn localize_round(
        &self,
        data: &bloc_chan::sounder::SoundingData,
        dt: f64,
    ) -> Result<crate::localizer::Estimate, crate::error::LocalizeError> {
        let Some(h) = &self.hier else {
            return self.localizer.localize(data);
        };
        let seed = self
            .tracker
            .state()
            .zip(self.tracker.search_radius(dt.max(0.0)));
        let est = match seed {
            Some((s, radius)) => h.localize_seeded(data, s.position, radius)?,
            None => h.localize(data)?,
        };
        Ok(est.estimate)
    }

    /// Consumes one sounding taken `dt` seconds after the previous call.
    /// On a successful fix the filter updates and the new state is
    /// returned; on a localization failure the filter coasts through the
    /// gap and the typed error is returned (with the coasted state still
    /// available via [`Self::state`]).
    ///
    /// # Errors
    ///
    /// The [`crate::error::LocalizeError`] of the failed fix.
    pub fn push_sounding(
        &mut self,
        data: &bloc_chan::sounder::SoundingData,
        dt: f64,
    ) -> Result<TrackState, crate::error::LocalizeError> {
        match self.localize_round(data, dt) {
            Ok(est) => Ok(self.offer_fix(est.position, dt).state()),
            Err(e) => {
                self.tracker.coast(dt);
                Err(e)
            }
        }
    }

    /// Feeds one already-localized fix through the tracker's innovation
    /// gate (see [`Tracker::offer`]), recording `track.gated` /
    /// `track.reacquired` on the global registry. This is the entry the
    /// runtime supervisor uses when it localizes on its own schedule.
    pub fn offer_fix(&mut self, fix: P2, dt: f64) -> FixDisposition {
        let disposition = self.tracker.offer(fix, dt);
        match disposition {
            FixDisposition::Rejected { .. } => bloc_obs::counter("track.gated").inc(),
            FixDisposition::Reacquired(_) => bloc_obs::counter("track.reacquired").inc(),
            FixDisposition::Accepted(_) => {}
        }
        disposition
    }

    /// Feeds a degraded (fallback-estimated) fix through
    /// [`Tracker::offer_degraded`], recording `track.degraded` (and
    /// `track.gated` on rejection) on the global registry.
    pub fn offer_degraded_fix(&mut self, fix: P2, dt: f64, sigma_m: f64) -> FixDisposition {
        bloc_obs::counter("track.degraded").inc();
        let disposition = self.tracker.offer_degraded(fix, dt, sigma_m);
        if matches!(disposition, FixDisposition::Rejected { .. }) {
            bloc_obs::counter("track.gated").inc();
        }
        disposition
    }

    /// Coasts the tracker through a fix-less step (deferred round, lost
    /// burst handled outside [`Self::push_sounding`]).
    pub fn coast(&mut self, dt: f64) -> Option<TrackState> {
        self.tracker.coast(dt)
    }

    /// The tracker half.
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The current track estimate, if any fix has arrived.
    pub fn state(&self) -> Option<TrackState> {
        self.tracker.state()
    }

    /// The localizer half (and through it the shared likelihood engine).
    pub fn localizer(&self) -> &crate::localizer::BlocLocalizer {
        &self.localizer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy(rng: &mut StdRng, p: P2, sigma: f64) -> P2 {
        let g = |rng: &mut StdRng| {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        P2::new(p.x + sigma * g(rng), p.y + sigma * g(rng))
    }

    #[test]
    fn converges_on_static_tag() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth = P2::new(2.0, 3.0);
        let mut tracker = Tracker::new(TrackerConfig {
            accel_noise: 0.05,
            fix_sigma_m: 0.9,
            ..Default::default()
        });
        let mut last = TrackState {
            position: P2::ORIGIN,
            velocity: P2::ORIGIN,
            position_sigma: f64::INFINITY,
        };
        // Judge convergence on the time-averaged post-burn-in estimate:
        // with accel_noise > 0 the steady-state error of any *single*
        // realization stays comparable to position_sigma, so the final
        // fix alone is a coin flip at tight thresholds.
        let mut settled = P2::ORIGIN;
        let mut settled_n = 0.0;
        for k in 0..200 {
            last = tracker.push(noisy(&mut rng, truth, 0.9), 0.1);
            if k >= 100 {
                settled += last.position;
                settled_n += 1.0;
            }
        }
        let settled = P2::new(settled.x / settled_n, settled.y / settled_n);
        assert!(settled.dist(truth) < 0.3, "converged to {settled}");
        assert!(last.velocity.norm() < 0.3);
        assert!(
            last.position_sigma < 0.5,
            "uncertainty must shrink: {}",
            last.position_sigma
        );
    }

    #[test]
    fn tracks_constant_velocity() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = P2::new(0.5, -0.2); // m/s
        let mut tracker = Tracker::new(TrackerConfig {
            accel_noise: 0.1,
            fix_sigma_m: 0.9,
            ..Default::default()
        });
        let mut state = None;
        for k in 0..150 {
            let truth = P2::new(0.0, 5.0) + v * (k as f64 * 0.1);
            state = Some(tracker.push(noisy(&mut rng, truth, 0.9), 0.1));
        }
        let s = state.unwrap();
        let truth_final = P2::new(0.0, 5.0) + v * (149.0 * 0.1);
        assert!(
            s.position.dist(truth_final) < 0.6,
            "pos {} vs {}",
            s.position,
            truth_final
        );
        assert!(
            (s.velocity - v).norm() < 0.25,
            "vel {:?} vs {:?}",
            s.velocity,
            v
        );
    }

    #[test]
    fn smoothing_beats_raw_fixes() {
        // The track's RMSE must be below the raw-fix RMSE on a static tag.
        let mut rng = StdRng::seed_from_u64(3);
        let truth = P2::new(1.0, 1.0);
        let mut tracker = Tracker::new(TrackerConfig {
            accel_noise: 0.02,
            fix_sigma_m: 0.9,
            ..Default::default()
        });
        let mut raw_sq = 0.0;
        let mut flt_sq = 0.0;
        let mut n = 0.0;
        for k in 0..300 {
            let fix = noisy(&mut rng, truth, 0.9);
            let s = tracker.push(fix, 0.1);
            if k >= 20 {
                raw_sq += fix.dist_sq(truth);
                flt_sq += s.position.dist_sq(truth);
                n += 1.0;
            }
        }
        let raw_rmse = (raw_sq / n).sqrt();
        let flt_rmse = (flt_sq / n).sqrt();
        assert!(
            flt_rmse < 0.5 * raw_rmse,
            "filter ({flt_rmse}) should beat raw fixes ({raw_rmse}) by a lot"
        );
    }

    #[test]
    fn coasting_grows_uncertainty() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        tracker.push(P2::new(0.0, 0.0), 0.1);
        let before = tracker.state().unwrap().position_sigma;
        for _ in 0..20 {
            tracker.coast(0.1);
        }
        let after = tracker.state().unwrap().position_sigma;
        assert!(
            after > before,
            "coasting must inflate σ: {before} → {after}"
        );
    }

    #[test]
    fn coast_before_init_is_none() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        assert!(tracker.is_initializing());
        assert!(tracker.coast(0.1).is_none());
        tracker.push(P2::new(1.0, 2.0), 0.1);
        assert!(!tracker.is_initializing());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        Tracker::new(TrackerConfig::default()).push(P2::ORIGIN, 0.0);
    }

    #[test]
    fn coasting_horizon_widens_then_drops_the_lock() {
        // Pin the horizon exactly: with drop_after = 6 the lock survives
        // 5 consecutive coasts and dies on the 6th.
        let cfg = TrackerConfig {
            coast_widen_after: 3,
            coast_widen_factor: 2.0,
            coast_drop_after: 6,
            ..Default::default()
        };
        let mut tracker = Tracker::new(cfg);
        tracker.push(P2::new(2.0, 2.0), 0.1);

        let mut sigmas = Vec::new();
        for _ in 0..5 {
            let s = tracker.coast(0.1);
            assert!(s.is_some(), "lock must survive below the horizon");
            sigmas.push(s.unwrap().position_sigma);
        }
        assert_eq!(tracker.fixless_streak(), 5);
        // Beyond coast_widen_after the per-step inflation must exceed the
        // plain CV prediction's: the widened step grows σ² by more than
        // the factor alone would.
        let plain_growth = sigmas[1] / sigmas[0]; // streak 1→2, unwidened
        let widened_growth = sigmas[3] / sigmas[2]; // streak 3→4, widened
        assert!(
            widened_growth > plain_growth * 1.2,
            "widening must accelerate σ growth: {plain_growth} vs {widened_growth}"
        );

        // The 6th consecutive coast hits the drop horizon.
        assert!(tracker.coast(0.1).is_none(), "lock must drop at horizon");
        assert!(tracker.is_initializing());

        // A fresh fix re-initializes and resets the streak.
        tracker.push(P2::new(2.0, 2.0), 0.1);
        assert_eq!(tracker.fixless_streak(), 0);
        assert!(tracker.coast(0.1).is_some());
    }

    #[test]
    fn native_fix_resets_coasting_horizon() {
        let cfg = TrackerConfig {
            coast_drop_after: 4,
            ..Default::default()
        };
        let mut tracker = Tracker::new(cfg);
        tracker.push(P2::new(1.0, 1.0), 0.1);
        for _ in 0..3 {
            assert!(tracker.coast(0.1).is_some());
        }
        // An accepted native fix resets the horizon: 3 more coasts are
        // again survivable.
        assert!(matches!(
            tracker.offer(P2::new(1.0, 1.0), 0.1),
            FixDisposition::Accepted(_)
        ));
        assert_eq!(tracker.fixless_streak(), 0);
        for _ in 0..3 {
            assert!(tracker.coast(0.1).is_some());
        }
        assert!(tracker.coast(0.1).is_none());
    }

    #[test]
    fn degraded_offers_count_toward_horizon_and_reanchor() {
        let cfg = TrackerConfig {
            coast_drop_after: 3,
            ..Default::default()
        };
        let mut tracker = Tracker::new(cfg);

        // Before initialization a degraded fix starts the track.
        let d = tracker.offer_degraded(P2::new(1.0, 1.0), 0.1, 2.0);
        assert!(matches!(d, FixDisposition::Accepted(_)));
        // Its wide sigma must be reflected in the state.
        assert!(tracker.state().unwrap().position_sigma > 1.5);

        // Degraded fixes do not reset the horizon: the third fix-less
        // round re-anchors (velocity forgotten → Reacquired).
        assert!(matches!(
            tracker.offer_degraded(P2::new(1.1, 1.0), 0.1, 2.0),
            FixDisposition::Accepted(_) | FixDisposition::Rejected { .. }
        ));
        let d3 = tracker.offer_degraded(P2::new(1.2, 1.0), 0.1, 2.0);
        assert!(
            matches!(d3, FixDisposition::Reacquired(_)),
            "horizon expiry under degraded fixes must re-anchor: {d3:?}"
        );
        assert_eq!(tracker.fixless_streak(), 0);
    }

    #[test]
    fn pipeline_tracks_a_moving_tag_and_reuses_geometry() {
        use crate::localizer::{BlocConfig, BlocLocalizer};
        use bloc_chan::geometry::Room;
        use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
        use bloc_chan::{AnchorArray, Environment};

        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors: Vec<AnchorArray> = room
            .wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect();
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        );
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut pipeline = TrackingPipeline::new(localizer, TrackerConfig::default());
        assert!(pipeline.state().is_none());

        let mut rng = StdRng::seed_from_u64(51);
        let v = P2::new(0.3, 0.15);
        let mut last = None;
        for k in 0..12 {
            let truth = P2::new(1.2, 1.5) + v * (k as f64 * 0.5);
            let data = sounder.sound(truth, &all_data_channels(), &mut rng);
            last = Some(pipeline.push_sounding(&data, 0.5).unwrap());
        }
        let truth_final = P2::new(1.2, 1.5) + v * (11.0 * 0.5);
        assert!(
            last.unwrap().position.dist(truth_final) < 0.6,
            "track {:?} vs {truth_final}",
            last
        );
        // One deployment, twelve soundings: the steering geometry was
        // built exactly once and served from the cache after that.
        assert_eq!(pipeline.localizer().engine().cache().len(), 1);
    }

    #[test]
    fn pipeline_coasts_through_failed_fixes() {
        use crate::localizer::{BlocConfig, BlocLocalizer};
        use bloc_chan::geometry::Room;
        use bloc_chan::sounder::SoundingData;

        let room = Room::new(5.0, 6.0);
        let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
        let mut pipeline = TrackingPipeline::new(localizer, TrackerConfig::default());

        // Failure before any fix: typed error, still uninitialized.
        let empty = SoundingData {
            bands: Vec::new(),
            anchors: Vec::new(),
        };
        assert!(pipeline.push_sounding(&empty, 0.1).is_err());
        assert!(pipeline.state().is_none());

        // Initialize by hand through the tracker half, then fail again:
        // the filter coasts (σ grows) instead of dropping the step.
        pipeline.tracker.push(P2::new(1.0, 1.0), 0.1);
        let before = pipeline.state().unwrap().position_sigma;
        assert!(pipeline.push_sounding(&empty, 0.5).is_err());
        let after = pipeline.state().unwrap().position_sigma;
        assert!(after > before, "coast must inflate σ: {before} → {after}");
    }

    #[test]
    fn covariance_stays_positive() {
        // Long alternating predict/update cycles must not drive the
        // covariance negative (numerical health).
        let mut tracker = Tracker::new(TrackerConfig {
            accel_noise: 5.0,
            fix_sigma_m: 0.1,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        tracker.push(P2::new(1.0, 1.0), 0.05); // initialize first
        for k in 0..1000 {
            if k % 7 == 0 {
                tracker.coast(0.05);
            } else {
                tracker.push(noisy(&mut rng, P2::new(1.0, 1.0), 0.1), 0.05);
            }
            let s = tracker.state().unwrap();
            assert!(s.position_sigma.is_finite() && s.position_sigma >= 0.0);
        }
    }
}
