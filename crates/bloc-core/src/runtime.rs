//! The supervised sounding runtime: anchor health, circuit breakers,
//! quorum admission, deterministic backoff, and hop resynchronization.
//!
//! The fault layer (PR 2) made every *single* localize honest about what
//! it discarded, but each round still rediscovered the same faults from
//! scratch: a flapping anchor was re-admitted every round, a desynced hop
//! sequence silently corrupted stitching, and one corrupted fix poisoned
//! the track. This module adds the stateful supervisor the paper's §5.2
//! anchor-collaboration model presumes — anchors are *cooperating
//! infrastructure* whose trustworthiness is learned across rounds, not
//! per fix:
//!
//! * [`SessionSupervisor`] wraps the sound→correct→localize loop. Per
//!   anchor it maintains an EWMA health score fed from measured link
//!   survival (the same exact-zero hole convention the
//!   [`crate::DegradationReport`] and `fault.*` counters reconcile on)
//!   and drives a circuit [`BreakerState`] — Closed → Open on chronic
//!   bad health, Open → HalfOpen probe after a cooldown, HalfOpen →
//!   Closed after sustained good probes. Quarantined (Open) anchors are
//!   excluded from the sounding subset entirely instead of being
//!   re-weighted every round.
//! * Quorum admission: below `min_live_anchors` admitted anchors or
//!   `min_surviving_bands` surviving bands the round returns a typed
//!   [`RoundOutcome::Deferred`] instead of attempting a localize that
//!   cannot be trusted.
//! * [`RetryPolicy`]: jittered exponential backoff between attempts,
//!   deterministic via a seeded hash exactly like
//!   [`bloc_chan::faults::FaultPlan`] — two runs with the same seeds
//!   schedule identical retries.
//! * [`HopMonitor`]: detects hop-sequence desync against
//!   [`bloc_ble::hopping::HopSequence`] and re-synchronizes by
//!   re-deriving the channel index from the access-address-seeded state
//!   plus the observed event counter, instead of aborting the round.
//! * Every breaker transition lands in an inspectable ledger *and* as a
//!   `runtime.breaker` obs event, so a soak can reconcile the two
//!   exactly; per-anchor health is exported as `runtime.anchor_health.*`
//!   gauges.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_chan::faults::ReceptionCensus;
use bloc_chan::sounder::SoundingData;
use bloc_chan::AnchorArray;
use bloc_num::complex::ZERO;
use bloc_num::par::Deadline;
// All runtime "randomness" (backoff jitter) is the same pure splitmix64
// hash of seeds the fault plan uses, so reruns are bit-identical.
use bloc_num::seed::splitmix64 as splitmix;
use bloc_num::P2;
use bloc_obs::mode::ModeTracker;
use bloc_obs::BoundedLedger;

use crate::error::{DeferReason, LocalizeError};
use crate::fallback::{EstimateMode, FallbackStack, FusionWeights};
use crate::localizer::{BlocLocalizer, Estimate, FusedFix};
use crate::tracker::{FixDisposition, TrackState, TrackerConfig, TrackingPipeline};

/// Deterministic jittered exponential backoff between sounding attempts.
///
/// `delay(round, attempt)` is a pure function of the policy — like
/// [`bloc_chan::faults::FaultPlan`], the "jitter" comes from a seeded
/// splitmix64 hash, not an RNG stream, so any (round, attempt) pair can
/// be replayed in isolation and two runs with equal seeds back off
/// identically.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: usize,
    /// Delay of the first retry, µs; each further retry doubles it.
    pub base_delay_us: u64,
    /// Backoff ceiling, µs.
    pub max_delay_us: u64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor drawn from `[1 − jitter, 1]`.
    pub jitter: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_delay_us: 500,
            max_delay_us: 64_000,
            jitter: 0.5,
            seed: 0x8ACC_0FF5,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` retries and defaults elsewhere.
    pub fn with_retries(max_retries: usize) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// Total attempts a round may make (the initial one plus retries).
    pub fn attempts(&self) -> usize {
        self.max_retries + 1
    }

    /// The backoff before `attempt` of `round`, µs. Attempt 0 (the
    /// scheduled sounding) has no delay; retry `k` waits
    /// `base · 2^(k−1)`, capped at `max_delay_us`, scaled by the
    /// deterministic jitter factor.
    pub fn delay_us(&self, round: u64, attempt: usize) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let doublings = (attempt - 1).min(20) as u32;
        let exp = self
            .base_delay_us
            .saturating_mul(1u64 << doublings)
            .min(self.max_delay_us);
        let h = splitmix(
            self.seed
                ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        // 53 high bits → uniform fraction in [0, 1).
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * frac;
        (exp as f64 * scale).round() as u64
    }

    /// The full backoff schedule of one round (attempt 0 first).
    pub fn schedule(&self, round: u64) -> Vec<u64> {
        (0..self.attempts())
            .map(|a| self.delay_us(round, a))
            .collect()
    }
}

/// Circuit-breaker state of one anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the anchor is admitted to every round.
    Closed,
    /// Quarantined: excluded from sounding until the cooldown elapses.
    Open,
    /// Probation: re-admitted on probe; sustained good rounds close the
    /// breaker, one bad round re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Short name (the obs event / counter suffix).
    pub fn name(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half_open",
        }
    }
}

/// One breaker transition, as recorded in the supervisor's ledger and
/// mirrored as a `runtime.breaker` obs event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The round the transition happened in.
    pub round: u64,
    /// The anchor whose breaker moved.
    pub anchor: usize,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Supervisor tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// EWMA weight of the newest health observation, `(0, 1]`.
    pub health_alpha: f64,
    /// Health below this for `open_after` consecutive rounds opens the
    /// breaker.
    pub open_threshold: f64,
    /// A probe round with instantaneous survival at or above this counts
    /// toward closing a half-open breaker (hysteresis: higher bar to
    /// close than to stay closed).
    pub close_threshold: f64,
    /// Consecutive below-threshold rounds before quarantine.
    pub open_after: usize,
    /// Rounds an open breaker waits before the half-open probe.
    pub cooldown_rounds: u64,
    /// Consecutive good probe rounds before re-admission.
    pub close_after: usize,
    /// Minimum admitted anchors (incl. the master) for a round to be
    /// attempted at all.
    pub min_live_anchors: usize,
    /// Minimum bands surviving masking for a localize to be trusted
    /// (paper §5.1: the stitched span sets relative-distance resolution).
    pub min_surviving_bands: usize,
    /// Backoff policy between attempts.
    pub retry: RetryPolicy,
    /// Tracker (innovation gate) tuning.
    pub tracker: TrackerConfig,
    /// Hierarchical coarse-to-fine solver for the session's rounds:
    /// `Some` localizes seeded from the live track (full coarse→fine when
    /// no track); `None` (the default) keeps the dense solver. No prior
    /// enters hierarchical candidate selection: a degraded fix is refined
    /// with fallback priors on the estimate's own surface (the coarse
    /// selection joint — the whole coarse grid on full-flow rounds, the
    /// seed window on seeded rounds, which are windowed coarse→fine
    /// searches), and a fallback-only round estimates on the coarse grid.
    pub hierarchical: Option<crate::hierarchical::HierarchicalConfig>,
    /// Resident capacity of the breaker-transition ledger. Older entries
    /// are evicted and counted ([`SessionSupervisor::breaker_ledger`]'s
    /// [`BoundedLedger::evicted`]), so `total()` still reconciles with
    /// the `runtime.breaker.*` counters on sessions that run forever.
    pub ledger_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            health_alpha: 0.4,
            open_threshold: 0.25,
            close_threshold: 0.6,
            open_after: 2,
            cooldown_rounds: 6,
            close_after: 2,
            min_live_anchors: 3,
            min_surviving_bands: 8,
            retry: RetryPolicy::default(),
            tracker: TrackerConfig::default(),
            hierarchical: None,
            ledger_capacity: 4096,
        }
    }
}

/// Per-anchor supervision state.
#[derive(Debug, Clone)]
struct AnchorMonitor {
    health: f64,
    state: BreakerState,
    below_streak: usize,
    probe_streak: usize,
    opened_at: u64,
}

impl AnchorMonitor {
    fn new() -> Self {
        Self {
            health: 1.0,
            state: BreakerState::Closed,
            below_streak: 0,
            probe_streak: 0,
            opened_at: 0,
        }
    }
}

/// A successfully localized round.
#[derive(Debug, Clone)]
pub struct RoundFix {
    /// The round index (0-based).
    pub round: u64,
    /// The raw estimate of the successful attempt.
    pub estimate: Estimate,
    /// The track state after the fix was offered to the gated tracker.
    pub track: TrackState,
    /// What the innovation gate did with the fix.
    pub disposition: FixDisposition,
    /// Attempts spent (1 = no retries needed).
    pub attempts: usize,
    /// Original anchor indices admitted this round.
    pub admitted: Vec<usize>,
    /// Which evidence produced the fix (pure CSI unless a fallback stack
    /// is attached and the round was below the healthy threshold).
    pub mode: EstimateMode,
    /// The convex evidence weights the fix was estimated under.
    pub weights: FusionWeights,
}

/// A round the supervisor would have deferred, rescued by the fallback
/// stack: the CSI pipeline produced nothing, but a coarse estimator
/// (fingerprint / packet counts) still did — with explicit provenance
/// and honestly widened uncertainty.
#[derive(Debug, Clone)]
pub struct DegradedRound {
    /// The round index (0-based).
    pub round: u64,
    /// Why the round could not fix natively (what it *would* have
    /// deferred with).
    pub reason: DeferReason,
    /// The fallback estimate, dressed as a pipeline [`Estimate`]
    /// (synthetic degradation report, fallback-likelihood peak margin as
    /// its — much lower — confidence).
    pub estimate: Estimate,
    /// Which fallback evidence produced it.
    pub mode: EstimateMode,
    /// The convex evidence weights (CSI weight is 0 here).
    pub weights: FusionWeights,
    /// The fallback's reported 1-σ uncertainty, metres.
    pub sigma_m: f64,
    /// The track state after the degraded fix was offered.
    pub track: Option<TrackState>,
    /// What the (variance-inflated) tracker gate did with it.
    pub disposition: FixDisposition,
}

/// What one supervised round produced.
#[derive(Debug, Clone)]
pub enum RoundOutcome {
    /// An estimate was produced (possibly gate-rejected at the track
    /// level — see [`RoundFix::disposition`]).
    Fix(Box<RoundFix>),
    /// The CSI pipeline produced nothing, but the fallback stack did: a
    /// coarse estimate with mode provenance and widened uncertainty.
    Degraded(Box<DegradedRound>),
    /// The supervisor declined the round and no fallback could estimate;
    /// the tracker coasted.
    Deferred(DeferReason),
}

impl RoundOutcome {
    /// True for [`RoundOutcome::Fix`].
    pub fn is_fix(&self) -> bool {
        matches!(self, Self::Fix(_))
    }

    /// True whenever the round produced *some* position estimate —
    /// native or degraded.
    pub fn is_estimate(&self) -> bool {
        matches!(self, Self::Fix(_) | Self::Degraded(_))
    }

    /// The round's position estimate, if it produced one.
    pub fn position(&self) -> Option<P2> {
        match self {
            Self::Fix(f) => Some(f.estimate.position),
            Self::Degraded(d) => Some(d.estimate.position),
            Self::Deferred(_) => None,
        }
    }
}

/// Watches a live hop schedule for desynchronization and repairs it in
/// closed form instead of aborting the round.
///
/// The monitor owns the local replica of the connection's
/// [`bloc_ble::hopping::HopSequence`]. Each observed packet reports its
/// (channel, event counter) pair; if the local replica disagrees, the
/// channel index is re-derived from the sequence's access-address-seeded
/// start and the *observed* event counter
/// ([`bloc_ble::hopping::HopSequence::resync`]) — the schedule is a pure
/// function of (AA, hop, counter), so one trusted counter value recovers
/// the whole schedule.
#[derive(Debug, Clone)]
pub struct HopMonitor {
    seq: bloc_ble::hopping::HopSequence,
    desyncs: u64,
}

impl HopMonitor {
    /// Wraps the local replica of a connection's hop sequence.
    pub fn new(seq: bloc_ble::hopping::HopSequence) -> Self {
        Self { seq, desyncs: 0 }
    }

    /// The channels of the next `n` connection events, advancing the
    /// local replica (the supervisor plans a sounding round from this).
    pub fn plan(&mut self, n: usize) -> Vec<bloc_ble::channels::Channel> {
        (0..n).map(|_| self.seq.next_channel()).collect()
    }

    /// Checks an observed (channel, event counter) pair against the
    /// local replica. In sync → `true`. Otherwise the replica is
    /// re-derived from the observed event counter in closed form, the
    /// desync is counted (`runtime.hop.resyncs`), and `false` is
    /// returned — the round continues on the repaired schedule either
    /// way.
    pub fn observe(&mut self, channel: bloc_ble::channels::Channel, event: u64) -> bool {
        let in_sync = self.seq.event_counter == event && self.seq.channel_at(event) == channel;
        if !in_sync {
            self.seq.resync(event);
            self.desyncs += 1;
            bloc_obs::counter("runtime.hop.resyncs").inc();
        }
        in_sync
    }

    /// Desyncs repaired so far.
    pub fn desyncs(&self) -> u64 {
        self.desyncs
    }

    /// The local hop replica.
    pub fn sequence(&self) -> &bloc_ble::hopping::HopSequence {
        &self.seq
    }
}

/// The stateful supervisor of the sound→correct→localize loop.
///
/// Owns the recovery policy across rounds: per-anchor EWMA health and
/// circuit breakers, quorum admission, deterministic retry backoff, and
/// the innovation-gated tracking pipeline. The caller supplies soundings
/// (one closure call per attempt, always for the *full* deployment); the
/// supervisor decides which anchors are admitted, whether a localize is
/// attempted, and what the track does with the result.
#[derive(Debug)]
pub struct SessionSupervisor {
    config: RuntimeConfig,
    pipeline: TrackingPipeline,
    monitors: Vec<AnchorMonitor>,
    ledger: BoundedLedger<BreakerTransition>,
    hop: Option<HopMonitor>,
    round: u64,
    /// When true, breaker transitions do NOT invalidate the shared
    /// steering/path caches: a site-level aggregator (the fleet layer)
    /// owns the one invalidation path across all tags sharing the caches.
    site_managed_caches: bool,
    /// Geometry of the last admitted subset that built steering tables,
    /// invalidated when admission changes.
    last_geometry: Option<Vec<AnchorArray>>,
    /// Sounder path cache to drop alongside the steering tables: when the
    /// admitted set changes, the deployment the synthesis engine memoized
    /// its static anchor↔master links for is no longer the one sounded.
    path_cache: Option<bloc_chan::PathCache>,
    /// Fallback estimators consulted when a round would otherwise defer
    /// (and for prior-blending on unhealthy fixes).
    fallback: Option<FallbackStack>,
    /// Estimator-mode occupancy/transition bookkeeping (attached with the
    /// fallback stack so non-degraded sessions' counters stay untouched).
    mode_tracker: Option<ModeTracker>,
}

impl SessionSupervisor {
    /// Builds a supervisor over `n_anchors` anchors (anchor 0 is the
    /// master and is never quarantined).
    pub fn new(localizer: BlocLocalizer, n_anchors: usize, config: RuntimeConfig) -> Self {
        assert!(n_anchors > 0, "a deployment needs at least the master");
        let mut pipeline = TrackingPipeline::new(localizer, config.tracker);
        if let Some(hcfg) = config.hierarchical {
            pipeline = pipeline.with_hierarchical(hcfg);
        }
        let ledger = BoundedLedger::new(config.ledger_capacity);
        Self {
            config,
            pipeline,
            monitors: vec![AnchorMonitor::new(); n_anchors],
            ledger,
            hop: None,
            round: 0,
            site_managed_caches: false,
            last_geometry: None,
            path_cache: None,
            fallback: None,
            mode_tracker: None,
        }
    }

    /// Attaches a fallback stack: rounds that would defer instead return
    /// [`RoundOutcome::Degraded`] whenever a fallback estimator can still
    /// produce a position, and unhealthy native fixes are refined with
    /// degradation-weighted priors. Also attaches a
    /// [`bloc_obs::mode::ModeTracker`] recording `runtime.mode.*`.
    pub fn with_fallback(mut self, stack: FallbackStack) -> Self {
        self.fallback = Some(stack);
        self.mode_tracker = Some(ModeTracker::new("runtime"));
        self
    }

    /// Attaches a hop monitor (see [`HopMonitor`]).
    pub fn with_hop_monitor(mut self, monitor: HopMonitor) -> Self {
        self.hop = Some(monitor);
        self
    }

    /// Attaches the sounder's [`bloc_chan::PathCache`] so breaker-driven
    /// admission changes invalidate it together with the steering-table
    /// cache (same hook as [`super::engine`]'s geometry invalidation):
    /// pass a clone of the cache handed to
    /// [`bloc_chan::Sounder::with_path_cache`] — clones share storage.
    pub fn with_path_cache(mut self, cache: bloc_chan::PathCache) -> Self {
        self.path_cache = Some(cache);
        self
    }

    /// Marks this session's engine/path caches as *site-managed*: breaker
    /// transitions still land in the ledger and on the registry, but no
    /// longer invalidate the steering or path caches. A fleet shares one
    /// cache pair across many tags, and per-tag invalidation would let
    /// one flapping tag thrash every other tag's warm tables; instead the
    /// fleet's site-health aggregator performs *one* invalidation per
    /// site-level membership change (cause `site`). Solo sessions should
    /// not call this.
    pub fn with_site_managed_caches(mut self) -> Self {
        self.site_managed_caches = true;
        self
    }

    /// The hop monitor, if attached.
    pub fn hop_monitor_mut(&mut self) -> Option<&mut HopMonitor> {
        self.hop.as_mut()
    }

    /// The supervision policy in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The tracking pipeline (localizer + gated tracker).
    pub fn pipeline(&self) -> &TrackingPipeline {
        &self.pipeline
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Current EWMA health of anchor `i`, `[0, 1]`.
    pub fn anchor_health(&self, i: usize) -> f64 {
        self.monitors[i].health
    }

    /// Current breaker state of anchor `i`.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        self.monitors[i].state
    }

    /// The breaker-transition ledger, in order: a bounded ring
    /// ([`RuntimeConfig::ledger_capacity`]) whose `total()` — resident
    /// plus evicted — reconciles exactly with the `runtime.breaker` obs
    /// events and counters emitted along the way.
    pub fn breaker_ledger(&self) -> &BoundedLedger<BreakerTransition> {
        &self.ledger
    }

    /// Fraction of slave anchors currently *not* Closed (quarantined or
    /// on probation), `[0, 1]` — the breaker half of the health signal
    /// the fusion weights are derived from. The master does not count:
    /// it is structurally required and never quarantined.
    pub fn open_frac(&self) -> f64 {
        let slaves = self.monitors.len().saturating_sub(1);
        if slaves == 0 {
            return 0.0;
        }
        let non_closed = self
            .monitors
            .iter()
            .skip(1)
            .filter(|m| m.state != BreakerState::Closed)
            .count();
        non_closed as f64 / slaves as f64
    }

    /// The estimator mode of the most recent round, when a fallback
    /// stack (and with it the mode tracker) is attached.
    pub fn current_mode(&self) -> Option<&str> {
        self.mode_tracker.as_ref().and_then(|mt| mt.current())
    }

    /// Original indices of anchors admitted to the next round: everything
    /// not quarantined (Open). Half-open anchors are admitted as probes.
    pub fn admitted(&self) -> Vec<usize> {
        self.monitors
            .iter()
            .enumerate()
            .filter(|(_, m)| m.state != BreakerState::Open)
            .map(|(i, _)| i)
            .collect()
    }

    /// Runs one supervised round. `sound` is called once per attempt
    /// (attempt index passed in) and must return a sounding of the
    /// *full* deployment; the supervisor restricts it to the admitted
    /// anchor subset, enforces quorum, retries under the backoff policy,
    /// and feeds any fix through the innovation-gated tracker. `dt` is
    /// the round period in seconds — exactly one tracker step elapses
    /// per round whether the round fixes, defers, or exhausts retries.
    pub fn run_round<F>(&mut self, dt: f64, sound: F) -> RoundOutcome
    where
        F: FnMut(usize) -> SoundingData,
    {
        self.run_round_with_deadline(dt, None, sound)
    }

    /// [`SessionSupervisor::run_round`] under a time budget: before every
    /// attempt the deadline is polled (with that attempt's backoff delay
    /// already charged), and an exceeded budget returns a typed
    /// [`DeferReason::DeadlineExceeded`] deferral immediately — the
    /// tracker coasts, the batch the round belongs to is never stalled,
    /// and no fallback estimation is attempted (a round out of budget has
    /// no budget for coarse estimation either). The caller charges any
    /// externally known cost (injected latency, queueing delay) before
    /// the call; a budget exhausted on entry skips the round's work
    /// entirely.
    pub fn run_round_with_deadline<F>(
        &mut self,
        dt: f64,
        mut deadline: Option<&mut Deadline>,
        mut sound: F,
    ) -> RoundOutcome
    where
        F: FnMut(usize) -> SoundingData,
    {
        let round = self.round;
        self.round += 1;
        bloc_obs::counter("runtime.rounds").inc();
        self.tick_cooldowns(round);

        let admitted = self.admitted();
        if admitted.len() < self.config.min_live_anchors {
            let reason = DeferReason::AnchorQuorum {
                live: admitted.len(),
                required: self.config.min_live_anchors,
            };
            return self.degraded_or_defer(dt, reason, None, round, &mut sound);
        }

        // The fallback estimators need the *full*-deployment sounding
        // (the fingerprint feature shape is fixed at survey time; a
        // quarantined anchor contributes masked holes, not a shape
        // change), so attempt 0 is kept around when a stack is attached.
        let mut fallback_sounding: Option<SoundingData> = None;
        let mut last_failure: Option<DeferReason> = None;
        for attempt in 0..self.config.retry.attempts() {
            let delay = self.config.retry.delay_us(round, attempt);
            if delay > 0 {
                bloc_obs::counter("runtime.retries").inc();
                bloc_obs::histogram("runtime.backoff_us").record(delay);
            }
            if let Some(d) = deadline.as_deref_mut() {
                d.charge(delay);
                if d.exceeded() {
                    bloc_obs::counter("runtime.rounds.timed_out").inc();
                    let reason = DeferReason::DeadlineExceeded {
                        budget_us: d.budget_us(),
                        spent_us: d.spent_us(),
                    };
                    return self.defer(dt, reason);
                }
            }
            let full = sound(attempt);
            if attempt == 0 && self.fallback.is_some() {
                fallback_sounding = Some(full.clone());
            }
            let data = if admitted.len() == full.anchors.len() {
                full
            } else {
                full.with_anchor_subset(&admitted)
            };
            if attempt == 0 {
                let survival = anchor_survival(&data);
                self.observe_round(round, &admitted, &survival);
                self.last_geometry = Some(data.anchors.clone());
            }
            let surviving = surviving_bands(&data);
            if surviving < self.config.min_surviving_bands {
                last_failure = Some(DeferReason::BandQuorum {
                    surviving,
                    required: self.config.min_surviving_bands,
                });
                continue;
            }
            match self.pipeline.localize_round(&data, dt) {
                Ok(est) => {
                    // The masking stage's verdict is a health observation
                    // too: an anchor the likelihood had to exclude
                    // entirely counts as a zero-survival round on top of
                    // whatever the raw hole fraction said.
                    let alpha = self.config.health_alpha;
                    for &pos in &est.degradation.anchors_excluded {
                        if let Some(&orig) = admitted.get(pos) {
                            let m = &mut self.monitors[orig];
                            m.health *= 1.0 - alpha;
                            let health = m.health;
                            bloc_obs::gauge(&format!("runtime.anchor_health.{orig}")).set(health);
                        }
                    }
                    let FusedFix {
                        estimate: est,
                        mode,
                        weights,
                    } = self.maybe_refine(est, &data, fallback_sounding.as_ref());
                    if let Some(mt) = &mut self.mode_tracker {
                        mt.observe(mode.name());
                    }
                    let disposition = self.pipeline.offer_fix(est.position, dt);
                    bloc_obs::counter("runtime.rounds.fixed").inc();
                    return RoundOutcome::Fix(Box::new(RoundFix {
                        round,
                        track: disposition.state(),
                        disposition,
                        estimate: est,
                        attempts: attempt + 1,
                        admitted,
                        mode,
                        weights,
                    }));
                }
                Err(e) => {
                    last_failure = Some(DeferReason::RetriesExhausted {
                        attempts: attempt + 1,
                        last: e,
                    });
                }
            }
        }
        let reason = last_failure.unwrap_or(DeferReason::RetriesExhausted {
            attempts: 0,
            last: LocalizeError::EmptySounding,
        });
        self.degraded_or_defer(dt, reason, fallback_sounding, round, &mut sound)
    }

    /// Refines a native fix with fallback priors under
    /// [`BlocLocalizer::fuse_fallback`]'s policy. A session without a
    /// stack returns the estimate untouched under pure-CSI weights.
    fn maybe_refine(
        &self,
        est: Estimate,
        data: &SoundingData,
        full: Option<&SoundingData>,
    ) -> FusedFix {
        let Some(stack) = &self.fallback else {
            return FusedFix {
                estimate: est,
                mode: EstimateMode::Csi,
                weights: FusionWeights::pure_csi(),
            };
        };
        let fix = self.pipeline.localizer().fuse_fallback(
            est,
            data,
            full.unwrap_or(data),
            stack,
            self.open_frac(),
        );
        if fix.mode == EstimateMode::CsiFused {
            bloc_obs::counter("fallback.refined_fixes").inc();
        }
        fix
    }

    /// The defer path with a fallback stack attached: try to rescue the
    /// round with a coarse estimate before conceding. Sounds once (the
    /// round's attempt 0) if quorum was denied before any sounding
    /// happened; records the observed per-anchor reception tally under
    /// `fallback.census.*` so soaks can reconcile it against the fault
    /// plan's prediction ledger.
    fn degraded_or_defer<F>(
        &mut self,
        dt: f64,
        reason: DeferReason,
        sounding: Option<SoundingData>,
        round: u64,
        sound: &mut F,
    ) -> RoundOutcome
    where
        F: FnMut(usize) -> SoundingData,
    {
        let has_stack = self.fallback.as_ref().is_some_and(|s| s.has_estimators());
        if !has_stack {
            return self.defer(dt, reason);
        }
        let data = match sounding {
            Some(d) => d,
            None => sound(0),
        };
        let census = ReceptionCensus::from_sounding(&data);
        bloc_obs::counter("fallback.census.received").add(census.total_received() as u64);
        bloc_obs::counter("fallback.census.expected")
            .add((census.expected * data.anchors.len()) as u64);
        // CSI produced nothing, so there is no surface to match: estimate
        // on the pipeline's prior grid (coarse when hierarchical — a
        // fallback-only fix has metre-class uncertainty anyway).
        let grid = self.pipeline.prior_grid();
        let fb = match self.fallback.as_ref() {
            Some(stack) => match stack.estimate(&data, grid) {
                Ok(fb) => fb,
                Err(e) => {
                    bloc_obs::counter(&format!("fallback.failed.{}", e.reason())).inc();
                    return self.defer(dt, reason);
                }
            },
            None => return self.defer(dt, reason),
        };
        let estimate = self.pipeline.localizer().estimate_from_fallback(&data, &fb);
        if let Some(mt) = &mut self.mode_tracker {
            mt.observe(fb.mode.name());
        }
        let disposition = self
            .pipeline
            .offer_degraded_fix(estimate.position, dt, fb.sigma_m);
        bloc_obs::counter("runtime.rounds.degraded").inc();
        bloc_obs::counter(&format!("runtime.degraded.{}", reason.reason())).inc();
        RoundOutcome::Degraded(Box::new(DegradedRound {
            round,
            reason,
            estimate,
            mode: fb.mode,
            weights: fb.weights,
            sigma_m: fb.sigma_m,
            track: self.pipeline.state(),
            disposition,
        }))
    }

    /// Coasts the tracker through a declined round and records why.
    fn defer(&mut self, dt: f64, reason: DeferReason) -> RoundOutcome {
        self.pipeline.coast(dt);
        bloc_obs::counter(&format!("runtime.deferred.{}", reason.reason())).inc();
        RoundOutcome::Deferred(reason)
    }

    /// Promotes open breakers whose cooldown elapsed to half-open probes.
    fn tick_cooldowns(&mut self, round: u64) {
        for i in 0..self.monitors.len() {
            let m = &self.monitors[i];
            if m.state == BreakerState::Open
                && round.saturating_sub(m.opened_at) >= self.config.cooldown_rounds
            {
                self.transition(round, i, BreakerState::HalfOpen);
                self.monitors[i].probe_streak = 0;
            }
        }
    }

    /// Feeds one round of per-anchor survival observations into the EWMA
    /// health scores and steps the breakers.
    fn observe_round(&mut self, round: u64, admitted: &[usize], survival: &[f64]) {
        let alpha = self.config.health_alpha;
        for (pos, &i) in admitted.iter().enumerate() {
            let o = survival[pos];
            let m = &mut self.monitors[i];
            m.health = (1.0 - alpha) * m.health + alpha * o;
            let health = m.health;
            bloc_obs::gauge(&format!("runtime.anchor_health.{i}")).set(health);
            match m.state {
                BreakerState::Closed => {
                    if health < self.config.open_threshold {
                        m.below_streak += 1;
                    } else {
                        m.below_streak = 0;
                    }
                    // The master (anchor 0) is structurally required by
                    // Eq. 10 and is never quarantined.
                    if i != 0 && m.below_streak >= self.config.open_after {
                        self.monitors[i].opened_at = round;
                        self.monitors[i].below_streak = 0;
                        self.transition(round, i, BreakerState::Open);
                    }
                }
                BreakerState::HalfOpen => {
                    if o >= self.config.close_threshold {
                        m.probe_streak += 1;
                        if m.probe_streak >= self.config.close_after {
                            self.monitors[i].probe_streak = 0;
                            self.transition(round, i, BreakerState::Closed);
                        }
                    } else {
                        self.monitors[i].probe_streak = 0;
                        self.monitors[i].opened_at = round;
                        self.transition(round, i, BreakerState::Open);
                    }
                }
                BreakerState::Open => {} // not admitted; unreachable here
            }
        }
    }

    /// Records one breaker transition: ledger entry, obs counter + event,
    /// and — when admission changed — steering-cache invalidation for the
    /// geometry that is no longer the admitted set.
    fn transition(&mut self, round: u64, anchor: usize, to: BreakerState) {
        let from = self.monitors[anchor].state;
        if from == to {
            return;
        }
        self.monitors[anchor].state = to;
        self.ledger.push(BreakerTransition {
            round,
            anchor,
            from,
            to,
        });
        bloc_obs::counter(&format!("runtime.breaker.{}", to.name())).inc();
        bloc_obs::emit(
            bloc_obs::Event::new("runtime.breaker", to.name())
                .field("anchor", anchor as u64)
                .field("round", round)
                .field("from", from.name())
                .field("health", self.monitors[anchor].health),
        );
        // Closed→Open, Open→HalfOpen and HalfOpen→Open all change the
        // admitted set; HalfOpen→Closed does not (probes already sound).
        // Under site-managed caches the fleet's aggregator owns the (one)
        // invalidation path instead.
        let membership_changed = !(from == BreakerState::HalfOpen && to == BreakerState::Closed);
        if membership_changed && !self.site_managed_caches {
            if let Some(geometry) = &self.last_geometry {
                self.pipeline
                    .localizer()
                    .engine()
                    .cache()
                    .invalidate_geometry_with_cause(geometry, "breaker");
            }
            if let Some(cache) = &self.path_cache {
                cache.invalidate_with_cause("breaker");
            }
        }
    }
}

/// Per-anchor link survival of one (already subset) sounding: for each
/// anchor, the fraction of its measurements — tag rows plus the
/// master→anchor response — that are present (nonzero, the exact-zero
/// hole convention shared with [`bloc_chan::faults`]) and finite.
pub fn anchor_survival(data: &SoundingData) -> Vec<f64> {
    let n = data.anchors.len();
    let mut present = vec![0usize; n];
    let mut total = vec![0usize; n];
    for band in &data.bands {
        for (i, row) in band.tag_to_anchor.iter().enumerate() {
            for v in row {
                total[i] += 1;
                if *v != ZERO && v.re.is_finite() && v.im.is_finite() {
                    present[i] += 1;
                }
            }
        }
        for (i, v) in band.master_to_anchor.iter().enumerate() {
            total[i] += 1;
            if *v != ZERO && v.re.is_finite() && v.im.is_finite() {
                present[i] += 1;
            }
        }
    }
    present
        .iter()
        .zip(&total)
        .map(|(&p, &t)| if t == 0 { 0.0 } else { p as f64 / t as f64 })
        .collect()
}

/// Bands of one sounding whose master tag measurement `ĥ00` survived —
/// the masking stage's primary drop criterion (Eq. 10 is undefined on a
/// band without it), counted before paying for a localize.
pub fn surviving_bands(data: &SoundingData) -> usize {
    data.bands
        .iter()
        .filter(|b| {
            !b.tag_to_anchor.is_empty()
                && !b.tag_to_anchor[0].is_empty()
                && b.tag_to_master0() != ZERO
                && b.tag_to_master0().re.is_finite()
                && b.tag_to_master0().im.is_finite()
        })
        .count()
}
