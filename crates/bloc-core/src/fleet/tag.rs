//! Per-tag serving state: identity, bulkhead, health, and the typed
//! outcome vocabulary of a fleet round.
//!
//! Every tag in a fleet batch produces exactly one [`TagRoundOutcome`] —
//! a supervised round result, a typed shed, a quarantine skip, or a
//! caught panic. Nothing is ever silently dropped: the fleet's
//! conservation gate (`fleet_soak`) counts these against tags × rounds.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

use bloc_chan::sounder::SoundingData;
use bloc_num::{GridSpec, P2};

use crate::error::DeferReason;
use crate::fallback::{FallbackEstimate, FallbackStack};
use crate::runtime::{BreakerState, RoundOutcome, SessionSupervisor};

/// Fleet-wide tag identity (assigned at registration, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub u64);

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// Why the fleet declined to run a tag's supervised round this batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// The tag's site had more runnable tags than its admission capacity;
    /// admission is oldest-first, so the newest registrations shed first.
    SiteOverCapacity {
        /// Runnable tags contending at the site this round.
        queued: usize,
        /// The site's admission capacity in force.
        capacity: usize,
    },
}

impl ShedReason {
    /// A short machine-readable reason (the `fleet.shed.<reason>` counter
    /// suffix).
    pub fn reason(&self) -> &'static str {
        match self {
            Self::SiteOverCapacity { .. } => "site_over_capacity",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SiteOverCapacity { queued, capacity } => write!(
                f,
                "site over capacity: {queued} runnable tags, {capacity} admitted"
            ),
        }
    }
}

/// A shed round: the typed reason plus the degraded-mode estimate the
/// fleet produced *instead of* the full CSI round. Load shedding
/// degrades service; it does not drop it — a shed without an estimate
/// means the tag has never sounded (nothing to fall back on).
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRound {
    /// Why the round was shed.
    pub reason: ShedReason,
    /// The fallback estimate from the tag's most recent retained
    /// sounding, when one exists and an estimator is attached.
    pub estimate: Option<FallbackEstimate>,
}

/// What one fleet batch produced for one tag — the typed, conserved unit
/// the soak gates count.
#[derive(Debug, Clone)]
pub enum TagRoundOutcome {
    /// The tag ran a full supervised round (possibly under a deadline).
    Round(RoundOutcome),
    /// The round was shed by admission control before any work ran.
    Shed(ShedRound),
    /// The tag is quarantined by its bulkhead; no work ran this round.
    Quarantined {
        /// First round at which the bulkhead will probe the tag again.
        until_round: u64,
    },
    /// The tag's round panicked; the panic was caught at the bulkhead
    /// and the batch continued.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl TagRoundOutcome {
    /// The outcome class (the `fleet.outcomes.<kind>` counter suffix):
    /// `fix`, `degraded`, `timed_out`, `deferred`, `shed`, `quarantined`
    /// or `panicked`.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Round(RoundOutcome::Fix(_)) => "fix",
            Self::Round(RoundOutcome::Degraded(_)) => "degraded",
            Self::Round(RoundOutcome::Deferred(DeferReason::DeadlineExceeded { .. })) => {
                "timed_out"
            }
            Self::Round(RoundOutcome::Deferred(_)) => "deferred",
            Self::Shed(_) => "shed",
            Self::Quarantined { .. } => "quarantined",
            Self::Panicked { .. } => "panicked",
        }
    }

    /// The position this outcome carries, if any: a supervised fix or
    /// degraded estimate, or a shed round's fallback estimate.
    pub fn position(&self) -> Option<P2> {
        match self {
            Self::Round(out) => out.position(),
            Self::Shed(shed) => shed.estimate.as_ref().map(|e| e.position),
            Self::Quarantined { .. } | Self::Panicked { .. } => None,
        }
    }

    /// True when the outcome carries *some* position estimate.
    pub fn has_estimate(&self) -> bool {
        self.position().is_some()
    }
}

/// One bulkhead transition, ledgered so quarantine behaviour reconciles
/// against the `fleet.bulkhead.*` counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagTransition {
    /// Fleet round at which the bulkhead moved.
    pub round: u64,
    /// The site the tag serves under.
    pub site: super::SiteId,
    /// The tag whose bulkhead moved.
    pub tag: TagId,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Why: `panic`, `failures`, `probe`, `probe_failed`.
    pub cause: &'static str,
}

/// Everything the fleet holds per tag. Crate-private: the fleet
/// supervisor owns the lifecycle; accessors on
/// [`super::FleetSupervisor`] expose the read side.
pub(crate) struct TagSlot {
    pub(crate) id: TagId,
    /// The tag's own supervised session, sharing the site's steering
    /// cache through its engine clone, with cache invalidation
    /// site-managed.
    pub(crate) sup: SessionSupervisor,
    /// Site fallback stack clone, for shed-round estimates.
    pub(crate) fallback: FallbackStack,
    /// The site's likelihood grid (fallback estimates are fused on it).
    pub(crate) grid: GridSpec,
    /// Most recent attempt-0 sounding, retained so a shed round can
    /// still produce a degraded estimate without sounding.
    pub(crate) last_sounding: Option<SoundingData>,
    /// The tag's bulkhead: `Closed` serves, `Open` is quarantined,
    /// `HalfOpen` runs a probe round.
    pub(crate) bulkhead: BreakerState,
    /// Fleet round at which the bulkhead last opened.
    pub(crate) opened_at: u64,
    /// Consecutive estimate-less supervised rounds.
    pub(crate) failure_streak: usize,
    /// Panics caught at this tag's bulkhead.
    pub(crate) panics: u64,
    /// EWMA service health in `[0, 1]` (fix = 1, degraded = ½,
    /// deferred / timed out / panicked = 0).
    pub(crate) health: f64,
    /// The tag's trace lane name (`fleet.s<site>.t<tag>`).
    pub(crate) lane: String,
}

impl TagSlot {
    /// Folds one observed service signal into the health EWMA.
    pub(crate) fn observe_health(&mut self, alpha: f64, signal: f64) {
        self.health += alpha * (signal - self.health);
    }
}
