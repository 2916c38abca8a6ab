//! Per-site shared state: one steering cache, one path cache, one
//! fallback survey and one health aggregate, multiplexed across every
//! tag the site serves.
//!
//! The fleet's cache discipline lives here. Tag sessions run with
//! [`crate::runtime::SessionSupervisor::with_site_managed_caches`], so a
//! single flapping tag's breaker cannot thrash the warm steering tables
//! every other tag at the site is using. Instead the site aggregates
//! breaker verdicts *across* tags each batch, and performs exactly one
//! invalidation pass per membership change.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

use bloc_chan::{AnchorArray, PathCache};

use crate::engine::LikelihoodEngine;
use crate::fallback::FallbackStack;
use crate::localizer::BlocConfig;

use super::tag::TagSlot;

/// Fleet-wide site identity (dense, assigned at [`super::FleetSupervisor::add_site`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// Everything a site brings to the fleet: the localization config, the
/// anchor deployment, the degraded-mode estimators and the shared
/// synthesis path cache.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// The site's localization configuration (grid, combining, …).
    pub bloc: BlocConfig,
    /// The site's anchor deployment. Anchor 0 is the master.
    pub anchors: Vec<AnchorArray>,
    /// Degraded-mode estimators surveyed for this site; cloned into each
    /// tag slot so shed rounds can estimate without touching shared
    /// state.
    pub fallback: FallbackStack,
    /// The site's shared channel-synthesis path cache (clones share
    /// storage).
    pub path_cache: PathCache,
}

/// One site-level anchor membership change, ledgered so outage handling
/// reconciles against the `fleet.site.*` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteTransition {
    /// Fleet round at which the verdict changed.
    pub round: u64,
    /// The site.
    pub site: SiteId,
    /// The anchor whose site-level verdict changed.
    pub anchor: usize,
    /// `true` = declared down (outage), `false` = recovered.
    pub down: bool,
    /// Fraction of active tags whose breaker was open on this anchor
    /// when the verdict changed.
    pub open_frac: f64,
}

/// The fleet's per-site serving state.
pub(crate) struct SiteState {
    pub(crate) id: SiteId,
    pub(crate) spec: SiteSpec,
    /// One engine per site; tag sessions clone it, sharing the steering
    /// cache (clones share storage).
    pub(crate) engine: LikelihoodEngine,
    /// Tags in registration order — the admission order.
    pub(crate) tags: Vec<TagSlot>,
    /// Admission capacity: supervised rounds admitted per batch.
    pub(crate) capacity: usize,
    /// Site-level verdict per anchor: `true` while the anchor is
    /// declared down across the fleet's tags.
    pub(crate) anchor_down: Vec<bool>,
}

impl SiteState {
    /// Anchors currently *not* declared down at site level, as a
    /// geometry (the steering-cache key segment a membership change must
    /// retire).
    pub(crate) fn healthy_geometry(&self) -> Vec<AnchorArray> {
        self.spec
            .anchors
            .iter()
            .zip(self.anchor_down.iter())
            .filter(|(_, &down)| !down)
            .map(|(a, _)| *a)
            .collect()
    }
}
