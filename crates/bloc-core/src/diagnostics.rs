//! Sounding-quality diagnostics: validate a measurement set before
//! spending compute on it.
//!
//! A production localizer ingests soundings from live radios; malformed or
//! degraded captures (lost packets, saturated frontends, one dead antenna)
//! should be caught *before* the likelihood grid is computed. This module
//! checks structural validity and measures quality indicators, returning a
//! report the caller can gate on.
//!
//! The report is not just a verdict: it carries a [`RepairPlan`] that maps
//! each repairable issue to the concrete masking action that neutralizes
//! it — zero out a poisoned measurement (the exact-zero hole convention
//! that [`crate::correction::correct`] masks on) or drop a malformed band.
//! [`RepairPlan::apply`] turns an unusable capture into one the
//! degradation-aware pipeline can localize from, instead of discarding the
//! whole sounding because one NaN slipped through a frontend.

use bloc_chan::sounder::SoundingData;
use bloc_num::constants::BLE_TOTAL_SPAN_HZ;
use bloc_obs::{Event, Registry};

/// One problem found in a sounding.
#[derive(Debug, Clone, PartialEq)]
pub enum SoundingIssue {
    /// No bands at all.
    Empty,
    /// A band whose measurement matrix does not match the anchor list.
    ShapeMismatch {
        /// Index of the offending band.
        band: usize,
    },
    /// Non-finite (NaN/∞) channel values.
    NonFinite {
        /// Index of the offending band.
        band: usize,
    },
    /// A measurement that is exactly zero (a lost packet leaves a hole).
    DeadMeasurement {
        /// Band index.
        band: usize,
        /// Anchor index.
        anchor: usize,
        /// Antenna index.
        antenna: usize,
    },
    /// The sounded bands span too little bandwidth for useful relative-
    /// distance resolution.
    NarrowSpan {
        /// Spanned bandwidth, Hz.
        span_hz: f64,
    },
    /// Fewer than two anchors (localization is impossible).
    TooFewAnchors {
        /// Anchors present.
        count: usize,
    },
    /// Duplicate sounding of the same channel (a hop-tracking bug
    /// upstream). The gate only warns; localizing the sounding unrepaired
    /// fails with [`crate::LocalizeError::InvalidBandFrequency`].
    DuplicateBand {
        /// The duplicated frequency index.
        freq_index: usize,
    },
}

impl SoundingIssue {
    /// The `bloc-obs` counter this issue increments, one per variant
    /// (`sounding.issue.<snake_case_variant>`).
    pub fn counter_name(&self) -> &'static str {
        match self {
            Self::Empty => "sounding.issue.empty",
            Self::ShapeMismatch { .. } => "sounding.issue.shape_mismatch",
            Self::NonFinite { .. } => "sounding.issue.non_finite",
            Self::DeadMeasurement { .. } => "sounding.issue.dead_measurement",
            Self::NarrowSpan { .. } => "sounding.issue.narrow_span",
            Self::TooFewAnchors { .. } => "sounding.issue.too_few_anchors",
            Self::DuplicateBand { .. } => "sounding.issue.duplicate_band",
        }
    }

    /// The issue as a structured `sounding.rejected` event carrying the
    /// variant's payload as fields.
    pub fn to_event(&self) -> Event {
        let name = &self.counter_name()["sounding.issue.".len()..];
        let event = Event::new("sounding.rejected", name);
        match *self {
            Self::Empty => event,
            Self::ShapeMismatch { band } | Self::NonFinite { band } => event.field("band", band),
            Self::DeadMeasurement {
                band,
                anchor,
                antenna,
            } => event
                .field("band", band)
                .field("anchor", anchor)
                .field("antenna", antenna),
            Self::NarrowSpan { span_hz } => event.field("span_hz", span_hz),
            Self::TooFewAnchors { count } => event.field("count", count),
            Self::DuplicateBand { freq_index } => event.field("freq_index", freq_index),
        }
    }
}

/// One concrete repair the gate prescribes for a damaged sounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairAction {
    /// Zero one tag→anchor measurement (and its guard tones), turning a
    /// poisoned value into the hole convention the correction stage masks.
    MaskMeasurement {
        /// Band index.
        band: usize,
        /// Anchor index.
        anchor: usize,
        /// Antenna index.
        antenna: usize,
    },
    /// Zero one master→anchor measurement.
    MaskMasterLink {
        /// Band index.
        band: usize,
        /// Anchor index.
        anchor: usize,
    },
    /// Remove a band whose shape no masking can salvage.
    DropBand {
        /// Band index (into the *original* sounding).
        band: usize,
    },
}

/// The masking/drop schedule that neutralizes a sounding's repairable
/// issues. Produced by [`inspect`] alongside the verdict; consumed by
/// [`RepairPlan::apply`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairPlan {
    /// Actions in scan order.
    pub actions: Vec<RepairAction>,
}

impl RepairPlan {
    /// True when nothing needs repair.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Applies the plan to a sounding, returning the repaired copy:
    /// poisoned measurements become exact-zero holes (which
    /// [`crate::correction::correct`] masks and reports) and unsalvageable
    /// bands are removed. Idempotent.
    pub fn apply(&self, data: &SoundingData) -> SoundingData {
        let mut repaired = data.clone();
        let mut dropped: Vec<usize> = Vec::new();
        for action in &self.actions {
            match *action {
                RepairAction::MaskMeasurement {
                    band,
                    anchor,
                    antenna,
                } => {
                    if let Some(h) = repaired
                        .bands
                        .get_mut(band)
                        .and_then(|b| b.tag_to_anchor.get_mut(anchor))
                        .and_then(|r| r.get_mut(antenna))
                    {
                        *h = bloc_num::complex::ZERO;
                    }
                    if let Some(t) = repaired
                        .bands
                        .get_mut(band)
                        .and_then(|b| b.tag_to_anchor_tones.get_mut(anchor))
                        .and_then(|r| r.get_mut(antenna))
                    {
                        *t = [bloc_num::complex::ZERO; 2];
                    }
                }
                RepairAction::MaskMasterLink { band, anchor } => {
                    if let Some(h) = repaired
                        .bands
                        .get_mut(band)
                        .and_then(|b| b.master_to_anchor.get_mut(anchor))
                    {
                        *h = bloc_num::complex::ZERO;
                    }
                }
                RepairAction::DropBand { band } => dropped.push(band),
            }
        }
        dropped.sort_unstable();
        dropped.dedup();
        for &band in dropped.iter().rev() {
            if band < repaired.bands.len() {
                repaired.bands.remove(band);
            }
        }
        repaired
    }
}

/// The diagnostic report for one sounding.
#[derive(Debug, Clone, PartialEq)]
pub struct SoundingReport {
    /// Problems found, roughly ordered by severity.
    pub issues: Vec<SoundingIssue>,
    /// The masking/drop schedule that neutralizes the repairable issues.
    pub repair: RepairPlan,
    /// Number of bands present.
    pub bands: usize,
    /// Frequency span covered, Hz.
    pub span_hz: f64,
    /// Mean |ĥ| over all tag links (a coarse received-level indicator).
    pub mean_amplitude: f64,
}

impl SoundingReport {
    /// True when the sounding is structurally usable (quality warnings such
    /// as [`SoundingIssue::DuplicateBand`] do not make it unusable).
    pub fn is_usable(&self) -> bool {
        !self.issues.iter().any(|i| {
            matches!(
                i,
                SoundingIssue::Empty
                    | SoundingIssue::ShapeMismatch { .. }
                    | SoundingIssue::NonFinite { .. }
                    | SoundingIssue::TooFewAnchors { .. }
            )
        })
    }

    /// True when applying [`SoundingReport::repair`] yields a usable
    /// sounding: every fatal issue is one the plan can neutralize.
    /// `Empty` and `TooFewAnchors` are beyond repair — no masking invents
    /// missing hardware.
    pub fn is_repairable(&self) -> bool {
        !self.issues.iter().any(|i| {
            matches!(
                i,
                SoundingIssue::Empty | SoundingIssue::TooFewAnchors { .. }
            )
        })
    }
}

/// Inspects a sounding and reports every problem found, recording into
/// the global [`Registry`]: each issue increments its per-variant counter
/// (see [`SoundingIssue::counter_name`]) and is emitted as a
/// `sounding.rejected` event.
pub fn inspect(data: &SoundingData) -> SoundingReport {
    inspect_with(data, Registry::global())
}

/// [`inspect`] recording into an explicit registry (tests, per-tenant
/// partitions).
pub fn inspect_with(data: &SoundingData, registry: &Registry) -> SoundingReport {
    let _span = registry.span("inspect");
    let report = scan(data);
    registry.counter("sounding.inspected").inc();
    if !report.is_usable() {
        registry.counter("sounding.unusable").inc();
    }
    for issue in &report.issues {
        registry.counter(issue.counter_name()).inc();
        registry.emit(issue.to_event());
    }
    report
}

/// The pure scan behind [`inspect`]: finds issues (and their repairs)
/// without recording them.
fn scan(data: &SoundingData) -> SoundingReport {
    let mut issues = Vec::new();
    let mut repair = RepairPlan::default();

    if data.anchors.len() < 2 {
        issues.push(SoundingIssue::TooFewAnchors {
            count: data.anchors.len(),
        });
    }
    if data.bands.is_empty() {
        issues.push(SoundingIssue::Empty);
        return SoundingReport {
            issues,
            repair,
            bands: 0,
            span_hz: 0.0,
            mean_amplitude: f64::NAN,
        };
    }

    let mut seen_freq = std::collections::HashSet::new();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut amp_sum = 0.0;
    let mut amp_n = 0usize;

    for (b, band) in data.bands.iter().enumerate() {
        lo = lo.min(band.freq_hz);
        hi = hi.max(band.freq_hz);
        if !seen_freq.insert(band.channel.freq_index()) {
            issues.push(SoundingIssue::DuplicateBand {
                freq_index: band.channel.freq_index(),
            });
        }
        if band.tag_to_anchor.len() != data.anchors.len()
            || band.master_to_anchor.len() != data.anchors.len()
            || band
                .tag_to_anchor
                .iter()
                .zip(&data.anchors)
                .any(|(row, a)| row.len() != a.n_antennas)
        {
            issues.push(SoundingIssue::ShapeMismatch { band: b });
            repair.actions.push(RepairAction::DropBand { band: b });
            continue;
        }
        let mut nonfinite = false;
        for (i, row) in band.tag_to_anchor.iter().enumerate() {
            for (j, h) in row.iter().enumerate() {
                if !h.is_finite() {
                    nonfinite = true;
                    repair.actions.push(RepairAction::MaskMeasurement {
                        band: b,
                        anchor: i,
                        antenna: j,
                    });
                } else if h.norm_sq() == 0.0 {
                    // A hole, not damage: the correction stage masks it
                    // and reports it in the estimate's DegradationReport,
                    // so it needs no repair action here.
                    issues.push(SoundingIssue::DeadMeasurement {
                        band: b,
                        anchor: i,
                        antenna: j,
                    });
                } else {
                    amp_sum += h.abs();
                    amp_n += 1;
                }
            }
        }
        for (i, h) in band.master_to_anchor.iter().enumerate() {
            if !h.is_finite() {
                nonfinite = true;
                repair
                    .actions
                    .push(RepairAction::MaskMasterLink { band: b, anchor: i });
            }
        }
        if nonfinite {
            issues.push(SoundingIssue::NonFinite { band: b });
        }
    }

    let span_hz = if hi > lo { hi - lo } else { 0.0 };
    // Less than a quarter of the BLE span forfeits most delay resolution.
    if span_hz < BLE_TOTAL_SPAN_HZ / 4.0 && data.bands.len() > 1 {
        issues.push(SoundingIssue::NarrowSpan { span_hz });
    }

    SoundingReport {
        issues,
        repair,
        bands: data.bands.len(),
        span_hz,
        mean_amplitude: if amp_n > 0 {
            amp_sum / amp_n as f64
        } else {
            f64::NAN
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloc_chan::geometry::Room;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::Environment;
    use bloc_num::P2;
    use rand::{rngs::StdRng, SeedableRng};

    fn healthy() -> SoundingData {
        let room = Room::new(5.0, 6.0);
        let env = Environment::free_space();
        let anchors: Vec<bloc_chan::AnchorArray> = room
            .wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| bloc_chan::AnchorArray::centered(i, m, w.direction(), 4))
            .collect();
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        sounder.sound(P2::new(2.0, 3.0), &all_data_channels(), &mut rng)
    }

    #[test]
    fn healthy_sounding_is_usable() {
        let report = inspect(&healthy());
        assert!(report.is_usable(), "{:?}", report.issues);
        assert_eq!(report.bands, 37);
        assert!(report.span_hz > 70e6);
        assert!(report.mean_amplitude.is_finite());
        assert!(report.issues.is_empty());
    }

    #[test]
    fn empty_sounding_flagged() {
        let mut d = healthy();
        d.bands.clear();
        let report = inspect(&d);
        assert!(!report.is_usable());
        assert!(report.issues.contains(&SoundingIssue::Empty));
    }

    #[test]
    fn nan_measurement_flagged() {
        let mut d = healthy();
        d.bands[3].tag_to_anchor[1][2] = bloc_num::C64::new(f64::NAN, 0.0);
        let report = inspect(&d);
        assert!(!report.is_usable());
        assert!(matches!(
            report.issues[0],
            SoundingIssue::NonFinite { band: 3 }
        ));
    }

    #[test]
    fn dead_measurement_is_warning_not_fatal() {
        let mut d = healthy();
        d.bands[5].tag_to_anchor[0][1] = bloc_num::complex::ZERO;
        let report = inspect(&d);
        assert!(report.is_usable(), "one hole should not kill the sounding");
        assert!(report.issues.contains(&SoundingIssue::DeadMeasurement {
            band: 5,
            anchor: 0,
            antenna: 1
        }));
    }

    #[test]
    fn shape_mismatch_flagged() {
        let mut d = healthy();
        d.bands[0].tag_to_anchor[2].pop();
        let report = inspect(&d);
        assert!(!report.is_usable());
        assert!(report
            .issues
            .contains(&SoundingIssue::ShapeMismatch { band: 0 }));
    }

    #[test]
    fn narrow_span_warned() {
        let d = healthy().with_bands_where(|b| b.channel.freq_index() < 5);
        let report = inspect(&d);
        assert!(report.is_usable(), "narrow span is a warning");
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, SoundingIssue::NarrowSpan { .. })));
    }

    #[test]
    fn duplicate_band_warned() {
        let mut d = healthy();
        let dup = d.bands[0].clone();
        d.bands.push(dup);
        let report = inspect(&d);
        assert!(report.is_usable());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, SoundingIssue::DuplicateBand { .. })));
    }

    /// Runs `inspect_with` on a fresh registry and asserts that exactly
    /// the expected per-variant counters were incremented, each exactly
    /// once, and that each counted issue was also emitted as an event.
    fn assert_counted_once(data: &SoundingData, expected: &[&str]) {
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Collect(Arc<Mutex<Vec<bloc_obs::Event>>>);
        impl bloc_obs::Sink for Collect {
            fn record(&self, event: &bloc_obs::Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        let registry = bloc_obs::Registry::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        registry.add_sink(Box::new(Collect(Arc::clone(&seen))));
        let report = inspect_with(data, &registry);
        let snap = registry.snapshot();

        for name in expected {
            assert_eq!(
                snap.counters.get(*name).copied().unwrap_or(0),
                1,
                "{name} must be counted exactly once; report: {:?}",
                report.issues
            );
        }
        // No *other* issue counter moved.
        let stray: Vec<_> = snap
            .counters
            .iter()
            .filter(|(n, &v)| n.starts_with("sounding.issue.") && v > 0)
            .filter(|(n, _)| !expected.contains(&n.as_str()))
            .collect();
        assert!(stray.is_empty(), "unexpected issue counters: {stray:?}");
        // Every counted issue reached the sink as a structured event.
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), report.issues.len());
        for (event, issue) in events.iter().zip(&report.issues) {
            assert_eq!(event.kind, "sounding.rejected");
            assert_eq!(
                format!("sounding.issue.{}", event.name),
                issue.counter_name(),
                "event name must match the issue variant"
            );
        }
    }

    #[test]
    fn empty_counted_once() {
        let mut d = healthy();
        d.bands.clear();
        assert_counted_once(&d, &["sounding.issue.empty"]);
    }

    #[test]
    fn shape_mismatch_counted_once() {
        let mut d = healthy();
        d.bands[0].tag_to_anchor[2].pop();
        assert_counted_once(&d, &["sounding.issue.shape_mismatch"]);
    }

    #[test]
    fn non_finite_counted_once() {
        let mut d = healthy();
        d.bands[3].tag_to_anchor[1][2] = bloc_num::C64::new(f64::NAN, 0.0);
        assert_counted_once(&d, &["sounding.issue.non_finite"]);
    }

    #[test]
    fn dead_measurement_counted_once() {
        let mut d = healthy();
        d.bands[5].tag_to_anchor[0][1] = bloc_num::complex::ZERO;
        assert_counted_once(&d, &["sounding.issue.dead_measurement"]);
    }

    #[test]
    fn narrow_span_counted_once() {
        let d = healthy().with_bands_where(|b| b.channel.freq_index() < 5);
        assert_counted_once(&d, &["sounding.issue.narrow_span"]);
    }

    #[test]
    fn too_few_anchors_counted_once() {
        let d = healthy();
        let solo = SoundingData {
            bands: d
                .bands
                .iter()
                .map(|b| bloc_chan::sounder::BandSounding {
                    channel: b.channel,
                    freq_hz: b.freq_hz,
                    tag_to_anchor: vec![b.tag_to_anchor[0].clone()],
                    tag_to_anchor_tones: vec![b.tag_to_anchor_tones[0].clone()],
                    master_to_anchor: vec![b.master_to_anchor[0]],
                })
                .collect(),
            anchors: vec![d.anchors[0]],
        };
        assert_counted_once(&solo, &["sounding.issue.too_few_anchors"]);
    }

    #[test]
    fn duplicate_band_counted_once() {
        let mut d = healthy();
        let dup = d.bands[0].clone();
        d.bands.push(dup);
        assert_counted_once(&d, &["sounding.issue.duplicate_band"]);
    }

    #[test]
    fn healthy_sounding_counts_nothing() {
        let registry = bloc_obs::Registry::new();
        let report = inspect_with(&healthy(), &registry);
        assert!(report.is_usable());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sounding.inspected"], 1);
        assert!(snap
            .counters
            .keys()
            .all(|n| !n.starts_with("sounding.issue.")));
        assert!(!snap.counters.contains_key("sounding.unusable"));
    }

    #[test]
    fn unusable_gate_counter_tracks_severity() {
        let registry = bloc_obs::Registry::new();
        let mut fatal = healthy();
        fatal.bands.clear();
        inspect_with(&fatal, &registry);
        // Warnings alone must not trip the unusable gate.
        let mut warned = healthy();
        warned.bands[5].tag_to_anchor[0][1] = bloc_num::complex::ZERO;
        inspect_with(&warned, &registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sounding.inspected"], 2);
        assert_eq!(snap.counters["sounding.unusable"], 1);
    }

    #[test]
    fn healthy_sounding_needs_no_repair() {
        let report = inspect(&healthy());
        assert!(report.repair.is_empty());
        assert!(report.is_repairable());
    }

    #[test]
    fn nan_sounding_is_repairable_and_repair_restores_usability() {
        let mut d = healthy();
        d.bands[3].tag_to_anchor[1][2] = bloc_num::C64::new(f64::NAN, 0.0);
        d.bands[8].master_to_anchor[2] = bloc_num::C64::new(0.0, f64::INFINITY);
        let report = inspect(&d);
        assert!(!report.is_usable());
        assert!(report.is_repairable());
        assert!(report
            .repair
            .actions
            .contains(&RepairAction::MaskMeasurement {
                band: 3,
                anchor: 1,
                antenna: 2
            }));
        assert!(report
            .repair
            .actions
            .contains(&RepairAction::MaskMasterLink { band: 8, anchor: 2 }));

        let repaired = report.repair.apply(&d);
        let after = inspect(&repaired);
        assert!(after.is_usable(), "{:?}", after.issues);
        // The poison became holes the correction stage masks and reports.
        let corrected = crate::correction::correct(&repaired, true).unwrap();
        assert_eq!(corrected.masking.nonfinite_masked, 0);
        assert_eq!(corrected.masking.holes_masked, 2);
    }

    #[test]
    fn shape_mismatch_repair_drops_the_band() {
        let mut d = healthy();
        d.bands[0].tag_to_anchor[2].pop();
        let report = inspect(&d);
        assert!(report.is_repairable());
        assert_eq!(
            report.repair.actions,
            vec![RepairAction::DropBand { band: 0 }]
        );
        let repaired = report.repair.apply(&d);
        assert_eq!(repaired.bands.len(), d.bands.len() - 1);
        assert!(inspect(&repaired).is_usable());
    }

    #[test]
    fn repair_masking_is_idempotent() {
        // Masking actions may be applied any number of times (a zero stays
        // a zero). DropBand indices refer to the original sounding, so a
        // plan should be applied to the sounding it was scanned from.
        let mut d = healthy();
        d.bands[3].tag_to_anchor[1][2] = bloc_num::C64::new(f64::NAN, 0.0);
        d.bands[8].master_to_anchor[2] = bloc_num::C64::new(0.0, f64::INFINITY);
        let report = inspect(&d);
        let once = report.repair.apply(&d);
        let twice = report.repair.apply(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_and_missing_hardware_are_beyond_repair() {
        let mut empty = healthy();
        empty.bands.clear();
        assert!(!inspect(&empty).is_repairable());

        let d = healthy();
        let solo = SoundingData {
            bands: d.bands.clone(),
            anchors: vec![d.anchors[0]],
        };
        assert!(!inspect(&solo).is_repairable());
    }

    #[test]
    fn single_anchor_flagged() {
        let d = healthy();
        // Keep only the master: structurally present, but localization is
        // impossible.
        let solo = SoundingData {
            bands: d
                .bands
                .iter()
                .map(|b| bloc_chan::sounder::BandSounding {
                    channel: b.channel,
                    freq_hz: b.freq_hz,
                    tag_to_anchor: vec![b.tag_to_anchor[0].clone()],
                    tag_to_anchor_tones: vec![b.tag_to_anchor_tones[0].clone()],
                    master_to_anchor: vec![b.master_to_anchor[0]],
                })
                .collect(),
            anchors: vec![d.anchors[0]],
        };
        let report = inspect(&solo);
        assert!(!report.is_usable());
        assert!(report
            .issues
            .contains(&SoundingIssue::TooFewAnchors { count: 1 }));
    }
}
