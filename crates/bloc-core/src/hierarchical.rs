//! Hierarchical coarse-to-fine localization — the large-venue solver.
//!
//! The dense pipeline ([`crate::localizer::BlocLocalizer`]) evaluates
//! Eq. 17 on every cell of the 8 cm grid. In the paper's 5 m × 6 m room
//! that is ~6.6 k cells; in a warehouse corridor it is tens of thousands,
//! and the sweep — not correction or scoring — dominates the fix latency.
//! The likelihood surface itself does not need that treatment: away from
//! its lobes it is a diffuse correlation pedestal, and the lobes are
//! ~0.5 m wide (the same physical scale that sizes the Eq. 18 entropy
//! window). A coarse sweep finds the lobes; only the lobes need native
//! resolution.
//!
//! [`HierarchicalLocalizer`] therefore runs the *same* SIMD kernel in two
//! passes:
//!
//! 1. **Coarse** — per-anchor likelihoods on the grid coarsened by
//!    [`HierarchicalConfig::coarse_factor`] (48 cm at the default 8 cm
//!    fine grid), assembled into the weighted joint under exactly the
//!    dense-pipeline contract. Non-maximum suppression over this surface
//!    picks up to [`HierarchicalConfig::max_candidates`] candidate lobes.
//!    No fallback prior enters candidate selection: a supervised session
//!    refines a degraded hierarchical fix on the estimate's own surface
//!    (this coarse selection surface — the whole grid, or the seed
//!    window on seeded rounds) under the same fusion policy as
//!    [`crate::localizer::BlocLocalizer::localize_with_fallback`].
//! 2. **Fine** — an index-aligned patch of the native grid around each
//!    candidate, sized so a true peak's dominance neighborhood *and*
//!    entropy window fit inside, and evaluated as a window into the fine
//!    grid's own cached steering tables (no per-patch tables). Patch
//!    joints are normalized by the per-anchor **coarse** maxima (the
//!    dense normalizer is unknowable without a dense sweep; the coarse
//!    maximum is its lobe-scale estimate, and using one shared constant
//!    per anchor keeps every patch on a single comparable scale). The
//!    §5.4 multipath score (Eq. 18) runs only here, at the finest level,
//!    against venue-global statistics — candidates from different patches
//!    rank exactly as one dense profile would rank them.
//!
//! Chosen positions are snapped to parent-grid cell centres, so when the
//! hierarchical and dense solvers agree on the winning cell the reported
//! positions are **bit-identical**. When refinement loses every candidate
//! (pathological surfaces), the solver escapes to the full dense sweep
//! rather than degrade accuracy — see [`EscapeReason`]. Dense escapes
//! run the dense pipeline's own fix assembly.
//!
//! [`HierarchicalLocalizer::localize_seeded`] is the tracking round: the
//! same coarse→fine search with the coarse level restricted to a window
//! around the tracker's prediction (the full flow is its whole-grid
//! window), with typed escapes back to the whole grid whenever the window
//! cannot be trusted (coarse peak on the window border, or no candidate
//! or scored peak).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashSet;

use bloc_chan::sounder::SoundingData;
use bloc_num::peaks::{find_peaks, Peak, PeakOptions};
use bloc_num::{Grid2D, GridPatch, GridSpec, P2};

use crate::correction::CorrectedChannels;
use crate::error::LocalizeError;
use crate::likelihood::anchor_weights;
use crate::localizer::{BlocLocalizer, Estimate};
use crate::multipath::{record_scored, score_candidates, ScoredPeak};

/// Configuration of the coarse-to-fine hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalConfig {
    /// Coarsening factor of the candidate-selection grid (6 → 48 cm cells
    /// over the default 8 cm fine grid, matching the ~0.5 m lobe scale).
    pub coarse_factor: usize,
    /// Maximum number of coarse candidate lobes refined at fine
    /// resolution.
    pub max_candidates: usize,
    /// `min_rel_height` of the coarse candidate NMS: lobes below this
    /// fraction of the coarse maximum are not worth a fine patch. Kept
    /// lower than the dense pipeline's 0.35 because coarse sampling can
    /// understate an off-cell-centre lobe.
    pub coarse_min_rel_height: f64,
    /// Dominance radius (coarse cells) of the candidate NMS. 1 coarse
    /// cell ≈ the fine dominance neighborhood at the default factors.
    pub coarse_dominance_radius: usize,
    /// Below this many fine cells the hierarchy cannot win: localize
    /// densely (recorded as [`EscapeReason::SmallGrid`]).
    pub small_grid_cells: usize,
    /// Resident-byte budget installed on the engine's steering cache.
    /// The hierarchy caches one geometry per (level, comb, anchor set);
    /// fine patches read the fine level's tables in place and add none.
    /// Each new comb or anchor subset costs one venue-sized build, and
    /// LRU eviction keeps long-running fleets bounded. `None` leaves the
    /// cache unbounded.
    pub cache_budget_bytes: Option<usize>,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        Self {
            coarse_factor: 6,
            max_candidates: 4,
            coarse_min_rel_height: 0.4,
            coarse_dominance_radius: 1,
            small_grid_cells: 2048,
            cache_budget_bytes: Some(256 << 20),
        }
    }
}

/// Why the hierarchy stepped off its fast path. Every variant is counted
/// under `hier.escape.<reason>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscapeReason {
    /// The fine grid is at most [`HierarchicalConfig::small_grid_cells`]:
    /// localized densely.
    SmallGrid,
    /// The seed window yielded no coarse candidate or no scored peak: the
    /// tag is not where the seed claimed.
    NoLocalPeak,
    /// The seed window's coarse joint peaked on the window border: the
    /// likelihood rises out of the window, so the true peak may lie
    /// outside it.
    PeakAtBoundary,
    /// Fine refinement lost every candidate; the full dense sweep ran as
    /// a correctness safety net.
    DenseFallback,
}

impl EscapeReason {
    /// Stable snake_case label (counter suffix / log field).
    pub fn reason(&self) -> &'static str {
        match self {
            EscapeReason::SmallGrid => "small_grid",
            EscapeReason::NoLocalPeak => "no_local_peak",
            EscapeReason::PeakAtBoundary => "peak_at_boundary",
            EscapeReason::DenseFallback => "dense_fallback",
        }
    }
}

fn record_escape(reason: EscapeReason) {
    let name = match reason {
        EscapeReason::SmallGrid => "hier.escape.small_grid",
        EscapeReason::NoLocalPeak => "hier.escape.no_local_peak",
        EscapeReason::PeakAtBoundary => "hier.escape.peak_at_boundary",
        EscapeReason::DenseFallback => "hier.escape.dense_fallback",
    };
    bloc_obs::counter(name).inc();
}

/// A fix with its hierarchy cost accounting.
///
/// `estimate.peaks` are indexed on the **fine** grid (positions snapped
/// to fine cell centres); `estimate.likelihood` is the coarse
/// candidate-selection joint — over the whole coarse grid for the full
/// flow, over the seed window for a seeded round.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalEstimate {
    /// The fix itself, shaped exactly like a dense-pipeline estimate.
    pub estimate: Estimate,
    /// Cell evaluations actually spent (summed over anchors and levels).
    pub cells_evaluated: usize,
    /// What a dense fine sweep would have spent on the same sounding
    /// (fine cells × alive anchors).
    pub dense_cells_evaluated: usize,
    /// Fine patches evaluated (0 on the dense escape paths).
    pub candidates_refined: usize,
    /// True when produced by [`HierarchicalLocalizer::localize_seeded`]
    /// (including its escapes).
    pub seeded: bool,
    /// How (and whether) the fast path was abandoned.
    pub escape: Option<EscapeReason>,
}

impl HierarchicalEstimate {
    /// Cell-evaluation reduction vs the dense sweep (> 1 is a win).
    pub fn reduction(&self) -> f64 {
        if self.cells_evaluated == 0 {
            1.0
        } else {
            self.dense_cells_evaluated as f64 / self.cells_evaluated as f64
        }
    }
}

/// The coarse-to-fine solver. Wraps a [`BlocLocalizer`] (whose grid is
/// the *fine* level) and shares its engine, steering cache and scoring
/// configuration.
#[derive(Debug, Clone)]
pub struct HierarchicalLocalizer {
    localizer: BlocLocalizer,
    config: HierarchicalConfig,
    coarse: GridSpec,
}

impl HierarchicalLocalizer {
    /// Wraps `localizer`, derives the coarse grid, and installs the
    /// configured steering-cache byte budget on its engine.
    pub fn new(localizer: BlocLocalizer, config: HierarchicalConfig) -> Self {
        let coarse = localizer.config().grid.coarsen(config.coarse_factor.max(1));
        if let Some(budget) = config.cache_budget_bytes {
            localizer.engine().cache().set_byte_budget(Some(budget));
        }
        Self {
            localizer,
            config,
            coarse,
        }
    }

    /// The wrapped dense pipeline (fine grid, engine, scoring).
    pub fn localizer(&self) -> &BlocLocalizer {
        &self.localizer
    }

    /// The hierarchy configuration in force.
    pub fn config(&self) -> &HierarchicalConfig {
        &self.config
    }

    /// The coarse candidate-selection grid.
    pub fn coarse_spec(&self) -> GridSpec {
        self.coarse
    }

    /// Half-extent (metres) of a fine refinement patch: one coarse cell
    /// of candidate-position uncertainty, plus the entropy window, plus
    /// the fine dominance neighborhood — so a true peak near the
    /// candidate scores on complete windows.
    pub fn refine_half_extent_m(&self) -> f64 {
        self.coarse.resolution + self.score_margin_m()
    }

    /// The entropy window plus the fine dominance neighborhood: how far
    /// past a peak the Eq. 18 score reads.
    fn score_margin_m(&self) -> f64 {
        let cfg = self.localizer.config();
        cfg.score.entropy_radius_m
            + (cfg.score.peaks.dominance_radius + 1) as f64 * cfg.grid.resolution
    }

    /// Minimum distance (fine cells) a patch peak must keep from any
    /// patch border that is *not* a real grid border: far enough that
    /// both its dominance neighborhood and its entropy window are fully
    /// inside the patch, i.e. identical to what a dense sweep would see.
    fn keep_dist(&self) -> usize {
        let cfg = self.localizer.config();
        let entropy_cells =
            ((cfg.score.entropy_radius_m / cfg.grid.resolution).round() as usize).max(1);
        cfg.score.peaks.dominance_radius.max(entropy_cells)
    }

    fn is_small_grid(&self) -> bool {
        self.localizer.config().grid.len() <= self.config.small_grid_cells
    }

    /// Coarse-to-fine localization over the whole venue.
    ///
    /// # Errors
    ///
    /// The same typed failures as [`BlocLocalizer::localize`].
    pub fn localize(&self, data: &SoundingData) -> Result<HierarchicalEstimate, LocalizeError> {
        let _span = bloc_obs::span("hier.localize");
        bloc_obs::counter("hier.localize.calls").inc();
        self.localize_in(data, None)
    }

    /// Tracking round: the coarse→fine flow of [`Self::localize`] with
    /// its coarse level restricted to a window of half-extent `radius_m`
    /// (plus the scoring margin) around `seed` — typically the tracker's
    /// prediction and gate radius. A window that cannot be trusted
    /// escapes to the whole-venue flow, and the returned
    /// [`HierarchicalEstimate::escape`] says why.
    ///
    /// # Errors
    ///
    /// The same typed failures as [`BlocLocalizer::localize`].
    pub fn localize_seeded(
        &self,
        data: &SoundingData,
        seed: P2,
        radius_m: f64,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let _span = bloc_obs::span("hier.localize_seeded");
        bloc_obs::counter("hier.localize.seeded").inc();
        self.localize_in(data, Some((seed, radius_m)))
    }

    /// Corrects `data` and runs the coarse→fine flow over the whole
    /// coarse grid, or over the window of a `(seed, radius)` — densely
    /// when the fine grid is small.
    fn localize_in(
        &self,
        data: &SoundingData,
        seed: Option<(P2, f64)>,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let corrected = self.localizer.correct(data)?;
        BlocLocalizer::record_recovered(&corrected);
        BlocLocalizer::check_usable(&corrected)?;
        let mut h = if self.is_small_grid() {
            record_escape(EscapeReason::SmallGrid);
            self.dense_estimate(data, &corrected, EscapeReason::SmallGrid, 0)?
        } else {
            // A lobe at the radius keeps its Eq. 18 entropy window and
            // dominance neighborhood inside the window, so only a
            // likelihood still rising at the edge trips the border escape.
            let window = match seed {
                Some((p, r)) => self.coarse.patch(p, r.max(0.0) + self.score_margin_m()),
                None => GridPatch::whole(self.coarse),
            };
            self.refine(data, &corrected, window)?
        };
        h.seeded = seed.is_some();
        Ok(h)
    }

    /// The coarse→fine flow on already-corrected channels, with the
    /// coarse level evaluated on `window` of the coarse grid: the whole
    /// grid for [`Self::localize`], the seed window for
    /// [`Self::localize_seeded`]. A seed window whose coarse joint peaks
    /// on its border, or which yields no candidate or no scored peak,
    /// escapes to the whole grid.
    fn refine(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
        window: GridPatch,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let cfg = self.localizer.config();
        let fine = cfg.grid;
        let engine = self.localizer.engine();
        let whole = window.spec.len() == self.coarse.len();
        // A distrusted seed window re-runs the whole grid; the estimate
        // keeps the window's cells and says why it escaped.
        let escape = |reason: EscapeReason, cells: usize| {
            record_escape(reason);
            let mut h = self.refine(data, corrected, GridPatch::whole(self.coarse))?;
            h.cells_evaluated += cells;
            h.escape = Some(reason);
            Ok(h)
        };
        let lost = |cells: usize| {
            if whole {
                Err(LocalizeError::NoPeak)
            } else {
                escape(EscapeReason::NoLocalPeak, cells)
            }
        };

        // Coarse level: per-anchor maps over the window, their maxima (the
        // fine-patch normalizers), and the weighted joint under the dense
        // contract.
        let weights = anchor_weights(corrected);
        let alive: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0.0).collect();
        let maps =
            engine.window_likelihoods(corrected, self.coarse, &[window], &alive, cfg.combining);
        let mut cells = window.spec.len() * alive.len();
        let scales: Vec<(f64, f64)> = alive
            .iter()
            .zip(&maps)
            .map(|(&i, map)| (weights[i], map.argmax().map_or(0.0, |(_, _, v)| v)))
            .collect();
        let coarse_joint = weighted_sum(window.spec, maps, &scales);
        let dense_cells = fine.len() * alive.len();
        if let Some((ax, ay, _)) = coarse_joint.argmax() {
            if window.interior_border_dist(&self.coarse, ax, ay) < 1 {
                return escape(EscapeReason::PeakAtBoundary, cells);
            }
        }

        // Candidate selection on the coarse joint.
        let candidates = find_peaks(
            &coarse_joint,
            &PeakOptions {
                dominance_radius: self.config.coarse_dominance_radius,
                min_rel_height: self.config.coarse_min_rel_height,
                max_peaks: self.config.max_candidates.max(1),
            },
        );
        if candidates.is_empty() {
            return lost(cells);
        }

        // Fine level: an index-aligned patch around each candidate's
        // coarse cell, normalized by the coarse maxima so all patches
        // share one scale.
        let half = self.refine_half_extent_m();
        let windows: Vec<GridPatch> = candidates
            .iter()
            .map(|c| {
                let (ix, iy) = window.to_parent(c.ix, c.iy);
                fine.patch(self.coarse.cell_center(ix, iy), half)
            })
            .collect();
        let mut maps = engine
            .window_likelihoods(corrected, fine, &windows, &alive, cfg.combining)
            .into_iter();
        cells += windows.iter().map(|w| w.spec.len()).sum::<usize>() * alive.len();
        let joints: Vec<Grid2D> = windows
            .iter()
            .map(|w| weighted_sum(w.spec, maps.by_ref().take(alive.len()), &scales))
            .collect();
        bloc_obs::counter("hier.candidates").add(windows.len() as u64);

        let max_v = joints
            .iter()
            .filter_map(|j| j.argmax().map(|(_, _, v)| v))
            .fold(0.0f64, f64::max);
        if max_v <= 0.0 {
            return lost(cells);
        }

        // Finest-level-only Eq. 18 scoring, against venue-global
        // statistics: the coarse background pedestal and the global patch
        // maximum put every candidate on one dense-equivalent scale.
        let background = bloc_num::stats::median(coarse_joint.data()).min(max_v);
        let anchor_refs: Vec<P2> = data.anchors.iter().map(|a| a.center()).collect();
        let keep = self.keep_dist();
        let floor = cfg.score.peaks.min_rel_height * max_v;
        let mut merged: Vec<ScoredPeak> = Vec::new();
        let mut taken: HashSet<(usize, usize)> = HashSet::new();
        for (patch, joint) in windows.iter().zip(&joints) {
            let kept: Vec<Peak> = find_peaks(
                joint,
                &PeakOptions {
                    dominance_radius: cfg.score.peaks.dominance_radius,
                    min_rel_height: 0.0,
                    max_peaks: 32,
                },
            )
            .into_iter()
            .filter(|p| p.value >= floor && patch.interior_border_dist(&fine, p.ix, p.iy) >= keep)
            .collect();
            for s in score_candidates(joint, &kept, &anchor_refs, &cfg.score, background, max_v) {
                let s = remap_to_parent(s, patch, fine);
                // Overlapping patches rediscover the same cell with the
                // same value and score (windows are complete by the
                // border filter): keep the first sighting.
                if taken.insert((s.peak.ix, s.peak.iy)) {
                    merged.push(s);
                }
            }
        }
        merged.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| (a.peak.iy, a.peak.ix).cmp(&(b.peak.iy, b.peak.ix)))
        });
        merged.truncate(cfg.score.peaks.max_peaks);
        let Some(best) = merged.first() else {
            if !whole {
                return escape(EscapeReason::NoLocalPeak, cells);
            }
            // Refinement lost every candidate: correctness beats speed.
            record_escape(EscapeReason::DenseFallback);
            return self.dense_estimate(data, corrected, EscapeReason::DenseFallback, cells);
        };
        record_scored(&merged);
        Ok(HierarchicalEstimate {
            estimate: Estimate::new(
                best.peak.position,
                merged,
                coarse_joint,
                BlocLocalizer::degradation_of(corrected),
            ),
            cells_evaluated: cells,
            dense_cells_evaluated: dense_cells,
            candidates_refined: windows.len(),
            seeded: false,
            escape: None,
        })
    }

    /// The dense fine sweep, dressed as a hierarchical estimate — the
    /// small-grid path and the lost-every-candidate safety net.
    fn dense_estimate(
        &self,
        data: &SoundingData,
        corrected: &CorrectedChannels,
        escape: EscapeReason,
        prespent: usize,
    ) -> Result<HierarchicalEstimate, LocalizeError> {
        let estimate = self.localizer.dense_fix(data, corrected)?;
        let n_alive = anchor_weights(corrected)
            .iter()
            .filter(|&&w| w > 0.0)
            .count();
        let dense_cells = self.localizer.config().grid.len() * n_alive;
        Ok(HierarchicalEstimate {
            estimate,
            cells_evaluated: prespent + dense_cells,
            dense_cells_evaluated: dense_cells,
            candidates_refined: 0,
            seeded: false,
            escape: Some(escape),
        })
    }
}

/// The weighted joint of one window's per-anchor maps, each scaled by
/// its `(weight, coarse_max)`: first by `1 / coarse_max` — the anchor's
/// maximum over the coarse window, so on that level exactly the dense
/// `normalize_peak` contract, and on the fine level the one normalizer
/// every patch shares — then by its weight.
fn weighted_sum(
    spec: GridSpec,
    maps: impl IntoIterator<Item = Grid2D>,
    scales: &[(f64, f64)],
) -> Grid2D {
    let mut joint = Grid2D::zeros(spec);
    for (mut map, &(weight, coarse_max)) in maps.into_iter().zip(scales) {
        if coarse_max > 0.0 {
            map.scale(1.0 / coarse_max);
        }
        map.scale(weight);
        joint.add_assign(&map);
    }
    joint
}

/// Rebases a patch-local scored peak onto the parent grid, snapping the
/// position to the parent's cell centre so agreement on the winning cell
/// means bit-identical positions.
fn remap_to_parent(s: ScoredPeak, patch: &GridPatch, parent: GridSpec) -> ScoredPeak {
    let (ix, iy) = patch.to_parent(s.peak.ix, s.peak.iy);
    ScoredPeak {
        peak: Peak {
            ix,
            iy,
            position: parent.cell_center(ix, iy),
            value: s.peak.value,
        },
        ..s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::localizer::BlocConfig;
    use bloc_chan::geometry::Room;
    use bloc_chan::materials::Material;
    use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
    use bloc_chan::{AnchorArray, Environment};
    use rand::{rngs::StdRng, SeedableRng};

    fn anchors(room: &Room) -> Vec<AnchorArray> {
        room.wall_midpoints()
            .iter()
            .zip(room.walls().iter())
            .enumerate()
            .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
            .collect()
    }

    fn room_setup(clean: bool) -> (Room, Vec<AnchorArray>, Environment) {
        let room = Room::new(5.0, 6.0);
        let anchors = anchors(&room);
        let mut rng = StdRng::seed_from_u64(9);
        let env = if clean {
            Environment::free_space()
        } else {
            Environment::in_room(room)
                .with_walls(Material::concrete(), &mut rng)
                .unwrap()
        };
        (room, anchors, env)
    }

    fn mk_sounder<'a>(env: &'a Environment, anchors: &'a [AnchorArray]) -> Sounder<'a> {
        Sounder::new(
            env,
            anchors,
            SounderConfig {
                antenna_phase_err_std: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn clean_room_matches_dense_exactly_with_fewer_cells() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(51);
        for tag in [P2::new(1.0, 1.5), P2::new(2.5, 3.0), P2::new(4.0, 4.5)] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let d = dense.localize(&data).unwrap();
            let h = hier.localize(&data).unwrap();
            assert_eq!(h.escape, None, "clean room must stay on the fast path");
            assert_eq!(
                h.estimate.position, d.position,
                "unambiguous peak must be bit-identical to dense"
            );
            assert!(
                h.cells_evaluated < h.dense_cells_evaluated,
                "hierarchy spent {} vs dense {}",
                h.cells_evaluated,
                h.dense_cells_evaluated
            );
            assert_eq!(h.estimate.degradation.confidence, h.estimate.confidence());
        }
    }

    #[test]
    fn multipath_room_stays_within_one_fine_cell_of_dense() {
        let (room, anchors, env) = room_setup(false);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let res = dense.config().grid.resolution;
        let mut rng = StdRng::seed_from_u64(52);
        for tag in [P2::new(2.2, 3.6), P2::new(1.3, 4.4)] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let d = dense.localize(&data).unwrap();
            let h = hier.localize(&data).unwrap();
            assert!(
                h.estimate.position.dist(d.position) <= res * std::f64::consts::SQRT_2 + 1e-12,
                "hier {} vs dense {} differ by {}",
                h.estimate.position,
                d.position,
                h.estimate.position.dist(d.position)
            );
        }
    }

    #[test]
    fn seeded_patch_matches_and_is_much_cheaper() {
        let (room, anchors, env) = room_setup(false);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(53);
        let tag = P2::new(2.2, 3.6);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let d = dense.localize(&data).unwrap();
        let h = hier.localize_seeded(&data, d.position, 0.5).unwrap();
        assert!(h.seeded);
        assert_eq!(h.escape, None);
        let res = dense.config().grid.resolution;
        assert!(
            h.estimate.position.dist(d.position) <= res * std::f64::consts::SQRT_2 + 1e-12,
            "seeded drifted {} m",
            h.estimate.position.dist(d.position)
        );
        assert!(
            h.cells_evaluated * 4 < h.dense_cells_evaluated,
            "seeded round spent {} of dense {}",
            h.cells_evaluated,
            h.dense_cells_evaluated
        );
    }

    #[test]
    fn bad_seed_escapes_to_full_flow() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(54);
        let tag = P2::new(4.0, 4.5);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        // Seed short of the tag with a window too small to reach it: the
        // likelihood rises toward the true peak, the patch argmax rides
        // the border, and the solver must escape and still deliver the
        // dense answer.
        let h = hier.localize_seeded(&data, P2::new(2.8, 3.3), 0.2).unwrap();
        assert!(h.seeded);
        assert!(matches!(
            h.escape,
            Some(EscapeReason::PeakAtBoundary) | Some(EscapeReason::NoLocalPeak)
        ));
        let d = dense.localize(&data).unwrap();
        assert_eq!(h.estimate.position, d.position);
    }

    #[test]
    fn whole_venue_seed_window_equals_full_flow() {
        // A seed radius covering the venue makes the seed window the whole
        // coarse grid: the seeded round *is* the full flow.
        let (room, anchors, env) = room_setup(false);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense, HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(55);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let full = hier.localize(&data).unwrap();
        let seeded = hier
            .localize_seeded(&data, P2::new(2.0, 2.0), 50.0)
            .unwrap();
        assert!(seeded.seeded && !full.seeded);
        assert_eq!(seeded.escape, full.escape);
        assert_eq!(seeded.estimate.position, full.estimate.position);
        assert_eq!(seeded.estimate.peaks, full.estimate.peaks);
        assert_eq!(seeded.cells_evaluated, full.cells_evaluated);
        assert_eq!(seeded.candidates_refined, full.candidates_refined);
    }

    #[test]
    fn small_grid_localizes_densely() {
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room).with_resolution(0.3));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        assert!(dense.config().grid.len() <= HierarchicalConfig::default().small_grid_cells);
        let mut rng = StdRng::seed_from_u64(56);
        let data = sounder.sound(P2::new(2.0, 2.0), &all_data_channels(), &mut rng);
        let h = hier.localize(&data).unwrap();
        assert_eq!(h.escape, Some(EscapeReason::SmallGrid));
        assert_eq!(h.estimate.position, dense.localize(&data).unwrap().position);
    }

    #[test]
    fn typed_errors_pass_through() {
        let room = Room::new(5.0, 6.0);
        let hier = HierarchicalLocalizer::new(
            BlocLocalizer::new(BlocConfig::for_room(&room)),
            HierarchicalConfig::default(),
        );
        let empty = SoundingData {
            bands: Vec::new(),
            anchors: anchors(&room),
        };
        assert_eq!(
            hier.localize(&empty).unwrap_err(),
            LocalizeError::EmptySounding
        );
        assert_eq!(
            hier.localize_seeded(&empty, P2::new(1.0, 1.0), 0.5)
                .unwrap_err(),
            LocalizeError::EmptySounding
        );
    }

    #[test]
    fn bad_band_frequencies_are_typed_errors_at_every_entry_point() {
        use crate::error::BandFrequencyFault;
        let (room, anchors, env) = room_setup(true);
        let sounder = mk_sounder(&env, &anchors);
        let dense = BlocLocalizer::new(BlocConfig::for_room(&room));
        let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
        let mut rng = StdRng::seed_from_u64(57);
        let healthy = sounder.sound(P2::new(2.0, 3.0), &all_data_channels(), &mut rng);

        let mut nan = healthy.clone();
        nan.bands[5].freq_hz = f64::NAN;
        let mut zero = healthy.clone();
        zero.bands[9].freq_hz = 0.0;
        let mut dup = healthy.clone();
        let again = dup.bands[2].clone();
        dup.bands.push(again);
        let last = dup.bands.len() - 1;
        for (data, band, fault) in [
            (&nan, 5, BandFrequencyFault::NonFinite),
            (&zero, 9, BandFrequencyFault::NonPositive),
            (&dup, last, BandFrequencyFault::Duplicate { of: 2 }),
        ] {
            let want = LocalizeError::InvalidBandFrequency { band, fault };
            assert_eq!(dense.localize(data).unwrap_err(), want);
            assert_eq!(hier.localize(data).unwrap_err(), want);
            assert_eq!(
                hier.localize_seeded(data, P2::new(2.0, 3.0), 0.5)
                    .unwrap_err(),
                want
            );
        }
    }
}
