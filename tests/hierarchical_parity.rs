//! Accuracy-parity suite for the hierarchical coarse-to-fine localizer.
//!
//! Contract under test (DESIGN.md §14): on the same sounding, the
//! hierarchy's fix lands within **one fine cell** of the dense sweep's —
//! and *exactly* on it when the coarse argmax is unambiguous (clean
//! rooms) — while evaluating several times fewer cells. The contract must
//! hold across room geometries, in both large venues, under injected
//! faults, and bit-identically across thread counts. The release-mode
//! ≥ 8× reduction gate at the full 8 cm corridor resolution lives in
//! `perf_baseline` (`BENCH_hierarchical.json`); these tests run the same
//! comparisons at debug-friendly resolutions.

use bloc_chan::faults::{AnchorDropout, FaultPlan};
use bloc_chan::geometry::Room;
use bloc_chan::materials::Material;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::Environment;
use bloc_core::engine::LikelihoodEngine;
use bloc_core::{BlocConfig, BlocLocalizer, HierarchicalConfig, HierarchicalLocalizer};
use bloc_num::P2;
use bloc_testbed::scenario::{standard_anchors, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Serializes this suite's tests: the sampled cost test reconciles each
/// round with the process-wide `engine.cells_evaluated` counter, which
/// any concurrently running localization would also advance.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Test-suite hierarchy config: `small_grid_cells: 0` disables the
/// small-grid dense escape so even compact test rooms exercise the
/// coarse→fine machinery.
fn hier_config() -> HierarchicalConfig {
    HierarchicalConfig {
        small_grid_cells: 0,
        ..HierarchicalConfig::default()
    }
}

/// A dense localizer and a hierarchy sharing its engine (and therefore
/// its steering cache), both on `threads` threads.
fn pair(config: BlocConfig, threads: usize) -> (BlocLocalizer, HierarchicalLocalizer) {
    let engine = LikelihoodEngine::default().with_threads(threads);
    let dense = BlocLocalizer::new(config).with_engine(engine);
    let hier = HierarchicalLocalizer::new(dense.clone(), hier_config());
    (dense, hier)
}

/// One fine-cell diagonal — the parity tolerance.
fn one_cell(config: &BlocConfig) -> f64 {
    config.grid.resolution * std::f64::consts::SQRT_2 + 1e-9
}

#[test]
fn randomized_rooms_match_dense_within_one_cell() {
    let _serial = serial();
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let room = Room::new(4.0 + seed as f64 * 0.9, 5.0 + (seed % 2) as f64 * 1.4);
        let env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .expect("in_room always has a room");
        let anchors = standard_anchors(&room);
        let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
        let config = BlocConfig::for_room(&room).with_resolution(0.12);
        let (dense, hier) = pair(config, 1);

        for tag in [
            P2::new(room.width * 0.3, room.height * 0.4),
            P2::new(room.width * 0.7, room.height * 0.6),
        ] {
            let data = sounder.sound(tag, &all_data_channels(), &mut rng);
            let d = dense.localize(&data).expect("dense fix");
            let h = hier.localize(&data).expect("hierarchical fix");
            assert!(
                h.estimate.position.dist(d.position) <= one_cell(&config),
                "seed {seed} tag {tag}: hier {} vs dense {}",
                h.estimate.position,
                d.position
            );
            assert!(
                h.cells_evaluated < h.dense_cells_evaluated,
                "hierarchy must be cheaper: {} vs {}",
                h.cells_evaluated,
                h.dense_cells_evaluated
            );
        }
    }
}

#[test]
fn clean_room_is_bit_identical_to_dense() {
    let _serial = serial();
    // Free space, no phase error: the coarse argmax is unambiguous, so
    // the contract sharpens from "within one cell" to exact equality —
    // the hierarchy snaps candidates to fine cell centres, so agreeing
    // on the winning cell means agreeing on every position bit.
    let mut rng = StdRng::seed_from_u64(17);
    let room = Room::new(6.5, 4.5);
    let env = Environment::in_room(room);
    let anchors = standard_anchors(&room);
    let sounder_config = SounderConfig {
        antenna_phase_err_std: 0.0,
        ..Default::default()
    };
    let sounder = Sounder::new(&env, &anchors, sounder_config);
    let config = BlocConfig::for_room(&room).with_resolution(0.12);
    let (dense, hier) = pair(config, 1);

    for tag in [P2::new(1.7, 1.2), P2::new(5.1, 3.3)] {
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let d = dense.localize(&data).expect("dense fix");
        let h = hier.localize(&data).expect("hierarchical fix");
        assert_eq!(
            h.estimate.position, d.position,
            "clean-room fixes must be bit-identical"
        );
        assert!(h.escape.is_none());
    }
}

#[test]
fn corridor_matches_dense_and_is_cheaper() {
    let _serial = serial();
    let s = Scenario::corridor(11);
    let config = s.bloc_config().with_resolution(0.16);
    let (dense, hier) = pair(config, 1);
    let sounder = s.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(42);

    for tag in [P2::new(5.0, 5.0), P2::new(17.2, 2.5), P2::new(30.0, 7.0)] {
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let d = dense.localize(&data).expect("dense fix");
        let h = hier.localize(&data).expect("hierarchical fix");
        assert!(
            h.estimate.position.dist(d.position) <= one_cell(&config),
            "corridor tag {tag}: hier {} vs dense {}",
            h.estimate.position,
            d.position
        );
        assert!(
            h.reduction() > 3.0,
            "corridor reduction {} too small ({} of {} cells)",
            h.reduction(),
            h.cells_evaluated,
            h.dense_cells_evaluated
        );
    }
}

#[test]
fn multi_room_matches_dense_through_interior_walls() {
    let _serial = serial();
    let s = Scenario::multi_room(5);
    let config = s.bloc_config().with_resolution(0.16);
    let (dense, hier) = pair(config, 1);
    let sounder = s.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(23);

    // One tag sharing a zone with anchors, one deep in the middle zone
    // reached mostly through walls and door gaps.
    for tag in [P2::new(3.5, 3.0), P2::new(10.2, 10.5)] {
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let d = dense.localize(&data).expect("dense fix");
        let h = hier.localize(&data).expect("hierarchical fix");
        assert!(
            h.estimate.position.dist(d.position) <= one_cell(&config),
            "multi-room tag {tag}: hier {} vs dense {}",
            h.estimate.position,
            d.position
        );
        assert!(h.cells_evaluated < h.dense_cells_evaluated / 2);
    }
}

#[test]
fn faulted_soundings_keep_parity_and_degradation() {
    let _serial = serial();
    // Packet loss, a scheduled dropout and a dead RF chain: the hierarchy
    // corrects the same sounding once, so its DegradationReport must be
    // *equal* to the dense pipeline's, and the fix still lands within a
    // fine cell.
    let s = Scenario::paper_testbed(31);
    let config = s.bloc_config();
    let (dense, hier) = pair(config, 1);
    let plan = FaultPlan {
        seed: 9,
        tag_loss: 0.2,
        master_loss: 0.08,
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..37,
        }],
        dead_antennas: vec![(1, 3)],
        ..Default::default()
    };
    let sounder = s.sounder(SounderConfig::default()).with_faults(plan);
    let mut rng = StdRng::seed_from_u64(7);

    for tag in [P2::new(1.6, 2.2), P2::new(3.8, 4.9)] {
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);
        let d = dense.localize(&data).expect("dense fix survives faults");
        let h = hier.localize(&data).expect("hier fix survives faults");
        // Identical masking (confidence is a peak-margin property and
        // legitimately differs between the two peak sets).
        let hd = &h.estimate.degradation;
        let dd = &d.degradation;
        assert_eq!(
            (hd.bands_dropped, hd.holes_masked, &hd.anchors_excluded),
            (dd.bands_dropped, dd.holes_masked, &dd.anchors_excluded),
            "both pipelines mask the same holes"
        );
        assert!(
            h.estimate.position.dist(d.position) <= one_cell(&config),
            "faulted tag {tag}: hier {} vs dense {}",
            h.estimate.position,
            d.position
        );
    }
}

#[test]
fn fix_is_bit_identical_across_thread_counts() {
    let _serial = serial();
    let s = Scenario::corridor(7);
    let config = s.bloc_config().with_resolution(0.24);
    let sounder = s.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let data = sounder.sound(P2::new(12.0, 4.0), &all_data_channels(), &mut rng);

    let fixes: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let (_, hier) = pair(config, t);
            hier.localize(&data).expect("hierarchical fix")
        })
        .collect();
    for (i, f) in fixes.iter().enumerate().skip(1) {
        assert_eq!(
            f.estimate.position,
            fixes[0].estimate.position,
            "threads={} position differs",
            [1usize, 2, 4][i]
        );
        assert_eq!(f.estimate.peaks, fixes[0].estimate.peaks);
        assert_eq!(f.cells_evaluated, fixes[0].cells_evaluated);
    }
}

#[test]
fn seeded_rounds_stay_below_a_tenth_of_dense() {
    let _serial = serial();
    // A tag walking down the corridor: after the first full coarse→fine
    // fix, every seeded round must cost ≤ 10% of a dense sweep and stay
    // on the fast path (no escapes).
    let s = Scenario::corridor(19);
    let config = s.bloc_config().with_resolution(0.16);
    let (_, hier) = pair(config, 1);
    // Low-noise soundings keep per-round fix error to a few cells, so the
    // tracker-style seed radius (fix error + motion) genuinely contains
    // the next peak — the steady state the 10% budget is specified for.
    let sounder = s.sounder(SounderConfig {
        csi_snr_db: 30.0,
        antenna_phase_err_std: 0.0,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(77);

    let mut pos = P2::new(8.0, 5.0);
    let mut last: Option<P2> = None;
    for round in 0..5 {
        let data = sounder.sound(pos, &all_data_channels(), &mut rng);
        let est = match last {
            None => hier.localize(&data).expect("first fix"),
            Some(seed) => hier.localize_seeded(&data, seed, 1.0).expect("seeded fix"),
        };
        if round > 0 {
            assert!(est.seeded, "round {round} should be seeded");
            assert!(
                est.escape.is_none(),
                "round {round} escaped: {:?}",
                est.escape
            );
            assert!(
                est.cells_evaluated * 10 <= est.dense_cells_evaluated,
                "round {round}: {} cells vs dense {}",
                est.cells_evaluated,
                est.dense_cells_evaluated
            );
        }
        assert!(
            est.estimate.position.dist(pos) < 1.2,
            "round {round} fix {} too far from tag {pos}",
            est.estimate.position
        );
        last = Some(est.estimate.position);
        pos += P2::new(0.3, 0.05);
    }
}

#[test]
fn walking_rounds_build_no_steering_tables_after_the_first_fix() {
    let _serial = serial();
    // Every fine patch is a window into the fine grid's own steering
    // tables, so once the first full-flow fix has built the coarse and
    // fine tables, a walk of seeded and full-flow rounds at fresh
    // positions is all cache hits: no build, and nothing new resident.
    let s = Scenario::corridor(23);
    let config = s.bloc_config().with_resolution(0.16);
    let (_, hier) = pair(config, 1);
    let cache = hier.localizer().engine().cache();
    let sounder = s.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(31);

    let mut pos = P2::new(4.0, 3.0);
    let first = hier
        .localize(&sounder.sound(pos, &all_data_channels(), &mut rng))
        .expect("first fix");
    assert!(
        first.candidates_refined > 0,
        "first fix must refine patches"
    );
    assert_eq!(cache.len(), 2, "fine + coarse tables after the first fix");
    let misses = cache.misses();
    let mut last = first.estimate.position;
    for round in 0..8 {
        pos += P2::new(2.9, if round % 2 == 0 { 1.7 } else { -1.3 });
        let data = sounder.sound(pos, &all_data_channels(), &mut rng);
        let fix = if round % 3 == 2 {
            hier.localize(&data).expect("full-flow fix")
        } else {
            hier.localize_seeded(&data, last, 1.0).expect("seeded fix")
        };
        assert_eq!(
            cache.misses(),
            misses,
            "round {round} at {pos} built steering tables"
        );
        assert_eq!(cache.len(), 2, "round {round}: resident entries");
        last = fix.estimate.position;
    }
}

#[test]
fn sampled_seeded_rounds_never_cost_more_than_the_full_flow() {
    let _serial = serial();
    // Seeded rounds over sampled (tag, seed offset, radius) draws — not a
    // hand-picked radius. A round that stays on its seed window must cost
    // no more than the full flow's worst case (the whole coarse grid plus
    // every candidate's unclipped fine patch, per alive anchor), and every
    // round, escaped or not, must reconcile exactly with the
    // `engine.cells_evaluated` counter.
    let s = Scenario::corridor(29);
    let config = s.bloc_config().with_resolution(0.16);
    let (_, hier) = pair(config, 1);
    let fine = config.grid;
    let patch_cells = fine
        .patch(
            P2::new(s.room.width / 2.0, s.room.height / 2.0),
            hier.refine_half_extent_m(),
        )
        .spec
        .len();
    let full_flow_worst = hier.coarse_spec().len() + hier.config().max_candidates * patch_cells;
    let sounder = s.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(101);

    let mut windowed = 0;
    for draw in 0..60 {
        let tag = P2::new(
            rng.gen_range(0.5..s.room.width - 0.5),
            rng.gen_range(0.5..s.room.height - 0.5),
        );
        let (offset, angle) = (
            rng.gen_range(0.0..2.0),
            rng.gen_range(0.0..std::f64::consts::TAU),
        );
        let seed = tag + P2::new(offset * angle.cos(), offset * angle.sin());
        let radius = rng.gen_range(0.5..5.0);
        let data = sounder.sound(tag, &all_data_channels(), &mut rng);

        let before = bloc_obs::Registry::global().snapshot();
        let est = hier
            .localize_seeded(&data, seed, radius)
            .expect("seeded fix");
        let counted = bloc_obs::Registry::global()
            .snapshot()
            .diff(&before)
            .counters
            .get("engine.cells_evaluated")
            .copied()
            .unwrap_or(0);
        assert_eq!(
            counted, est.cells_evaluated as u64,
            "draw {draw}: counter delta vs the estimate's accounting"
        );
        assert!(est.seeded);
        if est.escape.is_none() {
            windowed += 1;
            let alive = est.dense_cells_evaluated / fine.len();
            assert!(
                est.cells_evaluated <= alive * full_flow_worst,
                "draw {draw} (tag {tag}, seed {seed}, radius {radius:.2} m): {} cells > full-flow worst case {}",
                est.cells_evaluated,
                alive * full_flow_worst
            );
        }
    }
    assert!(
        windowed >= 50,
        "only {windowed} of 60 draws stayed on their seed window"
    );
}
