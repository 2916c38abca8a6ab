//! Degraded-mode fusion contract tests.
//!
//! * A healthy round must be **exactly** the pure-CSI estimate — fusion
//!   weights snap to `csi = 1` at the healthy threshold, so attaching a
//!   fallback stack cannot perturb a cm-class fix.
//! * A degraded round that CSI still fixes is refined with the priors
//!   (`CsiFused`), identically through the localizer and the supervisor.
//! * A round whose CSI pipeline fails outright must still estimate, with
//!   the mode provenance flagged and the CSI weight at zero.
//! * Fusion weights are a convex combination for every health value.
//! * KNN fallback edge cases (empty db, oversized k, fully-masked query,
//!   duplicate surveyed positions) are typed errors or sane estimates —
//!   never panics.

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig, SoundingData};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan, RangeLoss};
use bloc_core::fallback::{FallbackError, FallbackStack};
use bloc_core::localizer::{BlocConfig, BlocLocalizer};
use bloc_core::{
    DegradationReport, EstimateMode, FallbackConfig, FingerprintDb, FusionPolicy, FusionWeights,
    PacketCountModel, RoundOutcome, RuntimeConfig, SessionSupervisor,
};
use bloc_num::P2;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn anchors(room: &Room) -> Vec<AnchorArray> {
    room.wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect()
}

fn clean_sounder<'a>(env: &'a Environment, anchors: &'a [AnchorArray]) -> Sounder<'a> {
    Sounder::new(
        env,
        anchors,
        SounderConfig {
            antenna_phase_err_std: 0.0,
            ..Default::default()
        },
    )
}

/// A small hand-surveyed fingerprint database over the room.
fn survey_db(sounder: &Sounder<'_>, seed: u64) -> FingerprintDb {
    let channels = all_data_channels();
    let mut db = FingerprintDb::new(channels.len(), 4);
    let mut rng = StdRng::seed_from_u64(seed);
    for yi in 0..5 {
        for xi in 0..4 {
            let pos = P2::new(0.7 + xi as f64 * 1.2, 0.7 + yi as f64 * 1.2);
            let data = sounder.sound(pos, &channels, &mut rng);
            db.insert(pos, &data).expect("survey shapes agree");
        }
    }
    db
}

fn range_loss() -> RangeLoss {
    RangeLoss {
        d0: 1.0,
        per_m: 0.12,
        max: 0.8,
    }
}

fn stack_for(sounder: &Sounder<'_>) -> FallbackStack {
    FallbackStack::new(FallbackConfig::default())
        .with_fingerprints(survey_db(sounder, 400))
        .with_counts(PacketCountModel::new(0.0, range_loss()))
}

#[test]
fn healthy_round_is_exactly_pure_csi() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = clean_sounder(&env, &anchors);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let stack = stack_for(&sounder);

    let mut rng = StdRng::seed_from_u64(401);
    let tag = P2::new(2.1, 3.4);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);

    let pure = localizer.localize(&data).expect("clean sounding fixes");
    let fused = localizer
        .localize_with_fallback(&data, &stack, 0.0)
        .expect("clean sounding fixes with a stack attached");

    assert_eq!(fused.mode, EstimateMode::Csi);
    assert_eq!(fused.weights.csi, 1.0, "healthy weights snap to pure CSI");
    assert!(fused.weights.is_convex());
    let drift = fused.estimate.position.dist(pure.position);
    assert!(
        drift < 0.01,
        "healthy fused fix must match pure CSI within 1 cm, drifted {drift} m"
    );
    assert_eq!(
        fused.estimate.position, pure.position,
        "snap-to-CSI means bit-identical, not merely close"
    );
}

#[test]
fn degraded_fix_is_csi_fused_identically_in_localizer_and_supervisor() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    // One slave dark for the whole sweep plus light hop loss: three
    // anchors still fix, but survival is ~0.75, below the healthy
    // threshold, so the fix must be refined with the priors.
    let plan = FaultPlan {
        seed: 91,
        tag_loss: 0.1,
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..chans.len(),
        }],
        range_loss: Some(range_loss()),
        ..Default::default()
    };
    let clean = clean_sounder(&env, &anchors);
    let stack = stack_for(&clean);
    let faulted = clean_sounder(&env, &anchors).with_faults(plan);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

    let mut rng = StdRng::seed_from_u64(406);
    let tag = P2::new(3.1, 2.6);
    let data = faulted.sound(tag, &chans, &mut rng);
    assert!(localizer.localize(&data).is_ok(), "CSI must still fix here");

    let fused = localizer
        .localize_with_fallback(&data, &stack, 0.0)
        .expect("degraded sounding fixes");
    assert_eq!(fused.mode, EstimateMode::CsiFused);
    assert!(fused.weights.csi < 1.0, "{:?}", fused.weights);
    assert!(fused.weights.is_convex());

    let mut sup =
        SessionSupervisor::new(localizer, 4, RuntimeConfig::default()).with_fallback(stack);
    let RoundOutcome::Fix(fix) = sup.run_round(0.5, |_| data.clone()) else {
        panic!("a CSI-fixable round must fix");
    };
    assert_eq!(fix.mode, EstimateMode::CsiFused);
    assert_eq!(fix.weights, fused.weights);
    assert_eq!(
        fix.estimate.position, fused.estimate.position,
        "one fusion policy means bit-identical fixes"
    );
    let err = fused.estimate.position.dist(tag);
    assert!(err < 3.7, "fused fix left the fallback regime: {err} m");
}

#[test]
fn csi_failure_falls_back_with_provenance() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    // Kill the master for the whole sweep: Eq. 10 is undefined on every
    // band, so the CSI pipeline cannot fix at all — but slaves still
    // heard the tag, so both fallbacks have evidence.
    let plan = FaultPlan {
        seed: 77,
        dropouts: vec![AnchorDropout {
            anchor: 0,
            bands: 0..chans.len(),
        }],
        range_loss: Some(range_loss()),
        ..Default::default()
    };
    let clean = clean_sounder(&env, &anchors);
    let stack = stack_for(&clean);
    let faulted = clean_sounder(&env, &anchors).with_faults(plan);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

    let mut rng = StdRng::seed_from_u64(402);
    let tag = P2::new(1.6, 2.2);
    let data = faulted.sound(tag, &chans, &mut rng);
    assert!(localizer.localize(&data).is_err(), "CSI must fail here");

    let fused = localizer
        .localize_with_fallback(&data, &stack, 0.0)
        .expect("fallback rescues the round");
    assert_eq!(fused.mode, EstimateMode::FallbackFused);
    assert_eq!(fused.weights.csi, 0.0, "no CSI evidence was used");
    assert!(fused.weights.is_convex());
    assert!(fused.weights.fingerprint > 0.0 && fused.weights.counts > 0.0);
    let err = fused.estimate.position.dist(tag);
    assert!(
        err < 3.7,
        "fallback estimate must stay in the RSSI-class regime: {err} m"
    );
}

#[test]
fn fusion_weights_are_convex_for_every_health() {
    let policy = FusionPolicy::default();
    for bands_dropped in [0, 5, 15, 30, 37] {
        for n_excluded in 0..4usize {
            for open_frac in [0.0, 0.34, 0.67, 1.0] {
                let report = DegradationReport {
                    bands_total: 37,
                    bands_dropped,
                    anchors_total: 4,
                    anchors_excluded: (0..n_excluded).collect(),
                    ..Default::default()
                };
                let w = FusionWeights::from_degradation(&report, open_frac, &policy);
                assert!(
                    w.is_convex(),
                    "weights must stay convex: {w:?} (dropped {bands_dropped}, \
                     excluded {n_excluded}, open {open_frac})"
                );
                let health = report.survival_fraction() * (1.0 - open_frac);
                if health >= policy.healthy_threshold {
                    assert_eq!(w.csi, 1.0, "healthy rounds snap to pure CSI");
                } else {
                    assert!(w.csi < 1.0);
                }
                // Every availability restriction stays convex too.
                for mask in 1..8u8 {
                    let r = w.restrict(mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
                    assert!(r.is_convex(), "restricted weights not convex: {r:?}");
                }
            }
        }
    }
    // Nothing available: all-zero, flagged non-convex (callers must not fuse).
    let none = FusionWeights::pure_csi().restrict(false, false, false);
    assert_eq!(none.csi + none.fingerprint + none.counts, 0.0);
    assert!(!none.is_convex());
}

#[test]
fn knn_edge_cases_are_typed_not_panics() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = clean_sounder(&env, &anchors);
    let chans = all_data_channels();
    let mut rng = StdRng::seed_from_u64(403);
    let data = sounder.sound(P2::new(2.0, 2.0), &chans, &mut rng);

    // Empty database → typed error.
    let empty = FingerprintDb::new(chans.len(), 4);
    assert_eq!(
        empty.query(&data, 4, 1).unwrap_err(),
        FallbackError::EmptyDatabase
    );

    // Shape mismatch → typed error.
    let wrong_shape = {
        let mut db = FingerprintDb::new(chans.len() - 1, 4);
        let short = SoundingData {
            bands: data.bands[..chans.len() - 1].to_vec(),
            anchors: data.anchors.clone(),
        };
        db.insert(P2::new(1.0, 1.0), &short)
            .expect("matching shape");
        db
    };
    assert!(matches!(
        wrong_shape.query(&data, 4, 1).unwrap_err(),
        FallbackError::ShapeMismatch { .. }
    ));

    let mut db = survey_db(&sounder, 404);

    // k larger than the database clamps instead of erroring.
    let est = db.query(&data, 10_000, 1).expect("oversized k is sane");
    assert_eq!(est.neighbors.len(), db.len());
    assert!(est.position.x.is_finite() && est.position.y.is_finite());

    // k = 0 clamps to 1.
    let est = db.query(&data, 0, 1).expect("k=0 clamps to 1");
    assert_eq!(est.neighbors.len(), 1);

    // Fully-masked query (every measurement an exact-zero hole) → typed.
    let mut holed = data.clone();
    for band in &mut holed.bands {
        for row in &mut band.tag_to_anchor {
            for v in row.iter_mut() {
                *v = bloc_num::complex::ZERO;
            }
        }
    }
    assert_eq!(
        db.query(&holed, 4, 1).unwrap_err(),
        FallbackError::NoSurvivingFeatures
    );

    // Duplicate surveyed positions: zero feature distance must not
    // divide by zero — the estimate collapses onto the duplicate.
    let dup_pos = P2::new(3.0, 3.0);
    let mut rng = StdRng::seed_from_u64(405);
    let dup_data = sounder.sound(dup_pos, &chans, &mut rng);
    db.insert(dup_pos, &dup_data).expect("shape matches");
    db.insert(dup_pos, &dup_data).expect("shape matches");
    let est = db.query(&dup_data, 2, 1).expect("duplicates are sane");
    assert!(
        est.position.dist(dup_pos) < 1e-6,
        "duplicate neighbors collapse onto their position: {:?}",
        est.position
    );
    assert!(est.spread_m.is_finite());
}

#[test]
fn supervisor_returns_degraded_not_deferred_when_fallback_can_estimate() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    let clean = clean_sounder(&env, &anchors);
    let stack = stack_for(&clean);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

    // Impossible anchor quorum: every round would defer before sounding.
    let config = RuntimeConfig {
        min_live_anchors: 5,
        ..Default::default()
    };
    let mut sup = SessionSupervisor::new(localizer, 4, config).with_fallback(stack);

    let tag = P2::new(2.4, 2.9);
    for round in 0..3u64 {
        let out = sup.run_round(0.5, |attempt| {
            let mut rng = StdRng::seed_from_u64(500 + round * 10 + attempt as u64);
            clean.sound(tag, &chans, &mut rng)
        });
        match out {
            RoundOutcome::Degraded(d) => {
                assert!(matches!(
                    d.mode,
                    EstimateMode::Fingerprint | EstimateMode::Counts | EstimateMode::FallbackFused
                ));
                assert_eq!(d.weights.csi, 0.0);
                assert!(d.weights.is_convex());
                assert!(d.sigma_m >= 0.35, "fallback sigma respects the floor");
                assert!(
                    d.estimate.position.dist(tag) < 3.7,
                    "round {round}: degraded error {} m",
                    d.estimate.position.dist(tag)
                );
            }
            other => panic!(
                "round {round}: expected Degraded, got {:?}",
                match other {
                    RoundOutcome::Fix(_) => "Fix",
                    RoundOutcome::Deferred(_) => "Deferred",
                    RoundOutcome::Degraded(_) => unreachable!(),
                }
            ),
        }
    }
    assert_eq!(sup.current_mode(), Some("fallback_fused"));
}
