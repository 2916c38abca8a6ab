//! Equivalence suite for the fast likelihood engine (ISSUE 3): every
//! layer — phasor recurrence, SoA channel layout, cached steering
//! geometry, parallel row evaluation — must reproduce the naive reference
//! implementation to ≤ 1e-9 relative error on randomized soundings,
//! including degraded ones, and thread count must never change a result.

use std::sync::Arc;

use bloc_chan::geometry::Room;
use bloc_chan::materials::Material;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan};
use bloc_core::correction::{correct, CorrectedChannels};
use bloc_core::engine::{BandPlan, LikelihoodEngine, SoaChannels};
use bloc_core::likelihood::{
    anchor_likelihood_reference, joint_likelihood, joint_likelihood_reference,
    reference_cell_value, AntennaCombining,
};
use bloc_num::{Grid2D, GridPatch, GridSpec, P2};
use rand::{rngs::StdRng, SeedableRng};

fn anchors(room: &Room) -> Vec<AnchorArray> {
    room.wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect()
}

/// A coarse grid keeps the whole battery fast while still covering
/// thousands of cells.
fn spec(room: &Room) -> GridSpec {
    GridSpec::covering(
        P2::new(-0.5, -0.5),
        P2::new(room.width + 1.0, room.height + 1.0),
        0.2,
    )
}

fn corrected_for(
    env: &Environment,
    tag: P2,
    seed: u64,
    faults: Option<FaultPlan>,
) -> CorrectedChannels {
    let room = Room::new(5.0, 6.0);
    let deployment = anchors(&room);
    let mut sounder = Sounder::new(env, &deployment, SounderConfig::default());
    if let Some(plan) = faults {
        sounder = sounder.with_faults(plan);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    correct(&sounder.sound(tag, &all_data_channels(), &mut rng), true)
        .expect("sounding must correct")
}

/// Asserts `a` and `b` agree per cell to ≤ `tol` relative to the larger
/// grid's peak (the ISSUE's equivalence budget).
fn assert_grids_close(a: &Grid2D, b: &Grid2D, tol: f64, what: &str) {
    assert_eq!(a.spec(), b.spec());
    let peak = a
        .data()
        .iter()
        .chain(b.data())
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    let scale = peak.max(f64::MIN_POSITIVE);
    for (k, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
        let rel = (x - y).abs() / scale;
        assert!(
            rel <= tol,
            "{what}: cell {k} differs by {rel:.3e} rel (lhs {x}, rhs {y}, peak {peak})"
        );
    }
}

fn environments(seed: u64) -> Vec<(&'static str, Environment)> {
    let room = Room::new(5.0, 6.0);
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("free_space", Environment::free_space()),
        (
            "concrete_room",
            Environment::in_room(room)
                .with_walls(Material::concrete(), &mut rng)
                .unwrap(),
        ),
    ]
}

#[test]
fn recurrence_matches_reference_on_randomized_soundings() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let engine = LikelihoodEngine::recurrence();
    let tags = [P2::new(1.3, 1.8), P2::new(3.7, 4.4), P2::new(2.5, 0.6)];
    for (name, env) in environments(100) {
        for (t, &tag) in tags.iter().enumerate() {
            let corrected = corrected_for(&env, tag, 200 + t as u64, None);
            for combining in [
                AntennaCombining::Coherent,
                AntennaCombining::NoncoherentAntennas,
                AntennaCombining::Hybrid,
            ] {
                for i in 0..corrected.n_anchors() {
                    let fast = engine.anchor_likelihood(&corrected, i, spec, combining);
                    let reference = anchor_likelihood_reference(&corrected, i, spec, combining);
                    assert_grids_close(
                        &fast,
                        &reference,
                        1e-9,
                        &format!("{name} tag {tag} anchor {i} {combining:?}"),
                    );
                }
                let fast = engine.joint_likelihood(&corrected, spec, combining);
                let reference = joint_likelihood_reference(&corrected, spec, combining);
                assert_grids_close(
                    &fast,
                    &reference,
                    1e-9,
                    &format!("{name} tag {tag} joint {combining:?}"),
                );
            }
        }
    }
}

#[test]
fn recurrence_matches_reference_under_fault_degradation() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let engine = LikelihoodEngine::recurrence();
    let chans = all_data_channels();
    let plans = [
        FaultPlan {
            seed: 7,
            tag_loss: 0.35,
            master_loss: 0.1,
            ..Default::default()
        },
        FaultPlan {
            seed: 8,
            dropouts: vec![AnchorDropout {
                anchor: 2,
                bands: 0..chans.len(),
            }],
            dead_antennas: vec![(1, 0), (3, 2)],
            ..Default::default()
        },
        FaultPlan {
            seed: 9,
            tag_loss: 0.6,
            dead_antennas: vec![(0, 3)],
            dropouts: vec![AnchorDropout {
                anchor: 1,
                bands: 5..20,
            }],
            ..Default::default()
        },
    ];
    for (p, plan) in plans.into_iter().enumerate() {
        let corrected = corrected_for(
            &Environment::free_space(),
            P2::new(2.4, 3.1),
            300 + p as u64,
            Some(plan),
        );
        let fast = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
        let reference = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
        assert_grids_close(&fast, &reference, 1e-9, &format!("fault plan {p}"));
        // Masking dropped whole bands: the surviving set is a sub-comb,
        // and the plan must still recognize it as uniform (exact path).
        let soa = SoaChannels::build(&corrected);
        assert!(
            soa.plan.is_uniform_comb() || corrected.bands.len() <= 1,
            "surviving bands of plan {p} should still form a comb"
        );
    }
}

#[test]
fn thread_count_never_changes_the_result() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let corrected = corrected_for(
        &environments(42).pop().expect("environments").1,
        P2::new(3.1, 2.2),
        400,
        None,
    );
    let single = LikelihoodEngine::recurrence().joint_likelihood(
        &corrected,
        spec,
        AntennaCombining::default(),
    );
    let (ix1, iy1, _) = single.argmax().expect("peak");
    for threads in [2, 4, 8] {
        let multi = LikelihoodEngine::recurrence()
            .with_threads(threads)
            .joint_likelihood(&corrected, spec, AntennaCombining::default());
        // Bit-identical, not merely close: the row split assigns cells,
        // never reorders per-cell arithmetic.
        assert_eq!(
            single.data(),
            multi.data(),
            "threads={threads} changed cell values"
        );
        let (ix, iy, _) = multi.argmax().expect("peak");
        assert_eq!((ix, iy), (ix1, iy1), "threads={threads} moved the argmax");
    }
}

#[test]
fn reference_kernel_engine_reproduces_free_functions_exactly() {
    // The engine wrapping of the reference kernel changes no arithmetic:
    // bit-identical to the free reference functions.
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let corrected = corrected_for(&Environment::free_space(), P2::new(1.9, 4.2), 500, None);
    let engine = LikelihoodEngine::reference();
    let via_engine = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
    let via_free = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
    assert_eq!(via_engine.data(), via_free.data());
}

#[test]
fn public_free_functions_route_through_the_fast_path() {
    // `likelihood::joint_likelihood` is now the engine: it must stay
    // within the equivalence budget of the reference.
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let corrected = corrected_for(&Environment::free_space(), P2::new(2.2, 2.9), 600, None);
    let fast = joint_likelihood(&corrected, spec, AntennaCombining::default());
    let reference = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
    assert_grids_close(&fast, &reference, 1e-9, "public joint_likelihood");
}

#[test]
fn soa_layout_round_trips_the_alpha_tensor() {
    let corrected = corrected_for(&Environment::free_space(), P2::new(1.1, 1.2), 700, None);
    let soa = SoaChannels::build(&corrected);
    assert_eq!(soa.n_bands(), corrected.bands.len());
    // Plan frequencies ascend and enumerate the original bands.
    assert!(soa.plan.freqs.windows(2).all(|w| w[0] <= w[1]));
    for i in 0..corrected.n_anchors() {
        for (slot, &b) in soa.plan.order.iter().enumerate() {
            let slice = soa.band_antennas(i, slot);
            assert_eq!(slice.len(), corrected.anchors[i].n_antennas);
            for (j, &a) in slice.iter().enumerate() {
                assert_eq!(
                    a, corrected.bands[b].alpha[i][j],
                    "anchor {i} antenna {j} slot {slot}"
                );
            }
        }
    }
}

#[test]
fn off_comb_bands_fall_back_and_still_match_reference() {
    let room = Room::new(5.0, 6.0);
    let spec = spec(&room);
    let mut corrected = corrected_for(&Environment::free_space(), P2::new(2.8, 1.7), 800, None);
    // Push one band half a channel off the comb: the exact recurrence no
    // longer exists and BandPlan must refuse it…
    corrected.bands[10].freq_hz += 1.0e6;
    let soa = SoaChannels::build(&corrected);
    assert!(
        !soa.plan.is_uniform_comb(),
        "off-comb band must disable the recurrence"
    );
    // …while the engine's per-band fallback still matches the reference.
    let fast = LikelihoodEngine::recurrence().joint_likelihood(
        &corrected,
        spec,
        AntennaCombining::default(),
    );
    let reference = joint_likelihood_reference(&corrected, spec, AntennaCombining::default());
    assert_grids_close(&fast, &reference, 1e-9, "off-comb fallback");
}

#[test]
fn localizer_clones_share_one_steering_cache() {
    let room = Room::new(5.0, 6.0);
    let corrected = corrected_for(&Environment::free_space(), P2::new(2.0, 2.0), 900, None);
    let engine = LikelihoodEngine::recurrence();
    let clone = engine.clone();
    let spec = spec(&room);
    let _ = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
    let _ = clone.joint_likelihood(&corrected, spec, AntennaCombining::default());
    assert_eq!(
        engine.cache().len(),
        1,
        "clone must reuse the cached geometry"
    );
    let plan = SoaChannels::build(&corrected).plan;
    let a = engine.cache().tables(
        spec,
        &corrected.anchors,
        &corrected.master_anchor_dist,
        plan.base_hz,
        plan.step_hz,
    );
    let b = clone.cache().tables(
        spec,
        &corrected.anchors,
        &corrected.master_anchor_dist,
        plan.base_hz,
        plan.step_hz,
    );
    assert!(Arc::ptr_eq(&a, &b));
}

#[test]
fn band_plan_handles_the_full_ble_data_comb() {
    // The 37 data channels after correction: one uniform 2 MHz comb with
    // the advertising gaps folded in.
    let corrected = corrected_for(&Environment::free_space(), P2::new(1.0, 5.0), 1000, None);
    let freqs: Vec<f64> = corrected.bands.iter().map(|b| b.freq_hz).collect();
    let plan = BandPlan::build(&freqs);
    assert!(plan.is_uniform_comb());
    assert_eq!(plan.gaps.len(), freqs.len());
    assert_eq!(plan.step_hz, 2.0e6);
}

#[test]
fn simd_dispatch_paths_are_bit_identical_on_degraded_inputs() {
    // ISSUE 8: every compiled kernel backend (scalar always, AVX2 when
    // the host has it) must produce byte-for-byte identical sweeps, not
    // merely close ones — including on FaultPlan-degraded alpha tensors
    // whose dead antennas and dropped bands exercise the zero-weight
    // lanes. The backends share one generic body over IEEE
    // correctly-rounded ops, so this is exact, and `BLOC_NO_SIMD=1`
    // (which forces the scalar level at dispatch) can never change a
    // result.
    use bloc_num::sweep::{self, CellSweep, Combine};

    let levels = sweep::levels_to_test();
    let corrected = corrected_for(
        &Environment::free_space(),
        P2::new(2.4, 3.1),
        1100,
        Some(FaultPlan {
            seed: 13,
            tag_loss: 0.4,
            dead_antennas: vec![(0, 1), (2, 3)],
            dropouts: vec![AnchorDropout {
                anchor: 1,
                bands: 8..17,
            }],
            ..Default::default()
        }),
    );
    let soa = SoaChannels::build(&corrected);
    assert!(soa.plan.is_uniform_comb(), "degraded comb stays uniform");
    let n_cells = 64usize;
    const C: f64 = 299_792_458.0;
    for i in 0..corrected.n_anchors() {
        let nj = corrected.anchors[i].n_antennas;
        let nl = nj.div_ceil(4).max(1) * 4;
        let nb = soa.plan.freqs.len();
        // Synthetic but deterministic per-(cell, antenna) path deltas:
        // the kernel is the unit under test here, not the steering
        // geometry (the engine-level equivalence tests cover that).
        let mut seed_re = vec![1.0; n_cells * nl];
        let mut seed_im = vec![0.0; n_cells * nl];
        let mut step_re = vec![1.0; n_cells * nl];
        let mut step_im = vec![0.0; n_cells * nl];
        for cell in 0..n_cells {
            for j in 0..nj {
                let delta = 0.31 + 0.073 * cell as f64 + 0.0117 * j as f64;
                let ws = std::f64::consts::TAU * soa.plan.base_hz * delta / C;
                let wd = std::f64::consts::TAU * soa.plan.step_hz * delta / C;
                seed_re[cell * nl + j] = ws.cos();
                seed_im[cell * nl + j] = ws.sin();
                step_re[cell * nl + j] = wd.cos();
                step_im[cell * nl + j] = wd.sin();
            }
        }
        // Degraded alpha tensor in slot-major padded layout, straight
        // from the corrected sounding (dead lanes stay exactly zero).
        let mut alpha_re = vec![0.0; nb * nl];
        let mut alpha_im = vec![0.0; nb * nl];
        for (slot, &b) in soa.plan.order.iter().enumerate() {
            for (j, &a) in corrected.bands[b].alpha[i].iter().enumerate() {
                alpha_re[slot * nl + j] = a.re;
                alpha_im[slot * nl + j] = a.im;
            }
        }
        let s = CellSweep {
            seed_re: &seed_re,
            seed_im: &seed_im,
            step_re: &step_re,
            step_im: &step_im,
            alpha_re: &alpha_re,
            alpha_im: &alpha_im,
            n_lanes: nl,
            gaps: &soa.plan.gaps,
            dense: sweep::gaps_are_dense(&soa.plan.gaps),
        };
        for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
            let mut baseline = vec![0.0; n_cells];
            sweep::write_comb_cells_at(levels[0], &s, combine, 0, &mut baseline);
            assert!(baseline.iter().all(|v| v.is_finite() && *v >= 0.0));
            for &level in &levels[1..] {
                let mut out = vec![0.0; n_cells];
                sweep::write_comb_cells_at(level, &s, combine, 0, &mut out);
                let a: Vec<u64> = baseline.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    a, b,
                    "anchor {i} {combine:?}: {level:?} diverged from {:?}",
                    levels[0]
                );
            }
        }
    }
}

#[test]
fn freq_comb_and_band_plan_share_one_comb_implementation() {
    // ISSUE 8 unification: the likelihood engine's `BandPlan` and the
    // synthesizer's `FreqComb` are the *same* `bloc_num::sweep::CombPlan`
    // — identical ordering, base, step and slot assignment from one
    // shared comb detector, no drift possible between the two engines.
    let channels = all_data_channels();
    let freqs: Vec<f64> = channels.iter().map(|c| c.freq_hz()).collect();
    let via_synth = bloc_chan::FreqComb::for_channels(&channels);
    let via_engine = BandPlan::build(&freqs);
    assert_eq!(via_synth.plan(), &via_engine);
    assert!(via_engine.is_uniform_comb());
    // Scrambled input order plans the same comb (order is per-input).
    let mut shuffled = freqs.clone();
    shuffled.reverse();
    shuffled.swap(3, 17);
    let replanned = BandPlan::build(&shuffled);
    assert_eq!(replanned.freqs, via_engine.freqs);
    assert_eq!(replanned.step_hz, via_engine.step_hz);
    assert_eq!(replanned.gaps, via_engine.gaps);
}

/// The windows a hierarchy can ask for on `spec`: interior (one large
/// enough to shard across threads), clamped to a border, a 1×1, a band
/// of whole rows, and the whole grid.
fn windows(spec: GridSpec) -> Vec<(&'static str, GridPatch)> {
    let rows = GridPatch {
        spec: GridSpec {
            origin: P2::new(spec.origin.x, spec.origin.y + 7.0 * spec.resolution),
            ny: 9,
            ..spec
        },
        x0: 0,
        y0: 7,
    };
    vec![
        (
            "interior",
            spec.patch(spec.cell_center(spec.nx / 2, spec.ny / 3), 1.1),
        ),
        (
            "large_interior",
            spec.patch(spec.cell_center(spec.nx / 2, spec.ny / 2), 2.4),
        ),
        ("left_clamped", spec.patch(P2::new(-40.0, 2.5), 0.9)),
        ("top_right_clamped", spec.patch(P2::new(40.0, 40.0), 0.7)),
        (
            "one_cell",
            spec.patch(spec.cell_center(5, spec.ny - 4), 0.0),
        ),
        ("whole_rows", rows),
        ("whole_grid", GridPatch::whole(spec)),
    ]
}

fn bits(g: &Grid2D) -> Vec<u64> {
    g.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn window_maps_are_the_dense_map_restricted_bit_for_bit() {
    // A hierarchy patch reads the full grid's steering tables in place:
    // every window cell must be the very same bits as that parent cell
    // of the dense map — on the gapless comb, on a sparse sub-comb left
    // by a FaultPlan (gap walk, compact layout), on an off-comb band set
    // (per-band `cis` fallback), and for every engine thread count.
    // 120×140 cells: the whole grid shards 4 ways, the large interior
    // window 2 ways (`MIN_CELLS_PER_SHARD` is 4096).
    let spec = GridSpec::covering(P2::new(-0.5, -0.5), P2::new(6.0, 7.0), 0.05);
    let uniform = corrected_for(&Environment::free_space(), P2::new(2.1, 3.4), 1200, None);
    let sub_comb = corrected_for(
        &Environment::free_space(),
        P2::new(3.3, 1.6),
        1201,
        Some(FaultPlan {
            seed: 21,
            tag_loss: 0.2,
            dropouts: vec![AnchorDropout {
                anchor: 0,
                bands: 3..24,
            }],
            ..Default::default()
        }),
    );
    let mut off_comb = corrected_for(&Environment::free_space(), P2::new(1.2, 4.7), 1202, None);
    off_comb.bands[4].freq_hz += 0.7e6;
    for (case, corrected) in [
        ("uniform", &uniform),
        ("fault_sub_comb", &sub_comb),
        ("off_comb", &off_comb),
    ] {
        let plan = SoaChannels::build(corrected).plan;
        assert_eq!(plan.is_uniform_comb(), case != "off_comb", "{case}");
        let combining = AntennaCombining::default();
        let dense: Vec<Grid2D> = (0..corrected.n_anchors())
            .map(|i| {
                LikelihoodEngine::recurrence().anchor_likelihood(corrected, i, spec, combining)
            })
            .collect();
        let (names, wins): (Vec<_>, Vec<_>) = windows(spec).into_iter().unzip();
        let anchors: Vec<usize> = (0..corrected.n_anchors()).collect();
        for threads in [1, 2, 4] {
            let engine = LikelihoodEngine::recurrence().with_threads(threads);
            // Every window × anchor in one batch, window-major.
            let maps = engine.window_likelihoods(corrected, spec, &wins, &anchors, combining);
            assert_eq!(maps.len(), wins.len() * anchors.len(), "{case}");
            for ((name, window), row) in names.iter().zip(&wins).zip(maps.chunks(anchors.len())) {
                for (i, (map, full)) in row.iter().zip(&dense).enumerate() {
                    let expect = full.extract(window);
                    assert_eq!(map.spec(), window.spec, "{case} {name}");
                    assert_eq!(
                        bits(map),
                        bits(&expect),
                        "{case} {name} anchor {i} threads {threads}"
                    );
                }
            }
            // One steering table per grid, however many windows ran.
            assert_eq!(engine.cache().len(), 1, "{case} threads {threads}");
        }
    }
}

#[test]
fn reference_kernel_windows_evaluate_parent_cell_centres() {
    // The reference kernel's window cells are the reference values at
    // the *parent* cell centres — bit for bit, and therefore equal to the
    // dense reference map restricted to the window.
    let spec = GridSpec::covering(P2::new(-0.5, -0.5), P2::new(6.0, 7.0), 0.2);
    let corrected = corrected_for(&Environment::free_space(), P2::new(2.6, 2.2), 1300, None);
    let combining = AntennaCombining::default();
    for threads in [1, 2, 4] {
        let engine = LikelihoodEngine::reference().with_threads(threads);
        for (name, window) in windows(spec) {
            for i in 0..corrected.n_anchors() {
                let map = engine
                    .window_likelihoods(&corrected, spec, &[window], &[i], combining)
                    .remove(0);
                assert_eq!(map.spec(), window.spec);
                for iy in 0..window.spec.ny {
                    for ix in 0..window.spec.nx {
                        let (px, py) = window.to_parent(ix, iy);
                        let want = reference_cell_value(
                            &corrected,
                            i,
                            combining,
                            spec.cell_center(px, py),
                        );
                        assert_eq!(
                            map.get(ix, iy).to_bits(),
                            want.to_bits(),
                            "{name} anchor {i} cell ({ix},{iy}) threads {threads}"
                        );
                    }
                }
                let dense = anchor_likelihood_reference(&corrected, i, spec, combining);
                assert_eq!(
                    bits(&map),
                    bits(&dense.extract(&window)),
                    "{name} anchor {i}"
                );
            }
        }
    }
}
