//! The performance baseline: verifies the fast likelihood engine and the
//! fast channel-synthesis engine against their naive references, times
//! every configuration at the default testbed problem, and writes the
//! machine-readable `BENCH_likelihood.json` and `BENCH_sounding.json` so
//! future PRs have a perf trajectory to move.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin perf_baseline [iters] [--trace]
//! ```
//!
//! With `--trace` (or `BLOC_TRACE=1`) the run also records span and
//! executor-shard edges into the bounded trace ring and exports
//! `target/reports/perf_baseline-trace.json` — Chrome trace-event JSON,
//! loadable in Perfetto — showing the sound/correct/localize stages and
//! the `par.*` worker lanes on a shared timeline.
//!
//! Exit status is nonzero when a sanity floor fails: fast/reference
//! equivalence (always), nonzero throughput (always), and — on release
//! builds only, debug timings are meaningless — the speedup floors:
//! ≥ 5× single-thread over the reference likelihood, ≥ 4× over the
//! reference sounder, a warm single-thread absolute floor of
//! ≥ 8 M cell-evals/s for the SIMD sweep kernel, and the thread-scaling
//! gate — ≥ 2× at 4 threads for both engines when the host actually has
//! ≥ 4 cores. On smaller hosts the threaded rows deliberately
//! oversubscribe (production callers route through
//! `bloc_num::par::tuned_threads` and never do), so the gate degrades to
//! a pathology guard: threaded rows within 2× of warm serial.

use std::time::Instant;

use bloc_chan::sounder::{all_data_channels, SounderConfig, TONE_OFFSET_HZ};
use bloc_core::correction::correct;
use bloc_core::engine::LikelihoodEngine;
use bloc_core::likelihood::{joint_likelihood_reference, AntennaCombining};
use bloc_core::localizer::BlocLocalizer;
use bloc_core::tracker::TrackerConfig;
use bloc_core::{HierarchicalConfig, HierarchicalLocalizer};
use bloc_num::P2;
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

/// Best-of-N wall time of one call, seconds.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: usize = args.iter().find_map(|s| s.parse().ok()).unwrap_or(5);
    // `--hier-only`: just the hierarchical coarse-to-fine gates. The
    // scalar-dispatch leg in scripts/check.sh uses this — the cell-eval
    // reduction, parity and bit-identity verdicts are kernel-independent,
    // so the cheap leg re-proves them through the portable sweep without
    // re-timing everything else.
    if args.iter().any(|a| a == "--hier-only") {
        bloc_bench::maybe_start_trace();
        let obs_before = bloc_obs::Registry::global().snapshot();
        let failed = hierarchical_baseline(iters, false);
        bloc_bench::emit_run_report("perf_baseline-hier", &obs_before);
        bloc_bench::maybe_finish_trace("perf_baseline-hier");
        if failed {
            std::process::exit(1);
        }
        println!("all hierarchical floors passed");
        return;
    }
    let simd_level = bloc_num::simd::active_level().label();
    println!("=== Likelihood engine perf baseline (best of {iters}, simd {simd_level}) ===");
    bloc_bench::maybe_start_trace();
    let obs_before = bloc_obs::Registry::global().snapshot();

    // The default testbed deployment: paper room, 4×4 anchors, 37 bands,
    // 8 cm grid.
    let scenario = Scenario::paper_testbed(2018);
    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let tag = P2::new(2.1, 3.2);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);
    let corrected = correct(&data, true).expect("clean testbed sounding");
    let spec = scenario.bloc_config().grid;
    let combining = AntennaCombining::Hybrid;
    let cells = spec.nx * spec.ny;
    let n_anchors = corrected.n_anchors();
    let n_bands = corrected.bands.len();
    let cell_evals = (cells * n_anchors) as f64;
    println!(
        "grid {}x{} = {cells} cells · {n_anchors} anchors · {n_bands} bands",
        spec.nx, spec.ny
    );

    // -- Equivalence gate: the fast engine must reproduce the naive
    // reference before any of its timings mean anything.
    let reference_grid = joint_likelihood_reference(&corrected, spec, combining);
    let fast_grid = LikelihoodEngine::recurrence().joint_likelihood(&corrected, spec, combining);
    let peak = reference_grid
        .data()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let max_rel_err = reference_grid
        .data()
        .iter()
        .zip(fast_grid.data())
        .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs() / peak));
    let tol = 1e-9;
    let equivalent = max_rel_err <= tol;
    println!(
        "equivalence: max rel err {max_rel_err:.3e} (tol {tol:.0e}) → {}",
        if equivalent { "PASS" } else { "FAIL" }
    );

    // -- Timings. Each stage under its own bloc-obs span so the run
    // report carries the same breakdown as the JSON.
    let t_reference = {
        let _span = bloc_obs::span("perf.reference");
        time_best(iters, || {
            std::hint::black_box(joint_likelihood_reference(&corrected, spec, combining));
        })
    };
    // Cold: a fresh engine per call pays SoA repack + steering-table
    // build + kernel. This is the first-sounding-of-a-deployment cost.
    let t_cold = {
        let _span = bloc_obs::span("perf.recurrence_cold");
        time_best(iters, || {
            let engine = LikelihoodEngine::recurrence();
            std::hint::black_box(engine.joint_likelihood(&corrected, spec, combining));
        })
    };
    // Warm: one engine, geometry cached — the steady-state per-sounding
    // cost every tracker/sweep call pays.
    let warm_engine = LikelihoodEngine::recurrence();
    let _ = warm_engine.joint_likelihood(&corrected, spec, combining);
    let t_warm = {
        let _span = bloc_obs::span("perf.recurrence_warm");
        time_best(iters, || {
            std::hint::black_box(warm_engine.joint_likelihood(&corrected, spec, combining));
        })
    };
    let mut thread_rows = Vec::new();
    for threads in [2usize, 4] {
        let engine = LikelihoodEngine::recurrence().with_threads(threads);
        let _ = engine.joint_likelihood(&corrected, spec, combining);
        let t = {
            let _span = bloc_obs::span("perf.recurrence_threads");
            time_best(iters, || {
                std::hint::black_box(engine.joint_likelihood(&corrected, spec, combining));
            })
        };
        thread_rows.push((threads, t));
    }

    let throughput = |secs: f64| cell_evals / secs;
    let speedup = t_reference / t_warm;
    println!(
        "reference         {:>9.1} ms  {:>12.0} cell-evals/s",
        t_reference * 1e3,
        throughput(t_reference)
    );
    println!(
        "recurrence cold   {:>9.1} ms  {:>12.0} cell-evals/s",
        t_cold * 1e3,
        throughput(t_cold)
    );
    println!(
        "recurrence warm   {:>9.1} ms  {:>12.0} cell-evals/s",
        t_warm * 1e3,
        throughput(t_warm)
    );
    for (threads, t) in &thread_rows {
        println!(
            "warm, {threads} threads   {:>9.1} ms  {:>12.0} cell-evals/s",
            t * 1e3,
            throughput(*t)
        );
    }
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // Warm serial time over warm 4-thread time: the thread-scaling
    // figure the release gate enforces (≥ 2× when the host has ≥ 4
    // cores; on smaller hosts `tuned_threads` clamps the fan-out, so
    // the ratio only proves threads are not a pessimization).
    let scaling_4t = thread_rows
        .iter()
        .find(|(n, _)| *n == 4)
        .map(|(_, t)| t_warm / t)
        .unwrap_or(1.0);
    println!(
        "single-thread speedup over reference: {speedup:.1}×  (host has {host_threads} core(s))"
    );
    println!("4-thread scaling over warm serial: {scaling_4t:.2}×");

    // -- Machine-readable trajectory point.
    let thread_json: Vec<String> = thread_rows
        .iter()
        .map(|(threads, t)| {
            format!(
                "{{\"threads\": {threads}, \"secs_per_call\": {t:.6}, \"cell_evals_per_sec\": {:.0}}}",
                throughput(*t)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"joint_likelihood\",\n  \"grid\": {{\"nx\": {}, \"ny\": {}, \"cells\": {cells}, \"resolution_m\": {}}},\n  \"anchors\": {n_anchors},\n  \"bands\": {n_bands},\n  \"iters\": {iters},\n  \"host_threads\": {host_threads},\n  \"simd_level\": \"{simd_level}\",\n  \"equivalence\": {{\"max_rel_err\": {max_rel_err:.3e}, \"tol\": {tol:.0e}, \"pass\": {equivalent}}},\n  \"reference\": {{\"secs_per_call\": {t_reference:.6}, \"cell_evals_per_sec\": {:.0}}},\n  \"recurrence_cold\": {{\"secs_per_call\": {t_cold:.6}, \"cell_evals_per_sec\": {:.0}}},\n  \"recurrence_warm\": {{\"secs_per_call\": {t_warm:.6}, \"cell_evals_per_sec\": {:.0}}},\n  \"warm_threads\": [{}],\n  \"scaling_4_threads\": {scaling_4t:.2},\n  \"speedup_single_thread\": {speedup:.2}\n}}\n",
        spec.nx,
        spec.ny,
        spec.resolution,
        throughput(t_reference),
        throughput(t_cold),
        throughput(t_warm),
        thread_json.join(", "),
    );
    let path = "BENCH_likelihood.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    // ===== Channel-synthesis engine (DESIGN.md §10) =====
    println!("\n=== Sounding engine perf baseline (best of {iters}) ===");
    let channels = all_data_channels();
    let n_links =
        scenario.anchors.iter().map(|a| a.n_antennas).sum::<usize>() + scenario.anchors.len() - 1;
    let measurements = (n_links * channels.len() * 2) as f64;
    println!(
        "{n_links} links · {} bands · 2 tones = {measurements} measurements/sounding",
        channels.len()
    );

    // -- Equivalence gate: with ideal hardware (zero offsets/CFO, no
    // calibration error, vanishing noise) every per-tone measurement the
    // fast engine produces must be the reference Environment::channel
    // value. Scale by the largest reference magnitude — deep multipath
    // fades make naive per-band relative error meaningless.
    let ideal_sounder = scenario.sounder(SounderConfig {
        csi_snr_db: 300.0,
        antenna_phase_err_std: 0.0,
        ..SounderConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(9);
    let ideal = ideal_sounder.sound_ideal(tag, &channels, &mut rng);
    let mut snd_scale = f64::MIN_POSITIVE;
    let mut snd_max_err = 0.0f64;
    let mut errs = Vec::new();
    for band in &ideal.bands {
        for (i, anchor) in scenario.anchors.iter().enumerate() {
            for j in 0..anchor.n_antennas {
                let got = band.tag_to_anchor_tones[i][j];
                let want = [
                    scenario
                        .env
                        .channel(tag, anchor.antenna(j), band.freq_hz - TONE_OFFSET_HZ),
                    scenario
                        .env
                        .channel(tag, anchor.antenna(j), band.freq_hz + TONE_OFFSET_HZ),
                ];
                for tone in 0..2 {
                    snd_scale = snd_scale.max(want[tone].abs());
                    errs.push((got[tone] - want[tone]).abs());
                }
            }
        }
    }
    for e in errs {
        snd_max_err = snd_max_err.max(e / snd_scale);
    }
    let snd_tol = 1e-12;
    let snd_equivalent = snd_max_err <= snd_tol;
    println!(
        "equivalence: max rel err {snd_max_err:.3e} (tol {snd_tol:.0e}) → {}",
        if snd_equivalent { "PASS" } else { "FAIL" }
    );

    // -- Timings under the realistic default config.
    let seed = 21u64;
    // Reference: the per-band sequential path (two Environment::channel
    // path rebuilds per link × band).
    let ref_sounder = scenario.sounder(SounderConfig::default());
    let t_snd_reference = {
        let _span = bloc_obs::span("perf.sound_reference");
        time_best(iters, || {
            let mut rng = StdRng::seed_from_u64(seed);
            std::hint::black_box(ref_sounder.sound_censused_reference(tag, &channels, &mut rng));
        })
    };
    // Cold: a fresh sounder per call pays path extraction for every link.
    let t_snd_cold = {
        let _span = bloc_obs::span("perf.sound_cold");
        time_best(iters, || {
            let sounder = scenario.sounder(SounderConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            std::hint::black_box(sounder.sound(tag, &channels, &mut rng));
        })
    };
    // Warm: one sounder, PathSets cached — the steady-state per-sounding
    // cost of a sweep (static links shared across locations, tag links
    // shared across retries of one location).
    let warm_sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = warm_sounder.sound(tag, &channels, &mut rng);
    let t_snd_warm = {
        let _span = bloc_obs::span("perf.sound_warm");
        time_best(iters, || {
            let mut rng = StdRng::seed_from_u64(seed);
            std::hint::black_box(warm_sounder.sound(tag, &channels, &mut rng));
        })
    };
    let mut snd_thread_rows = Vec::new();
    for threads in [2usize, 4] {
        let sounder = scenario
            .sounder(SounderConfig::default())
            .with_threads(threads);
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = sounder.sound(tag, &channels, &mut rng);
        let t = {
            let _span = bloc_obs::span("perf.sound_threads");
            time_best(iters, || {
                let mut rng = StdRng::seed_from_u64(seed);
                std::hint::black_box(sounder.sound(tag, &channels, &mut rng));
            })
        };
        snd_thread_rows.push((threads, t));
    }

    let snd_throughput = |secs: f64| measurements / secs;
    let snd_speedup = t_snd_reference / t_snd_warm;
    println!(
        "reference         {:>9.2} ms  {:>12.0} measurements/s",
        t_snd_reference * 1e3,
        snd_throughput(t_snd_reference)
    );
    println!(
        "fast, cold cache  {:>9.2} ms  {:>12.0} measurements/s",
        t_snd_cold * 1e3,
        snd_throughput(t_snd_cold)
    );
    println!(
        "fast, warm cache  {:>9.2} ms  {:>12.0} measurements/s",
        t_snd_warm * 1e3,
        snd_throughput(t_snd_warm)
    );
    for (threads, t) in &snd_thread_rows {
        println!(
            "warm, {threads} threads   {:>9.2} ms  {:>12.0} measurements/s",
            t * 1e3,
            snd_throughput(*t)
        );
    }
    let snd_scaling_4t = snd_thread_rows
        .iter()
        .find(|(n, _)| *n == 4)
        .map(|(_, t)| t_snd_warm / t)
        .unwrap_or(1.0);
    println!("single-thread sounding speedup over reference: {snd_speedup:.1}×");
    println!("4-thread sounding scaling over warm serial: {snd_scaling_4t:.2}×");

    let snd_thread_json: Vec<String> = snd_thread_rows
        .iter()
        .map(|(threads, t)| {
            format!(
                "{{\"threads\": {threads}, \"secs_per_sounding\": {t:.6}, \"measurements_per_sec\": {:.0}}}",
                snd_throughput(*t)
            )
        })
        .collect();
    let snd_json = format!(
        "{{\n  \"bench\": \"analytic_sounding\",\n  \"links\": {n_links},\n  \"bands\": {},\n  \"measurements_per_sounding\": {measurements},\n  \"iters\": {iters},\n  \"host_threads\": {host_threads},\n  \"simd_level\": \"{simd_level}\",\n  \"equivalence\": {{\"max_rel_err\": {snd_max_err:.3e}, \"tol\": {snd_tol:.0e}, \"pass\": {snd_equivalent}}},\n  \"reference\": {{\"secs_per_sounding\": {t_snd_reference:.6}, \"measurements_per_sec\": {:.0}}},\n  \"fast_cold\": {{\"secs_per_sounding\": {t_snd_cold:.6}, \"measurements_per_sec\": {:.0}}},\n  \"fast_warm\": {{\"secs_per_sounding\": {t_snd_warm:.6}, \"measurements_per_sec\": {:.0}}},\n  \"warm_threads\": [{}],\n  \"scaling_4_threads\": {snd_scaling_4t:.2},\n  \"speedup_single_thread\": {snd_speedup:.2}\n}}\n",
        channels.len(),
        snd_throughput(t_snd_reference),
        snd_throughput(t_snd_cold),
        snd_throughput(t_snd_warm),
        snd_thread_json.join(", "),
    );
    let snd_path = "BENCH_sounding.json";
    match std::fs::write(snd_path, &snd_json) {
        Ok(()) => println!("wrote {snd_path}"),
        Err(e) => eprintln!("warning: could not write {snd_path}: {e}"),
    }

    // ===== Hierarchical coarse-to-fine localization (DESIGN.md §14) =====
    let hier_failed = hierarchical_baseline(iters, true);

    // -- One end-to-end localization round, so the run report (and a
    // `--trace` timeline) carries the full §5 pipeline spans — sound,
    // localize/correct, localize/likelihood, localize/score_peaks — on
    // top of the kernel microbench spans above.
    {
        let e2e_sounder = scenario.sounder(SounderConfig::default()).with_threads(2);
        let localizer = BlocLocalizer::new(scenario.bloc_config())
            .with_engine(LikelihoodEngine::recurrence().with_threads(2));
        let mut rng = StdRng::seed_from_u64(27);
        let e2e_data = e2e_sounder.sound(tag, &channels, &mut rng);
        match localizer.localize(&e2e_data) {
            Ok(est) => {
                std::hint::black_box(&est);
                println!("end-to-end round: localized (full pipeline spans recorded)");
            }
            Err(e) => eprintln!("warning: end-to-end round produced no fix: {e:?}"),
        }
    }

    bloc_bench::emit_run_report("perf_baseline", &obs_before);
    bloc_bench::maybe_finish_trace("perf_baseline");

    // -- Sanity floors.
    let mut failed = hier_failed;
    if !equivalent {
        eprintln!("FLOOR FAILED: recurrence engine diverges from reference ({max_rel_err:.3e} > {tol:.0e})");
        failed = true;
    }
    if !snd_equivalent {
        eprintln!(
            "FLOOR FAILED: fast sounding diverges from reference ({snd_max_err:.3e} > {snd_tol:.0e})"
        );
        failed = true;
    }
    if !(t_warm.is_finite() && t_warm > 0.0 && throughput(t_warm) > 0.0) {
        eprintln!("FLOOR FAILED: warm throughput is not positive");
        failed = true;
    }
    if !(t_snd_warm.is_finite() && t_snd_warm > 0.0 && snd_throughput(t_snd_warm) > 0.0) {
        eprintln!("FLOOR FAILED: warm sounding throughput is not positive");
        failed = true;
    }
    if cfg!(debug_assertions) {
        println!("debug build: speedup floors not enforced (timings are unrepresentative)");
    } else {
        if speedup < 5.0 {
            eprintln!("FLOOR FAILED: single-thread speedup {speedup:.2}× < 5× over reference");
            failed = true;
        }
        if snd_speedup < 4.0 {
            eprintln!(
                "FLOOR FAILED: single-thread sounding speedup {snd_speedup:.2}× < 4× over reference"
            );
            failed = true;
        }
        // ISSUE 8 absolute floor: the SIMD sweep kernel must hold
        // ≥ 8 M cell-evals/s warm on one thread (the paper-testbed
        // problem, Hybrid combining).
        let warm_rate = throughput(t_warm);
        if warm_rate < 8.0e6 {
            eprintln!("FLOOR FAILED: warm single-thread rate {warm_rate:.3e} cell-evals/s < 8e6");
            failed = true;
        }
        // ISSUE 8 thread-scaling gate. On a host with ≥ 4 cores the
        // coarse-grained fan-out must buy ≥ 2× at 4 threads for both
        // engines. On smaller hosts these rows *oversubscribe* the
        // scheduler (production callers tune through
        // `bloc_num::par::tuned_threads` and never request more workers
        // than cores), so honest scaling cannot show up — the gate
        // degrades to a pathology guard: a threaded row more than 2×
        // slower than warm serial means real serialization (a lock on
        // the hot path), not scheduler churn.
        if host_threads >= 4 {
            if scaling_4t < 2.0 {
                eprintln!(
                    "FLOOR FAILED: likelihood 4-thread scaling {scaling_4t:.2}× < 2× on a {host_threads}-core host"
                );
                failed = true;
            }
            if snd_scaling_4t < 2.0 {
                eprintln!(
                    "FLOOR FAILED: sounding 4-thread scaling {snd_scaling_4t:.2}× < 2× on a {host_threads}-core host"
                );
                failed = true;
            }
        } else {
            type Leg<'a> = (&'a str, &'a [(usize, f64)], f64);
            let legs: [Leg; 2] = [
                ("likelihood", &thread_rows, t_warm),
                ("sounding", &snd_thread_rows, t_snd_warm),
            ];
            for (what, rows, serial) in legs {
                for (threads, t) in rows {
                    if *t > serial * 2.0 {
                        eprintln!(
                            "FLOOR FAILED: {what} at {threads} threads ({t:.6}s) more than 2× warm serial ({serial:.6}s) on a {host_threads}-core host — hot path serialized?"
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("all floors passed");
}

/// The hierarchical coarse-to-fine baseline on the 34.3 m × 9.9 m
/// corridor venue: dense-vs-hierarchy accuracy parity and the ≥ 8×
/// cell-eval reduction gate, 2/4-thread bit-identity, the seeded-tracking
/// ≤ 10% budget with exact `engine.cells_evaluated` counter
/// reconciliation, a moving-tag timing (reported, not gated), and (when
/// `write_json`) the `BENCH_hierarchical.json` trajectory point for the
/// obs_report trend gate. Every gate here is a
/// *cell-count or equality* verdict — deterministic in debug and release
/// alike — so unlike the timing floors above, all of them are always
/// enforced. Returns true when any gate failed.
fn hierarchical_baseline(iters: usize, write_json: bool) -> bool {
    let mut failed = false;
    println!("\n=== Hierarchical coarse-to-fine baseline (corridor, best of {iters}) ===");
    let scenario = Scenario::corridor(2026);
    let config = scenario.bloc_config();
    let one_cell = config.grid.resolution * std::f64::consts::SQRT_2 + 1e-9;
    let fine_cells = config.grid.nx * config.grid.ny;
    let dense = BlocLocalizer::new(config).with_engine(LikelihoodEngine::recurrence());
    let hier = HierarchicalLocalizer::new(dense.clone(), HierarchicalConfig::default());
    println!(
        "corridor {:.1} m × {:.1} m: fine {}×{} = {fine_cells} cells, {} coarse cells, {} anchors",
        scenario.room.width,
        scenario.room.height,
        config.grid.nx,
        config.grid.ny,
        hier.coarse_spec().len(),
        scenario.anchors.len()
    );

    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    let tags = [P2::new(6.0, 4.2), P2::new(16.8, 6.1), P2::new(28.4, 3.5)];
    let soundings: Vec<_> = tags
        .iter()
        .map(|&t| sounder.sound(t, &all_data_channels(), &mut rng))
        .collect();

    // -- Accuracy parity and cell-eval reduction, per localize.
    let mut parity = Vec::new();
    let mut reductions = Vec::new();
    for (tag, data) in tags.iter().zip(&soundings) {
        let d = dense.localize(data).expect("dense corridor fix");
        let h = hier.localize(data).expect("hierarchical corridor fix");
        let dist = h.estimate.position.dist(d.position);
        parity.push(dist);
        reductions.push(h.reduction());
        println!(
            "tag {tag}: dense err {:.2} m, hier err {:.2} m, parity {dist:.3} m, cells {} of {} ({:.1}×, {} patches)",
            d.position.dist(*tag),
            h.estimate.position.dist(*tag),
            h.cells_evaluated,
            h.dense_cells_evaluated,
            h.reduction(),
            h.candidates_refined
        );
    }
    let parity_median = bloc_num::stats::median(&parity);
    let reduction_median = bloc_num::stats::median(&reductions);
    println!(
        "median parity {parity_median:.3} m (gate ≤ {one_cell:.3} m), median reduction {reduction_median:.1}× (gate ≥ 8×)"
    );
    if parity_median > one_cell {
        eprintln!(
            "FLOOR FAILED: hierarchical median parity {parity_median:.3} m exceeds one fine cell ({one_cell:.3} m)"
        );
        failed = true;
    }
    if reduction_median < 8.0 {
        eprintln!("FLOOR FAILED: hierarchical cell-eval reduction {reduction_median:.1}× < 8×");
        failed = true;
    }

    // -- Warm wall clock, dense vs hierarchy on the same sounding.
    let _ = dense.localize(&soundings[0]);
    let t_dense = time_best(iters, || {
        std::hint::black_box(dense.localize(&soundings[0]).expect("dense corridor fix"));
    });
    let _ = hier.localize(&soundings[0]);
    let t_hier = time_best(iters, || {
        std::hint::black_box(
            hier.localize(&soundings[0])
                .expect("hierarchical corridor fix"),
        );
    });
    println!(
        "dense localize   {:>8.1} ms   hierarchical {:>8.1} ms → {:.1}× wall",
        t_dense * 1e3,
        t_hier * 1e3,
        t_dense / t_hier
    );

    // -- Thread bit-identity: the 2- and 4-thread hierarchies must
    // reproduce the 1-thread fix to the bit (same cells spent, same
    // peaks, same position).
    let base = hier
        .localize(&soundings[1])
        .expect("hierarchical corridor fix");
    let mut t_hier_4t = t_hier;
    for threads in [2usize, 4] {
        let engine = LikelihoodEngine::recurrence().with_threads(threads);
        let h_t = HierarchicalLocalizer::new(
            BlocLocalizer::new(config).with_engine(engine),
            HierarchicalConfig::default(),
        );
        let est = h_t
            .localize(&soundings[1])
            .expect("hierarchical corridor fix");
        let identical = est.estimate.position == base.estimate.position
            && est.estimate.peaks == base.estimate.peaks
            && est.cells_evaluated == base.cells_evaluated;
        println!(
            "threads {threads}: {}",
            if identical {
                "bit-identical to serial"
            } else {
                "DIVERGED from serial"
            }
        );
        if !identical {
            eprintln!("FLOOR FAILED: hierarchical fix at {threads} threads is not bit-identical");
            failed = true;
        }
        if threads == 4 {
            let _ = h_t.localize(&soundings[0]);
            t_hier_4t = time_best(iters, || {
                std::hint::black_box(
                    h_t.localize(&soundings[0])
                        .expect("hierarchical corridor fix"),
                );
            });
        }
    }
    let scaling_4t = t_hier / t_hier_4t;

    // -- Seeded tracking: a tag walking the aisle. After the first full
    // coarse→fine fix, every seeded round must stay on the fast path and
    // cost ≤ 10% of a dense sweep; and the `engine.cells_evaluated`
    // counter delta must reconcile *exactly* with the estimate's own
    // accounting. Low-noise soundings pin the steady state down (the
    // regime the tracker's innovation gate maintains in production), and
    // every seeded round searches the default tracker's settled gate
    // radius (`gate_sigma × fix_sigma_m`), not a hand-picked one.
    let tracker = TrackerConfig::default();
    let seed_radius = tracker.gate_sigma * tracker.fix_sigma_m;
    let track_sounder = scenario.sounder(SounderConfig {
        csi_snr_db: 30.0,
        antenna_phase_err_std: 0.0,
        ..SounderConfig::default()
    });
    let mut pos = P2::new(10.0, 4.8);
    let mut seed_pos: Option<P2> = None;
    let mut worst_fraction = 0.0f64;
    for round in 0..5 {
        let data = track_sounder.sound(pos, &all_data_channels(), &mut rng);
        let before = bloc_obs::Registry::global().snapshot();
        let est = match seed_pos {
            None => hier.localize(&data).expect("first tracking fix"),
            Some(p) => hier
                .localize_seeded(&data, p, seed_radius)
                .expect("seeded tracking fix"),
        };
        let delta = bloc_obs::Registry::global().snapshot().diff(&before);
        let counted = delta
            .counters
            .get("engine.cells_evaluated")
            .copied()
            .unwrap_or(0);
        if counted != est.cells_evaluated as u64 {
            eprintln!(
                "FLOOR FAILED: round {round} engine.cells_evaluated counted {counted} but the estimate accounts {}",
                est.cells_evaluated
            );
            failed = true;
        }
        if round > 0 {
            let fraction = est.cells_evaluated as f64 / est.dense_cells_evaluated.max(1) as f64;
            worst_fraction = worst_fraction.max(fraction);
            if let Some(escape) = est.escape {
                eprintln!(
                    "FLOOR FAILED: seeded round {round} escaped the fast path ({})",
                    escape.reason()
                );
                failed = true;
            }
        }
        seed_pos = Some(est.estimate.position);
        pos += P2::new(0.3, 0.04);
    }
    println!(
        "seeded tracking: worst round {:.1}% of a dense sweep (gate ≤ 10%)",
        worst_fraction * 100.0
    );
    if worst_fraction > 0.10 {
        eprintln!(
            "FLOOR FAILED: seeded tracking round spent {:.1}% of a dense sweep (> 10%)",
            worst_fraction * 100.0
        );
        failed = true;
    }

    // -- Moving tag: the serving pattern `hier_warm` (one repeated
    // sounding) cannot see. A tag walks the aisle 0.3 m per round and
    // every round localizes a distinct sounding — a full-flow first fix,
    // then seeded on the last fix — so each round's patches sit at fresh
    // windows. Every timed pass walks its own path, so no pass replays an
    // earlier one's windows; soundings are synthesized up front.
    const WALK_ROUNDS: usize = 12;
    let walks: Vec<Vec<_>> = (0..iters.max(1))
        .map(|w| {
            let mut pos = P2::new(2.5 + 1.4 * (w % 15) as f64, 2.0 + 0.45 * (w % 13) as f64);
            (0..WALK_ROUNDS)
                .map(|r| {
                    let data = sounder.sound(pos, &all_data_channels(), &mut rng);
                    pos += P2::new(0.3, if r % 2 == 0 { 0.06 } else { -0.04 });
                    data
                })
                .collect()
        })
        .collect();
    let cache = hier.localizer().engine().cache();
    let builds_before = cache.misses();
    let mut pass = 0;
    let t_walk = time_best(walks.len(), || {
        let mut seed: Option<P2> = None;
        for data in &walks[pass] {
            let est = match seed {
                None => hier.localize(data),
                Some(p) => hier.localize_seeded(data, p, seed_radius),
            }
            .expect("moving-tag corridor fix");
            seed = Some(est.estimate.position);
        }
        pass += 1;
    });
    let t_moving = t_walk / WALK_ROUNDS as f64;
    let walk_builds = cache.misses() - builds_before;
    println!(
        "moving tag       {:>8.1} ms per fix ({WALK_ROUNDS}-round walks, best of {}), {walk_builds} steering-table builds",
        t_moving * 1e3,
        walks.len()
    );

    // -- Trajectory point. `effective_cell_evals_per_sec` is the
    // dense-equivalent throughput (dense cells the fix replaces over the
    // hierarchy's wall time), so both a faster kernel and a smarter
    // search move the same trend line.
    if write_json {
        let dense_cell_evals = (fine_cells * scenario.anchors.len()) as f64;
        let host_threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let json = format!(
            "{{\n  \"bench\": \"hierarchical_localize\",\n  \"venue\": \"corridor\",\n  \"grid\": {{\"nx\": {}, \"ny\": {}, \"cells\": {fine_cells}, \"resolution_m\": {}}},\n  \"coarse_cells\": {},\n  \"anchors\": {},\n  \"iters\": {iters},\n  \"host_threads\": {host_threads},\n  \"simd_level\": \"{}\",\n  \"parity_median_m\": {parity_median:.4},\n  \"reduction_median\": {reduction_median:.2},\n  \"tracking_worst_fraction\": {worst_fraction:.4},\n  \"dense_warm\": {{\"secs_per_localize\": {t_dense:.6}, \"cell_evals_per_sec\": {:.0}}},\n  \"hier_warm\": {{\"secs_per_localize\": {t_hier:.6}, \"effective_cell_evals_per_sec\": {:.0}}},\n  \"hier_moving\": {{\"secs_per_fix\": {t_moving:.6}, \"rounds_per_walk\": {WALK_ROUNDS}, \"steering_builds\": {walk_builds}}},\n  \"scaling_4_threads\": {scaling_4t:.2},\n  \"speedup_wall\": {:.2}\n}}\n",
            config.grid.nx,
            config.grid.ny,
            config.grid.resolution,
            hier.coarse_spec().len(),
            scenario.anchors.len(),
            bloc_num::simd::active_level().label(),
            dense_cell_evals / t_dense,
            dense_cell_evals / t_hier,
            t_dense / t_hier,
        );
        let path = "BENCH_hierarchical.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    failed
}
