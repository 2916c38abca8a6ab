//! # bloc-e2ebench — the end-to-end serving-round benchmark
//!
//! Serves two workloads through the program's public entry points —
//! `SessionSupervisor::run_round` for `corridor_track`,
//! `FleetSupervisor::run_batch` for `fleet_faults` — on soundings that
//! set-up recorded from the channel simulator and every timed pass
//! replays ([`replay`]). The untraced run reports the end-to-end metrics;
//! the traced run attributes each round's wall time to the layers of
//! `bloc-core`, `bloc-num` and `bloc-chan` ([`trace`]). Every pass must
//! reproduce set-up's position digest bit for bit, and the fleet's timed
//! passes at `nproc` workers must match its one-worker reference.
//!
//! `RATIONALE.md` next to this crate says why each workload and metric
//! was chosen.

pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;

use std::time::Instant;

use bloc_ble::link::ConnectionParams;

use metrics::{ratio, END_TO_END, PER_LAYER};
use stats::{median, quantile, worst_mean};
use trace::{Layer, TraceTotals};
use workload::{Activity, Kind, PassOut, Size, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The tail percentile of the latency metrics; the error tail is the
/// mean of the worst `1 − TAIL` of the estimates.
pub const TAIL: f64 = 0.90;

/// BLE connection-interval unit, seconds (`interval_units` counts these).
const CONN_INTERVAL_UNIT_S: f64 = 1.25e-3;

/// Cold steering builds `steering.build_ms` takes the median of.
const STEERING_BUILDS: usize = 5;

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Input seed: scenario, tags and every sounding derive from it.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Set-ups to run (the last one is measured).
    pub setups: usize,
}

impl Options {
    /// The measured configuration for `kind`.
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            kind,
            seed,
            seconds,
            trace,
            size: Size::full(kind),
            setups: if trace { 1 } else { SETUPS },
        }
    }
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Rounds served in the measured passes.
    pub attempted: u64,
    /// Rounds that delivered no position. A replay miss is one of them
    /// (the fleet's bulkhead turns its panic into a position-less round)
    /// or ends the process.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// The context line (JSON).
    pub context: String,
    /// Every failed check, in words.
    pub problems: Vec<String>,
}

impl Report {
    /// The result line for the metrics this run reports.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        metrics::result_line(
            self.correct,
            self.attempted,
            self.failed,
            defs,
            &self.values,
        )
    }
}

/// Loose accuracy ceilings on the median error, metres: a gross
/// regression check, not an accuracy target.
fn err_ceiling_m(kind: Kind) -> f64 {
    match kind {
        Kind::CorridorTrack => 3.0,
        Kind::FleetFaults => 2.5,
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn check_passes(w: &Workload, passes: &[PassOut], problems: &mut Vec<String>) {
    for (i, p) in passes.iter().enumerate() {
        if p.misses > 0 {
            problems.push(format!("pass {i}: {} replay misses", p.misses));
        }
        if p.unconsumed > 0 {
            problems.push(format!(
                "pass {i}: {} recorded soundings never replayed",
                p.unconsumed
            ));
        }
        if p.digest() != w.reference {
            problems.push(format!(
                "pass {i}: position digest {:#018x} != reference {:#018x}",
                p.digest(),
                w.reference
            ));
        }
        if let Some(t) = &p.trace {
            if t.unmatched > 0 {
                problems.push(format!("pass {i}: {} unmatched trace edges", t.unmatched));
            }
        }
    }
}

fn errors_m(pass: &PassOut) -> Vec<f64> {
    pass.rounds
        .iter()
        .filter_map(|r| r.position.map(|p| p.dist(r.truth)))
        .collect()
}

/// Median over passes of each pass's delivered estimates per wall
/// second. Every pass replays the whole workload, so each is one
/// complete sample of its mix of rounds.
fn fixes_per_s(passes: &[PassOut]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.delivered() as f64, p.wall_s))
        .collect();
    median(&per_pass)
}

/// Each pass's median round time, taken at the slower quartile across
/// the run's passes. A shared host can alternate between a fast and a slow
/// phase that each last seconds; a median pooled over the whole run
/// flips between them, while the slower quartile of per-pass medians
/// stays in the slow phase that nearly every run contains.
fn round_ms_p50(passes: &[PassOut]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| {
            median(
                &p.rounds
                    .iter()
                    .map(|r| r.latency_us / 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    quantile(&per_pass, 0.75)
}

/// Runs one invocation: set-up, measured passes, checks and metrics.
///
/// # Errors
///
/// When a metric cannot be measured at all (the trace ring wrapped).
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let mut references = Vec::new();
    let mut built = None;
    for _ in 0..opts.setups.max(1) {
        // Drop the previous set-up first, so only one is ever resident.
        drop(built.take());
        let start = Instant::now();
        let w = Workload::setup(opts.kind, opts.seed, opts.size);
        setup_s.push(start.elapsed().as_secs_f64());
        references.push(w.reference);
        built = Some(w);
    }
    let w = built.ok_or("no set-up ran")?;
    if references.iter().any(|&r| r != w.reference) {
        problems.push(format!(
            "set-ups disagree on the reference digest: {references:x?}"
        ));
    }

    let (measured, traced) = if opts.trace {
        let untraced = w.passes(opts.seconds / 2.0);
        let capacity = w.trace_capacity();
        let traced = w.traced_passes(opts.seconds / 2.0, capacity)?;
        (untraced, traced)
    } else {
        (w.passes(opts.seconds), Vec::new())
    };
    check_passes(&w, &measured, &mut problems);
    check_passes(&w, &traced, &mut problems);

    let all = || measured.iter().chain(traced.iter());
    let attempted: u64 = all().map(|p| p.rounds.len() as u64).sum();
    let delivered: u64 = all().map(PassOut::delivered).sum();

    let latencies: Vec<f64> = measured
        .iter()
        .flat_map(|p| p.rounds.iter().map(|r| r.latency_us / 1e3))
        .collect();
    let errors = errors_m(&measured[0]);
    let err_p50 = median(&errors);
    if err_p50.is_nan() || err_p50 > err_ceiling_m(opts.kind) {
        problems.push(format!(
            "median error {err_p50:.3} m exceeds the {} m ceiling",
            err_ceiling_m(opts.kind)
        ));
    }
    let values = if opts.trace {
        per_layer(&w, &measured, &traced)
    } else {
        vec![
            ("fixes_per_s", fixes_per_s(&measured)),
            ("round_ms_p50", round_ms_p50(&measured)),
            ("round_ms_p90", quantile(&latencies, TAIL)),
            ("err_m_p50", err_p50),
            ("err_m_worst10", worst_mean(&errors, 1.0 - TAIL)),
            ("delivered_frac", ratio(delivered as f64, attempted as f64)),
            ("setup_s", median(&setup_s)),
            ("rss_peak_mb", rss_peak_mb()),
        ]
    };

    let hop_ms =
        f64::from(ConnectionParams::bloc_default().interval_units) * CONN_INTERVAL_UNIT_S * 1e3;
    let compute_ms: f64 = latencies.iter().sum::<f64>() / delivered.max(1) as f64;
    let context = format!(
        concat!(
            "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
            "\"nproc\": {}, \"threads\": {}, \"simd\": \"{}\", \"hops\": {}, ",
            "\"airtime_ms_per_fix\": {:.2}, \"compute_ms_per_fix\": {:.4}, ",
            "\"tags\": {}, \"rounds_per_tag\": {}, \"passes\": {}, \"round_samples\": {}, ",
            "\"err_samples\": {}, \"tail_percentile\": {}, \"setups\": {}, ",
            "\"soundings_recorded\": {}, \"digest\": \"{:#018x}\"}}}}"
        ),
        opts.kind.name(),
        opts.seed,
        opts.trace,
        bloc_num::par::max_threads(),
        w.threads,
        bloc_num::simd::active_level().label(),
        w.hops,
        hop_ms * w.hops as f64,
        compute_ms,
        w.size.tags,
        w.size.rounds,
        measured.len() + traced.len(),
        latencies.len(),
        errors.len(),
        TAIL * 100.0,
        setup_s.len(),
        w.recorded(),
        w.reference,
    );
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - delivered,
        values,
        context,
        problems,
    })
}

/// The per-layer metrics: counts from the untraced passes, times from
/// the traced ones.
fn per_layer(w: &Workload, untraced: &[PassOut], traced: &[PassOut]) -> Vec<(&'static str, f64)> {
    let a = Activity::of(untraced);
    let at = Activity::of(traced);
    let mut t = TraceTotals::default();
    for p in traced {
        if let Some(pt) = &p.trace {
            t.absorb(pt);
        }
    }
    let rounds_u: f64 = untraced.iter().map(|p| p.rounds.len() as f64).sum();
    let rounds_t = t.rounds as f64;
    let us_per_round = |layer: Layer| ratio(t.ns(layer) as f64 / 1e3, rounds_t);
    let sum = |f: fn(&PassOut) -> u64| untraced.iter().map(f).sum::<u64>() as f64;

    let hits = a.counter("cache.steering.hits");
    let misses = a.counter("cache.steering.misses");
    let hier_calls = a.counter("hier.localize.calls") + a.counter("hier.localize.seeded");
    let batches_t: f64 = traced
        .iter()
        .map(|p| {
            if p.batch_ms.is_empty() {
                p.rounds.len() as f64
            } else {
                p.batch_ms.len() as f64
            }
        })
        .sum();
    let batch_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.batch_ms.iter().copied())
        .collect();
    let worker_us: f64 = untraced.iter().map(|p| p.worker_us).sum();
    let busy_us: f64 = untraced.iter().map(|p| p.busy_us).sum();
    let round_us = ratio(t.round_ns as f64 / 1e3, rounds_t);
    let unattributed_us = ratio(
        (t.round_ns as f64 - t.attributed_ns() as f64) / 1e3,
        rounds_t,
    );
    let resident_bytes = bloc_obs::Registry::global()
        .snapshot()
        .gauges
        .get("cache.steering.resident_bytes")
        .copied()
        .unwrap_or(0.0);
    vec![
        ("correction.us_per_round", us_per_round(Layer::Correction)),
        (
            "correction.holes_masked_per_round",
            ratio(a.counter("fault.recovered.holes"), rounds_u),
        ),
        ("engine.sweep_us_per_round", us_per_round(Layer::Engine)),
        (
            "engine.cells_per_round",
            ratio(a.counter("engine.cells_evaluated"), rounds_u),
        ),
        (
            "engine.cell_evals_per_s",
            ratio(
                at.counter("engine.cells_evaluated"),
                t.ns(Layer::Engine) as f64 / 1e9,
            ),
        ),
        ("steering.hit_frac", ratio(hits, hits + misses)),
        ("steering.misses_per_round", ratio(misses, rounds_u)),
        (
            "steering.build_ms",
            w.probe
                .as_ref()
                .map_or(0.0, |p| p.build_ms(STEERING_BUILDS)),
        ),
        ("steering.resident_mb", resident_bytes / (1024.0 * 1024.0)),
        (
            "multipath.score_us_per_round",
            us_per_round(Layer::Multipath),
        ),
        (
            "multipath.peaks_per_round",
            ratio(a.counter("multipath.peaks_scored"), rounds_u),
        ),
        (
            "hierarchical.us_per_round",
            us_per_round(Layer::Hierarchical),
        ),
        (
            "hierarchical.seeded_frac",
            ratio(a.counter("hier.localize.seeded"), hier_calls),
        ),
        (
            "hierarchical.escape_frac",
            ratio(a.prefixed("hier.escape."), hier_calls),
        ),
        (
            "hierarchical.candidates_per_round",
            ratio(a.counter("hier.candidates"), rounds_u),
        ),
        ("fallback.priors_us_per_round", us_per_round(Layer::Priors)),
        ("fallback.refine_us_per_round", us_per_round(Layer::Refine)),
        (
            "fallback.refined_frac",
            ratio(sum(|p| p.refined), sum(|p| p.fixes)),
        ),
        (
            "tracker.offer_us",
            ratio(
                t.ns(Layer::Tracker) as f64 / 1e3,
                t.replays[Layer::Tracker as usize] as f64,
            ),
        ),
        (
            "tracker.gated_frac",
            ratio(sum(|p| p.gated), sum(|p| p.offered)),
        ),
        (
            "runtime.attempts_per_round",
            ratio(sum(|p| p.requests), rounds_u),
        ),
        (
            "runtime.breaker_transitions",
            ratio(a.prefixed("runtime.breaker."), untraced.len() as f64),
        ),
        ("runtime.traced_round_us", round_us),
        ("runtime.unattributed_us_per_round", unattributed_us),
        (
            "runtime.unattributed_frac",
            ratio(unattributed_us, round_us),
        ),
        (
            "fleet.batch_ms_p50",
            if batch_ms.is_empty() {
                0.0
            } else {
                median(&batch_ms)
            },
        ),
        ("fleet.overhead_frac", ratio(worker_us - busy_us, worker_us)),
        ("par.busy_frac", a.par_busy_frac()),
        (
            "par.threads_spawned_per_batch",
            ratio(t.worker_threads as f64, batches_t),
        ),
        ("chan.sound_us", w.chan.sound_us),
        ("chan.path_hit_frac", w.chan.path_hit_frac),
        (
            "obs.trace_overhead_frac",
            1.0 - ratio(fixes_per_s(traced), fixes_per_s(untraced)),
        ),
    ]
}
