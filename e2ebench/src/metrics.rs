//! Metric names, units and the result line.
//!
//! The names here are the contract `BENCHMARK.json` lists; the self-tests
//! hold the two in step.

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("fixes_per_s", "1/s"),
    m("round_ms_p50", "ms"),
    m("round_ms_p90", "ms"),
    m("err_m_p50", "m"),
    m("err_m_worst10", "m"),
    m("delivered_frac", "ratio"),
    m("setup_s", "s"),
    m("rss_peak_mb", "MB"),
];

/// Printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("correction.us_per_round", "us"),
    m("correction.holes_masked_per_round", "count"),
    m("engine.sweep_us_per_round", "us"),
    m("engine.cells_per_round", "count"),
    m("engine.cell_evals_per_s", "1/s"),
    m("steering.hit_frac", "ratio"),
    m("steering.misses_per_round", "count"),
    m("steering.build_ms", "ms"),
    m("steering.resident_mb", "MB"),
    m("multipath.score_us_per_round", "us"),
    m("multipath.peaks_per_round", "count"),
    m("hierarchical.us_per_round", "us"),
    m("hierarchical.seeded_frac", "ratio"),
    m("hierarchical.escape_frac", "ratio"),
    m("hierarchical.candidates_per_round", "count"),
    m("fallback.priors_us_per_round", "us"),
    m("fallback.refine_us_per_round", "us"),
    m("fallback.refined_frac", "ratio"),
    m("tracker.offer_us", "us"),
    m("tracker.gated_frac", "ratio"),
    m("runtime.attempts_per_round", "count"),
    m("runtime.breaker_transitions", "count"),
    m("runtime.traced_round_us", "us"),
    m("runtime.unattributed_us_per_round", "us"),
    m("runtime.unattributed_frac", "ratio"),
    m("fleet.batch_ms_p50", "ms"),
    m("fleet.overhead_frac", "ratio"),
    m("par.busy_frac", "ratio"),
    m("par.threads_spawned_per_batch", "count"),
    m("chan.sound_us", "us"),
    m("chan.path_hit_frac", "ratio"),
    m("obs.trace_overhead_frac", "ratio"),
];

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`, the metrics in
/// `defs` order. Missing or non-finite values are an error, never
/// printed.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}
