//! # bloc-obs — instrumentation for the BLoc localization pipeline
//!
//! A std-only (zero external dependencies — this workspace builds in
//! network-restricted environments) observability layer giving the
//! pipeline stage timings, counters, and a structured event log:
//!
//! * [`span`] / [`Registry::span`] — hierarchical RAII stage timers over
//!   `Instant` (monotonic). Nested spans compose a `/`-separated path:
//!   `localize/likelihood` is the likelihood stage *as reached from*
//!   `localize`, kept distinct from a standalone `likelihood` call.
//!   Durations land in log₂ histograms named `span.<path>`.
//! * [`counter`] / [`histogram`] — named [`metrics::Counter`]s and
//!   log₂-bucketed [`metrics::Histogram`]s (e.g. `likelihood.grid_cells`,
//!   `sounding.issue.dead_measurement`, `span.localize` in µs), safe to
//!   hammer from any number of threads.
//! * [`event::Sink`] — pluggable structured-event consumers; ships with a
//!   stderr pretty-printer and a JSONL file sink backed by the
//!   hand-rolled [`json`] writer (the workspace has no serde).
//! * [`report::RunReport`] — a point-in-time snapshot of every metric,
//!   diffable across runs (`after.diff(&before)` isolates one pipeline
//!   run), renderable as a per-stage breakdown table, and round-trippable
//!   through JSONL.
//! * [`local::LocalStats`] — per-worker-thread aggregation buffers for
//!   tight parallel loops (the testbed sweep); merged into a [`Registry`]
//!   once at thread join instead of contending per location.
//! * [`trace::Tracer`] — a bounded lock-free ring of span begin/end edges
//!   (every [`SpanGuard`] and every `bloc_num::par` shard records into it
//!   when enabled), exported as Chrome trace-event JSON loadable in
//!   Perfetto — the timeline view the aggregate histograms can't give.
//! * [`cache::CacheStats`] — the `cache.<name>.{hits,misses,…}` naming
//!   convention every shared cache in the workspace reports through, with
//!   cause-attributed invalidations and residency gauges.
//! * [`Registry::set_enabled`] — a whole-registry kill switch; the
//!   `obs_report` bench gates instrumentation overhead (≤ 2%) against the
//!   disabled baseline.
//!
//! ## Attaching to the pipeline
//!
//! All of `bloc-core`'s instrumentation records into
//! [`Registry::global`]. A typical bench/server loop:
//!
//! ```
//! use bloc_obs::{event::StderrSink, Registry};
//!
//! let before = Registry::global().snapshot();
//! // … run soundings through BlocLocalizer::localize …
//! let run = Registry::global().snapshot().diff(&before);
//! println!("{}", run.render());                 // per-stage breakdown
//! # let dir = std::env::temp_dir().join("bloc-obs-doc");
//! # std::fs::create_dir_all(&dir).unwrap();
//! # let path = dir.join("report.jsonl");
//! run.write_jsonl(&path).unwrap();              // machine-readable trail
//! let back = bloc_obs::report::RunReport::read_jsonl(&path).unwrap();
//! assert_eq!(run, back);
//! ```
//!
//! Isolated [`Registry`] instances (for tests, or per-tenant server
//! partitions) behave identically; the global is just a shared instance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod event;
pub mod json;
pub mod ledger;
pub mod local;
pub mod metrics;
pub mod mode;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use cache::CacheStats;
pub use event::{Event, Sink, Value};
pub use ledger::BoundedLedger;
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use report::RunReport;
pub use span::SpanGuard;
pub use trace::Tracer;

use std::sync::Arc;

/// The named counter on the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    Registry::global().counter(name)
}

/// The named gauge on the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    Registry::global().gauge(name)
}

/// The named histogram on the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    Registry::global().histogram(name)
}

/// Opens a hierarchical timing span on the global registry; the stage
/// duration is recorded when the guard drops.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    Registry::global().span(name)
}

/// Emits a structured event to the global registry's sinks.
pub fn emit(event: Event) {
    Registry::global().emit(event)
}

/// Turns the global registry's recording on or off (see
/// [`Registry::set_enabled`]). The `obs_report` overhead gate runs the
/// pipeline once in each state to price the instrumentation.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on)
}
