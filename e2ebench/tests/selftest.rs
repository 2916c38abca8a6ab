//! Self-tests of the benchmark: tiny passes of every workload, a replay
//! miss failing loudly, and the printed metric names matching
//! `BENCHMARK.json`.
//!
//! Run with `python3 e2ebench/run.py --selftest` from the repository root.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use bloc_e2ebench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use bloc_e2ebench::workload::{Kind, Size, Workload};
use bloc_e2ebench::{run, Options};
use bloc_obs::json::Json;

/// The tests share the process-wide registry and trace ring; one at a
/// time keeps each test's counters and edges its own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny(kind: Kind, trace: bool) -> Options {
    Options {
        size: Size::tiny(kind),
        setups: 2,
        ..Options::new(kind, 7, 0.05, trace)
    }
}

#[test]
fn every_workload_completes_a_tiny_pass_with_its_checks_passing() {
    let _guard = serial();
    for kind in Kind::ALL {
        let report = run(&tiny(kind, false)).expect("tiny run");
        assert!(report.correct, "{}: {:?}", kind.name(), report.problems);
        assert!(report.attempted > 0);
        let line = report
            .result_line(false)
            .expect("every end-to-end metric measured");
        let parsed = Json::parse(&line).expect("the result line is JSON");
        for def in END_TO_END {
            let value = parsed
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            assert!(value.is_finite(), "{}: {} = {value}", kind.name(), def.name);
        }
    }
}

#[test]
fn a_tiny_traced_run_reports_every_layer_metric() {
    let _guard = serial();
    for kind in [Kind::CorridorTrack, Kind::FleetFaults] {
        let report = run(&tiny(kind, true)).expect("tiny traced run");
        assert!(report.correct, "{}: {:?}", kind.name(), report.problems);
        report
            .result_line(true)
            .expect("every per-layer metric measured");
        let engine_us = report
            .values
            .iter()
            .find(|(n, _)| *n == "engine.sweep_us_per_round")
            .map(|&(_, v)| v);
        assert!(
            engine_us.is_some_and(|v| v > 0.0),
            "{}: the sweep was not attributed",
            kind.name()
        );
    }
}

#[test]
fn a_replay_miss_fails_loudly() {
    let _guard = serial();
    let size = Size::tiny(Kind::CorridorTrack);
    let mut corridor = Workload::setup(Kind::CorridorTrack, 7, size);
    assert!(corridor.pass(false).misses == 0);
    assert!(corridor.forget_sounding((0, 0, 0, 0)));
    let missed = catch_unwind(AssertUnwindSafe(|| corridor.pass(false)));
    assert!(missed.is_err(), "a session replay miss must panic");

    // The fleet's bulkheads contain the panic, so the miss must surface
    // in the pass's own accounting and break the digest.
    let mut fleet = Workload::setup(Kind::FleetFaults, 7, Size::tiny(Kind::FleetFaults));
    assert!(fleet.forget_sounding((0, 0, 0, 0)));
    let out = fleet.pass(false);
    assert!(out.misses > 0);
    assert_ne!(out.digest(), fleet.reference);
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn defs(list: &[MetricDef]) -> Vec<(String, String)> {
    list.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        names(doc.get("end_to_end").expect("end_to_end")),
        defs(END_TO_END)
    );
    assert_eq!(
        names(doc.get("per_layer").expect("per_layer")),
        defs(PER_LAYER)
    );
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
