//! Every workload at a small scale, through the library entry point the
//! command line uses.

use std::sync::{Mutex, PoisonError};

use axqa_benchmark::{run, Options, Report, Workload};
use axqa_harness::json::{parse, Json};

/// Shrinks the paper-scale documents and twig counts a hundredfold.
const SCALE: f64 = 0.01;

/// The recorder and the peak-RSS mark are process-wide: runs take turns.
static GATE: Mutex<()> = Mutex::new(());

fn run_small(workload: Workload, seed: u64, trace: bool) -> Report {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let options = Options {
        seed,
        seconds: 0.05,
        trace,
    };
    run(workload, &options, SCALE).expect("the workload runs")
}

/// `(name, unit)` of every metric in the given list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let spec = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key| metric.get(key).and_then(Json::as_str).expect("field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_reports_each_end_to_end_metric_without_errors() {
    let declared = declared("end_to_end");
    for workload in Workload::ALL {
        let report = run_small(workload, 24301, false);
        assert_eq!(reported(&report), declared, "{}", workload.name());
        assert!(report.attempted > 0 && report.failed == 0, "{report:?}");
        for metric in &report.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{}: {metric:?}",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_runs_report_each_per_layer_metric() {
    let declared = declared("per_layer");
    for workload in Workload::ALL {
        let report = run_small(workload, 24301, true);
        assert_eq!(reported(&report), declared, "{}", workload.name());
        assert_eq!(report.failed, 0, "{}", workload.name());
        assert!(report.table.is_some() && report.chrome_trace.is_some());
    }
}

#[test]
fn the_same_seed_reproduces_accuracy_merges_and_sketch() {
    for workload in [Workload::BuildXmark, Workload::RefreshImdb] {
        let (a, b) = (
            run_small(workload, 11, false),
            run_small(workload, 11, false),
        );
        assert_eq!(a.rel_error_pct.to_bits(), b.rel_error_pct.to_bits());
        assert_eq!(a.merges, b.merges);
        assert_eq!(a.sketch_fnv64, b.sketch_fnv64);
        assert_eq!(a.inputs_fnv64, b.inputs_fnv64);
    }
}

#[test]
fn another_seed_generates_other_inputs() {
    let a = run_small(Workload::EstimateXmark, 11, false);
    let b = run_small(Workload::EstimateXmark, 12, false);
    assert_ne!(a.inputs_fnv64, b.inputs_fnv64);
}

#[test]
fn build_dblp_needs_no_merges() {
    let report = run_small(Workload::BuildDblp, 24301, false);
    assert_eq!(report.merges, 0);
}
