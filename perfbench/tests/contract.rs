//! The benchmark's own contract: names match `BENCHMARK.json`, results
//! parse back losslessly, failed output checks count as failed runs, and
//! every workload passes its output checks on a second seed.

use std::collections::BTreeMap;
use std::sync::Mutex;

use fedmigr_perfbench::check::{guarded, invariants, same_csv, Tally};
use fedmigr_perfbench::e2e::{checked_run, measure, MIN_RUNS};
use fedmigr_perfbench::layers;
use fedmigr_perfbench::report::{valid_name, valid_unit, Metric, Report};
use fedmigr_perfbench::workload::Workload;
use fedmigr_telemetry::trace::JsonValue;

/// Workload runs share process-global instrumentation; run them one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

/// A seed other than the ones used while tuning the benchmark.
const SECOND_SEED: u64 = 90_210;
/// Epochs of a brief run.
const BRIEF: usize = 2;

fn benchmark_json() -> BTreeMap<String, JsonValue> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("valid JSON").as_object().expect("an object").clone()
}

/// `(name, unit)` of every entry of a metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let JsonValue::Array(items) = &benchmark_json()[key] else { panic!("{key} is not a list") };
    let mut out: Vec<(String, String)> = items
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            (m["name"].as_str().unwrap().into(), m["unit"].as_str().unwrap().into())
        })
        .collect();
    out.sort();
    out
}

fn reported(r: &Report) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        r.metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect();
    out.sort();
    out
}

#[test]
fn declared_names_are_valid_and_match_the_workloads() {
    let json = benchmark_json();
    let JsonValue::Array(workloads) = &json["workloads"] else { panic!("workloads") };
    let names: Vec<&str> =
        workloads.iter().map(|w| w.as_object().unwrap()["name"].as_str().unwrap()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in declared("end_to_end").into_iter().chain(declared("per_layer")) {
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(&unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name.clone()), "{name} declared twice");
    }
    assert!(ours.iter().all(|n| valid_name(n)));
}

#[test]
fn every_workload_passes_its_checks_on_a_second_seed_and_reports_the_declared_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (e2e, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for w in Workload::ALL {
        let (r, summary) = measure(w, SECOND_SEED, BRIEF, 0.0);
        assert!(r.correct(), "{}: {r:?}", w.name());
        assert!(
            summary.runs >= MIN_RUNS,
            "{}: the CSV identity check needs repeated runs",
            w.name()
        );
        assert_eq!(reported(&r), e2e, "{} end-to-end metrics", w.name());
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}: a zero metric in {r:?}", w.name());

        let (r, _) = layers::measure(w, SECOND_SEED, BRIEF, 0.0);
        assert!(r.correct(), "{} traced: {r:?}", w.name());
        assert_eq!(reported(&r), per_layer, "{} per-layer metrics", w.name());
        let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
        let runner = if w.is_fleet() { "fleet" } else { "runner" };
        assert!(value(&format!("{runner}.local_train.s")) > 0.0, "{}", w.name());
        assert!(value("tensor.local_train.matmul.ns") > 0.0, "{}", w.name());
        assert!(value("checkpoint.bytes") > 0.0, "{}", w.name());
        // Single-layer timings of entry points this workload's runner never
        // calls read 0.
        let unused: &[&str] = match w {
            Workload::DenseTrain => &["fleet.plan.ns", "net.c2s_round.ns", "net.migration_wave.ns"],
            Workload::DenseComm => &["fleet.plan.ns"],
            Workload::FleetCohort => &[
                "compress.transmit.ns",
                "migration.plan.ns",
                "net.c2s_round.ns",
                "net.migration_wave.ns",
            ],
        };
        for name in unused {
            assert_eq!(value(name), 0.0, "{}: {name}", w.name());
        }
    }
}

#[test]
fn the_traced_run_reproduces_the_layer_picture() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let traced = |w: Workload| {
        let (r, _) = layers::measure(w, SECOND_SEED, w.epochs(), 0.0);
        assert!(r.correct(), "{} traced: {r:?}", w.name());
        move |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value
    };

    // dense_train: local training is nearly all of the round; the identity
    // codec only copies, so codec time is a sliver of it.
    let v = traced(Workload::DenseTrain);
    let round = v("runner.round.s");
    assert!(v("runner.local_train.s") > 0.8 * round, "local_train must dominate dense_train");
    assert!(v("compress.transfer.s") < 0.01 * round, "codec time on dense_train");
    assert_eq!(v("compress.ratio"), 1.0);
    assert_eq!(v("net.flows"), 0.0, "lockstep runs no flows");

    // dense_comm: training and codec work are each a large share.
    let v = traced(Workload::DenseComm);
    let round = v("runner.round.s");
    assert!(v("runner.local_train.s") > 0.25 * round, "local_train share of dense_comm");
    assert!(v("compress.transfer.s") > 0.2 * round, "codec share of dense_comm");
    assert!(v("compress.ratio") > 2.0, "top-k compresses");
    assert!(v("net.flows") > 0.0 && v("drl.updates") > 0.0);
}

#[test]
fn results_parse_back_losslessly() {
    let values = [
        0.1 + 0.2,
        1e-7,
        6.301e-6,
        2.222412828,
        4.600374720000001,
        123456789012.5,
        3.0,
        1e300,
        -0.5,
    ];
    let mut r = Report { attempted: 12, failed: 0, metrics: Vec::new() };
    for (i, v) in values.iter().enumerate() {
        r.push(&format!("m{i}.x_y-z"), "GFLOP/s", *v);
    }
    let back = Report::parse(&r.to_json()).expect("parses");
    assert_eq!(back, r);
    assert_eq!(back.to_json(), r.to_json());

    let failed = Report {
        attempted: 3,
        failed: 1,
        metrics: vec![Metric { name: "run_s".into(), unit: "s".into(), value: 2.5 }],
    };
    let line = failed.to_json();
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"), "{line}");
    assert_eq!(Report::parse(&line).unwrap(), failed);
}

#[test]
fn a_failed_output_check_is_a_failed_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workload::DenseComm;
    let cfg = w.config(SECOND_SEED, BRIEF);
    let mut tally = Tally::default();
    let mut reference = None;

    let good = checked_run(w, SECOND_SEED, &cfg, &mut reference);
    tally.record("good run", good.as_ref().err());
    assert_eq!(tally, Tally { attempted: 1, failed: 0 });
    let (_, mut m) = good.unwrap();

    // A violated invariant.
    m.records[0].train_loss = f32::NAN;
    let bad = invariants(&m, &cfg);
    tally.record("non-finite loss", bad.as_ref().err());
    // A CSV that differs from the same seed's earlier run.
    let drift = same_csv(&mut reference, m.to_csv());
    tally.record("drifted CSV", drift.as_ref().err());
    // A run that panics (zero epochs is rejected by the runner).
    let mut broken = cfg.clone();
    broken.epochs = 0;
    let panicked = checked_run(w, SECOND_SEED, &broken, &mut reference);
    tally.record("panicking run", panicked.as_ref().err());
    assert!(guarded(|| panic!("boom")).unwrap_err().contains("boom"));

    assert_eq!(tally, Tally { attempted: 4, failed: 3 });
    let r = Report { attempted: tally.attempted, failed: tally.failed, metrics: Vec::new() };
    assert!(!r.correct());
    assert!(r.to_json().starts_with("{\"correct\": false"));
}
