//! The benchmark's own checks, run at test scale on 4 processors so every
//! workload finishes in about a second.

use nowlab_apps::SuiteScale;
use nowlab_core::json::{self, Value};
use nowlab_perfbench::bench::{run, suite_slugs, Config, Workload};

fn small(workload: Workload, trace: bool) -> Config {
    Config {
        trace,
        scale: SuiteScale::Test,
        procs: Some(4),
        ..Config::new(workload, 1, 0.2)
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn declared_workloads_are_the_benchmark_workloads() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(&small(workload, trace));
            assert_eq!(
                (out.failed, out.failures.len()),
                (0, 0),
                "{}: {:?}",
                workload.name(),
                out.failures
            );
            assert!(out.attempted > 0 && out.passes >= 2);
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared(section), "{} {section}", workload.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "end-to-end metrics are never 0"
                );
            }
        }
    }
}

#[test]
fn traced_run_counts_work_where_the_workload_does_it() {
    let value = |out: &nowlab_perfbench::bench::Outcome, name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let grid = run(&small(Workload::SweepGrid, true));
    assert_eq!(value(&grid, "core.runs"), 34.0);
    assert!(value(&grid, "sim.events") > 0.0 && value(&grid, "am.msgs") > 0.0);
    assert_eq!(value(&grid, "trace.msgs"), 0.0);
    assert_eq!(value(&grid, "apps.run_s.barnes"), 0.0);

    let suite = run(&small(Workload::Suite32, true));
    assert_eq!(value(&suite, "core.runs"), 10.0);
    for app in suite_slugs() {
        assert!(value(&suite, &format!("apps.run_s.{app}")) > 0.0, "{app}");
    }
    assert!(value(&suite, "splitc.reads") > 0.0 && value(&suite, "am.bulk_msgs") > 0.0);

    let observe = run(&small(Workload::Observe32, true));
    assert_eq!(value(&observe, "core.runs"), 4.0);
    assert!(value(&observe, "trace.msgs") > 0.0);
    assert!(value(&observe, "predict.nodes") > 0.0 && value(&observe, "predict.edges") > 0.0);
    assert!(value(&observe, "trace.full_overhead") > 0.0);
    // Same seed, same work: the digest repeats.
    let again = run(&small(Workload::Observe32, false));
    assert_eq!(observe.digest_hash(), again.digest_hash());
}

/// The perturbed run itself fails, and only it: a checksum that differs
/// from the sequential reference (suite_32's EM3D(write) and P-Ray runs),
/// from the rest of the sweep (sweep_grid), or from the other observer
/// modes (observe_32). Later passes repeat the correct result and pass.
#[test]
fn gate_counts_a_perturbed_checksum_as_a_failure() {
    for (workload, runs) in [
        (Workload::SweepGrid, [0, 1]),
        (Workload::Suite32, [1, 5]),
        (Workload::Observe32, [0, 1]),
    ] {
        for perturb in runs {
            let cfg = Config {
                perturb: Some(perturb),
                ..small(workload, false)
            };
            let out = run(&cfg);
            let what = format!("{} with run {perturb} perturbed", workload.name());
            assert!(out.digest[perturb].failed, "{what}: {:?}", out.failures);
            assert_eq!((out.failed, out.failures.len()), (1, 1), "{what}");
        }
    }
}
