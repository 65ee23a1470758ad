//! Cross-layer properties of the metrics subsystem, on real application
//! runs (not the metrics crate's synthetic unit fixtures):
//!
//! 1. **Observer neutrality** — enabling metrics changes *nothing* the
//!    simulation can see: runtime, checksum, completion, event count,
//!    and every per-processor communication counter are bit-identical
//!    between a metered and an unmetered run.
//! 2. **Conservation** — per processor, every sampled window's state
//!    components sum exactly to the window's length, and the run totals
//!    sum exactly to elapsed simulated time. No nanosecond is lost or
//!    double-counted, in integers, with no epsilon.
//! 3. **Collective accounting** — every Split-C reduction reaches the
//!    report's collective counters.

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{MetricsMode, RunSpec, SweepableApp};

fn app_named(name: &str) -> Box<dyn SweepableApp> {
    suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("app {name} not in the test suite"))
}

fn spec(metrics: MetricsMode) -> RunSpec {
    RunSpec::new(4).with_metrics(metrics)
}

#[test]
fn enabling_metrics_never_changes_simulation_results() {
    for name in ["Radix", "EM3D(write)", "Sample"] {
        let app = app_named(name);
        let off = app.run(&spec(MetricsMode::Off));
        let on = app.run(&spec(MetricsMode::On));
        assert!(off.metrics.is_none());
        assert!(on.metrics.is_some(), "{name}: metrics requested but absent");
        assert_eq!(off.runtime, on.runtime, "{name}: runtime perturbed");
        assert_eq!(off.check, on.check, "{name}: checksum perturbed");
        assert_eq!(off.completed, on.completed, "{name}: completion perturbed");
        assert_eq!(off.events, on.events, "{name}: event count perturbed");
        assert_eq!(off.stats, on.stats, "{name}: comm counters perturbed");
    }
}

#[test]
fn sampled_components_sum_exactly_to_elapsed_time_in_every_window() {
    for name in ["Radix", "EM3D(write)"] {
        let app = app_named(name);
        let report = app
            .run(&spec(MetricsMode::On))
            .metrics
            .expect("metrics requested");
        assert!(report.end_ns > 0, "{name}: empty run");
        for (p, series) in report.procs.iter().enumerate() {
            assert!(!series.timeline.is_empty(), "{name} p{p}: no windows");
            for (w, row) in series.timeline.iter().enumerate() {
                let start = w as u64 * report.window_ns;
                let expect = (report.end_ns - start).min(report.window_ns);
                let got: u64 = row.iter().sum();
                assert_eq!(
                    got, expect,
                    "{name} p{p} window {w}: components sum to {got} ns, \
                     window covers {expect} ns"
                );
            }
            let total: u64 = series.totals.iter().sum();
            assert_eq!(
                total, report.end_ns,
                "{name} p{p}: totals must sum to elapsed simulated time"
            );
            let from_windows: u64 = series.timeline.iter().flatten().sum();
            assert_eq!(total, from_windows, "{name} p{p}: timeline disagrees");
        }
        // The phase partition covers the same processor-nanoseconds.
        let phase_ns: u64 = report.summary.phases.iter().map(|ph| ph.elapsed()).sum();
        assert_eq!(
            phase_ns,
            report.end_ns * report.procs.len() as u64,
            "{name}: phases must partition total processor time"
        );
        // Event-density sampling accounts for every fired event.
        let windows = report.end_ns.div_ceil(report.window_ns).max(1) as usize;
        assert_eq!(report.events_per_window.len(), windows, "{name}");
    }
}

#[test]
fn event_density_sampling_accounts_for_every_event() {
    let app = app_named("Radix");
    let out = app.run(&spec(MetricsMode::On));
    let report = out.metrics.expect("metrics requested");
    let sampled: u64 = report.events_per_window.iter().sum();
    assert_eq!(
        sampled, out.events,
        "per-window event counts must sum to the run's total"
    );
}

#[test]
fn split_c_reductions_reach_the_collective_counters() {
    // Each of these apps synchronizes through `Ctx::allreduce_sum` inside
    // its measured region.
    for name in ["Murphi", "Connect", "NOW-sort"] {
        let report = app_named(name)
            .run(&spec(MetricsMode::On))
            .metrics
            .expect("metrics requested");
        assert!(
            report.summary.coll.reduces > 0,
            "{name}: Split-C reductions missing from coll.reduces"
        );
    }
}
