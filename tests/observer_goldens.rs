//! Golden hashes of every observer output, plus the contract that
//! observers compose: a run with tracing and metrics both on yields the
//! same two reports as the single-observer runs, and the same simulation
//! outcome as an unobserved run.
//!
//! Each golden is an FNV-1a-64 hash (computed here, so the pin depends on
//! no library code) of the bytes the CLI would emit for the same run: the
//! `--metrics` JSON, the `--trace-summary` text, the `--trace` Chrome JSON
//! and the `nowlab predict --out` JSON. All runs use 4 processors at test
//! scale. A mismatch prints every recomputed hash, so an intended output
//! change is re-pinned in one step.

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{
    predict_app, Axis, FaultPlan, MetricsMode, NetConfig, NodeFault, NodeFaultPlan, RunMeta,
    RunOutcome, RunSpec, SimDelta, SimTime, SweepableApp, TraceMode,
};
use nowlab::trace::chrome::write_chrome_trace;

const PROCS: usize = 4;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn app(name: &str) -> Box<dyn SweepableApp> {
    suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("no app {name}"))
}

/// The CLI's run guards: an event budget, plus a virtual-time deadline
/// on a faulty network.
fn spec(net: NetConfig) -> RunSpec {
    let spec = RunSpec::new(PROCS)
        .with_net(net)
        .with_event_limit(300_000_000);
    if net.faults.is_active() || net.node_faults.is_active() {
        spec.with_time_limit(SimDelta::from_micros_int(120_000_000))
    } else {
        spec
    }
}

fn lossy() -> NetConfig {
    NetConfig::berkeley_now().with_faults(FaultPlan::with_drop_rate(0.02, 1))
}

fn crash_recovery() -> NetConfig {
    let at = SimTime::ZERO + SimDelta::from_micros(1_000.0);
    NetConfig::berkeley_now().with_node_faults(NodeFaultPlan::none().with_seed(1).with_fault(
        NodeFault::crash_recovery(1, at, SimDelta::from_micros(500.0)),
    ))
}

fn metrics_json(app: &dyn SweepableApp, spec: &RunSpec, out: &RunOutcome) -> Vec<u8> {
    let meta = RunMeta {
        app: app.name(),
        procs: spec.procs,
        seed: spec.seed,
    };
    let mut buf = Vec::new();
    out.metrics
        .as_ref()
        .expect("metrics requested")
        .write_json(&meta, &mut buf)
        .unwrap();
    buf
}

fn chrome_json(out: &RunOutcome) -> Vec<u8> {
    let mut buf = Vec::new();
    write_chrome_trace(
        &out.trace.as_ref().expect("trace requested").records,
        &mut buf,
    )
    .unwrap();
    buf
}

fn summary_text(out: &RunOutcome) -> String {
    out.trace
        .as_ref()
        .expect("trace requested")
        .summary
        .render()
}

/// The outcome with its observer reports removed.
fn bare(out: &RunOutcome) -> RunOutcome {
    RunOutcome {
        trace: None,
        metrics: None,
        ..out.clone()
    }
}

/// Runs `name` on `net` with both observers on; asserts the composition
/// contract against single-observer and unobserved runs; returns the
/// (label, hash) pairs of the metrics JSON, summary text and Chrome JSON.
fn observed(label: &str, name: &str, net: NetConfig) -> Vec<(String, u64)> {
    let app = app(name);
    let base = spec(net);
    let untraced = app.run(&base);
    let traced = app.run(&base.with_trace(TraceMode::Full));
    let metered = app.run(&base.with_metrics(MetricsMode::On));
    let both_spec = base
        .with_trace(TraceMode::Full)
        .with_metrics(MetricsMode::On);
    let both = app.run(&both_spec);
    assert_eq!(bare(&both), untraced, "{label}: observers changed the run");
    assert_eq!(bare(&traced), untraced, "{label}: tracing changed the run");
    assert_eq!(bare(&metered), untraced, "{label}: metrics changed the run");
    assert_eq!(
        both.trace, traced.trace,
        "{label}: trace differs beside metrics"
    );
    assert_eq!(
        both.metrics, metered.metrics,
        "{label}: metrics differ beside tracing"
    );
    vec![
        (
            format!("{label}/metrics"),
            fnv1a64(&metrics_json(app.as_ref(), &both_spec, &both)),
        ),
        (
            format!("{label}/summary"),
            fnv1a64(summary_text(&both).as_bytes()),
        ),
        (format!("{label}/chrome"), fnv1a64(&chrome_json(&both))),
    ]
}

fn predicted(label: &str, name: &str) -> (String, u64) {
    let app = app(name);
    let axes = [
        Axis::Overhead,
        Axis::Gap,
        Axis::Latency,
        Axis::BulkBandwidth,
    ];
    let p =
        predict_app(app.as_ref(), &spec(NetConfig::berkeley_now()), &axes, 1).expect("prediction");
    let mut buf = Vec::new();
    p.write_json(&mut buf).unwrap();
    (format!("{label}/predict"), fnv1a64(&buf))
}

fn check(got: Vec<(String, u64)>, want: &[(&str, u64)]) {
    let listing: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", 0x{v:016x}),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "golden table shape:\n{listing}");
    for ((k, v), (wk, wv)) in got.iter().zip(want) {
        assert_eq!(k, wk, "golden table order:\n{listing}");
        assert_eq!(v, wv, "{k} drifted; recomputed table:\n{listing}");
    }
}

#[test]
fn radix_observer_outputs_match_goldens() {
    let mut got = observed("radix", "Radix", NetConfig::berkeley_now());
    got.push(predicted("radix", "Radix"));
    check(
        got,
        &[
            ("radix/metrics", 0x073c_1376_4ad4_5e72),
            ("radix/summary", 0x9f7e_9e95_cc25_35c0),
            ("radix/chrome", 0xf19d_92f2_4eb5_8a3d),
            ("radix/predict", 0xadde_2fd3_e110_8143),
        ],
    );
}

#[test]
fn em3dwrite_observer_outputs_match_goldens() {
    let mut got = observed("em3dwrite", "EM3D(write)", NetConfig::berkeley_now());
    got.push(predicted("em3dwrite", "EM3D(write)"));
    check(
        got,
        &[
            ("em3dwrite/metrics", 0x5b7e_efd9_2a76_e2db),
            ("em3dwrite/summary", 0x860f_fbc8_a778_60ee),
            ("em3dwrite/chrome", 0x6235_01ae_c543_8e1c),
            ("em3dwrite/predict", 0x8e8c_327e_2a48_1798),
        ],
    );
}

#[test]
fn lossy_radix_observer_outputs_match_goldens() {
    check(
        observed("radix-drop", "Radix", lossy()),
        &[
            ("radix-drop/metrics", 0x518e_73d7_4093_01bc),
            ("radix-drop/summary", 0xdc72_9aa0_b0de_08c6),
            ("radix-drop/chrome", 0x6d75_62b2_5c9c_466f),
        ],
    );
}

#[test]
fn crash_recovery_metrics_match_golden() {
    let app = app("Radix");
    let spec = spec(crash_recovery()).with_metrics(MetricsMode::On);
    let out = app.run(&spec);
    assert!(out.stats.total_heartbeats() > 0, "node-fault plan inert");
    check(
        vec![(
            "radix-crash-recovery/metrics".to_string(),
            fnv1a64(&metrics_json(app.as_ref(), &spec, &out)),
        )],
        &[("radix-crash-recovery/metrics", 0xd70e_84eb_3845_69bc)],
    );
}
