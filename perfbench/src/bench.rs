//! The three workloads, the closed loop that measures them, the
//! correctness gate, and the metrics they yield.
//!
//! One caller issues runs back to back on one thread (`jobs = 1`). A run
//! of the benchmark sets its workload up [`SETUP_REPS`] times, then makes
//! passes over the workload until the time budget is spent. The
//! end-to-end metrics are medians over the passes of an untraced run. A
//! traced run alternates traced and untraced passes (traced first), then
//! runs the calibration loops, and yields the per-layer metrics.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nowlab_apps::connect::{sequential_components, ConnectParams};
use nowlab_apps::em3d::{self, Em3dParams};
use nowlab_apps::murphi::{sequential_explore, MurphiParams};
use nowlab_apps::nowsort::NowSortParams;
use nowlab_apps::pray::{self, PrayParams};
use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_core::predict::TOLERANCE;
use nowlab_core::{
    predict_app, sweep_many, Axis, MetricsMode, RunSpec, SimDelta, SweepableApp, TraceMode,
};
use nowlab_predict::{analyze, tolerance_threshold};

use crate::calib::{calibrate, Calibration};
use crate::host::{cpu_seconds, peak_rss_mb};
use crate::record::{slug, Digest, Recorder, RunRecord, Span, TimedApp};
use crate::stats::median;

/// Livelock guard on every run: far above any completing run.
pub const EVENT_LIMIT: u64 = 150_000_000;

/// Times the workload is set up per benchmark run (`setup_s` is their
/// median). Set-up builds the applications, the run spec and the sweep
/// grid, then makes one warm-up pass at test scale.
pub const SETUP_REPS: usize = 15;

/// Processors of the warm-up pass that ends each set-up.
const WARM_UP_PROCS: usize = 4;

/// Passes every run makes, whatever its budget: later passes must repeat
/// the first pass's work exactly, and a traced run needs an untraced pass
/// to compare with.
const MIN_PASSES: usize = 2;

/// Upper bound on passes per run, for tiny test-scale workloads.
const MAX_PASSES: usize = 200;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Radix and EM3D(write) swept over latency and overhead, 16 procs.
    SweepGrid,
    /// Each of the ten applications once at baseline, 32 procs.
    Suite32,
    /// Radix at 32 procs untraced, under Summary tracing, with metrics,
    /// and through `predict_app` on the latency axis.
    Observe32,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SweepGrid, Workload::Suite32, Workload::Observe32];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepGrid => "sweep_grid",
            Workload::Suite32 => "suite_32",
            Workload::Observe32 => "observe_32",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn default_procs(self) -> usize {
        match self {
            Workload::SweepGrid => 16,
            Workload::Suite32 | Workload::Observe32 => 32,
        }
    }

    fn apps(self) -> &'static [&'static str] {
        match self {
            Workload::SweepGrid => &["radix", "em3dwrite"],
            Workload::Suite32 => &[],
            Workload::Observe32 => &["radix"],
        }
    }
}

/// How to run the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed, passed to `RunSpec::with_seed`.
    pub seed: u64,
    /// Time budget for the passes, seconds (at least two passes run).
    /// `perfbench/run.py` passes `BENCHMARK.json`'s `run_seconds`.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Application input sizes.
    pub scale: SuiteScale,
    /// Processor count override (the workload's own count when `None`).
    pub procs: Option<usize>,
    /// Test hook: flip the checksum of the run with this index.
    pub perturb: Option<usize>,
}

impl Config {
    /// A benchmark-scale untraced run of `workload` with a budget of
    /// `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace: false,
            scale: SuiteScale::Benchmark,
            procs: None,
            perturb: None,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Reported value (the median of `samples` where there are several).
    pub value: f64,
    /// The samples behind `value`.
    pub samples: Vec<f64>,
}

/// What one benchmark run found.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulator runs made.
    pub attempted: u64,
    /// Runs the correctness gate failed.
    pub failed: u64,
    /// Why runs failed, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The first pass's runs: the work digest.
    pub digest: Vec<RunRecord>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// Passes made.
    pub passes: usize,
}

impl Outcome {
    /// One FNV-1a hash over the digest: equal across two commits exactly
    /// when they simulated the same work.
    pub fn digest_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.digest {
            let d = &r.digest;
            for w in [
                d.events,
                d.msgs,
                d.bulk_msgs,
                d.bytes,
                d.read_msgs,
                d.barriers,
                d.coll_ops,
                d.retransmits,
                d.runtime_ns,
                d.check,
                u64::from(d.completed),
            ] {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }
}

/// A workload ready to measure.
struct Prepared {
    workload: Workload,
    rec: Arc<Recorder>,
    apps: Vec<Box<dyn SweepableApp>>,
    spec: RunSpec,
    grid: Vec<(Axis, Vec<f64>)>,
}

/// Builds the workload's applications (wrapped for timing), its run spec
/// and its sweep grid.
fn prepare(cfg: &Config) -> Prepared {
    let rec = Recorder::new(cfg.perturb);
    let wanted = cfg.workload.apps();
    let apps: Vec<Box<dyn SweepableApp>> = suite_scaled(cfg.scale)
        .into_iter()
        .filter(|a| wanted.is_empty() || wanted.contains(&slug(a.name()).as_str()))
        .map(|a| Box::new(TimedApp::new(a, Arc::clone(&rec))) as Box<dyn SweepableApp>)
        .collect();
    let procs = cfg.procs.unwrap_or(cfg.workload.default_procs());
    let spec = RunSpec::new(procs)
        .with_event_limit(EVENT_LIMIT)
        .with_seed(cfg.seed);
    let grid = match cfg.workload {
        Workload::SweepGrid => [Axis::Latency, Axis::Overhead]
            .into_iter()
            .map(|axis| (axis, axis.paper_values()))
            .collect(),
        Workload::Suite32 | Workload::Observe32 => Vec::new(),
    };
    Prepared {
        workload: cfg.workload,
        rec,
        apps,
        spec,
        grid,
    }
}

/// One pass of the workload at test scale on 4 processors, so that code,
/// allocator and caches are warm before the first measured call.
fn warm_up(cfg: &Config) {
    let small = Config {
        scale: SuiteScale::Test,
        procs: Some(WARM_UP_PROCS),
        perturb: None,
        ..cfg.clone()
    };
    black_box(run_pass(&prepare(&small), false));
}

/// `big()` at benchmark scale, `small()` at test scale, as `suite_scaled`
/// sizes the applications.
fn at_scale<T>(scale: SuiteScale, big: fn() -> T, small: fn() -> T) -> T {
    match scale {
        SuiteScale::Benchmark => big(),
        SuiteScale::Test => small(),
    }
}

/// The checksum each application must produce, from the sequential
/// reference implementations the applications crate publishes (EM3D,
/// P-Ray, Connect, Murphi) and NOW-sort's record conservation. Both EM3D
/// variants share one reference, so they are also checked against each
/// other. Radix, Sample, Barnes and Radb have no public reference; they
/// are checked for agreement across a sweep, across observers and across
/// passes.
fn references(cfg: &Config) -> Vec<(&'static str, u64)> {
    let procs = cfg.procs.unwrap_or(cfg.workload.default_procs());
    let seed = cfg.seed;
    let wanted = cfg.workload.apps();
    let wants = |app: &str| wanted.is_empty() || wanted.contains(&app);
    let mut refs = Vec::new();
    if wants("em3dwrite") || wants("em3dread") {
        let params = at_scale(cfg.scale, Em3dParams::benchmark, Em3dParams::small);
        let check = em3d::sequential_checksum(&params, seed, procs);
        refs.extend([("em3dwrite", check), ("em3dread", check)]);
    }
    if wants("pray") {
        let params = at_scale(cfg.scale, PrayParams::benchmark, PrayParams::small);
        refs.push(("pray", pray::sequential_checksum(&params, seed)));
    }
    if wants("connect") {
        let params = at_scale(cfg.scale, ConnectParams::benchmark, ConnectParams::small);
        let (count, label_sum) = sequential_components(&params, seed);
        refs.push(("connect", label_sum.wrapping_add(count << 40)));
    }
    if wants("murphi") {
        let params = at_scale(cfg.scale, MurphiParams::benchmark, MurphiParams::small);
        let (count, hash_sum) = sequential_explore(&params);
        refs.push(("murphi", hash_sum.wrapping_add(count)));
    }
    if wants("nowsort") {
        let params = at_scale(cfg.scale, NowSortParams::benchmark, NowSortParams::small);
        refs.push(("nowsort", (params.records / procs * procs) as u64));
    }
    refs
}

/// Observer-layer figures of one `observe_32` pass.
#[derive(Clone, Debug, Default)]
struct Observed {
    trace_msgs: u64,
    analyze_s: f64,
    reprice_s: f64,
    rss_delta_mb: f64,
    nodes: usize,
    edges: usize,
    /// `Ok(baseline runtime)` when prediction accepted the baseline.
    predict: Option<Result<SimDelta, String>>,
}

struct Pass {
    traced: bool,
    wall: f64,
    cpu: f64,
    runs: Vec<RunRecord>,
    spans: Vec<Span>,
    observed: Observed,
}

fn run_pass(p: &Prepared, traced: bool) -> Pass {
    p.rec.set_tracing(traced);
    let (runs0, spans0) = (p.rec.run_count(), p.rec.span_count());
    let mut observed = Observed::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    match p.workload {
        Workload::SweepGrid => {
            for (axis, values) in &p.grid {
                // An incomplete baseline comes back as an error; its run
                // record fails the gate, so the error itself adds nothing.
                black_box(p.rec.span("core.sweep_many", || {
                    sweep_many(&p.apps, &p.spec, *axis, values, 1)
                }));
            }
        }
        Workload::Suite32 => {
            for app in &p.apps {
                black_box(app.run(&p.spec));
            }
        }
        Workload::Observe32 => observe(p, traced, &mut observed),
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    p.rec.set_tracing(false);
    Pass {
        traced,
        wall,
        cpu,
        runs: p.rec.runs_since(runs0),
        spans: p.rec.spans_since(spans0),
        observed,
    }
}

/// One `observe_32` pass: Radix untraced, under Summary tracing, with
/// metrics, and through prediction on the latency axis — `predict_app`
/// itself untraced, its steps unrolled into spans when traced.
fn observe(p: &Prepared, traced: bool, obs: &mut Observed) {
    let app = p.apps[0].as_ref();
    let spec = p.spec;
    black_box(app.run(&spec));
    let summary = app.run(&spec.with_trace(TraceMode::Summary));
    obs.trace_msgs = summary.trace.map_or(0, |t| t.summary.msgs);
    black_box(app.run(&spec.with_metrics(MetricsMode::On)));
    let verdict = if traced {
        p.rec.span("core.predict_app", || predict_unrolled(p, obs))
    } else {
        predict_app(app, &spec, &[Axis::Latency], 1).map(|pr| {
            (obs.nodes, obs.edges) = (pr.nodes, pr.edges);
            pr.baseline
        })
    };
    obs.predict = Some(verdict);
}

/// `predict_app` on the latency axis, one span per step: the traced run,
/// `analyze`, re-pricing every grid point, and the threshold/breakdown
/// that finish the prediction.
fn predict_unrolled(p: &Prepared, obs: &mut Observed) -> Result<SimDelta, String> {
    let spec = p.spec;
    let traced = p.apps[0].run(&spec.with_trace(TraceMode::Full));
    if !traced.completed {
        return Err("baseline run hit its limit".to_string());
    }
    let report = traced
        .trace
        .as_ref()
        .ok_or("trace requested but not produced")?;
    let hwm = peak_rss_mb();
    let t0 = Instant::now();
    let analysis = p.rec.span("predict.analyze", || {
        analyze(report, &spec.net, spec.procs, traced.runtime)
    });
    obs.analyze_s = t0.elapsed().as_secs_f64();
    obs.rss_delta_mb = peak_rss_mb() - hwm;
    let analysis = analysis.map_err(|e| e.to_string())?;
    (obs.nodes, obs.edges) = (analysis.node_count(), analysis.edge_count());

    let axis = Axis::Latency;
    let grid: Vec<(f64, nowlab_am::NetConfig)> = axis
        .paper_values()
        .into_iter()
        .filter_map(|v| {
            let knobs = axis.knobs_for(&spec.net.machine, v)?;
            Some((v, spec.net.with_knobs(knobs)))
        })
        .collect();
    let t0 = Instant::now();
    let runtimes: Vec<SimDelta> = p.rec.span("predict.reprice", || {
        grid.iter()
            .map(|(_, cfg)| analysis.predict_runtime(cfg))
            .collect()
    });
    obs.reprice_s = t0.elapsed().as_secs_f64();
    p.rec.span("predict.finish", || {
        let base = traced.runtime.as_nanos() as f64;
        let curve: Vec<(f64, f64)> = grid
            .iter()
            .zip(&runtimes)
            .map(|((v, _), rt)| (*v, rt.as_nanos() as f64 / base))
            .collect();
        black_box(tolerance_threshold(&curve, TOLERANCE));
        black_box(analysis.breakdown(&spec.net));
    });
    Ok(traced.runtime)
}

/// The most common value.
fn most_common<T: Copy + PartialEq>(xs: &[T]) -> Option<T> {
    xs.iter()
        .copied()
        .max_by_key(|x| xs.iter().filter(|y| *y == x).count())
}

fn fail(failures: &mut Vec<String>, r: &mut RunRecord, why: String) {
    if !r.failed {
        r.failed = true;
        failures.push(format!("{} {}: {why}", r.app, r.mode));
    }
}

/// Marks the runs of `pass` that break a check. `refs` are the checksums
/// from [`references`]; `first` is the first pass's runs, which every later
/// pass must repeat exactly (where the first pass's run itself passed).
fn gate(
    workload: Workload,
    pass: &mut Pass,
    refs: &[(&str, u64)],
    first: Option<&[RunRecord]>,
    failures: &mut Vec<String>,
) {
    for r in pass.runs.iter_mut() {
        if !r.digest.completed {
            fail(failures, r, "run did not complete".to_string());
        }
        if r.digest.retransmits > 0 {
            fail(
                failures,
                r,
                format!("{} retransmissions", r.digest.retransmits),
            );
        }
        if let Some(&(_, want)) = refs.iter().find(|(app, _)| *app == r.app) {
            if r.digest.check != want {
                let why = format!("checksum {:016x} != reference {want:016x}", r.digest.check);
                fail(failures, r, why);
            }
        }
    }
    match workload {
        Workload::SweepGrid => {
            // An application's checksum may not depend on the LogGP point.
            let apps: Vec<String> = pass.runs.iter().map(|r| r.app.clone()).collect();
            for app in apps {
                let checks: Vec<u64> = pass
                    .runs
                    .iter()
                    .filter(|r| r.app == app)
                    .map(|r| r.digest.check)
                    .collect();
                let Some(expect) = most_common(&checks) else {
                    continue;
                };
                for r in pass.runs.iter_mut().filter(|r| r.app == app) {
                    if r.digest.check != expect {
                        let why = format!("checksum {:016x} != {expect:016x}", r.digest.check);
                        fail(failures, r, why);
                    }
                }
            }
        }
        Workload::Suite32 => {}
        Workload::Observe32 => {
            // Observers may not change the run they observe: the untraced,
            // Summary, metrics and Full runs agree, and the odd one out
            // is the one that fails.
            let seen: Vec<(u64, u64, u64)> = pass
                .runs
                .iter()
                .map(|r| (r.digest.events, r.digest.runtime_ns, r.digest.check))
                .collect();
            let agreed = most_common(&seen);
            if let Some(agreed) = agreed {
                for (r, s) in pass.runs.iter_mut().zip(&seen) {
                    if *s != agreed {
                        let why = format!("{} differs from the other observer modes", r.mode);
                        fail(failures, r, why);
                    }
                }
            }
            let verdict = match (&pass.observed.predict, agreed) {
                (Some(Ok(rt)), Some((_, runtime_ns, _))) if rt.as_nanos() == runtime_ns => None,
                (Some(Ok(rt)), _) => Some(format!("predicted baseline {rt} != measured")),
                (Some(Err(e)), _) => Some(format!("prediction refused: {e}")),
                (None, _) => Some("prediction not attempted".to_string()),
            };
            if let Some(why) = verdict {
                match pass.runs.iter_mut().find(|r| r.mode == "trace-full") {
                    Some(r) => fail(failures, r, why),
                    None => failures.push(why),
                }
            }
        }
    }
    if let Some(first) = first {
        if first.len() != pass.runs.len() {
            failures.push(format!(
                "pass made {} runs, the first pass {}",
                pass.runs.len(),
                first.len()
            ));
        }
        for (r, want) in pass.runs.iter_mut().zip(first) {
            if !want.failed && r.digest != want.digest {
                fail(failures, r, "work differs from the first pass".to_string());
            }
        }
    }
}

fn metric(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: median(&samples),
        samples,
    }
}

fn total(runs: &[RunRecord], f: fn(&Digest) -> u64) -> f64 {
    runs.iter().map(|r| f(&r.digest)).sum::<u64>() as f64
}

/// Runs the benchmark described by `cfg`.
pub fn run(cfg: &Config) -> Outcome {
    let refs = references(cfg);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        prepared = Some(prepare(cfg));
        warm_up(cfg);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let p = prepared.expect("SETUP_REPS > 0");

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut failures = Vec::new();
    loop {
        let traced = cfg.trace && passes.len().is_multiple_of(2);
        let mut pass = run_pass(&p, traced);
        gate(
            p.workload,
            &mut pass,
            &refs,
            passes.first().map(|f| f.runs.as_slice()),
            &mut failures,
        );
        let last = pass.wall;
        passes.push(pass);
        let spent = start.elapsed().as_secs_f64();
        if passes.len() >= MAX_PASSES || (passes.len() >= MIN_PASSES && spent + last > cfg.seconds)
        {
            break;
        }
    }

    let attempted = passes.iter().map(|p| p.runs.len() as u64).sum();
    let failed = passes
        .iter()
        .flat_map(|p| &p.runs)
        .filter(|r| r.failed)
        .count() as u64;
    let metrics = if cfg.trace {
        let scale = match cfg.scale {
            SuiteScale::Benchmark => 1.0,
            SuiteScale::Test => 0.05,
        };
        per_layer(&passes, &calibrate(scale))
    } else {
        end_to_end(&passes, setup)
    };
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        digest: passes[0].runs.clone(),
        spans: passes.iter().flat_map(|p| p.spans.clone()).collect(),
        passes: passes.len(),
    }
}

fn end_to_end(passes: &[Pass], setup: Vec<f64>) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| total(&p.runs, |d| d.events) / p.wall)
        .collect();
    vec![
        metric("wall_s", "s", walls),
        metric("cpu_s", "s", cpus),
        metric("events_per_s", "1/s", rates),
        metric("peak_rss_mb", "MB", vec![peak_rss_mb()]),
        metric("setup_s", "s", setup),
    ]
}

/// Application slugs of the whole suite, in Table 3 order.
pub fn suite_slugs() -> Vec<String> {
    suite_scaled(SuiteScale::Test)
        .iter()
        .map(|a| slug(a.name()))
        .collect()
}

/// Seconds in spans named `name`, minus the time their children cover.
fn self_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::secs)
                .sum();
            s.secs() - children
        })
        .sum()
}

/// Host seconds of the run with observer mode `mode` over the untraced
/// run of the same pass (0 where the pass has no such pair).
fn overhead(pass: &Pass, mode: &str) -> f64 {
    let secs = |m: &str| pass.runs.iter().find(|r| r.mode == m).map(|r| r.secs);
    match (secs(mode), secs("untraced")) {
        (Some(o), Some(u)) if u > 0.0 => o / u,
        _ => 0.0,
    }
}

/// The counts of one pass the ledger prices.
struct Work {
    events: f64,
    msgs: f64,
    bulk_msgs: f64,
    bulk_bytes: f64,
    reads: f64,
    barriers: f64,
    coll_ops: f64,
}

/// The host-cost ledger: the paper's `r + m·Δ` applied to host time.
///
/// Each unit of work is priced at its calibrated cost, and the messages
/// and simulator events a unit brings with it (counted by its calibration
/// loop) are taken out of the lower layers' counts so nothing is priced
/// twice: reads and barriers go to `splitc`; bulk transfers (per 4 KiB)
/// and the remaining short messages (as posts) to `am`; the events left
/// over to `sim`, at the cost of a task wake. Collectives are priced per
/// participating processor; their messages stay in the `am` count, an
/// overlap of tens of calls against hundreds of thousands of messages.
/// The residual is the share of the traced pass's wall time no unit cost
/// explains.
fn ledger(w: &Work, c: &Calibration, wall: f64) -> Vec<Metric> {
    let bulk_units = w.bulk_msgs.max((w.bulk_bytes / 4096.0).ceil());
    let short = (w.msgs
        - w.bulk_msgs * c.bulk_4k.msgs
        - w.reads * c.read.msgs
        - w.barriers * c.barrier.msgs)
        .max(0.0);
    let posts = if c.post.msgs > 0.0 {
        short / c.post.msgs
    } else {
        0.0
    };
    let unit_events = posts * c.post.events
        + bulk_units * c.bulk_4k.events
        + w.reads * c.read.events
        + w.barriers * c.barrier.events;
    let secs = |ns: f64| vec![ns / 1e9];
    let sim = (w.events - unit_events).max(0.0) * c.wake.ns;
    let am = posts * c.post.ns + bulk_units * c.bulk_4k.ns;
    let splitc = w.reads * c.read.ns + w.barriers * c.barrier.ns;
    let coll = w.coll_ops * c.coll_per_proc_ns();
    let explained = (sim + am + splitc + coll) / 1e9;
    let residual = if wall > 0.0 {
        (wall - explained) / wall
    } else {
        0.0
    };
    vec![
        metric("ledger.sim_s", "s", secs(sim)),
        metric("ledger.am_s", "s", secs(am)),
        metric("ledger.splitc_s", "s", secs(splitc)),
        metric("ledger.coll_s", "s", secs(coll)),
        metric("ledger.explained_s", "s", vec![explained]),
        metric("ledger.residual_share", "ratio", vec![residual]),
    ]
}

fn per_layer(passes: &[Pass], c: &Calibration) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall)
        .collect();
    let first = traced[0];
    let runs = &first.runs;
    let over = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { traced.iter().map(|p| f(p)).collect() };
    let one = |v: f64| vec![v];

    let w = Work {
        events: total(runs, |d| d.events),
        msgs: total(runs, |d| d.msgs),
        bulk_msgs: total(runs, |d| d.bulk_msgs),
        bulk_bytes: total(runs, |d| d.bulk_bytes),
        // A read is a request and its reply.
        reads: total(runs, |d| d.read_msgs) / 2.0,
        barriers: total(runs, |d| d.barriers),
        coll_ops: total(runs, |d| d.coll_ops),
    };

    let mut m = vec![
        metric("sim.events", "count", one(w.events)),
        metric("sim.ns_per_wake", "ns", one(c.wake.ns)),
        metric("sim.ns_per_call", "ns", one(c.call.ns)),
        metric("sim.ns_per_hook", "ns", one(c.hook.ns)),
        metric("am.msgs", "count", one(w.msgs)),
        metric("am.bulk_msgs", "count", one(w.bulk_msgs)),
        metric("am.bytes", "bytes", one(total(runs, |d| d.bytes))),
        metric(
            "am.retransmits",
            "count",
            one(total(runs, |d| d.retransmits)),
        ),
        metric("am.ns_per_post", "ns", one(c.post.ns)),
        metric("am.ns_per_request", "ns", one(c.request.ns)),
        metric("am.ns_per_bulk_4k", "ns", one(c.bulk_4k.ns)),
        metric("splitc.reads", "count", one(w.reads)),
        metric("splitc.barriers", "count", one(w.barriers)),
        metric("splitc.ns_per_read", "ns", one(c.read.ns)),
        metric("splitc.ns_per_write", "ns", one(c.write.ns)),
        metric("splitc.ns_per_barrier", "ns", one(c.barrier.ns)),
        metric("splitc.ns_per_lock", "ns", one(c.lock.ns)),
        metric("coll.ops", "count", one(w.coll_ops)),
    ];
    for (name, cost) in &c.coll {
        m.push(metric(format!("coll.ns_per_op.{name}"), "ns", one(cost.ns)));
    }
    for app in suite_slugs() {
        let secs = |p: &Pass| p.runs.iter().filter(|r| r.app == app).map(|r| r.secs).sum();
        let app_events: f64 = runs
            .iter()
            .filter(|r| r.app == app)
            .map(|r| r.digest.events as f64)
            .sum();
        let run_s = over(&secs);
        let ns_per_event = if app_events > 0.0 {
            run_s.iter().map(|s| s * 1e9 / app_events).collect()
        } else {
            vec![0.0]
        };
        m.push(metric(format!("apps.run_s.{app}"), "s", run_s));
        m.push(metric(
            format!("apps.ns_per_event.{app}"),
            "ns",
            ns_per_event,
        ));
    }
    m.push(metric("core.runs", "count", one(runs.len() as f64)));
    m.push(metric(
        "core.sweep_overhead_s",
        "s",
        over(&|p| self_secs(&p.spans, "core.sweep_many")),
    ));
    m.push(metric(
        "trace.summary_overhead",
        "ratio",
        over(&|p| overhead(p, "trace-summary")),
    ));
    m.push(metric(
        "trace.full_overhead",
        "ratio",
        over(&|p| overhead(p, "trace-full")),
    ));
    m.push(metric(
        "trace.msgs",
        "count",
        one(first.observed.trace_msgs as f64),
    ));
    m.push(metric(
        "metrics.overhead",
        "ratio",
        over(&|p| overhead(p, "metrics")),
    ));
    m.push(metric(
        "predict.analyze_s",
        "s",
        over(&|p| p.observed.analyze_s),
    ));
    m.push(metric(
        "predict.reprice_s",
        "s",
        over(&|p| p.observed.reprice_s),
    ));
    m.push(metric(
        "predict.nodes",
        "count",
        one(first.observed.nodes as f64),
    ));
    m.push(metric(
        "predict.edges",
        "count",
        one(first.observed.edges as f64),
    ));
    // VmHWM only rises, so only the first pass (traced) can show the step.
    m.push(metric(
        "predict.rss_delta_mb",
        "MB",
        one(first.observed.rss_delta_mb),
    ));

    let wall = median(&over(&|p| p.wall));
    m.extend(ledger(&w, c, wall));
    let trace_overhead = if untraced.is_empty() {
        0.0
    } else {
        wall / median(&untraced) - 1.0
    };
    m.push(metric("bench.traced_wall_s", "s", over(&|p| p.wall)));
    m.push(metric("bench.trace_overhead", "ratio", one(trace_overhead)));
    m
}
