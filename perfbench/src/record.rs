//! What a benchmark run keeps in memory: spans around the calls into each
//! layer, and one record per simulator run made through [`TimedApp`].
//!
//! Spans are kept only while tracing is on; run records (the work digest
//! and the correctness gate's input) are kept always.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use nowlab_am::ProcCounters;
use nowlab_core::{MetricsMode, RunOutcome, RunSpec, SweepableApp, TraceMode};

/// One timed interval, in seconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span in its recorder.
    pub id: usize,
    /// What was called.
    pub name: String,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Id of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The deterministic work one simulator run did. Two commits simulate the
/// same work exactly when their digests are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Simulator events fired.
    pub events: u64,
    /// Messages sent (requests and replies).
    pub msgs: u64,
    /// Messages that used the bulk mechanism.
    pub bulk_msgs: u64,
    /// Wire bytes of short messages plus payload bytes of bulk messages.
    pub bytes: u64,
    /// Payload bytes of bulk messages.
    pub bulk_bytes: u64,
    /// Read requests and read replies sent.
    pub read_msgs: u64,
    /// Barriers completed, summed over processors.
    pub barriers: u64,
    /// Collective calls completed, summed over processors.
    pub coll_ops: u64,
    /// Retransmissions (0 on the lossless workloads).
    pub retransmits: u64,
    /// Virtual runtime of the measured region, ns.
    pub runtime_ns: u64,
    /// Application checksum.
    pub check: u64,
    /// The run finished without hitting a limit.
    pub completed: bool,
}

impl Digest {
    fn of(out: &RunOutcome) -> Self {
        let s = &out.stats;
        let sum = |f: fn(&ProcCounters) -> u64| s.per_proc.iter().map(f).sum::<u64>();
        Digest {
            events: out.events,
            msgs: s.total_sends(),
            bulk_msgs: sum(|c| c.sends_bulk),
            bytes: sum(|c| c.bytes_short + c.bytes_bulk),
            bulk_bytes: sum(|c| c.bytes_bulk),
            read_msgs: sum(|c| c.sends_read),
            barriers: sum(|c| c.barriers),
            coll_ops: s.total_coll_ops(),
            retransmits: s.total_retransmits(),
            runtime_ns: out.runtime.as_nanos(),
            check: out.check,
            completed: out.completed,
        }
    }
}

/// One simulator run made through [`TimedApp`].
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Application slug (`radix`, `em3dwrite`, …).
    pub app: String,
    /// Observer mode: `untraced`, `trace-summary`, `trace-full` or `metrics`.
    pub mode: &'static str,
    /// The work the run did.
    pub digest: Digest,
    /// Host seconds the run took.
    pub secs: f64,
    /// Set by the correctness gate.
    pub failed: bool,
}

#[derive(Default)]
struct State {
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    runs: Vec<RunRecord>,
    perturb: Option<usize>,
}

/// Span and run-record store shared by the benchmark and its timing
/// wrappers (single-threaded use; the mutex only satisfies
/// [`SweepableApp`]'s `Sync` bound).
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder with tracing off. `perturb` names the index of a run
    /// whose checksum the wrapper flips — a test hook proving the gate
    /// catches a wrong result.
    pub fn new(perturb: Option<usize>) -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            state: Mutex::new(State {
                perturb,
                ..State::default()
            }),
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("recorder used after a panic")
    }

    /// Turns span recording on or off.
    pub fn set_tracing(&self, on: bool) {
        self.state().tracing = on;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&self, name: &str) -> Option<usize> {
        let start = self.now();
        let mut st = self.state();
        if !st.tracing {
            return None;
        }
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            id,
            name: name.to_string(),
            start,
            end: start,
            parent,
        });
        st.open.push(id);
        Some(id)
    }

    fn close(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now();
        let mut st = self.state();
        st.spans[id].end = end;
        st.open.pop();
    }

    /// Runs `f` inside a span named `name` (a plain call with tracing off).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.state().spans.len()
    }

    /// Spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        self.state().spans[from..].to_vec()
    }

    /// Number of runs recorded so far.
    pub fn run_count(&self) -> usize {
        self.state().runs.len()
    }

    /// Run records from index `from` on.
    pub fn runs_since(&self, from: usize) -> Vec<RunRecord> {
        self.state().runs[from..].to_vec()
    }

    fn push_run(&self, app: &str, mode: &'static str, out: &mut RunOutcome, secs: f64) {
        let mut st = self.state();
        if st.perturb == Some(st.runs.len()) {
            out.check ^= 1;
        }
        let digest = Digest::of(out);
        st.runs.push(RunRecord {
            app: app.to_string(),
            mode,
            digest,
            secs,
            failed: false,
        });
    }
}

/// Lower-case alphanumeric form of an application name, as used in metric
/// names (`EM3D(write)` → `em3dwrite`).
pub fn slug(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// A [`SweepableApp`] that times each run, records its digest, and opens
/// a span around it while tracing is on.
pub struct TimedApp {
    inner: Box<dyn SweepableApp>,
    slug: String,
    span_name: String,
    rec: Arc<Recorder>,
}

impl TimedApp {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn SweepableApp>, rec: Arc<Recorder>) -> Self {
        let slug = slug(inner.name());
        TimedApp {
            span_name: format!("apps.run.{slug}"),
            slug,
            inner,
            rec,
        }
    }
}

fn mode_of(spec: &RunSpec) -> &'static str {
    match (spec.trace, spec.metrics) {
        (TraceMode::Off, MetricsMode::Off) => "untraced",
        (TraceMode::Summary, _) => "trace-summary",
        (TraceMode::Full, _) => "trace-full",
        (TraceMode::Off, MetricsMode::On) => "metrics",
    }
}

impl SweepableApp for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let span = self.rec.open(&self.span_name);
        let t0 = Instant::now();
        let mut out = self.inner.run(spec);
        let secs = t0.elapsed().as_secs_f64();
        self.rec.close(span);
        self.rec.push_run(&self.slug, mode_of(spec), &mut out, secs);
        out
    }
}
