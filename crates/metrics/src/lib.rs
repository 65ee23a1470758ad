//! Simulated-time metrics registry for the nowlab cluster laboratory.
//!
//! Where `nowlab-trace` attributes cost *per message*, this crate
//! aggregates *per processor-nanosecond*: every instant of every
//! processor's virtual time is attributed to exactly one of seven states
//! (compute, send overhead, receive overhead, Δo busy-loop, send-window
//! wait, receive stall, idle), bucketed into fixed simulated-time windows
//! and segmented by application phase markers. The accounting is
//! *conserving by construction*: a per-processor cursor walks virtual
//! time monotonically and every `[from, to)` span is deposited exactly
//! once, so the components of each window sum exactly to the window
//! length (the aggregate twin of the trace crate's telescoping
//! invariant).
//!
//! The recorder is a consumer of the laboratory's single observation
//! channel: it implements [`TraceSink`] and reads the processor-time and
//! NIC facts out of the same [`TraceEvent`] stream the per-message trace
//! recorder consumes. Like tracing, it is zero-cost when disabled (the AM
//! layer pays one pointer check per event site) and *passive*: it
//! schedules no events of its own, so enabling metrics cannot perturb
//! virtual time, event counts, or any simulation result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;

use nowlab_sim::{SimDelta, SimTime};
use nowlab_trace::{OverheadKind, SendEvent, TraceEvent, TraceSink, WaitKind};

pub mod json;
mod render;
mod report;

pub use render::render_report;
pub use report::{
    write_sweep_json, CollSummary, DetectorSummary, MetricsReport, MetricsSummary, PhaseSlice,
    ProcSeries, RunMeta, SweepPointMeta, WireBusy,
};

/// Whether the metrics registry records anything for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// No recording; the simulation pays one pointer check per hook.
    #[default]
    Off,
    /// Record utilization timelines, phase tables, and AM counters.
    On,
}

/// Number of processor states tracked ([`ProcState`] variants).
pub const N_STATES: usize = 7;

/// The exhaustive, mutually exclusive classification of a processor's
/// virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Application compute (`Ctx::compute` spans).
    Compute = 0,
    /// Baseline send overhead `o_send` (processor busy injecting).
    OSend = 1,
    /// Baseline receive overhead `o_recv` (processor busy extracting).
    ORecv = 2,
    /// The Δo busy-loop added by the overhead knob (paper §3).
    DeltaO = 3,
    /// Stalled for a send-window credit (flow control back-pressure).
    TxWait = 4,
    /// Stalled polling for an awaited message or deadline.
    RxStall = 5,
    /// None of the above (local bookkeeping between spans).
    Idle = 6,
}

impl ProcState {
    /// All states, in report column order.
    pub const ALL: [ProcState; N_STATES] = [
        ProcState::Compute,
        ProcState::OSend,
        ProcState::ORecv,
        ProcState::DeltaO,
        ProcState::TxWait,
        ProcState::RxStall,
        ProcState::Idle,
    ];

    /// Stable machine-readable label (also the JSON schema order).
    pub fn label(self) -> &'static str {
        match self {
            ProcState::Compute => "compute",
            ProcState::OSend => "o_send",
            ProcState::ORecv => "o_recv",
            ProcState::DeltaO => "delta_o",
            ProcState::TxWait => "tx_wait",
            ProcState::RxStall => "rx_stall",
            ProcState::Idle => "idle",
        }
    }
}

/// Default sampling window: 100 µs of simulated time (the suite's
/// test-scale runs last a few ms; benchmark runs hundreds).
pub const DEFAULT_WINDOW: SimDelta = SimDelta::from_micros_int(100);

/// Name attributed to time before the first explicit phase marker.
pub const INIT_PHASE: &str = "init";

#[derive(Clone, Default)]
struct ProcRec {
    /// Virtual nanosecond up to which this processor is fully attributed.
    cursor: u64,
    /// The outermost wait the processor is currently inside, if any.
    waiting: Option<WaitKind>,
    /// Interned id of the current application phase.
    phase: usize,
    totals: [u64; N_STATES],
    timeline: Vec<[u64; N_STATES]>,
    nic_tx: Vec<u64>,
    nic_rx: Vec<u64>,
    nic_tx_total: u64,
    nic_rx_total: u64,
}

struct RecState {
    window: u64,
    procs: Vec<ProcRec>,
    wire: BTreeMap<(usize, usize), u64>,
    phase_names: Vec<String>,
    phase_ids: BTreeMap<String, usize>,
    /// Per phase, per state, nanoseconds summed over all processors.
    phase_totals: Vec<[u64; N_STATES]>,
    retransmits: u64,
    depth_max: u64,
    depth_sum: u128,
    depth_n: u64,
}

/// The metrics consumer of the [`TraceEvent`] stream: cursor-based exact
/// attribution into fixed simulated-time windows.
///
/// Per processor, a cursor tracks the last attributed nanosecond. Leaf
/// busy spans (compute and overhead events) first flush the gap `[cursor, from)` to the
/// *background* state — the enclosing wait kind if the processor is
/// inside `wait_until`/`idle_until`, otherwise [`ProcState::Idle`] —
/// then deposit the span itself. Because every nanosecond is deposited
/// exactly once, each window's components sum exactly to the window
/// length (exact `u64` arithmetic, no float accumulation).
pub struct MetricsRecorder {
    state: RefCell<RecState>,
}

/// Splits `[from, to)` across fixed windows, adding each chunk to
/// `bump(window_index, chunk_ns)`.
fn deposit(window: u64, mut from: u64, to: u64, mut bump: impl FnMut(usize, u64)) {
    while from < to {
        let w = from / window;
        let wend = (w + 1) * window;
        let chunk = to.min(wend) - from;
        bump(w as usize, chunk);
        from += chunk;
    }
}

impl RecState {
    fn account(&mut self, proc: usize, state: ProcState, from: u64, to: u64) {
        if to <= from {
            return;
        }
        let s = state as usize;
        let phase = self.procs[proc].phase;
        self.phase_totals[phase][s] += to - from;
        let p = &mut self.procs[proc];
        p.totals[s] += to - from;
        let timeline = &mut p.timeline;
        deposit(self.window, from, to, |w, chunk| {
            if timeline.len() <= w {
                timeline.resize(w + 1, [0; N_STATES]);
            }
            timeline[w][s] += chunk;
        });
    }

    /// Flushes `[cursor, to)` to the background state and advances the
    /// cursor.
    fn advance(&mut self, proc: usize, to: u64) {
        let p = &self.procs[proc];
        let (cursor, waiting) = (p.cursor, p.waiting);
        if to > cursor {
            let bg = match waiting {
                Some(WaitKind::Tx) => ProcState::TxWait,
                Some(WaitKind::Rx) => ProcState::RxStall,
                None => ProcState::Idle,
            };
            self.account(proc, bg, cursor, to);
            self.procs[proc].cursor = to;
        }
    }

    /// Deposits the busy span `[from, to)` of `proc` in `state`, after
    /// flushing the background time before it.
    fn busy(&mut self, proc: usize, state: ProcState, from: SimTime, to: SimTime) {
        if proc >= self.procs.len() {
            return;
        }
        let (mut a, b) = (from.as_nanos(), to.as_nanos());
        debug_assert!(
            a >= self.procs[proc].cursor,
            "overlapping busy span for proc {proc}: [{a}, {b}) vs cursor {}",
            self.procs[proc].cursor
        );
        self.advance(proc, a);
        // Release-mode safety: never let a malformed span rewind the
        // cursor (attribution stays conserving, the span is truncated).
        a = a.max(self.procs[proc].cursor);
        self.account(proc, state, a, b);
        let p = &mut self.procs[proc];
        p.cursor = p.cursor.max(b);
    }

    /// Enters (`Some(kind)`) or leaves (`None`) `proc`'s outermost wait
    /// at `at`.
    fn wait(&mut self, proc: usize, kind: Option<WaitKind>, at: SimTime) {
        if proc >= self.procs.len() {
            return;
        }
        self.advance(proc, at.as_nanos());
        self.procs[proc].waiting = kind;
    }

    /// Adds `[from, to)` to `proc`'s NIC receive (`rx`) or send context
    /// occupancy.
    fn nic(&mut self, proc: usize, rx: bool, from: SimTime, to: SimTime) {
        if proc >= self.procs.len() || to <= from {
            return;
        }
        let window = self.window;
        let p = &mut self.procs[proc];
        let (total, tl) = if rx {
            (&mut p.nic_rx_total, &mut p.nic_rx)
        } else {
            (&mut p.nic_tx_total, &mut p.nic_tx)
        };
        *total += to.since(from).as_nanos();
        deposit(window, from.as_nanos(), to.as_nanos(), |w, chunk| {
            if tl.len() <= w {
                tl.resize(w + 1, 0);
            }
            tl[w] += chunk;
        });
    }

    /// Charges an injection's send-context occupancy and window depth.
    fn injection(&mut self, e: &SendEvent) {
        self.nic(e.src, false, e.tx_start, e.tx_free);
        let depth = u64::from(e.in_flight);
        self.depth_max = self.depth_max.max(depth);
        self.depth_sum += u128::from(depth);
        self.depth_n += 1;
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.phase_ids.get(name) {
            return id;
        }
        let id = self.phase_names.len();
        self.phase_names.push(name.to_string());
        self.phase_ids.insert(name.to_string(), id);
        self.phase_totals.push([0; N_STATES]);
        id
    }
}

impl MetricsRecorder {
    /// Creates a recorder for `procs` processors with the given sampling
    /// window (see [`DEFAULT_WINDOW`]).
    pub fn new(procs: usize, window: SimDelta) -> Self {
        let mut state = RecState {
            window: window.as_nanos().max(1),
            procs: vec![ProcRec::default(); procs],
            wire: BTreeMap::new(),
            phase_names: Vec::new(),
            phase_ids: BTreeMap::new(),
            phase_totals: Vec::new(),
            retransmits: 0,
            depth_max: 0,
            depth_sum: 0,
            depth_n: 0,
        };
        state.intern(INIT_PHASE);
        MetricsRecorder {
            state: RefCell::new(state),
        }
    }

    /// Closes the books at simulated time `end` (flushing every
    /// processor's residual span as background time) and produces the
    /// report. `end` is normally the run's final virtual time.
    pub fn finish(&self, end: SimTime) -> MetricsReport {
        let mut st = self.state.borrow_mut();
        let end_ns = end.as_nanos();
        for proc in 0..st.procs.len() {
            st.advance(proc, end_ns);
        }
        let window = st.window;
        let windows = (end_ns as usize).div_ceil(window as usize).max(1);
        let procs: Vec<ProcSeries> = st
            .procs
            .iter()
            .map(|p| {
                let mut timeline = p.timeline.clone();
                timeline.resize(windows, [0; N_STATES]);
                let mut nic_tx = p.nic_tx.clone();
                let mut nic_rx = p.nic_rx.clone();
                nic_tx.resize(windows, 0);
                nic_rx.resize(windows, 0);
                ProcSeries {
                    totals: p.totals,
                    timeline,
                    nic_tx,
                    nic_rx,
                    nic_tx_total: p.nic_tx_total,
                    nic_rx_total: p.nic_rx_total,
                }
            })
            .collect();
        let phase_totals = st.phase_totals.clone();
        let mut totals = [0u64; N_STATES];
        for p in &procs {
            for (t, v) in totals.iter_mut().zip(p.totals.iter()) {
                *t += v;
            }
        }
        let phases: Vec<PhaseSlice> = st
            .phase_names
            .iter()
            .zip(phase_totals.iter())
            .map(|(name, tot)| PhaseSlice {
                name: name.clone(),
                totals: *tot,
            })
            .collect();
        let summary = MetricsSummary {
            end_ns,
            procs: procs.len(),
            totals,
            phases,
            retransmits: st.retransmits,
            depth_max: st.depth_max,
            depth_mean: if st.depth_n == 0 {
                0.0
            } else {
                st.depth_sum as f64 / st.depth_n as f64
            },
            // The recorder never sees detector traffic (heartbeats are
            // out-of-band) and cannot tell a collective apart from its
            // constituent messages; the harness stamps both from the
            // run's cluster statistics after `finish`.
            detector: DetectorSummary::default(),
            coll: CollSummary::default(),
        };
        MetricsReport {
            window_ns: window,
            end_ns,
            procs,
            wire: st
                .wire
                .iter()
                .map(|(&(src, dst), &busy_ns)| WireBusy { src, dst, busy_ns })
                .collect(),
            events_per_window: Vec::new(),
            summary,
        }
    }
}

impl TraceSink for MetricsRecorder {
    fn record(&self, ev: &TraceEvent) {
        let mut st = self.state.borrow_mut();
        match *ev {
            TraceEvent::Compute { proc, start, dur } => {
                st.busy(proc, ProcState::Compute, start, start + dur);
            }
            TraceEvent::Overhead {
                proc,
                kind,
                start,
                base,
                dur,
            } => {
                let state = match kind {
                    OverheadKind::Send => ProcState::OSend,
                    OverheadKind::Recv => ProcState::ORecv,
                };
                let split = start + base.min(dur);
                st.busy(proc, state, start, split);
                st.busy(proc, ProcState::DeltaO, split, start + dur);
            }
            TraceEvent::WaitEnter { proc, kind, at } => st.wait(proc, Some(kind), at),
            TraceEvent::WaitExit { proc, at } => st.wait(proc, None, at),
            TraceEvent::Phase { proc, label, at } => {
                if proc < st.procs.len() {
                    st.advance(proc, at.as_nanos());
                    let id = st.intern(label);
                    st.procs[proc].phase = id;
                }
            }
            TraceEvent::Send(ref e) => {
                st.injection(e);
                if e.arrival > e.wire_done {
                    let ns = e.arrival.since(e.wire_done).as_nanos();
                    *st.wire.entry((e.src, e.dst)).or_insert(0) += ns;
                }
            }
            // A dropped injection still occupied the send context and a
            // window slot; only a delivered one used the wire.
            TraceEvent::Drop(ref e) => st.injection(e),
            TraceEvent::NicRx { proc, from, to } => st.nic(proc, true, from, to),
            // Counted, not timed: a retransmission's interrupt-style
            // o_send overlaps whatever the processor was doing, so it
            // cannot be a span in the conserving per-processor timeline.
            TraceEvent::Retransmit { .. } => st.retransmits += 1,
            TraceEvent::Visible(_)
            | TraceEvent::Recv(_)
            | TraceEvent::Handler { .. }
            | TraceEvent::DupDelivery { .. }
            | TraceEvent::Pair { .. }
            | TraceEvent::Idle { .. }
            | TraceEvent::Wave { .. }
            | TraceEvent::Region { .. } => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nowlab_trace::MsgKind;

    pub(crate) fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Feeds `rec` the event for a busy span of `state` over `[a, b)`: a
    /// compute span, or an overhead span whose baseline/Δo split puts
    /// all of it in `state`.
    pub(crate) fn busy(rec: &MetricsRecorder, proc: usize, state: ProcState, a: u64, b: u64) {
        let (start, dur) = (t(a), SimDelta::from_nanos(b - a));
        let overhead = |kind, base| TraceEvent::Overhead {
            proc,
            kind,
            start,
            base,
            dur,
        };
        rec.record(&match state {
            ProcState::Compute => TraceEvent::Compute { proc, start, dur },
            ProcState::OSend => overhead(OverheadKind::Send, dur),
            ProcState::ORecv => overhead(OverheadKind::Recv, dur),
            ProcState::DeltaO => overhead(OverheadKind::Send, SimDelta::ZERO),
            other => panic!("{other:?} is background time, not a span"),
        });
    }

    /// A send from `src` to `dst` occupying the send context over `tx`
    /// and the wire over `wire`, with `in_flight` window slots taken.
    pub(crate) fn send(
        src: usize,
        dst: usize,
        tx: (u64, u64),
        wire: (u64, u64),
        in_flight: u32,
    ) -> SendEvent {
        SendEvent {
            id: 1,
            src,
            dst,
            reply: false,
            kind: MsgKind::Write,
            bytes: 0,
            o_send: SimDelta::ZERO,
            inject: t(tx.0),
            tx_start: t(tx.0),
            tx_free: t(tx.1),
            wire_done: t(wire.0),
            arrival: t(wire.1),
            in_flight,
            timer_depth: 0,
        }
    }

    fn wait(rec: &MetricsRecorder, proc: usize, kind: Option<WaitKind>, at: u64) {
        let at = t(at);
        rec.record(&match kind {
            Some(kind) => TraceEvent::WaitEnter { proc, kind, at },
            None => TraceEvent::WaitExit { proc, at },
        });
    }

    pub(crate) fn phase(rec: &MetricsRecorder, proc: usize, label: &'static str, at: u64) {
        rec.record(&TraceEvent::Phase {
            proc,
            label,
            at: t(at),
        });
    }

    #[test]
    fn every_window_sums_exactly_to_its_length() {
        // Pseudo-random event stream (deterministic LCG) over 3 procs.
        let procs = 3;
        let rec = MetricsRecorder::new(procs, SimDelta::from_nanos(1_000));
        let mut seed = 0x9E37_79B9u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        let mut cursors = vec![0u64; procs];
        for i in 0..5_000 {
            let p = (rng() % procs as u64) as usize;
            let gap = rng() % 700;
            let span = rng() % 900;
            let a = cursors[p] + gap;
            let b = a + span;
            match rng() % 6 {
                0 => wait(&rec, p, Some(WaitKind::Tx), a),
                1 => wait(&rec, p, Some(WaitKind::Rx), a),
                2 => wait(&rec, p, None, a),
                3 => phase(&rec, p, if i % 2 == 0 { "alpha" } else { "beta" }, a),
                _ => {
                    let s = ProcState::ALL[(rng() % 4) as usize];
                    busy(&rec, p, s, a, b);
                    cursors[p] = b;
                    continue;
                }
            }
            cursors[p] = a;
        }
        let end = cursors.iter().copied().max().unwrap() + 137;
        let report = rec.finish(t(end));
        let window = report.window_ns;
        for (pi, p) in report.procs.iter().enumerate() {
            assert_eq!(p.timeline.len(), (end as usize).div_ceil(window as usize));
            for (w, row) in p.timeline.iter().enumerate() {
                let expected = window.min(end - (w as u64) * window);
                let got: u64 = row.iter().sum();
                assert_eq!(got, expected, "proc {pi} window {w}");
            }
            assert_eq!(p.totals.iter().sum::<u64>(), end, "proc {pi} totals");
        }
        // Phase totals also conserve: summed over phases and states they
        // cover every processor-nanosecond.
        let phase_sum: u64 = report
            .summary
            .phases
            .iter()
            .map(|ph| ph.totals.iter().sum::<u64>())
            .sum();
        assert_eq!(phase_sum, end * procs as u64);
    }

    #[test]
    fn background_time_is_attributed_to_the_enclosing_wait() {
        let rec = MetricsRecorder::new(1, SimDelta::from_nanos(1_000));
        busy(&rec, 0, ProcState::Compute, 0, 100);
        wait(&rec, 0, Some(WaitKind::Tx), 100);
        busy(&rec, 0, ProcState::ORecv, 300, 350); // polled during wait
        wait(&rec, 0, None, 500);
        let report = rec.finish(t(600));
        let p = &report.procs[0];
        assert_eq!(p.totals[ProcState::Compute as usize], 100);
        assert_eq!(p.totals[ProcState::TxWait as usize], 200 + 150);
        assert_eq!(p.totals[ProcState::ORecv as usize], 50);
        assert_eq!(p.totals[ProcState::Idle as usize], 100);
    }

    #[test]
    fn overhead_spans_split_into_baseline_and_delta_o() {
        let rec = MetricsRecorder::new(1, SimDelta::from_nanos(1_000));
        rec.record(&TraceEvent::Overhead {
            proc: 0,
            kind: OverheadKind::Send,
            start: t(100),
            base: SimDelta::from_nanos(30),
            dur: SimDelta::from_nanos(80),
        });
        let report = rec.finish(t(200));
        let p = &report.procs[0];
        assert_eq!(p.totals[ProcState::OSend as usize], 30);
        assert_eq!(p.totals[ProcState::DeltaO as usize], 50);
        assert_eq!(p.totals[ProcState::Idle as usize], 120);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping busy span")]
    fn overlapping_spans_trip_the_debug_assert() {
        let rec = MetricsRecorder::new(1, SimDelta::from_nanos(1_000));
        busy(&rec, 0, ProcState::Compute, 0, 100);
        busy(&rec, 0, ProcState::Compute, 50, 150);
    }

    #[test]
    fn phase_markers_segment_time_exactly() {
        let rec = MetricsRecorder::new(2, SimDelta::from_nanos(500));
        busy(&rec, 0, ProcState::Compute, 0, 400);
        phase(&rec, 0, "work", 400);
        busy(&rec, 0, ProcState::Compute, 400, 900);
        phase(&rec, 1, "work", 100);
        let report = rec.finish(t(1_000));
        let by_name = |n: &str| {
            report
                .summary
                .phases
                .iter()
                .find(|p| p.name == n)
                .unwrap()
                .totals
        };
        let init = by_name(INIT_PHASE);
        let work = by_name("work");
        // Proc 0: 400ns compute init, 500 compute + 100 idle work.
        // Proc 1: 100ns idle init, 900 idle work.
        assert_eq!(init[ProcState::Compute as usize], 400);
        assert_eq!(init[ProcState::Idle as usize], 100);
        assert_eq!(work[ProcState::Compute as usize], 500);
        assert_eq!(work[ProcState::Idle as usize], 100 + 900);
        assert_eq!(
            init.iter().sum::<u64>() + work.iter().sum::<u64>(),
            2 * 1_000
        );
    }

    #[test]
    fn nic_and_wire_occupancy_accumulate() {
        let rec = MetricsRecorder::new(2, SimDelta::from_nanos(1_000));
        rec.record(&TraceEvent::Send(send(0, 1, (0, 600), (100, 400), 3)));
        rec.record(&TraceEvent::Send(send(0, 1, (600, 1_200), (400, 450), 5)));
        // A dropped injection occupies the send context and a window slot
        // but never reaches the wire.
        rec.record(&TraceEvent::Drop(send(
            0,
            1,
            (1_200, 1_300),
            (1_300, 1_800),
            4,
        )));
        rec.record(&TraceEvent::NicRx {
            proc: 1,
            from: t(500),
            to: t(700),
        });
        rec.record(&TraceEvent::Retransmit {
            id: 1,
            attempt: 2,
            o_send: SimDelta::ZERO,
            at: t(20),
        });
        let report = rec.finish(t(2_000));
        assert_eq!(report.procs[0].nic_tx_total, 1_300);
        assert_eq!(report.procs[0].nic_tx, vec![1_000, 300]);
        assert_eq!(report.procs[1].nic_rx_total, 200);
        assert_eq!(report.wire.len(), 1);
        assert_eq!(report.wire[0].busy_ns, 350);
        assert_eq!(report.summary.retransmits, 1);
        assert_eq!(report.summary.depth_max, 5);
        assert!((report.summary.depth_mean - 4.0).abs() < 1e-9);
    }
}
