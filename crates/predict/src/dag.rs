//! Assembly and evaluation of the happens-before message DAG.
//!
//! Nodes are *instants*: the start and end of every busy activity (send
//! overhead, receive overhead, compute segment), the transmit-context
//! pickup and receive-queue visibility of every message, and the exit of
//! every deadline-bounded idle wait. Edges carry the symbolic costs of
//! [`crate::cost`]; evaluating the DAG under a configuration `θ` computes
//! each instant's predicted time as the longest weighted path from the
//! virtual source — exactly the discrete-event semantics, with the one
//! deliberate approximation that NIC serialization *order* is frozen at
//! the baseline order (see DESIGN.md §13).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use nowlab_am::NetConfig;
use nowlab_sim::SimDelta;
use nowlab_trace::TraceReport;

use crate::cost::{Cost, BUCKETS};
use crate::PredictError;

const NO_PROC: u16 = u16::MAX;
const NO_MSG: u32 = u32::MAX;

/// What instant a node stands for. The payloads are read only through
/// `Debug` formatting in validation errors.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug)]
enum NodeKind {
    /// Virtual time-zero root.
    Source,
    /// Virtual end-of-run join.
    Sink,
    /// Message `i` picked up by the source transmit context.
    TxStart(u32),
    /// Message `i` visible in the destination receive queue.
    Visible(u32),
    /// A busy activity began.
    ActStart,
    /// A busy activity ended.
    ActEnd,
    /// A deadline-bounded idle wait exited.
    IdleExit,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Measured baseline timestamp, ns.
    measured: u64,
    /// Owning processor (`NO_PROC` for source/sink).
    proc: u16,
    kind: NodeKind,
}

#[derive(Clone, Copy, Debug)]
struct Edge {
    head: u32,
    tail: u32,
    cost: Cost,
    /// Record index of the message this edge belongs to (`NO_MSG` if none).
    msg: u32,
}

/// Critical-path attribution for one configuration.
#[derive(Clone, Debug)]
pub struct PathBreakdown {
    /// Predicted measured-region span (the buckets sum to this exactly).
    pub total: SimDelta,
    /// Per-bucket time on the critical path, indexed by [`Bucket::index`].
    pub buckets: [SimDelta; BUCKETS],
    /// Per-application-phase rows, labels in lexicographic order.
    pub phases: Vec<PhaseRow>,
    /// Trace ids of the messages whose edges lie on the critical path.
    pub critical_msgs: Vec<u64>,
    /// Edges walked (diagnostic).
    pub edges_on_path: usize,
}

/// One application phase's share of the critical path.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase label (`"(startup)"` before the first mark).
    pub label: String,
    /// Per-bucket time, indexed by [`Bucket::index`].
    pub buckets: [SimDelta; BUCKETS],
    /// Row total.
    pub total: SimDelta,
}

pub(crate) struct Dag {
    nodes: Vec<Node>,
    /// Edges sorted by head (CSR); `head_start[n]..head_start[n+1]` are
    /// node `n`'s in-edges, in deterministic insertion order.
    edges: Vec<Edge>,
    head_start: Vec<u32>,
    topo: Vec<u32>,
    begin_anchor: u32,
    end_anchor: u32,
    base: NetConfig,
    /// Per-processor `(at_ns, label)` phase marks, sorted by time.
    phases: Vec<Vec<(u64, String)>>,
    /// Record index → trace id (for critical-message reporting).
    msg_ids: Vec<u64>,
}

#[derive(Clone, Copy)]
struct ActItem {
    start: u64,
    end: u64,
    /// Record index for overhead activities, `NO_MSG` for compute.
    msg: u32,
    /// For receive overheads: the baseline popped the message the instant
    /// it became visible, i.e. the processor was demonstrably *waiting*
    /// for it. Only those receives take a visibility→pop dependency edge;
    /// a backlogged receive (`pop > visible`) was serviced when the
    /// processor got around to it, so it is ordered by occupancy (program
    /// order) alone and does not pull wire latency onto the host chain.
    blocking: bool,
    cost: ActCost,
}

#[derive(Clone, Copy)]
enum ActCost {
    OSend,
    ORecv,
    Compute,
}

pub(crate) fn build(
    report: &TraceReport,
    cfg: &NetConfig,
    procs: usize,
    warnings: &mut Vec<String>,
) -> Result<Dag, PredictError> {
    assert!(procs < usize::from(NO_PROC), "processor count out of range");
    let records = &report.records;
    let n_rec = records.len();

    let mut nodes: Vec<Node> = Vec::with_capacity(2 + 2 * n_rec + 2 * report.computes.len());
    let mut edges: Vec<Edge> = Vec::with_capacity(6 * n_rec);
    nodes.push(Node {
        measured: 0,
        proc: NO_PROC,
        kind: NodeKind::Source,
    });

    // NIC nodes get fixed ids so the activity chains can reference them.
    let tx_node = |i: usize| (1 + 2 * i) as u32;
    let vis_node = |i: usize| (2 + 2 * i) as u32;
    let mut incomplete = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.src >= procs || r.dst >= procs {
            return Err(PredictError::Unsupported(format!(
                "record {} references processor {}/{} outside 0..{}",
                r.id, r.src, r.dst, procs
            )));
        }
        nodes.push(Node {
            measured: r.tx_start.as_nanos(),
            proc: r.src as u16,
            kind: NodeKind::TxStart(i as u32),
        });
        nodes.push(Node {
            measured: r.visible.as_nanos(),
            proc: r.dst as u16,
            kind: NodeKind::Visible(i as u32),
        });
        if !r.completed {
            incomplete += 1;
        }
    }
    if incomplete > 0 {
        warnings.push(format!(
            "{incomplete} message(s) never completed; their receive side is \
             excluded from the DAG"
        ));
    }
    // A message reached the destination's delivery chain iff its
    // visibility was recorded (always, unless the run was cut short).
    let has_vis = |i: usize| records[i].completed || records[i].visible.as_nanos() > 0;

    // Busy activities per processor: send overhead, receive overhead,
    // compute segments. Processors are single-threaded, so per-proc
    // activities never overlap; the stable sort by (start, end) recovers
    // program order.
    let mut acts: Vec<Vec<ActItem>> = vec![Vec::new(); procs];
    for (i, r) in records.iter().enumerate() {
        acts[r.src].push(ActItem {
            start: r.send_begin.as_nanos(),
            end: r.inject.as_nanos(),
            msg: i as u32,
            blocking: false,
            cost: ActCost::OSend,
        });
        if r.completed {
            acts[r.dst].push(ActItem {
                start: r.pop.as_nanos(),
                end: r.done.as_nanos(),
                msg: i as u32,
                blocking: r.pop == r.visible,
                cost: ActCost::ORecv,
            });
        }
    }
    for c in &report.computes {
        if c.proc >= procs {
            continue;
        }
        acts[c.proc].push(ActItem {
            start: c.start.as_nanos(),
            end: (c.start + c.dur).as_nanos(),
            msg: NO_MSG,
            blocking: false,
            cost: ActCost::Compute,
        });
    }
    for list in &mut acts {
        list.sort_by_key(|a| (a.start, a.end));
    }
    let mut idles: Vec<Vec<&nowlab_trace::IdleSeg>> = vec![Vec::new(); procs];
    for seg in &report.idles {
        if seg.proc < procs {
            idles[seg.proc].push(seg);
        }
    }
    for list in &mut idles {
        list.sort_by_key(|s| s.enter.as_nanos());
    }

    // Program-order chains. `osend_end[i]` is the node at which message
    // i's send overhead completed (= its injection instant);
    // `osend_start[i]` the node at which it began (credit already held).
    let mut osend_end: Vec<u32> = vec![0; n_rec];
    let mut osend_start: Vec<u32> = vec![0; n_rec];
    let mut anchors: Vec<Vec<(u64, u32)>> = vec![Vec::new(); procs];
    let mut chain_tail: Vec<u32> = Vec::with_capacity(procs);
    for p in 0..procs {
        let mut cursor = 0u32; // source
        let mut ai = 0usize;
        let chain_act = |ai: usize,
                         cursor: &mut u32,
                         nodes: &mut Vec<Node>,
                         edges: &mut Vec<Edge>,
                         anchors: &mut Vec<(u64, u32)>,
                         osend_start: &mut Vec<u32>,
                         osend_end: &mut Vec<u32>| {
            let a = acts[p][ai];
            let s = nodes.len() as u32;
            nodes.push(Node {
                measured: a.start,
                proc: p as u16,
                kind: NodeKind::ActStart,
            });
            edges.push(Edge {
                head: s,
                tail: *cursor,
                cost: Cost::Zero,
                msg: NO_MSG,
            });
            if a.blocking {
                // The baseline waited for this message: its pop depends on
                // visibility, so wire latency reaches the host chain here.
                edges.push(Edge {
                    head: s,
                    tail: vis_node(a.msg as usize),
                    cost: Cost::Zero,
                    msg: a.msg,
                });
            }
            let e = nodes.len() as u32;
            nodes.push(Node {
                measured: a.end,
                proc: p as u16,
                kind: NodeKind::ActEnd,
            });
            let dur = SimDelta::from_nanos(a.end - a.start);
            let cost = match a.cost {
                ActCost::OSend => Cost::OSend(dur),
                ActCost::ORecv => Cost::ORecv(dur),
                ActCost::Compute => Cost::Compute(dur),
            };
            edges.push(Edge {
                head: e,
                tail: s,
                cost,
                msg: a.msg,
            });
            if let ActCost::OSend = a.cost {
                osend_start[a.msg as usize] = s;
                osend_end[a.msg as usize] = e;
            }
            anchors.push((a.start, s));
            anchors.push((a.end, e));
            *cursor = e;
        };
        for seg in &idles[p] {
            let enter = seg.enter.as_nanos();
            let exit = seg.exit.as_nanos();
            while ai < acts[p].len() && acts[p][ai].start < enter {
                chain_act(
                    ai,
                    &mut cursor,
                    &mut nodes,
                    &mut edges,
                    &mut anchors[p],
                    &mut osend_start,
                    &mut osend_end,
                );
                ai += 1;
            }
            // The wait's lower bound hangs off the processor's position at
            // entry; receive overheads serviced inside the wait chain
            // through `cursor` as usual.
            let idle_base = cursor;
            while ai < acts[p].len() && acts[p][ai].start < exit {
                chain_act(
                    ai,
                    &mut cursor,
                    &mut nodes,
                    &mut edges,
                    &mut anchors[p],
                    &mut osend_start,
                    &mut osend_end,
                );
                ai += 1;
            }
            let ex = nodes.len() as u32;
            nodes.push(Node {
                measured: exit,
                proc: p as u16,
                kind: NodeKind::IdleExit,
            });
            edges.push(Edge {
                head: ex,
                tail: idle_base,
                cost: Cost::Idle(seg.deadline.saturating_since(seg.enter)),
                msg: NO_MSG,
            });
            edges.push(Edge {
                head: ex,
                tail: cursor,
                cost: Cost::Zero,
                msg: NO_MSG,
            });
            anchors[p].push((exit, ex));
            cursor = ex;
        }
        while ai < acts[p].len() {
            chain_act(
                ai,
                &mut cursor,
                &mut nodes,
                &mut edges,
                &mut anchors[p],
                &mut osend_start,
                &mut osend_end,
            );
            ai += 1;
        }
        chain_tail.push(cursor);
    }

    // NIC-side edges. Injection hands the message to the transmit
    // context; per-source and per-destination serialization chains follow
    // the baseline pickup/visibility order.
    for (i, r) in records.iter().enumerate() {
        edges.push(Edge {
            head: tx_node(i),
            tail: osend_end[i],
            cost: Cost::Zero,
            msg: i as u32,
        });
        if has_vis(i) {
            edges.push(Edge {
                head: vis_node(i),
                tail: tx_node(i),
                cost: Cost::Transit { bytes: r.bytes },
                msg: i as u32,
            });
        }
    }
    let mut last_nic: Vec<u32> = Vec::new();
    for p in 0..procs {
        let mut by_tx: Vec<usize> = (0..n_rec).filter(|&i| records[i].src == p).collect();
        by_tx.sort_by_key(|&i| {
            (
                records[i].tx_start.as_nanos(),
                records[i].inject.as_nanos(),
                i,
            )
        });
        for w in by_tx.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            edges.push(Edge {
                head: tx_node(cur),
                tail: tx_node(prev),
                cost: Cost::TxFree {
                    bytes: records[prev].bytes,
                },
                msg: cur as u32,
            });
        }
        if let Some(&last) = by_tx.last() {
            last_nic.push(tx_node(last));
        }
        let mut by_vis: Vec<usize> = (0..n_rec)
            .filter(|&i| records[i].dst == p && has_vis(i))
            .collect();
        by_vis.sort_by_key(|&i| (records[i].visible.as_nanos(), i));
        for w in by_vis.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            edges.push(Edge {
                head: vis_node(cur),
                tail: vis_node(prev),
                cost: Cost::RxChain,
                msg: cur as u32,
            });
        }
        if let Some(&last) = by_vis.last() {
            last_nic.push(vis_node(last));
        }
    }

    // Flow-control window: a processor's n-th request send (0-based) must
    // hold a credit, so it cannot begin before the (n−W+1)-th credit has
    // returned — a reply to one of its own requests fully processed. The
    // *order* credits return is frozen at the baseline's reply-processing
    // order; the edge runs from that reply's visibility and carries its
    // receive-overhead span (the pop+process that precedes the credit
    // increment). Always consistent at the baseline because
    // `visible + (done − pop) ≤ done ≤ send_begin` held in the real run.
    let window = cfg.window as usize;
    for p in 0..procs {
        let mut sends: Vec<usize> = (0..n_rec)
            .filter(|&i| records[i].src == p && !records[i].reply)
            .collect();
        sends.sort_by_key(|&i| (records[i].send_begin.as_nanos(), i));
        let mut returns: Vec<usize> = (0..n_rec)
            .filter(|&i| records[i].dst == p && records[i].reply && records[i].completed)
            .collect();
        returns.sort_by_key(|&i| (records[i].done.as_nanos(), i));
        for (n, &si) in sends.iter().enumerate().skip(window) {
            let Some(&ri) = returns.get(n - window) else {
                break; // truncated run: fewer returns than the window needs
            };
            let r = &records[ri];
            edges.push(Edge {
                head: osend_start[si],
                tail: vis_node(ri),
                cost: Cost::ORecv(r.done.saturating_since(r.pop)),
                msg: ri as u32,
            });
        }
    }

    // Virtual sink joining every chain (full-run makespan).
    let sink = nodes.len() as u32;
    let sink_measured = chain_tail
        .iter()
        .chain(last_nic.iter())
        .map(|&n| nodes[n as usize].measured)
        .max()
        .unwrap_or(0);
    nodes.push(Node {
        measured: sink_measured,
        proc: NO_PROC,
        kind: NodeKind::Sink,
    });
    for &t in chain_tail.iter().chain(last_nic.iter()) {
        edges.push(Edge {
            head: sink,
            tail: t,
            cost: Cost::Zero,
            msg: NO_MSG,
        });
    }

    // Measured-region anchors: the program-order node a processor sat at
    // when the region mark was taken.
    let anchor = |p: usize, t: u64| -> u32 {
        let list = &anchors[p];
        let idx = list.partition_point(|&(at, _)| at <= t);
        if idx == 0 {
            0
        } else {
            list[idx - 1].1
        }
    };
    let begin = report.regions.iter().find(|r| r.begin);
    let end = report.regions.iter().rev().find(|r| !r.begin);
    let (begin_anchor, end_anchor) = match (begin, end) {
        (Some(b), Some(e)) if b.proc < procs && e.proc < procs => {
            let ba = anchor(b.proc, b.at.as_nanos());
            let ea = anchor(e.proc, e.at.as_nanos());
            if nodes[ba as usize].measured != b.at.as_nanos()
                || nodes[ea as usize].measured != e.at.as_nanos()
            {
                warnings.push(
                    "region marks do not coincide with activity boundaries; \
                     span prediction is anchored to the nearest preceding \
                     instant"
                        .to_string(),
                );
            }
            (ba, ea)
        }
        _ => {
            warnings.push(
                "no measured-region marks in the trace; predicting the \
                 whole-run makespan"
                    .to_string(),
            );
            (0, sink)
        }
    };

    // CSR by head, preserving insertion order within each head.
    let n = nodes.len();
    let mut head_count = vec![0u32; n + 1];
    for e in &edges {
        head_count[e.head as usize + 1] += 1;
    }
    for i in 0..n {
        head_count[i + 1] += head_count[i];
    }
    let mut sorted = vec![
        Edge {
            head: 0,
            tail: 0,
            cost: Cost::Zero,
            msg: NO_MSG
        };
        edges.len()
    ];
    let mut fill = head_count.clone();
    for e in &edges {
        let at = fill[e.head as usize];
        sorted[at as usize] = *e;
        fill[e.head as usize] += 1;
    }
    let head_start = head_count;
    let edges = sorted;

    // Kahn topological order (smallest-id-first for determinism); doubles
    // as the acyclicity proof.
    let mut out_count = vec![0u32; n + 1];
    for e in &edges {
        out_count[e.tail as usize + 1] += 1;
    }
    for i in 0..n {
        out_count[i + 1] += out_count[i];
    }
    let mut out_edges = vec![0u32; edges.len()];
    let mut fill = out_count.clone();
    for (idx, e) in edges.iter().enumerate() {
        out_edges[fill[e.tail as usize] as usize] = idx as u32;
        fill[e.tail as usize] += 1;
    }
    let mut indeg: Vec<u32> = (0..n).map(|i| head_start[i + 1] - head_start[i]).collect();
    let mut heap: BinaryHeap<Reverse<u32>> = (0..n as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .map(Reverse)
        .collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(Reverse(nid)) = heap.pop() {
        topo.push(nid);
        let (s, e) = (out_count[nid as usize], out_count[nid as usize + 1]);
        for &ei in &out_edges[s as usize..e as usize] {
            let h = edges[ei as usize].head;
            indeg[h as usize] -= 1;
            if indeg[h as usize] == 0 {
                heap.push(Reverse(h));
            }
        }
    }
    if topo.len() != n {
        let stuck = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
        return Err(PredictError::Cyclic(format!(
            "happens-before graph has a cycle through node {} ({:?} at {} ns)",
            stuck, nodes[stuck].kind, nodes[stuck].measured
        )));
    }

    // Phase marks, per proc, time-sorted.
    let mut phases: Vec<Vec<(u64, String)>> = vec![Vec::new(); procs];
    for m in &report.phases {
        if m.proc < procs {
            phases[m.proc].push((m.at.as_nanos(), m.label.to_string()));
        }
    }
    for list in &mut phases {
        list.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    }

    Ok(Dag {
        msg_ids: records.iter().map(|r| r.id).collect(),
        nodes,
        edges,
        head_start,
        topo,
        begin_anchor,
        end_anchor,
        base: *cfg,
        phases,
    })
}

impl Dag {
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Longest-path time of every node under `cfg`, ns, indexed by node.
    pub(crate) fn times(&self, cfg: &NetConfig) -> Vec<u64> {
        let mut t = vec![0u64; self.nodes.len()];
        for &nid in &self.topo {
            let (s, e) = (
                self.head_start[nid as usize] as usize,
                self.head_start[nid as usize + 1] as usize,
            );
            let mut best = 0u64;
            for edge in &self.edges[s..e] {
                let v = t[edge.tail as usize] + edge.cost.price(cfg, &self.base).as_nanos();
                best = best.max(v);
            }
            t[nid as usize] = best;
        }
        t
    }

    /// Predicted measured-region span under `cfg` given precomputed times.
    pub(crate) fn span(&self, times: &[u64]) -> SimDelta {
        SimDelta::from_nanos(
            times[self.end_anchor as usize].saturating_sub(times[self.begin_anchor as usize]),
        )
    }

    /// Checks that baseline evaluation reproduces every measured instant
    /// exactly (integer nanoseconds).
    pub(crate) fn validate(&self, times: &[u64]) -> Result<(), PredictError> {
        let mut bad = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if times[i] != node.measured {
                bad.push(format!(
                    "node {} {:?} proc {}: computed {} ns, measured {} ns",
                    i, node.kind, node.proc, times[i], node.measured
                ));
                if bad.len() >= 5 {
                    break;
                }
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(PredictError::Mismatch(format!(
                "baseline DAG evaluation diverged from the recorded run: {}",
                bad.join("; ")
            )))
        }
    }

    fn phase_of(&self, proc: u16, at: u64) -> &str {
        if proc == NO_PROC {
            return "(startup)";
        }
        let list = &self.phases[proc as usize];
        let idx = list.partition_point(|&(t, _)| t <= at);
        if idx == 0 {
            "(startup)"
        } else {
            &list[idx - 1].1
        }
    }

    /// Walks the critical path backwards from the region end anchor,
    /// clipping at the region span so the buckets telescope to it exactly.
    pub(crate) fn breakdown(&self, cfg: &NetConfig, times: &[u64]) -> PathBreakdown {
        let span = self.span(times);
        let mut remaining = span.as_nanos();
        let mut buckets = [0u64; BUCKETS];
        let mut per_phase: BTreeMap<String, [u64; BUCKETS]> = BTreeMap::new();
        let mut msgs: BTreeSet<u64> = BTreeSet::new();
        let mut edges_on_path = 0usize;
        let mut node = self.end_anchor;
        while node != 0 && remaining > 0 {
            let (s, e) = (
                self.head_start[node as usize] as usize,
                self.head_start[node as usize + 1] as usize,
            );
            let t = times[node as usize];
            // At least one in-edge is tight (t is the max over them);
            // take the first in insertion order for determinism.
            let Some(edge) = self.edges[s..e].iter().find(|ed| {
                times[ed.tail as usize] + ed.cost.price(cfg, &self.base).as_nanos() == t
            }) else {
                break; // no in-edges: a root inside the region window
            };
            edges_on_path += 1;
            let head_node = &self.nodes[node as usize];
            let phase = self
                .phase_of(head_node.proc, head_node.measured)
                .to_string();
            let mut took_any = false;
            for (bucket, part) in edge.cost.parts(cfg, &self.base) {
                let take = part.as_nanos().min(remaining);
                if take > 0 {
                    buckets[bucket.index()] += take;
                    per_phase.entry(phase.clone()).or_default()[bucket.index()] += take;
                    remaining -= take;
                    took_any = true;
                }
            }
            if edge.msg != NO_MSG && took_any {
                msgs.insert(self.msg_ids[edge.msg as usize]);
            }
            node = edge.tail;
        }
        let phases = per_phase
            .into_iter()
            .map(|(label, b)| PhaseRow {
                label,
                buckets: b.map(SimDelta::from_nanos),
                total: SimDelta::from_nanos(b.iter().sum()),
            })
            .collect();
        PathBreakdown {
            total: span,
            buckets: buckets.map(SimDelta::from_nanos),
            phases,
            critical_msgs: msgs.into_iter().collect(),
            edges_on_path,
        }
    }
}

/// Sanity: bucket labels stay in sync with the accumulation arrays.
#[cfg(test)]
mod tests {
    use crate::cost::Bucket;

    #[test]
    fn bucket_indices_are_dense_and_stable() {
        for (i, b) in Bucket::all().iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        let names: Vec<&str> = Bucket::all().iter().map(|b| b.as_str()).collect();
        assert_eq!(
            names,
            ["o_send", "o_recv", "compute", "idle", "tx_gap", "dma", "wire", "rx_gap"]
        );
    }
}
