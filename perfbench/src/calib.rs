//! Calibration loops: the host cost of one unit of work at each layer,
//! measured from outside through the layer's public API.
//!
//! Each loop does `n` units of one kind of work and divides its host time
//! by `n`. The loops also count the simulator events and messages one unit
//! costs, so the host-cost ledger can tell which events and messages of a
//! workload belong to which unit.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use nowlab_am::{AmCluster, Mark, NetConfig, Payload, ReplyData};
use nowlab_coll::harness::{measure, OpSpec};
use nowlab_coll::{A2aAlgo, BcastAlgo, GatherAlgo, ReduceAlgo};
use nowlab_sim::{Sim, SimDelta, SimTime};
use nowlab_splitc::{run_spmd, Ctx, GlobalPtr, SpmdConfig};

/// The cost of one unit of work.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCost {
    /// Host nanoseconds per unit.
    pub ns: f64,
    /// Simulator events per unit.
    pub events: f64,
    /// Messages sent per unit.
    pub msgs: f64,
}

/// Processors the barrier and collective loops run on.
pub const CALIB_PROCS: usize = 16;

/// Every unit cost the ledger and the per-layer metrics use.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// A task waking from `Sim::delay`.
    pub wake: UnitCost,
    /// A boxed callback from `Sim::schedule_in`.
    pub call: UnitCost,
    /// A `Sim::schedule_hook` dispatch.
    pub hook: UnitCost,
    /// A short `AmPort::post` (request plus its acknowledgement).
    pub post: UnitCost,
    /// A short `AmPort::request` round trip.
    pub request: UnitCost,
    /// A `AmPort::post` of a 4 KiB payload.
    pub bulk_4k: UnitCost,
    /// A Split-C remote read.
    pub read: UnitCost,
    /// A Split-C remote write (with its share of the closing `sync`).
    pub write: UnitCost,
    /// One processor's part in a barrier of [`CALIB_PROCS`].
    pub barrier: UnitCost,
    /// An uncontended lock and unlock.
    pub lock: UnitCost,
    /// One collective call on [`CALIB_PROCS`] processors, per variant
    /// (`<family>-<variant>`), cluster set-up included.
    pub coll: Vec<(String, UnitCost)>,
}

impl Calibration {
    /// Mean collective cost per participating processor.
    pub fn coll_per_proc_ns(&self) -> f64 {
        let n = self.coll.len().max(1) as f64;
        self.coll.iter().map(|(_, c)| c.ns).sum::<f64>() / n / CALIB_PROCS as f64
    }
}

fn per_unit(secs: f64, units: u64, events: u64, msgs: u64) -> UnitCost {
    let n = units.max(1) as f64;
    UnitCost {
        ns: secs * 1e9 / n,
        events: events as f64 / n,
        msgs: msgs as f64 / n,
    }
}

/// Runs `f` `reps` times and keeps the run with the median host time.
fn median_of(reps: usize, f: impl Fn() -> UnitCost) -> UnitCost {
    let mut runs: Vec<UnitCost> = (0..reps.max(1)).map(|_| f()).collect();
    runs.sort_by(|a, b| a.ns.total_cmp(&b.ns));
    runs[runs.len() / 2]
}

fn timed_run(sim: &Sim) -> (f64, u64) {
    let t0 = Instant::now();
    let report = sim.run();
    (t0.elapsed().as_secs_f64(), report.events_fired)
}

fn sim_wake(rounds: u64) -> UnitCost {
    let tasks = 64;
    let sim = Sim::with_capacity(tasks as usize);
    for i in 0..tasks {
        let s = sim.clone();
        sim.spawn(async move {
            for r in 0..rounds {
                s.delay(SimDelta::from_nanos((i * 7 + r * 13) % 97 + 1))
                    .await;
            }
        });
    }
    let (secs, events) = timed_run(&sim);
    per_unit(secs, events, events, 0)
}

fn sim_call(rounds: u64) -> UnitCost {
    fn step(sim: &Sim, chain: u64, remaining: u64) {
        if remaining > 0 {
            sim.schedule_in(SimDelta::from_nanos(chain % 13 + 1), move |sim| {
                step(sim, chain, remaining - 1)
            });
        }
    }
    let sim = Sim::new();
    for c in 0..16 {
        step(&sim, c, rounds);
    }
    let (secs, events) = timed_run(&sim);
    per_unit(secs, events, events, 0)
}

fn sim_hook(rounds: u64) -> UnitCost {
    let sim = Sim::new();
    let id = Rc::new(Cell::new(None));
    let id_in = Rc::clone(&id);
    let hook = sim.register_hook(move |sim, token| {
        let (chain, remaining) = (token >> 32, token & u64::from(u32::MAX));
        if remaining > 1 {
            let at = sim.now() + SimDelta::from_nanos(chain % 13 + 1);
            let hook = id_in.get().expect("hook id set before the run");
            sim.schedule_hook(at, hook, (chain << 32) | (remaining - 1));
        }
    });
    id.set(Some(hook));
    for c in 0..16u64 {
        sim.schedule_hook(SimTime::from_nanos(c % 13 + 1), hook, (c << 32) | rounds);
    }
    let (secs, events) = timed_run(&sim);
    per_unit(secs, events, events, 0)
}

#[derive(Clone, Copy)]
enum AmOp {
    Post,
    Request,
    Bulk4k,
}

/// Processor 0 issues `n` operations to processor 1 on a baseline
/// two-processor cluster; processor 1 only services the network.
fn am_loop(op: AmOp, n: u64) -> UnitCost {
    let sim = Sim::new();
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
    let handler = cluster.register_handler(|_| ReplyData::ack());
    let done = Rc::new(Cell::new(false));
    let page: Rc<[u8]> = vec![0x5a; 4096].into();
    {
        let (port, cluster, done) = (cluster.port(0), cluster.clone(), Rc::clone(&done));
        sim.spawn(async move {
            for i in 0..n {
                let args = [i, 0, 0, 0];
                match op {
                    AmOp::Post => {
                        port.post(1, handler, args, Payload::None, Mark::Write)
                            .await
                    }
                    AmOp::Request => {
                        black_box(
                            port.request(1, handler, args, Payload::None, Mark::Read)
                                .await,
                        );
                    }
                    AmOp::Bulk4k => {
                        let payload = Payload::Bytes(Rc::clone(&page));
                        port.post(1, handler, args, payload, Mark::Bulk).await
                    }
                }
            }
            port.quiesce().await;
            done.set(true);
            cluster.poke_all();
        });
    }
    let port = cluster.port(1);
    sim.spawn(async move { port.wait_until(|| done.get()).await });
    let (secs, events) = timed_run(&sim);
    per_unit(secs, n, events, cluster.stats().total_sends())
}

#[derive(Clone, Copy)]
enum SplitOp {
    Read,
    Write,
    Barrier,
    Lock,
}

/// A Split-C SPMD program doing `n` operations; reads, writes and locks
/// go from processor 0 to processor 1 of two, barriers involve every
/// processor of [`CALIB_PROCS`].
fn splitc_loop(op: SplitOp, n: u64) -> UnitCost {
    let procs = match op {
        SplitOp::Barrier => CALIB_PROCS,
        _ => 2,
    };
    let t0 = Instant::now();
    let out = run_spmd(&SpmdConfig::new(procs), move |ctx: Ctx| async move {
        let region = ctx.alloc_region(1);
        let gp = GlobalPtr::new(1, region, 0);
        match op {
            SplitOp::Barrier => {
                for _ in 0..n {
                    ctx.barrier().await;
                }
            }
            _ if ctx.me() != 0 => {}
            SplitOp::Read => {
                for _ in 0..n {
                    black_box(ctx.read(gp).await);
                }
            }
            SplitOp::Write => {
                for i in 0..n {
                    ctx.write(gp, i).await;
                }
                ctx.sync().await;
            }
            SplitOp::Lock => {
                for _ in 0..n {
                    black_box(ctx.lock(gp).await);
                    ctx.unlock(gp).await;
                }
                ctx.sync().await;
            }
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let units = match op {
        SplitOp::Barrier => n * procs as u64,
        _ => n,
    };
    per_unit(
        secs,
        units,
        out.report.events_fired,
        out.stats.total_sends(),
    )
}

/// The nine collective variants, with the payload each is measured at.
fn coll_ops() -> Vec<(String, OpSpec)> {
    let mut ops = Vec::new();
    for a in BcastAlgo::ALL {
        ops.push((format!("bcast-{a}"), OpSpec::Broadcast(a, 1024)));
    }
    for a in ReduceAlgo::ALL {
        ops.push((format!("reduce-{a}"), OpSpec::Reduce(a)));
    }
    for a in GatherAlgo::ALL {
        ops.push((format!("allgather-{a}"), OpSpec::Allgather(a, 64)));
    }
    for a in A2aAlgo::ALL {
        ops.push((format!("alltoall-{a}"), OpSpec::AllToAll(a, 32)));
    }
    ops
}

fn coll_loop(op: OpSpec, reps: u64) -> UnitCost {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(measure(op, CALIB_PROCS, NetConfig::berkeley_now()));
    }
    per_unit(t0.elapsed().as_secs_f64(), reps, 0, 0)
}

/// Runs every calibration loop. `scale` multiplies the loop lengths
/// (1.0 for a benchmark run, smaller for tests); each loop is repeated
/// three times and the median kept.
pub fn calibrate(scale: f64) -> Calibration {
    let n = |base: u64| ((base as f64 * scale) as u64).max(1);
    let reps = 3;
    Calibration {
        wake: median_of(reps, || sim_wake(n(4_000))),
        call: median_of(reps, || sim_call(n(16_000))),
        hook: median_of(reps, || sim_hook(n(16_000))),
        post: median_of(reps, || am_loop(AmOp::Post, n(40_000))),
        request: median_of(reps, || am_loop(AmOp::Request, n(40_000))),
        bulk_4k: median_of(reps, || am_loop(AmOp::Bulk4k, n(10_000))),
        read: median_of(reps, || splitc_loop(SplitOp::Read, n(40_000))),
        write: median_of(reps, || splitc_loop(SplitOp::Write, n(40_000))),
        barrier: median_of(reps, || splitc_loop(SplitOp::Barrier, n(1_000))),
        lock: median_of(reps, || splitc_loop(SplitOp::Lock, n(20_000))),
        coll: coll_ops()
            .into_iter()
            .map(|(name, op)| (name, median_of(reps, || coll_loop(op, n(20)))))
            .collect(),
    }
}
