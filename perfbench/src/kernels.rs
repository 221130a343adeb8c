//! Replayed layer kernels: each layer's public functions driven, outside
//! the simulator, by a call stream taken from the workload's own trace.
//!
//! The stream is the trace's data accesses, interleaved round-robin
//! across cores. The L1 replay turns it into misses and evictions; those
//! carry the cores, lines and R-NUCA home tiles the other kernels use.
//! Each kernel makes as many calls as the simulation's report counts for
//! its layer (cycling the stream when it is shorter), and its cost is
//! given per call, never as a share of the run. Every kernel resolves its
//! inputs (miss stream, entry indices, home tiles) before the timed loop,
//! which holds the layer's calls and little else.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use lacc_cache::{DataRef, DataSlab, LineData};
use lacc_core::classifier::{RemovalReason, RequestHints};
use lacc_core::{
    AccessKind, DirectoryEntry, HomeRequest, InvalidationPlan, L1Cache, MesiState, Rnuca,
    StoreOutcome,
};
use lacc_dram::DramSystem;
use lacc_model::{Addr, CoreId, Cycle, LineAddr, SystemConfig};
use lacc_network::MeshNetwork;
use lacc_sim::engine::queue::CalendarQueue;
use lacc_sim::{RegionDecl, SimReport, TraceOp};

use crate::spans::Spans;

/// Nanoseconds spent in a kernel and the calls it made.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cost {
    pub ns: u64,
    pub calls: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Nanoseconds per call (0 when no call was made).
    pub fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-kernel costs, summed over a workload's simulations.
#[derive(Clone, Copy, Default, Debug)]
pub struct Costs {
    pub l1_access: Cost,
    pub dir_request: Cost,
    pub mesh_unicast: Cost,
    pub dram_access: Cost,
    pub slab_op: Cost,
    pub queue_push_pop: Cost,
}

impl Costs {
    pub fn add(&mut self, other: &Costs) {
        self.l1_access.add(other.l1_access);
        self.dir_request.add(other.dir_request);
        self.mesh_unicast.add(other.mesh_unicast);
        self.dram_access.add(other.dram_access);
        self.slab_op.add(other.slab_op);
        self.queue_push_pop.add(other.queue_push_pop);
    }
}

/// One simulation's inputs to the kernels.
pub struct Input<'a> {
    pub cfg: &'a SystemConfig,
    pub regions: &'a [RegionDecl],
    /// The decoded per-core traces.
    pub ops: &'a [Vec<TraceOp>],
    pub report: &'a SimReport,
    /// Events the engine dispatched for this simulation.
    pub events: u64,
}

#[derive(Clone, Copy)]
struct Access {
    core: usize,
    addr: Addr,
    write: bool,
    value: u64,
}

/// A call into the home tile's directory, in trace order.
#[derive(Clone, Copy)]
enum DirCall {
    Request { core: CoreId, line: LineAddr, write: bool, hints: RequestHints },
    Evict { core: CoreId, line: LineAddr, utilization: u32 },
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// The trace's loads and stores, one per core in turn.
fn access_stream(ops: &[Vec<TraceOp>]) -> Vec<Access> {
    let mut cursors = vec![0usize; ops.len()];
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for (core, trace) in ops.iter().enumerate() {
            let pos = &mut cursors[core];
            while *pos < trace.len() {
                let op = trace[*pos];
                *pos += 1;
                let access = match op {
                    TraceOp::Load { addr } => Access { core, addr, write: false, value: 0 },
                    TraceOp::Store { addr, value } => Access { core, addr, write: true, value },
                    _ => continue,
                };
                out.push(access);
                progressed = true;
                break;
            }
        }
        if !progressed {
            return out;
        }
    }
}

/// `n` accesses through per-core L1-D caches: loads, stores, and on a
/// miss the hints, a fresh line handle and the install (releasing the
/// victim's handle). With `record`, also collects the directory calls.
fn l1_pass(
    cfg: &SystemConfig,
    stream: &[Access],
    n: u64,
    mut record: Option<&mut Vec<DirCall>>,
) -> u64 {
    let mut slab = DataSlab::new();
    let mut l1s: Vec<L1Cache> = (0..cfg.num_cores)
        .map(|c| L1Cache::new(&cfg.l1d, cfg.line_bytes, CoreId::new(c)))
        .collect();
    let mut checksum = 0u64;
    for i in 0..n {
        let a = stream[(i % stream.len() as u64) as usize];
        let (line, word) = (a.addr.line(), a.addr.word_in_line());
        let l1 = &mut l1s[a.core];
        let hit = if a.write {
            l1.store(line, word, a.value, i, &mut slab) == StoreOutcome::Done
        } else {
            l1.load(line, word, i, &slab).map(|v| checksum ^= v).is_some()
        };
        if hit {
            continue;
        }
        let hints = l1.hints_for(line);
        let core = CoreId::new(a.core);
        let state = if a.write { MesiState::Modified } else { MesiState::Exclusive };
        let victim = l1.install(line, state, slab.alloc(LineData::zeroed()), i);
        if let Some(calls) = record.as_deref_mut() {
            calls.push(DirCall::Request { core, line, write: a.write, hints });
            if let Some(v) = victim {
                calls.push(DirCall::Evict { core, line: v.line, utilization: v.utilization });
            }
        }
        if let Some(v) = victim {
            slab.release(v.data);
        }
    }
    checksum
}

/// Replays `requests` miss requests (and the evictions between them)
/// through per-line directory entries: `begin_request`, the owner
/// downgrade and sharer responses its plan asks for, `complete_grant`.
fn dir_pass(cfg: &SystemConfig, calls: &[(usize, DirCall)], entries: usize, requests: u64) -> u64 {
    let mut dir: Vec<DirectoryEntry> = (0..entries)
        .map(|_| DirectoryEntry::new(cfg.directory, &cfg.classifier, cfg.num_cores))
        .collect();
    let mut done = 0u64;
    let mut now: Cycle = 0;
    let mut checksum = 0u64;
    while done < requests {
        for &(idx, call) in calls {
            let e = &mut dir[idx];
            match call {
                DirCall::Request { core, write, hints, .. } => {
                    now += 1;
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let req = HomeRequest { core, kind, hints, instruction: false };
                    let d = e.begin_request(&req, now);
                    if let Some(owner) = d.fetch_from_owner {
                        e.owner_downgraded(owner);
                    }
                    match d.invalidate {
                        Some(InvalidationPlan::Unicast(set)) => {
                            for c in set.iter() {
                                e.sharer_response(c, 1, RemovalReason::Invalidation);
                            }
                        }
                        Some(InvalidationPlan::Broadcast { expected_acks }) => {
                            for c in 0..expected_acks {
                                e.sharer_response(CoreId::new(c), 1, RemovalReason::Invalidation);
                            }
                        }
                        None => {}
                    }
                    e.complete_grant(core, d.grant);
                    checksum = checksum.wrapping_add(d.grant.carries_line() as u64);
                    done += 1;
                    if done == requests {
                        break;
                    }
                }
                DirCall::Evict { core, utilization, .. } => {
                    e.sharer_response(core, utilization, RemovalReason::Eviction);
                }
            }
        }
    }
    checksum
}

/// Call `i` of `n`'s time when `n` calls spread evenly over `span` cycles.
fn spread(i: u64, n: u64, span: Cycle) -> Cycle {
    (u128::from(i) * u128::from(span) / u128::from(n.max(1))) as Cycle
}

/// Unicasts `(src, dst, flits, now)`; returns each one's latency.
fn mesh_pass(cfg: &SystemConfig, msgs: &[(CoreId, CoreId, usize, Cycle)]) -> Vec<u32> {
    let mut net = MeshNetwork::new(cfg.num_cores, cfg.hop_router_cycles, cfg.hop_link_cycles);
    msgs.iter()
        .map(|&(src, dst, flits, now)| (net.unicast(src, dst, flits, now) - now) as u32)
        .collect()
}

/// Line-sized DRAM accesses `(line, now)`; returns each one's latency.
fn dram_pass(cfg: &SystemConfig, accesses: &[(LineAddr, Cycle)]) -> Vec<u32> {
    let mut dram = DramSystem::new(
        cfg.num_mem_ctrls,
        cfg.num_cores,
        cfg.dram_latency,
        cfg.dram_bytes_per_cycle,
    );
    accesses
        .iter()
        .map(|&(line, now)| {
            (dram.access(dram.ctrl_for_line(line), cfg.line_bytes, now) - now) as u32
        })
        .collect()
}

#[derive(Clone, Copy)]
enum SlabOp {
    Alloc,
    Retain,
    Release,
}

/// `allocs`, `retains` and `releases` slab operations interleaved in those
/// proportions, each step taking the operation furthest behind its share
/// (an allocation whenever no handle is live).
fn slab_schedule(allocs: u64, retains: u64, releases: u64) -> Vec<SlabOp> {
    let total = allocs + retains + releases;
    let mut done = [0u64; 3];
    let mut live = 0u64;
    (0..total)
        .map(|i| {
            let behind = |k: usize, count: u64| {
                (u128::from(count) * u128::from(i + 1) / u128::from(total)) as i128
                    - i128::from(done[k])
            };
            let (ba, br, bf) = (behind(0, allocs), behind(1, retains), behind(2, releases));
            let (k, op) = if live == 0 || (ba >= br && ba >= bf) {
                (0, SlabOp::Alloc)
            } else if br >= bf {
                (1, SlabOp::Retain)
            } else {
                (2, SlabOp::Release)
            };
            done[k] += 1;
            live = if k == 2 { live - 1 } else { live + 1 };
            op
        })
        .collect()
}

/// Runs a slab schedule over lines taken from the miss stream: handles
/// are retained round-robin and released oldest first.
fn slab_pass(lines: &[LineAddr], schedule: &[SlabOp]) -> u64 {
    let mut slab = DataSlab::new();
    let mut live: VecDeque<DataRef> = VecDeque::new();
    let mut checksum = 0u64;
    let mut next_line = lines.iter().cycle();
    for op in schedule {
        match op {
            SlabOp::Alloc => {
                let mut data = LineData::zeroed();
                data.set_word(0, next_line.next().expect("non-empty miss stream").raw());
                live.push_back(slab.alloc(data));
            }
            SlabOp::Retain => {
                let h = live.pop_front().expect("the schedule retains live handles");
                let alias = slab.retain(h);
                checksum ^= slab.get(alias).word(0);
                live.push_back(h);
                live.push_back(alias);
            }
            SlabOp::Release => {
                slab.release(live.pop_front().expect("the schedule releases live handles"));
            }
        }
    }
    checksum ^ live.len() as u64
}

/// `n` pops from a calendar queue holding one pending event per core,
/// each pop pushing its successor one recorded latency later.
fn queue_pass(cores: usize, delays: &[u32], n: u64) -> u64 {
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    for c in 0..cores as u64 {
        q.push(c % 4, c);
    }
    let mut checksum = 0u64;
    for i in 0..n {
        let (at, item) = q.pop().expect("the queue never drains");
        checksum = checksum.wrapping_add(at ^ item);
        let delay = delays[(i % delays.len() as u64) as usize];
        q.push(at + Cycle::from(delay.max(1)), item);
    }
    checksum
}

/// Replays every kernel for one simulation.
pub fn replay(input: &Input<'_>, spans: &mut Spans) -> Costs {
    let cfg = input.cfg;
    let report = input.report;
    let stream = access_stream(input.ops);
    let mut costs = Costs::default();
    if stream.is_empty() {
        return costs;
    }

    let l1_calls = report.l1d.total_accesses().max(1);
    let mut calls = Vec::new();
    l1_pass(cfg, &stream, l1_calls, Some(&mut calls));
    let (sum, ns) =
        spans.time("kernel.l1_access", || timed(|| l1_pass(cfg, &stream, l1_calls, None)));
    black_box(sum);
    costs.l1_access = Cost { ns, calls: l1_calls };

    // Dense directory-entry indices and R-NUCA homes, resolved untimed.
    let mut index: HashMap<LineAddr, usize> = HashMap::new();
    let indexed: Vec<(usize, DirCall)> = calls
        .iter()
        .map(|&c| {
            let line = match c {
                DirCall::Request { line, .. } | DirCall::Evict { line, .. } => line,
            };
            let next = index.len();
            (*index.entry(line).or_insert(next), c)
        })
        .collect();
    let p = &report.protocol;
    let requests = (p.line_grants + p.upgrades + p.word_reads + p.word_writes).max(1);
    if calls.iter().any(|c| matches!(c, DirCall::Request { .. })) {
        let (sum, ns) = spans.time("kernel.dir_request", || {
            timed(|| dir_pass(cfg, &indexed, index.len(), requests))
        });
        black_box(sum);
        costs.dir_request = Cost { ns, calls: requests };
    }

    let mut rnuca = Rnuca::new(cfg.num_cores, cfg.rnuca_cluster);
    for r in input.regions {
        rnuca.declare_lines(r.first_line, r.lines, r.class);
    }
    let mut msgs = Vec::new();
    let mut miss_lines = Vec::new();
    for c in &calls {
        if let DirCall::Request { core, line, write, .. } = *c {
            miss_lines.push(line);
            let home = rnuca.home_for(line, core);
            if home != core {
                msgs.push((core, home, if write { 2 } else { 1 }));
                msgs.push((home, core, 9));
            }
        }
    }
    let span = report.completion_time.max(1);
    let mut delays = Vec::new();
    if !msgs.is_empty() {
        let n = report.net.unicasts.max(1);
        let sends: Vec<_> = (0..n)
            .map(|i| {
                let (src, dst, flits) = msgs[(i % msgs.len() as u64) as usize];
                (src, dst, flits, spread(i, n, span))
            })
            .collect();
        let (lat, ns) = spans.time("kernel.mesh_unicast", || timed(|| mesh_pass(cfg, &sends)));
        costs.mesh_unicast = Cost { ns, calls: n };
        delays.extend(lat);
    }
    if !miss_lines.is_empty() {
        let n = report.dram.accesses.max(1);
        let accesses: Vec<_> = (0..n)
            .map(|i| (miss_lines[(i % miss_lines.len() as u64) as usize], spread(i, n, span)))
            .collect();
        let (lat, ns) = spans.time("kernel.dram_access", || timed(|| dram_pass(cfg, &accesses)));
        costs.dram_access = Cost { ns, calls: n };
        // Interleave DRAM latencies into the mesh ones in their count ratio.
        let every = (delays.len() / lat.len().max(1)).max(1);
        let mut merged = Vec::with_capacity(delays.len() + lat.len());
        let mut dram = lat.into_iter();
        for (i, d) in std::mem::take(&mut delays).into_iter().enumerate() {
            merged.push(d);
            if i % every == every - 1 {
                merged.extend(dram.next());
            }
        }
        merged.extend(dram);
        delays = merged;

        let s = report.slab;
        let schedule = slab_schedule(s.allocs, s.retains, s.releases);
        if !schedule.is_empty() {
            let (sum, ns) =
                spans.time("kernel.slab_op", || timed(|| slab_pass(&miss_lines, &schedule)));
            black_box(sum);
            costs.slab_op = Cost { ns, calls: schedule.len() as u64 };
        }
    }
    if !delays.is_empty() && input.events > 0 {
        let n = input.events;
        let (sum, ns) =
            spans.time("kernel.queue_push_pop", || timed(|| queue_pass(cfg.num_cores, &delays, n)));
        black_box(sum);
        costs.queue_push_pop = Cost { ns, calls: n };
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_sim::ltf::{read_workload_bytes, workload_to_ltf_bytes_v2};
    use lacc_sim::{SimOptions, Simulator};

    #[test]
    fn the_access_stream_takes_one_access_per_core_in_turn() {
        let load = |a: u64| TraceOp::Load { addr: Addr::new(a) };
        let ops = vec![vec![load(0), TraceOp::Compute(3), load(8)], vec![load(64)]];
        let cores: Vec<usize> = access_stream(&ops).iter().map(|a| a.core).collect();
        assert_eq!(cores, [0, 1, 0]);
    }

    #[test]
    fn a_slab_schedule_only_retains_and_releases_live_handles() {
        let schedule = slab_schedule(100, 50, 160);
        assert_eq!(schedule.len(), 310);
        slab_pass(&[LineAddr::new(7)], &schedule);
    }

    #[test]
    fn every_kernel_replays_a_small_workload() {
        let cfg = lacc_experiments::config_for_cores(4);
        let bytes = workload_to_ltf_bytes_v2(crate::gen::ocean(4, 0.02, 1)).unwrap();
        let (header, ops) = read_workload_bytes(&bytes).unwrap();
        let w = crate::gen::ocean(4, 0.02, 1);
        let report = Simulator::with_options(cfg.clone(), w, SimOptions::default()).unwrap().run();
        let input =
            Input { cfg: &cfg, regions: &header.regions, ops: &ops, report: &report, events: 1000 };
        let c = replay(&input, &mut Spans::new(false));
        for cost in
            [c.l1_access, c.dir_request, c.mesh_unicast, c.dram_access, c.slab_op, c.queue_push_pop]
        {
            assert!(cost.calls > 0 && cost.ns > 0, "{c:?}");
        }
    }
}
