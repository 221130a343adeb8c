//! Benchmarks of the protocol decision kernel (`DirectoryEntry`) and of
//! whole simulated accesses per second on representative workloads.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lacc_bench::{run_small, run_small_sharded};
use lacc_core::classifier::{RemovalReason, RequestHints};
use lacc_core::home::{AccessKind, DirectoryEntry, HomeRequest};
use lacc_core::DirectoryKind;
use lacc_model::config::ClassifierConfig;
use lacc_model::{CoreId, SystemConfig};
use lacc_workloads::Benchmark;

fn bench_directory_entry(c: &mut Criterion) {
    let mut g = c.benchmark_group("directory_entry");
    let hints = RequestHints { set_min_last_access: 0, set_has_invalid: true };
    g.bench_function("read_write_invalidate_cycle", |b| {
        let mut e =
            DirectoryEntry::new(DirectoryKind::ackwise4(), &ClassifierConfig::isca13_default(), 64);
        b.iter(|| {
            // Three readers then a writer: the §3.2 hot path.
            for i in 0..3 {
                let core = CoreId::new(i);
                let d = e.begin_request(
                    &HomeRequest { core, kind: AccessKind::Read, hints, instruction: false },
                    10,
                );
                if let Some(o) = d.fetch_from_owner {
                    e.owner_downgraded(o);
                }
                e.complete_grant(core, d.grant);
            }
            let w = CoreId::new(5);
            let d = e.begin_request(
                &HomeRequest { core: w, kind: AccessKind::Write, hints, instruction: false },
                20,
            );
            for i in 0..3 {
                e.sharer_response(CoreId::new(i), 1, RemovalReason::Invalidation);
            }
            e.complete_grant(w, d.grant);
            black_box(e.sharer_response(w, 2, RemovalReason::Eviction));
        });
    });
    // An L2 install on the Table-1 machine, as the engine does it: clone
    // the simulator's blank entry, then serve the line's first read.
    g.bench_function("install_64c", |b| {
        let cfg = SystemConfig::isca13_64core();
        let blank = DirectoryEntry::new(cfg.directory, &cfg.classifier, cfg.num_cores);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % cfg.num_cores;
            let core = CoreId::new(i);
            let mut e = blank.clone();
            let d = e.begin_request(
                &HomeRequest { core, kind: AccessKind::Read, hints, instruction: false },
                1,
            );
            e.complete_grant(core, d.grant);
            black_box(e)
        });
    });
    g.finish();
}

fn bench_simulated_accesses(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for bench in [Benchmark::WaterSp, Benchmark::Streamcluster, Benchmark::Concomp] {
        let accesses = run_small(bench, 8, 4, 0.05).l1d.total_accesses();
        g.throughput(Throughput::Elements(accesses));
        g.bench_function(format!("sim_{}", bench.name().replace('.', "")), |b| {
            b.iter(|| black_box(run_small(bench, 8, 4, 0.05).completion_time));
        });
    }
    // The sharded engine against its serial oracle on the same workload:
    // shards1 tracks the serial path (it IS the serial path — shards = 1
    // never constructs the plane), shards2 tracks the windowed
    // commit plane, so the pair bounds the sharding overhead over time.
    let accesses = run_small(Benchmark::WaterSp, 8, 4, 0.05).l1d.total_accesses();
    for shards in [1usize, 2] {
        g.throughput(Throughput::Elements(accesses));
        g.bench_function(format!("sim_water-sp_shards{shards}"), |b| {
            b.iter(|| {
                black_box(run_small_sharded(Benchmark::WaterSp, 8, 4, 0.05, shards).completion_time)
            });
        });
    }
    g.finish();
    bench_shard_overhead(c);
}

/// The `--shards 2` sequencing-overhead ratio as one tracked number.
///
/// The two `sim_water-sp_shards{1,2}` medians above are measured minutes
/// apart, so their ratio folds in whatever the machine drifted between
/// them; here the serial and sharded runs alternate round by round —
/// interleaved A/B — so drift lands on both series equally, and the
/// recorded metric is `median(sharded) / median(serial)` as a percentage
/// (100 = parity; the acceptance bar is ≤ 105).
fn bench_shard_overhead(_c: &mut Criterion) {
    if !criterion::is_measuring() {
        return; // cargo-test smoke: the bench_functions above cover the bodies.
    }
    let fast = std::env::var_os("LACC_BENCH_FAST").is_some();
    let rounds = if fast { 2 } else { 15 };
    let time_one = |shards: usize| {
        let t = std::time::Instant::now();
        black_box(run_small_sharded(Benchmark::WaterSp, 8, 4, 0.05, shards).completion_time);
        t.elapsed().as_nanos() as f64
    };
    // One unmeasured warmup pair primes caches and the allocator.
    time_one(1);
    time_one(2);
    let mut serial: Vec<f64> = Vec::with_capacity(rounds);
    let mut sharded: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        serial.push(time_one(1));
        sharded.push(time_one(2));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let ratio_pct = 100.0 * median(&mut sharded) / median(&mut serial);
    criterion::record_metric("end_to_end/shard_overhead", ratio_pct);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_directory_entry, bench_simulated_accesses
);
criterion_main!(benches);
