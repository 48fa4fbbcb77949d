//! Experiment E9: durability overhead and recovery throughput.
//!
//! Three questions about the crash-safe warehouse layer:
//!
//! * **wal_append** — raw cost of journaling one record (frame + CRC +
//!   fsync), across payload sizes;
//! * **durable_ops** — the end-to-end tax of journaling a bulk load +
//!   sync to disk (a one-shard [`ShardRouter`] on the real filesystem)
//!   versus the in-memory warehouse (the same router over a `MemFs`);
//! * **recovery** — replay throughput: recover a warehouse whose state
//!   lives entirely in the WAL tail versus one folded into a checkpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sdr_bench::policy_spec;
use sdr_mdm::calendar::days_from_civil;
use sdr_storage::fs::RealFs;
use sdr_storage::Wal;
use sdr_subcube::ShardRouter;
use sdr_workload::{generate, ClickstreamConfig};

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sdr-bench-wal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn one_month() -> sdr_workload::Clickstream {
    generate(&ClickstreamConfig {
        clicks_per_day: 100,
        start: (1999, 1, 1),
        end: (1999, 1, 28),
        ..Default::default()
    })
}

fn bench_wal_append(c: &mut Criterion) {
    let dir = bench_dir("append");
    let mut g = c.benchmark_group("E9_wal_append");
    g.sample_size(20);
    for size in [64usize, 4096, 65536] {
        let payload = vec![0xA5u8; size];
        g.throughput(criterion::Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("payload_bytes", size), &payload, |b, p| {
            let mut wal =
                Wal::create(RealFs::shared(), dir.join(format!("w{size}.log")), 0).unwrap();
            b.iter(|| wal.append(black_box(p)).unwrap());
        });
    }
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_durable_ops(c: &mut Criterion) {
    let cs = one_month();
    let now = days_from_civil(1999, 8, 15);
    let mut g = c.benchmark_group("E9_durable_ops");
    g.sample_size(10);
    g.bench_function("load_sync_plain", |b| {
        b.iter_batched(
            || ShardRouter::in_memory(policy_spec(&cs.schema)),
            |m| {
                m.bulk_load(&cs.mo).unwrap();
                black_box(m.sync(now).unwrap())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    let dir = bench_dir("ops");
    let mut n = 0u64;
    g.bench_function("load_sync_durable", |b| {
        b.iter_batched(
            || {
                n += 1;
                let d = dir.join(format!("w{n}"));
                ShardRouter::create(policy_spec(&cs.schema), &d, 1).unwrap()
            },
            |w| {
                w.bulk_load(&cs.mo).unwrap();
                black_box(w.sync(now).unwrap())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_recovery(c: &mut Criterion) {
    let cs = one_month();
    let now = days_from_civil(1999, 8, 15);
    let spec = policy_spec(&cs.schema);

    // A warehouse whose whole history sits in the log tail…
    let wal_dir = bench_dir("rec-wal");
    let w = ShardRouter::create(spec.clone(), &wal_dir, 1).unwrap();
    w.bulk_load(&cs.mo).unwrap();
    w.sync(now).unwrap();
    drop(w);
    // …and the same state folded into a checkpoint (empty tail).
    let ckpt_dir = bench_dir("rec-ckpt");
    let w = ShardRouter::create(spec.clone(), &ckpt_dir, 1).unwrap();
    w.bulk_load(&cs.mo).unwrap();
    w.sync(now).unwrap();
    w.checkpoint().unwrap();
    drop(w);

    let mut g = c.benchmark_group("E9_recovery");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(cs.mo.len() as u64));
    g.bench_function("replay_wal_tail", |b| {
        b.iter(|| black_box(ShardRouter::recover(spec.clone(), &wal_dir).unwrap()));
    });
    g.bench_function("load_checkpoint", |b| {
        b.iter(|| black_box(ShardRouter::recover(spec.clone(), &ckpt_dir).unwrap()));
    });
    g.finish();
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

fn all(c: &mut Criterion) {
    sdr_bench::obs_begin();
    bench_wal_append(c);
    bench_durable_ops(c);
    bench_recovery(c);
    sdr_bench::obs_record("wal_recovery");
}

criterion_group!(benches, all);
criterion_main!(benches);
