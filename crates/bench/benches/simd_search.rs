//! Micro-benchmarks for the hand-rolled SIMD kernels in `pma_common::simd`:
//! vectorised rank (`count_le`) against its scalar fallback and plain binary
//! search across run lengths, plus the fence-routing and run-copy kernels
//! and the byte-key fence directory (`ByteFences::route`) on URL fences.
//!
//! The interesting contrast is runs of [`pma_common::simd::SMALL_RUN`]
//! elements and above — the hybrid kernel narrows longer runs with a scalar
//! binary search first, so the vector win shows up in the final window scan.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pma_common::simd::{self, ByteFences, Variant};
use pma_workloads::UrlCorpus;

/// Short measurement windows keep the full suite runnable in CI; raise them
/// for publication-quality numbers.
fn tune(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(2));
}

/// A sorted run of `len` keys with duplicates, plus probe keys that land
/// uniformly across (and slightly outside) the run.
fn run_and_probes(len: usize) -> (Vec<i64>, Vec<i64>) {
    let mut rng = SmallRng::seed_from_u64(0x51AD);
    let mut run: Vec<i64> = (0..len)
        .map(|_| rng.gen_range(-1_000_000..1_000_000))
        .collect();
    run.sort_unstable();
    let probes: Vec<i64> = (0..256)
        .map(|_| rng.gen_range(-1_100_000..1_100_000))
        .collect();
    (run, probes)
}

fn bench_count_le(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_count_le");
    group.sample_size(30);
    tune(&mut group);
    let active = simd::active_variant();
    for len in [16usize, 64, 256, 1024, 4096] {
        let (run, probes) = run_and_probes(len);
        group.bench_with_input(
            BenchmarkId::new("binary_search", len),
            &(&run, &probes),
            |b, (run, probes)| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &p in probes.iter() {
                        acc += run.partition_point(|&x| x <= p);
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scalar", len),
            &(&run, &probes),
            |b, (run, probes)| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &p in probes.iter() {
                        acc += simd::count_le_with(Variant::Scalar, run, p);
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(active.name(), len),
            &(&run, &probes),
            |b, (run, probes)| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &p in probes.iter() {
                        acc += simd::count_le_with(active, run, p);
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_fence_route");
    group.sample_size(30);
    tune(&mut group);
    for fences in [8usize, 32, 128] {
        let separators: Vec<i64> = (0..fences as i64).map(|i| i * 1000).collect();
        let aligned = simd::AlignedKeys::from_slice(&separators);
        let mut rng = SmallRng::seed_from_u64(9);
        let probes: Vec<i64> = (0..256)
            .map(|_| rng.gen_range(-500..(fences as i64) * 1000 + 500))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("binary_search", fences),
            &(&separators, &probes),
            |b, (seps, probes)| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &p in probes.iter() {
                        acc += seps.partition_point(|&x| x <= p).saturating_sub(1);
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("simd_route", fences),
            &probes,
            |b, probes| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &p in probes.iter() {
                        acc += simd::route(&aligned, p);
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

fn bench_append_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_append_run");
    group.sample_size(30);
    tune(&mut group);
    for len in [64usize, 1024, 4096] {
        let src: Vec<i64> = (0..len as i64).collect();
        group.bench_with_input(
            BenchmarkId::new("extend_from_slice", len),
            &src,
            |b, src| {
                let mut dst = Vec::with_capacity(len * 2);
                b.iter(|| {
                    dst.clear();
                    dst.extend_from_slice(src);
                    dst.len()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("append_run", len), &src, |b, src| {
            let mut dst = Vec::with_capacity(len * 2);
            b.iter(|| {
                dst.clear();
                simd::append_run(&mut dst, src);
                dst.len()
            })
        });
    }
    group.finish();
}

/// `ByteFences::route` over the chunk directory of one shard of the URL
/// benchmark: 2M `UrlCorpus` keys cut into four equal shards, and the first
/// shard's keys cut into chunks of 128 — ~3,900 fences, all starting with
/// `https://`, so every fence has the same 8-byte head. Each iteration
/// routes 256 keys of that shard; the throughput column is routes/s.
fn bench_byte_fence_route(c: &mut Criterion) {
    const KEYS: usize = 2_000_000;
    const SHARDS: usize = 4;
    const PER_CHUNK: usize = 128;
    let corpus = UrlCorpus::new(1).sorted_corpus(KEYS);
    let shard = &corpus[..KEYS / SHARDS];
    let mut fences: Vec<&[u8]> = vec![b""];
    fences.extend(
        shard
            .iter()
            .step_by(PER_CHUNK)
            .skip(1)
            .map(|(key, _)| key.as_slice()),
    );
    let dir = ByteFences::from_keys(&fences);
    let mut rng = SmallRng::seed_from_u64(0xB17E);
    let probes: Vec<&[u8]> = (0..256)
        .map(|_| shard[rng.gen_range(0..shard.len())].0.as_slice())
        .collect();

    let mut group = c.benchmark_group("byte_fence_route");
    group.sample_size(200);
    group.throughput(Throughput::Elements(probes.len() as u64));
    tune(&mut group);
    group.bench_with_input(
        BenchmarkId::new("url_shard_x256", dir.len()),
        &probes,
        |b, probes| {
            b.iter(|| {
                let mut acc = 0usize;
                for &p in probes.iter() {
                    acc += dir.route(p);
                }
                acc
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_count_le,
    bench_route,
    bench_append_run,
    bench_byte_fence_route
);
criterion_main!(benches);
