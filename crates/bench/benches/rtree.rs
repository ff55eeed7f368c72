//! Criterion microbenches for the R-tree substrate: STR bulk load and
//! window-query throughput.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mwsj_datagen::Dataset;
use mwsj_geom::Rect;
use mwsj_rtree::{RTree, RTreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn items(n: usize, seed: u64) -> Vec<(Rect, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::uniform(n, 0.05, &mut rng)
        .rects()
        .iter()
        .copied()
        .zip(0u32..)
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = items(n, 1);
        group.bench_with_input(BenchmarkId::new("bulk_load_str", n), &data, |b, data| {
            b.iter_batched(
                || data.clone(),
                |data| {
                    let tree = RTree::bulk_load_with_params(RTreeParams::new(32), data);
                    black_box(tree.len())
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let tree = RTree::bulk_load_with_params(RTreeParams::new(32), items(50_000, 2));
    let mut group = c.benchmark_group("rtree_query");
    group.sample_size(20);
    let window = Rect::new(0.4, 0.4, 0.45, 0.45);
    group.bench_function("window_small", |b| {
        b.iter(|| black_box(tree.window(black_box(&window)).count()))
    });
    let big = Rect::new(0.1, 0.1, 0.9, 0.9);
    group.bench_function("window_large", |b| {
        b.iter(|| black_box(tree.window(black_box(&big)).count()))
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
