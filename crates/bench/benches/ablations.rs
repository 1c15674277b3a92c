//! Ablation benches for the design decisions called out in DESIGN.md §6:
//!
//! 1. incremental benefit maintenance (the production `CentralizedGreedy`)
//!    vs full recompute per placement;
//! 2. hash-grid spatial index vs brute-force radius queries;
//! 3. Halton vs random field approximation (cost side; the quality side
//!    is Fig. 4);
//! 4. parallel vs sequential replica execution.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use decor_core::{benefit_at, CentralizedGreedy, CoverageMap, DeploymentConfig, Placer};
use decor_exp::MatrixRunner;
use decor_geom::{Aabb, GridIndex, Point};
use decor_lds::{halton_points, random_points};
use std::hint::black_box;

fn fresh_map(n_pts: usize, k: u32) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig {
        k,
        ..DeploymentConfig::default()
    };
    let map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
    (map, cfg)
}

/// Centralized greedy recomputing every candidate's benefit per step.
fn greedy_naive(mut map: CoverageMap, cfg: &DeploymentConfig) -> usize {
    let cands: Vec<usize> = (0..map.n_points()).collect();
    let mut placed = 0;
    loop {
        let mut best: Option<(usize, u64)> = None;
        for &pid in &cands {
            let b = benefit_at(&map, map.points()[pid], cfg.rs, cfg.k);
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((pid, b));
            }
        }
        let Some((pid, _)) = best else { break };
        map.add_sensor(map.points()[pid], cfg.rs);
        placed += 1;
    }
    placed
}

fn bench_benefit_maintenance(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_benefit_maintenance");
    g.sample_size(10);
    let n = 600;
    g.bench_function("centralized_greedy", |b| {
        b.iter_batched(
            || fresh_map(n, 2),
            |(mut map, cfg)| black_box(CentralizedGreedy.place(&mut map, &cfg).placed.len()),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("naive_recompute", |b| {
        b.iter_batched(
            || fresh_map(n, 2),
            |(map, cfg)| black_box(greedy_naive(map, &cfg)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_spatial_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_spatial_index");
    let field = Aabb::square(100.0);
    let pts = random_points(2000, &field, 7);
    let mut idx = GridIndex::for_square_field(100.0, 4.0);
    for (i, &p) in pts.iter().enumerate() {
        idx.insert(i, p);
    }
    let queries: Vec<Point> = random_points(256, &field, 8);
    g.bench_function("hash_grid", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &q in &queries {
                acc += idx.count_within(q, 4.0);
            }
            black_box(acc)
        })
    });
    g.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &q in &queries {
                acc += pts.iter().filter(|p| q.dist_sq(**p) <= 16.0).count();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_approximation_backend(c: &mut Criterion) {
    // Cost of generating the approximation + running a deployment on it.
    let mut g = c.benchmark_group("ablation_approximation_backend");
    g.sample_size(10);
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig {
        k: 1,
        ..DeploymentConfig::default()
    };
    g.bench_function("halton_2000", |b| {
        b.iter(|| black_box(halton_points(2000, &field)))
    });
    g.bench_function("random_2000", |b| {
        b.iter(|| black_box(random_points(2000, &field, 3)))
    });
    g.bench_function("deploy_on_halton", |b| {
        b.iter_batched(
            || CoverageMap::new(halton_points(600, &field), &field, &cfg),
            |mut map| {
                black_box(
                    decor_core::CentralizedGreedy
                        .place(&mut map, &cfg)
                        .placed
                        .len(),
                )
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("deploy_on_random_points", |b| {
        b.iter_batched(
            || CoverageMap::new(random_points(600, &field, 4), &field, &cfg),
            |mut map| {
                black_box(
                    decor_core::CentralizedGreedy
                        .place(&mut map, &cfg)
                        .placed
                        .len(),
                )
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_replica_parallelism(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_replica_parallelism");
    g.sample_size(10);
    let work = |seed: u64| {
        let (map, cfg) = fresh_map(400, 1);
        let mut m = map;
        decor_core::RandomPlacement { seed }
            .place(&mut m, &cfg)
            .placed
            .len()
    };
    g.bench_function("sequential_5_replicas", |b| {
        b.iter(|| {
            let v: Vec<usize> = (0..5)
                .map(|i| work(decor_core::parallel::replica_seed(1, i)))
                .collect();
            black_box(v)
        })
    });
    g.bench_function("runner_5_replicas", |b| {
        b.iter(|| black_box(MatrixRunner::auto().replicas(5, 1, |_, seed| work(seed))))
    });
    g.finish();
}

criterion_group!(
    ablations,
    bench_benefit_maintenance,
    bench_spatial_index,
    bench_approximation_backend,
    bench_replica_parallelism
);
criterion_main!(ablations);
