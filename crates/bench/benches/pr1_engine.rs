//! PR-1 acceptance benchmark: the sharded, incrementally-maintained
//! placement engine on the centralized greedy.
//!
//! Scenario (from the PR-1 issue): centralized greedy restoration to full
//! 2-coverage of a 2000-point Halton field on the paper's 100x100 m field
//! with rs = 4 m, starting from an empty deployment.
//! `tests/engine_differential.rs` holds the engine's placement sequences
//! bit-identical to the seed path's, whose linear-scan benefit table is
//! the oracle in `tests/oracle/benefit_table.rs`.
//!
//! Reproduce the committed summary with:
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_PR1.json \
//!     cargo bench -p decor-bench --bench pr1_engine
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use decor_core::{CentralizedGreedy, CoverageMap, DeploymentConfig, Placer};
use decor_geom::Aabb;
use decor_lds::halton_points;
use std::hint::black_box;

fn base_map(n_pts: usize, cfg: &DeploymentConfig) -> CoverageMap {
    let field = Aabb::square(100.0);
    CoverageMap::new(halton_points(n_pts, &field), &field, cfg)
}

fn bench_engine(c: &mut Criterion) {
    let cfg = DeploymentConfig::with_k(2);
    let base = base_map(2000, &cfg);

    // Sanity: the engine fully restores (a silent failure would
    // invalidate the numbers).
    assert!(
        CentralizedGreedy
            .place(&mut base.clone(), &cfg)
            .fully_covered
    );

    let mut g = c.benchmark_group("pr1/centralized_greedy_k2_2000pts");
    g.bench_function("sharded_engine", |b| {
        b.iter_batched(
            || base.clone(),
            |mut map| black_box(CentralizedGreedy.place(&mut map, &cfg)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(pr1, bench_engine);
criterion_main!(pr1);
