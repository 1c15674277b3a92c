//! PR-1 acceptance benchmark: the sharded, incrementally-maintained
//! placement engine vs the seed `BenefitTable` path.
//!
//! Scenario (from the PR-1 issue): centralized greedy restoration to full
//! 2-coverage of a 2000-point Halton field on the paper's 100x100 m field
//! with rs = 4 m, starting from an empty deployment. Both paths produce
//! bit-identical placement sequences (enforced by the differential tests);
//! this bench measures the wall-clock gap.
//!
//! Reproduce the committed summary with:
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_PR1.json \
//!     cargo bench -p decor-bench --bench pr1_engine
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use decor_core::{
    BenefitTable, CentralizedGreedy, CoverageMap, DeploymentConfig, PlacementOutcome, Placer,
    TracePoint,
};
use decor_geom::Aabb;
use decor_lds::halton_points;
use std::hint::black_box;

fn base_map(n_pts: usize, cfg: &DeploymentConfig) -> CoverageMap {
    let field = Aabb::square(100.0);
    CoverageMap::new(halton_points(n_pts, &field), &field, cfg)
}

/// The seed path, inlined from the retired
/// `CentralizedGreedy::place_with_benefit_table`: greedy placement over a
/// [`BenefitTable`] of every point, whose `best()` is a linear scan and
/// whose updates recompute every affected benefit.
fn seed_benefit_table(map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
    let initial = map.n_active_sensors();
    let cands: Vec<usize> = (0..map.n_points()).collect();
    let mut table = BenefitTable::new(map, cands, cfg.rs, cfg.k);
    let mut out = PlacementOutcome {
        initial_sensors: initial,
        ..PlacementOutcome::default()
    };
    out.trace.push(TracePoint {
        total_sensors: initial,
        fraction_k_covered: map.fraction_k_covered(cfg.k),
    });
    while out.placed.len() < cfg.max_new_nodes {
        let Some((_, _, pos, _)) = table.best() else {
            break; // zero benefit everywhere => fully k-covered
        };
        map.add_sensor(pos, cfg.rs);
        table.on_sensor_added(map, pos, cfg.rs);
        out.placed.push(pos);
        out.trace.push(TracePoint {
            total_sensors: initial + out.placed.len(),
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
    }
    out.fully_covered = map.count_below(cfg.k) == 0;
    out
}

fn bench_engine_vs_table(c: &mut Criterion) {
    let cfg = DeploymentConfig::with_k(2);
    let base = base_map(2000, &cfg);

    // Sanity: both paths fully restore and agree (cheap relative to the
    // measurement loop; a silent divergence would invalidate the numbers).
    {
        let mut a = base.clone();
        let mut b = base.clone();
        let oa = CentralizedGreedy.place(&mut a, &cfg);
        let ob = seed_benefit_table(&mut b, &cfg);
        assert!(oa.fully_covered && ob.fully_covered);
        assert_eq!(oa.placed, ob.placed, "paths diverged; bench is invalid");
    }

    let mut g = c.benchmark_group("pr1/centralized_greedy_k2_2000pts");
    g.bench_function("seed_benefit_table", |b| {
        b.iter_batched(
            || base.clone(),
            |mut map| black_box(seed_benefit_table(&mut map, &cfg)),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("sharded_engine", |b| {
        b.iter_batched(
            || base.clone(),
            |mut map| black_box(CentralizedGreedy.place(&mut map, &cfg)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(pr1, bench_engine_vs_table);
criterion_main!(pr1);
