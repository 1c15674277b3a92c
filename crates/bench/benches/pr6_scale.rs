//! PR-6 acceptance benchmark: restoration cost across three decades of
//! field size at fixed point density.
//!
//! Each size `n ∈ {2k, 20k, 200k, 2M}` builds the paper's scenario scaled
//! to `n` approximation points ([`ExpParams::scaled`]: side `100·√(n/2000)`,
//! density 0.2 points/unit², `rs = 4`, `k = 2`), pre-covers it with a
//! sensor lattice, punches an area failure of radius 24 at the center, and
//! times `CentralizedGreedy::place` restoring the hole. Each iteration
//! first resets one working map from the damaged template with
//! `CoverageMap::reset_from`, untimed, as the benchmark's `restore-200k`
//! workload does. A fresh `clone()` would not do: a clone's sensor list
//! has no spare capacity, so the first placement would copy every sensor
//! of the field and the sample would time that copy, not the restoration.
//!
//! The damage — and therefore the restoration work — is the same at every
//! size; only the surrounding healthy field grows. With the hierarchical
//! coverage core the per-placement cost must stay near-flat across the
//! sweep (sublinear in field size); the old field-sweep implementation
//! grew linearly.
//!
//! `PR6_MAX_POINTS` caps the sweep for CI smoke runs (e.g.
//! `PR6_MAX_POINTS=20000` benches only the first two sizes).
//!
//! Reproduce the committed summary with:
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_PR6.json \
//!     cargo bench -p decor-bench --bench pr6_scale
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use decor_core::{CentralizedGreedy, CoverageMap, DeploymentConfig, Placer};
use decor_exp::ExpParams;
use decor_geom::Point;
use decor_lds::halton_points;
use std::cell::RefCell;
use std::hint::black_box;

/// Lattice pitch guaranteeing 2-coverage everywhere at `rs = 4`: a node
/// at every multiple of 3.5 puts two nodes within 4.0 of any field
/// location (worst case is a cell center at `3.5·√2/2 ≈ 2.47` from four
/// nodes; field edges keep two axis neighbors within 3.5).
const LATTICE: f64 = 3.5;
/// Area-failure radius. The hole plus its candidate ring stays a tiny
/// fraction of the larger fields.
const HOLE_R: f64 = 24.0;

fn sweep_sizes() -> Vec<usize> {
    let cap = std::env::var("PR6_MAX_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000usize);
    [2_000usize, 20_000, 200_000, 2_000_000]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect()
}

/// The scaled scenario right after the area failure: lattice-covered
/// field with every sensor within [`HOLE_R`] of the center deactivated.
fn damaged_map(n: usize, cfg: &DeploymentConfig) -> CoverageMap {
    let params = ExpParams::scaled(n);
    let field = params.field();
    let side = params.field_side;
    let mut map = CoverageMap::new(halton_points(n, &field), &field, cfg);
    let center = Point::new(side / 2.0, side / 2.0);
    let n_side = (side / LATTICE).floor() as usize + 1;
    for i in 0..=n_side {
        for j in 0..=n_side {
            let pos = Point::new(
                (LATTICE * i as f64).min(side),
                (LATTICE * j as f64).min(side),
            );
            let id = map.add_sensor(pos, cfg.rs);
            if pos.dist(center) <= HOLE_R {
                map.deactivate_sensor(id);
            }
        }
    }
    map
}

fn bench_scale_sweep(c: &mut Criterion) {
    let cfg = DeploymentConfig::with_k(2);
    let mut g = c.benchmark_group("pr6/restore_area_r24");
    for n in sweep_sizes() {
        let base = damaged_map(n, &cfg);
        // Sanity: the failure must damage coverage, the healthy remainder
        // must be intact, and the run must fully restore — otherwise the
        // timing is meaningless.
        assert!(base.count_below(2) > 0, "hole missing at n={n}");
        {
            let mut m = base.clone();
            let out = CentralizedGreedy.place(&mut m, &cfg);
            assert!(out.fully_covered, "restoration failed at n={n}");
            assert!(!out.placed.is_empty());
        }
        let work = RefCell::new(base.clone());
        g.bench_function(&format!("n{n}"), |b| {
            b.iter_batched(
                || work.borrow_mut().reset_from(&base),
                |()| black_box(CentralizedGreedy.place(&mut work.borrow_mut(), &cfg)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(pr6, bench_scale_sweep);
criterion_main!(pr6);
