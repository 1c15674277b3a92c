//! One Criterion group per paper figure: each bench regenerates the
//! figure's core computation at a bounded scale (the quick configuration)
//! so the run finishes in minutes. The full-scale tables come from
//! `cargo run --release -p decor-exp --bin decor-figures -- all`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use decor_core::restore::fail_and_restore;
use decor_core::{redundancy::redundancy_stats, SchemeKind};
use decor_exp::common::{deploy, ExpParams};
use decor_exp::{fig04, fig05_06, fig12};
use decor_net::FailurePlan;
use std::hint::black_box;

fn params() -> ExpParams {
    ExpParams {
        seeds: 1,
        ..ExpParams::quick()
    }
}

fn bench_fig04(c: &mut Criterion) {
    let p = params();
    c.bench_function("fig04_approximation_quality", |b| {
        b.iter(|| black_box(fig04::run(&p)))
    });
}

fn bench_fig05_06(c: &mut Criterion) {
    let p = params();
    c.bench_function("fig05_deployment_render", |b| {
        b.iter(|| {
            let (map, out, cfg) = fig05_06::deploy_example(&p);
            black_box(fig05_06::run_deployment(&map, &out, &cfg))
        })
    });
    c.bench_function("fig06_disaster_render", |b| {
        b.iter(|| {
            let (mut map, _, cfg) = fig05_06::deploy_example(&p);
            black_box(fig05_06::run_disaster(&p, &mut map, &cfg))
        })
    });
}

fn bench_fig07_08(c: &mut Criterion) {
    // Figs. 7 and 8 share the same core computation: a full deployment
    // run per scheme (Fig. 7 reads its trace, Fig. 8 its node count).
    let p = params();
    let mut g = c.benchmark_group("fig07_08_deployment");
    g.sample_size(10);
    for scheme in SchemeKind::ALL {
        g.bench_function(scheme.label(), |b| {
            b.iter(|| {
                let (_, out, _) = deploy(&p, scheme, 3, 1);
                black_box(out.total_sensors())
            })
        });
    }
    g.finish();
}

fn bench_fig09(c: &mut Criterion) {
    let p = params();
    let mut g = c.benchmark_group("fig09_redundancy");
    g.sample_size(10);
    for scheme in [
        SchemeKind::Centralized,
        SchemeKind::GridSmall,
        SchemeKind::Random,
    ] {
        g.bench_function(scheme.label(), |b| {
            b.iter_batched(
                || deploy(&p, scheme, 2, 1).0,
                |mut map| black_box(redundancy_stats(&mut map, 2)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_fig10(c: &mut Criterion) {
    // Message accounting is part of the deployment; bench the accounting
    // extraction over a pre-built outcome.
    let p = params();
    let mut g = c.benchmark_group("fig10_messages");
    g.sample_size(10);
    for scheme in [SchemeKind::GridSmall, SchemeKind::VoronoiBig] {
        g.bench_function(scheme.label(), |b| {
            b.iter(|| {
                let (_, out, _) = deploy(&p, scheme, 2, 1);
                black_box(out.messages.per_cell)
            })
        });
    }
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let p = params();
    let (map, _, cfg) = deploy(&p, SchemeKind::GridSmall, 3, 1);
    c.bench_function("fig11_random_failures_sweep", |b| {
        b.iter_batched(
            || map.clone(),
            |mut m| {
                let plan = FailurePlan::Fraction { frac: 0.3, seed: 2 };
                black_box(decor_core::restore::coverage_after_failure(
                    &mut m, &cfg, &plan, 3,
                ))
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_fig12(c: &mut Criterion) {
    let p = params();
    let (map, _, cfg) = deploy(&p, SchemeKind::Centralized, 2, 1);
    c.bench_function("fig12_max_tolerated_search", |b| {
        b.iter(|| black_box(fig12::max_tolerated_pct(&map, &cfg, 3)))
    });
}

fn bench_fig13_14(c: &mut Criterion) {
    let p = params();
    let disk = fig05_06::disaster_disk(&p);
    let mut g = c.benchmark_group("fig13_14_area_failure_restore");
    g.sample_size(10);
    for scheme in [SchemeKind::Centralized, SchemeKind::VoronoiBig] {
        g.bench_function(scheme.label(), |b| {
            b.iter_batched(
                || deploy(&p, scheme, 2, 1),
                |(mut map, _, cfg)| {
                    let placer = p.placer(scheme, 9);
                    let plan = FailurePlan::Area { disk };
                    black_box(fail_and_restore(
                        &mut map,
                        placer.as_ref(),
                        &cfg,
                        &plan,
                        None,
                    ))
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    figures,
    bench_fig04,
    bench_fig05_06,
    bench_fig07_08,
    bench_fig09,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_fig13_14
);
criterion_main!(figures);
