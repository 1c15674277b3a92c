//! End-to-end integration: every placement algorithm, from a damaged
//! random field to verified full k-coverage, across the facade crate's
//! public API.

use decor::core::{redundancy::redundant_mask, CoverageMap, DeploymentConfig, SchemeKind};
use decor::exp::common::{deploy, ExpParams};
use decor::geom::Aabb;
use decor::lds::{halton_points, random_points};

fn quick() -> ExpParams {
    ExpParams::quick()
}

/// The paper's six schemes plus the exact-geometry hole healer (kept out
/// of `SchemeKind::ALL` so figure legends stay six curves, but held to
/// the same end-to-end guarantees here).
fn all_schemes() -> impl Iterator<Item = SchemeKind> {
    SchemeKind::ALL.into_iter().chain([SchemeKind::Holes])
}

#[test]
fn every_scheme_restores_coverage_from_partial_deployment() {
    let params = quick();
    for scheme in all_schemes() {
        let (map, out, cfg) = deploy(&params, scheme, 2, 11);
        assert!(out.fully_covered, "{} did not finish", scheme.label());
        assert_eq!(map.count_below(cfg.k), 0, "{}", scheme.label());
        assert!(map.min_coverage() >= cfg.k, "{}", scheme.label());
        map.clone().verify_consistency();
    }
}

#[test]
fn every_scheme_survives_an_empty_initial_field() {
    let params = quick();
    let cfg = DeploymentConfig::with_k(1);
    for scheme in all_schemes() {
        let field = params.field();
        let mut map = CoverageMap::new(halton_points(params.n_points, &field), &field, &cfg);
        let out = params.placer(scheme, 5).place(&mut map, &cfg);
        assert!(out.fully_covered, "{} from empty field", scheme.label());
    }
}

#[test]
fn placement_order_and_trace_are_consistent() {
    let params = quick();
    for scheme in all_schemes() {
        let (_, out, _) = deploy(&params, scheme, 1, 3);
        // Final trace entry must report the final sensor count.
        let last = out.trace.last().expect("non-empty trace");
        assert_eq!(
            last.total_sensors,
            out.total_sensors(),
            "{}",
            scheme.label()
        );
        assert_eq!(last.fraction_k_covered, 1.0, "{}", scheme.label());
        // Traces never report more sensors than exist.
        for t in &out.trace {
            assert!(t.total_sensors <= out.total_sensors());
        }
    }
}

#[test]
fn redundancy_mask_is_sound_for_every_scheme() {
    let params = quick();
    for scheme in all_schemes() {
        let (mut map, _, cfg) = deploy(&params, scheme, 2, 17);
        let mask = redundant_mask(&mut map, cfg.k);
        // Removing all redundant sensors must preserve k-coverage.
        for (sid, &r) in mask.iter().enumerate() {
            if r {
                map.deactivate_sensor(sid);
            }
        }
        assert_eq!(map.count_below(cfg.k), 0, "{}", scheme.label());
    }
}

#[test]
fn distributed_schemes_pay_messages_centralized_does_not() {
    let params = quick();
    for scheme in all_schemes() {
        let (_, out, _) = deploy(&params, scheme, 2, 23);
        let distributed = matches!(
            scheme,
            SchemeKind::GridSmall
                | SchemeKind::GridBig
                | SchemeKind::VoronoiSmall
                | SchemeKind::VoronoiBig
        );
        if distributed {
            assert!(
                out.messages.protocol_total > 0,
                "{} must exchange messages",
                scheme.label()
            );
        } else {
            assert_eq!(
                out.messages.protocol_total,
                0,
                "{} must not exchange messages",
                scheme.label()
            );
        }
    }
}

#[test]
fn initial_sensors_are_counted_not_replaced() {
    let params = quick();
    let cfg = DeploymentConfig::with_k(1);
    let field = params.field();
    let mut map = CoverageMap::new(halton_points(params.n_points, &field), &field, &cfg);
    for p in random_points(40, &field, 9) {
        map.add_sensor(p, cfg.rs);
    }
    let before = map.n_active_sensors();
    let out = params
        .placer(SchemeKind::VoronoiSmall, 1)
        .place(&mut map, &cfg);
    assert_eq!(out.initial_sensors, before);
    assert_eq!(map.n_active_sensors(), before + out.placed.len());
}

#[test]
fn higher_k_never_needs_fewer_nodes() {
    let params = quick();
    for scheme in [
        SchemeKind::Centralized,
        SchemeKind::GridBig,
        SchemeKind::VoronoiSmall,
    ] {
        let (_, out1, _) = deploy(&params, scheme, 1, 31);
        let (_, out2, _) = deploy(&params, scheme, 2, 31);
        assert!(
            out2.total_sensors() >= out1.total_sensors(),
            "{}: k=2 ({}) vs k=1 ({})",
            scheme.label(),
            out2.total_sensors(),
            out1.total_sensors()
        );
    }
}

#[test]
fn field_geometry_is_respected_by_all_schemes() {
    let params = quick();
    let field = Aabb::square(params.field_side);
    for scheme in all_schemes() {
        let (_, out, _) = deploy(&params, scheme, 1, 37);
        for p in &out.placed {
            assert!(field.contains(*p), "{} placed {p} outside", scheme.label());
        }
    }
}
