//! Determinism guarantees: every algorithm is a pure function of its
//! seed-derived inputs, and parallel replica execution matches sequential.

#[path = "support/trace_diff.rs"]
mod trace_diff;

use decor::core::parallel::replica_seed;
use decor::core::SchemeKind;
use decor::exp::common::{deploy, deploy_with, ExpParams};
use decor::exp::MatrixRunner;
use decor::trace::TraceHandle;
use trace_diff::first_divergence;

/// [`deploy`] with a JSONL trace sink attached; returns the canonical
/// trace text of the placement run. Each call builds its own sink, so
/// concurrent replicas never interleave their streams.
fn deploy_traced(params: &ExpParams, scheme: SchemeKind, k: u32, seed: u64) -> String {
    let (_, _, cfg) = deploy_with(params, scheme, k, seed, |cfg| {
        cfg.trace = TraceHandle::jsonl_writer();
    });
    cfg.trace.jsonl().expect("JSONL sink attached above")
}

#[test]
fn every_scheme_is_deterministic_in_the_seed() {
    let params = ExpParams::quick();
    for scheme in SchemeKind::ALL {
        let (_, a, _) = deploy(&params, scheme, 2, 7);
        let (_, b, _) = deploy(&params, scheme, 2, 7);
        assert_eq!(a.placed, b.placed, "{}", scheme.label());
        assert_eq!(a.rounds, b.rounds, "{}", scheme.label());
        assert_eq!(
            a.messages.protocol_total,
            b.messages.protocol_total,
            "{}",
            scheme.label()
        );
    }
}

#[test]
fn different_seeds_give_different_fields() {
    let params = ExpParams::quick();
    let (_, a, _) = deploy(&params, SchemeKind::Centralized, 1, 1);
    let (_, b, _) = deploy(&params, SchemeKind::Centralized, 1, 2);
    assert_ne!(a.placed, b.placed, "seeds must matter");
}

#[test]
fn parallel_replicas_equal_sequential_for_real_workload() {
    let params = ExpParams::quick();
    let work = |_: usize, seed: u64| {
        let (_, out, _) = deploy(&params, SchemeKind::GridBig, 1, seed);
        (out.placed.len(), out.messages.protocol_total)
    };
    let par = MatrixRunner::auto().replicas(4, 99, work);
    let seq: Vec<_> = (0..4).map(|i| work(i, replica_seed(99, i))).collect();
    assert_eq!(par, seq);
}

#[test]
fn traces_are_identical_across_worker_counts() {
    // The structured trace is a much finer fingerprint than placement
    // lists: every message send/drop, election and placement must land
    // in the same order whatever the replica worker count. Each replica
    // builds its own sink inside the closure, so worker scheduling
    // cannot interleave streams.
    let params = ExpParams::quick();
    for scheme in [SchemeKind::GridSmall, SchemeKind::VoronoiBig] {
        let run = |threads: usize| {
            MatrixRunner::new(threads).replicas(4, 42, |_, seed| {
                let text = deploy_traced(&params, scheme, 2, seed);
                assert!(!text.is_empty(), "trace must not be empty");
                text
            })
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            let got = run(threads);
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                if let Some(d) = first_divergence(a, b) {
                    panic!("{}: replica {i}, threads {threads}: {d}", scheme.label());
                }
            }
        }
    }
}

#[test]
fn lossy_traces_are_identical_across_worker_counts() {
    // Same guarantee on a lossy medium, where the trace additionally
    // carries drops, retries and acks from the reliable transport.
    let mut params = ExpParams::quick();
    params.loss_pct = 20;
    let run = |threads: usize| {
        MatrixRunner::new(threads).replicas(3, 7, |_, seed| {
            deploy_traced(&params, SchemeKind::VoronoiSmall, 1, seed)
        })
    };
    let reference = run(1);
    for threads in [2usize, 8] {
        let got = run(threads);
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            if let Some(d) = first_divergence(a, b) {
                panic!("replica {i}, threads {threads}: {d}");
            }
        }
    }
}

#[test]
fn experiment_tables_are_reproducible() {
    let params = ExpParams::quick();
    let a = decor::exp::fig08::run(&params);
    let b = decor::exp::fig08::run(&params);
    assert_eq!(a.rows, b.rows);
    let c = decor::exp::fig04::run(&params);
    let d = decor::exp::fig04::run(&params);
    assert_eq!(c.rows, d.rows);
}
