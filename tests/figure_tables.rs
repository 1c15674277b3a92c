//! The committed `results/` tables are the byte-for-byte referee of the
//! figure pipeline. The paper-scale tables that are cheap to rebuild in a
//! debug build are pinned here on every test run; CI's `figures` job
//! regenerates all of `results/` in release and diffs the rest.

use decor::exp::{fig04, fig05_06, fig07, fig11, ExpParams};

#[test]
fn fig04_table_matches_the_committed_csv() {
    let csv = fig04::run(&ExpParams::paper()).to_csv();
    assert_eq!(csv, include_str!("../results/fig04.csv"));
}

#[test]
fn fig05_table_matches_the_committed_csv() {
    let (map, out, cfg) = fig05_06::deploy_example(&ExpParams::paper());
    let csv = fig05_06::run_deployment(&map, &out, &cfg).to_csv();
    assert_eq!(csv, include_str!("../results/fig05.csv"));
}

#[test]
fn fig06_table_matches_the_committed_csv() {
    let params = ExpParams::paper();
    let (mut map, _, cfg) = fig05_06::deploy_example(&params);
    let csv = fig05_06::run_disaster(&params, &mut map, &cfg).to_csv();
    assert_eq!(csv, include_str!("../results/fig06.csv"));
}

#[test]
fn fig07_table_matches_the_committed_csv() {
    let csv = fig07::run(&ExpParams::paper()).to_csv();
    assert_eq!(csv, include_str!("../results/fig07.csv"));
}

#[test]
fn fig11_table_matches_the_committed_csv() {
    let csv = fig11::run(&ExpParams::paper()).to_csv();
    assert_eq!(csv, include_str!("../results/fig11.csv"));
}
