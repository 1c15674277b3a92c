//! The shipped binaries refuse flags their subcommand does not take.
//!
//! `cli.rs`'s unit tests check the read marks on `CliArgs`; these run
//! `decor-cli` and `decor-serve` themselves, so a subcommand that forgets
//! to call `CliArgs::finish`, or reads a flag only after it, fails here.
//! Every case is refused before any simulation runs.

use std::process::Command;

/// Runs a binary on `line` and returns its exit code and stderr.
fn run(bin: &str, line: &str) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(line.split_whitespace())
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn decor_cli_refuses_flags_its_subcommand_does_not_take() {
    let cli = env!("CARGO_BIN_EXE_decor-cli");
    for (line, flag) in [
        (
            "deploy --sheme grid-big --points 300 --initial 20 --k 1",
            "--sheme",
        ),
        (
            "deploy --rotate 2 --points 300 --initial 20 --k 1",
            "--rotate",
        ),
        (
            "restore --shift-period 500 --points 300 --initial 20",
            "--shift-period",
        ),
        ("diagnose --in sensors.csv --out copy.csv", "--out"),
        ("endure --disater 30,30,4 --max-periods 5", "--disater"),
    ] {
        let (code, err) = run(cli, line);
        let command = line.split_whitespace().next().unwrap();
        assert_eq!(code, Some(2), "{line}: {err}");
        assert_eq!(
            err.trim_end(),
            format!("error: flag {flag}: {command} does not take it"),
            "{line}"
        );
    }
}

#[test]
fn decor_serve_refuses_unread_and_non_boolean_flags() {
    let serve = env!("CARGO_BIN_EXE_decor-serve");
    for (line, want) in [
        (
            "gen --replica 3 --runs 4",
            "flag --replica: gen does not take it",
        ),
        (
            "gen --trace yes --runs 4",
            "flag --trace: cannot parse 'yes'",
        ),
        (
            "run --per-run yes --spec missing.jsonl",
            "flag --per-run: cannot parse 'yes'",
        ),
        (
            "run --spec missing.jsonl --replicas 3",
            "flag --replicas: run does not take it",
        ),
    ] {
        let (code, err) = run(serve, line);
        assert_eq!(code, Some(2), "{line}: {err}");
        assert_eq!(
            err.lines().next(),
            Some(format!("decor-serve: {want}").as_str()),
            "{line}"
        );
    }
}
