//! `decor-serve` — the long-running batch front-end of the scenario
//! matrix runner.
//!
//! Reads a matrix of scenario specs (JSONL file or stdin), executes it on
//! the work-stealing [`decor_exp::MatrixRunner`], and streams results as
//! JSONL: optional per-run lines as they finish, per-cell summaries, and
//! a final outcome line with throughput and utilization. With
//! `--checkpoint <path>` every completed run is appended to a journal;
//! restarting with the same journal resumes where the dead process
//! stopped and produces the same result set as an uninterrupted run.
//!
//! Every error exits with code 2. A flag the subcommand does not take is
//! one, and a boolean flag takes only `true` or `false`.
//!
//! ```text
//! decor-serve gen --schemes centralized,grid-small --ks 1,2 --runs 200 \
//!   | decor-serve run --threads 8 --checkpoint /tmp/matrix.journal
//! ```

use decor_exp::cli::{parse_args, CliArgs};
use decor_exp::scenario::{ScenarioMatrix, ScenarioSpec, Workload};
use decor_exp::{aggregate, CheckpointJournal, MatrixRunner, RunnerHooks};
use std::io::Write;
use std::sync::Mutex;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run_main(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("decor-serve: {e}");
            eprintln!(
                "usage: decor-serve gen [--workload W] [--schemes A,B] [--ks 1,2] [--losses 0,10]"
            );
            eprintln!(
                "           [--replicas N] [--points N] [--initial N] [--field F] [--seed S]"
            );
            eprintln!("           [--trace true] [--runs CAP] [--out FILE]");
            eprintln!("       decor-serve run [--spec FILE|-] [--out FILE|-] [--threads N]");
            eprintln!("           [--checkpoint FILE] [--per-run true]");
            2
        }
    };
    std::process::exit(code);
}

fn run_main(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "run" => cmd_run(&args),
        other => Err(format!("unknown subcommand '{other}' (gen | run)")),
    }
}

fn parse_list<T: std::str::FromStr>(text: &str, flag: &str) -> Result<Vec<T>, String> {
    text.split(',')
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|_| format!("flag --{flag}: cannot parse '{p}'"))
        })
        .collect()
}

/// Builds a matrix from axis flags and writes it as spec JSONL.
fn cmd_gen(args: &CliArgs) -> Result<(), String> {
    let schemes = args.get("schemes").unwrap_or("centralized,grid-small");
    let schemes = parse_list::<String>(schemes, "schemes")?
        .iter()
        .map(|s| decor_core::SchemeKind::parse_spec_name(s))
        .collect::<Result<Vec<_>, _>>()?;
    let ks: Vec<u32> = parse_list(args.get("ks").unwrap_or("1,2,3"), "ks")?;
    let losses: Vec<u32> = parse_list(args.get("losses").unwrap_or("0"), "losses")?;
    let template = ScenarioSpec {
        workload: Workload::parse_spec_name(args.get("workload").unwrap_or("deploy"))?,
        // Quick-experiment scale by default: gen exists to produce large
        // *matrices* of small runs, not large runs.
        field_side: args.num_or("field", 100.0)?,
        n_points: args.num_or("points", 500)?,
        initial_nodes: args.num_or("initial", 60)?,
        replicas: args.num_or("replicas", 5)?,
        base_seed: args.num_or("seed", 0xDEC0_2007u64)?,
        trace: args.num_or("trace", false)?,
        chaos_seed: match args.get("chaos-seed") {
            Some(_) => Some(args.num_or("chaos-seed", 0u64)?),
            None => None,
        },
        ..ScenarioSpec::default()
    };
    let cap: Option<usize> = match args.get("runs") {
        Some(_) => Some(args.num_or("runs", 0)?),
        None => None,
    };
    let out_path = args.get("out").unwrap_or("-");
    args.finish()?;
    let mut matrix = ScenarioMatrix::axes(&template, &schemes, &ks, &losses)?;
    if let Some(cap) = cap {
        matrix = matrix.capped(cap)?;
    }
    let mut out = open_out(out_path)?;
    out.write_all(matrix.to_jsonl().as_bytes())
        .and_then(|_| out.flush())
        .map_err(|e| format!("writing matrix: {e}"))?;
    eprintln!(
        "decor-serve: generated {} cells, {} runs",
        matrix.cells().len(),
        matrix.n_runs()
    );
    Ok(())
}

/// Executes a spec matrix, streaming results.
fn cmd_run(args: &CliArgs) -> Result<(), String> {
    let spec_path = args.get("spec").unwrap_or("-");
    let threads = match args.get("threads") {
        Some(_) => args.num_or("threads", 1usize)?.max(1),
        None => decor_core::parallel::default_threads(),
    };
    let per_run = args.num_or("per-run", false)?;
    let out_path = args.get("out").unwrap_or("-");
    let checkpoint = args.get("checkpoint");
    args.finish()?;
    let text = if spec_path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?
    };
    let matrix = ScenarioMatrix::from_jsonl(&text)?;
    let out = Mutex::new(open_out(out_path)?);

    // Checkpointing: an existing journal resumes the matrix it names; a
    // fresh path starts one. Completed runs append as they finish, so a
    // crash loses at most the line being written.
    let mut skip = std::collections::BTreeMap::new();
    let journal = match checkpoint {
        None => None,
        Some(path) => {
            let file = if std::path::Path::new(path).exists() {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                skip = CheckpointJournal::load(&text, &matrix)?;
                eprintln!(
                    "decor-serve: resuming from {path} ({} of {} runs done)",
                    skip.len(),
                    matrix.n_runs()
                );
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{path}: {e}"))?
            } else {
                let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                writeln!(f, "{}", CheckpointJournal::header(&matrix))
                    .map_err(|e| format!("{path}: {e}"))?;
                f
            };
            Some(Mutex::new(file))
        }
    };

    // One render buffer per worker thread, reused across every result that
    // thread reports — steady-state streaming does not allocate a fresh
    // line string per run.
    thread_local! {
        static LINE_BUF: std::cell::RefCell<String> =
            const { std::cell::RefCell::new(String::new()) };
    }
    let on_result = |r: &decor_exp::RunResult| {
        LINE_BUF.with(|buf| {
            let mut line = buf.borrow_mut();
            r.to_json_into(&mut line);
            if let Some(j) = &journal {
                let mut f = j.lock().expect("journal lock");
                if let Err(e) = writeln!(f, "{line}").and_then(|_| f.flush()) {
                    eprintln!("decor-serve: checkpoint write failed: {e}");
                }
            }
            if per_run {
                let mut o = out.lock().expect("out lock");
                if writeln!(o, "{line}").is_err() {
                    // A closed pipe downstream is not worth killing the
                    // matrix (the checkpoint still records everything).
                }
            }
        });
    };

    let outcome = MatrixRunner::new(threads).run_with(
        &matrix,
        RunnerHooks {
            skip,
            on_result: Some(&on_result),
            stop_after: None,
        },
    );

    let mut o = out.lock().expect("out lock");
    for summary in aggregate(&matrix, &outcome) {
        writeln!(o, "{}", summary.to_json()).map_err(|e| format!("writing summary: {e}"))?;
    }
    use decor_exp::jsonio::{num, Json};
    let final_line = Json::Obj(vec![
        (
            "matrix_fingerprint".into(),
            Json::UInt(matrix.fingerprint()),
        ),
        ("runs".into(), Json::UInt(matrix.n_runs() as u64)),
        ("executed".into(), Json::UInt(outcome.executed as u64)),
        ("skipped".into(), Json::UInt(outcome.skipped as u64)),
        ("threads".into(), Json::UInt(outcome.threads as u64)),
        ("wall_ns".into(), Json::UInt(outcome.wall_ns)),
        (
            "runs_per_sec".into(),
            num(outcome.runs_per_sec(), "runs_per_sec"),
        ),
        (
            "utilization".into(),
            num(outcome.utilization(), "utilization"),
        ),
        ("complete".into(), Json::Bool(outcome.complete())),
    ])
    .render();
    writeln!(o, "{final_line}").map_err(|e| format!("writing outcome: {e}"))?;
    o.flush().map_err(|e| format!("flushing output: {e}"))?;
    eprintln!(
        "decor-serve: {} runs ({} executed, {} resumed) on {} threads, {:.0} runs/sec, {:.1}% utilization",
        matrix.n_runs(),
        outcome.executed,
        outcome.skipped,
        outcome.threads,
        outcome.runs_per_sec(),
        outcome.utilization() * 100.0,
    );
    Ok(())
}

fn open_out(path: &str) -> Result<Box<dyn Write + Send>, String> {
    if path == "-" {
        Ok(Box::new(std::io::stdout()))
    } else {
        std::fs::File::create(path)
            .map(|f| Box::new(f) as Box<dyn Write + Send>)
            .map_err(|e| format!("{path}: {e}"))
    }
}
