//! The DECOR benchmark: four workloads of real traffic, each run from one
//! process by a single closed-loop client (the next op starts when the
//! previous one ends).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig08|ext-loss|restore-200k|endurance> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs whole
//! cycles of ops for `--seconds`, checks every op's output and prints the
//! end-to-end metrics. With `--trace 1` every op also runs a second time,
//! replayed through the layers' public functions with a span around each
//! call, and it prints the per-layer metrics instead. The last line of
//! standard output is one JSON object; `README.md` documents the rest.

mod endurance;
mod matrix;
mod metrics;
mod restore;
mod spans;
mod stats;
mod workload;

use decor_exp::jsonio::Json;
use metrics::Metric;
use spans::Tracer;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::{OpOutput, Workload};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["fig08", "ext-loss", "restore-200k", "endurance"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Seed-0 digests of every input's output, as `workload input digest`.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            parsed.print_digests = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !parsed.print_digests && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload '{}': expected one of {}",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fig08" => Box::new(matrix::setup(matrix::FIG08_SPECS, seed, true)?),
        "ext-loss" => Box::new(matrix::setup(matrix::EXT_LOSS_SPECS, seed, false)?),
        "restore-200k" => Box::new(restore::setup(seed)?),
        "endurance" => Box::new(endurance::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The committed seed-0 digests, keyed by `(workload, input)`.
fn committed_digests(text: &str) -> Result<BTreeMap<(String, usize), u64>, String> {
    let mut table = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("digests.txt: malformed line '{line}'");
        let mut f = line.split_whitespace();
        let (Some(w), Some(i), Some(d), None) = (f.next(), f.next(), f.next(), f.next()) else {
            return Err(bad());
        };
        let i = i.parse().map_err(|_| bad())?;
        let d = u64::from_str_radix(d, 16).map_err(|_| bad())?;
        table.insert((w.to_owned(), i), d);
    }
    Ok(table)
}

/// An op's output against its checks and, when given, the committed
/// digest.
fn judge(out: OpOutput, expected: Option<u64>) -> Result<OpOutput, String> {
    if let Some(problem) = &out.problem {
        return Err(problem.clone());
    }
    match expected {
        Some(want) if want != out.digest => Err(format!(
            "output digest {:016x} differs from the committed {want:016x}",
            out.digest
        )),
        _ => Ok(out),
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// How long an op took.
#[derive(Clone, Copy, Default)]
struct OpTime {
    wall: Duration,
    /// Process CPU time over the op.
    cpu: Duration,
}

impl OpTime {
    /// The op's latency: its wall time, less the time the host took the
    /// CPU away while it ran on one thread at a time. Such an op uses no
    /// more CPU time than wall time, and the difference is time it did
    /// not run; an op spread over parallel threads uses more, and keeps
    /// its wall time.
    fn latency(&self) -> Duration {
        self.wall.min(self.cpu)
    }
}

/// One untraced op: `prepare` untimed, `run` timed.
fn timed_op(
    w: &mut dyn Workload,
    input: usize,
    expected: Option<u64>,
) -> (OpTime, Result<OpOutput, String>) {
    match guarded(|| {
        w.prepare(input);
        let cpu = stats::cpu_time();
        let t = Instant::now();
        let out = w.run(input);
        let wall = t.elapsed();
        (
            OpTime {
                wall,
                cpu: stats::cpu_time().saturating_sub(cpu),
            },
            out,
        )
    }) {
        Ok((time, out)) => (time, judge(out, expected)),
        Err(e) => (OpTime::default(), Err(e)),
    }
}

/// Counts of the ops a run attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, op: u64, r: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("op {op} failed: {e}");
        }
    }
}

/// Runs whole cycles of ops until `seconds` have passed, calling `op`
/// with the op number and its input.
fn closed_loop(inputs: usize, seconds: f64, mut op: impl FnMut(u64, usize)) {
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed().as_secs_f64() < seconds || !i.is_multiple_of(inputs as u64) {
        op(i, (i % inputs as u64) as usize);
        i += 1;
    }
}

fn untraced(
    w: &mut dyn Workload,
    args: &Args,
    expected: &dyn Fn(usize) -> Option<u64>,
    tally: &mut Tally,
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let mut lat_ms = Vec::new();
    let mut by_input = vec![Vec::new(); w.inputs()];
    let mut ok = 0u64;
    let mut sensors = 0u64;
    closed_loop(w.inputs(), args.seconds, |i, input| {
        let (time, r) = timed_op(w, input, expected(input));
        tally.record(i, &r);
        let dt = time.latency();
        if dt > Duration::ZERO {
            lat_ms.push(dt.as_secs_f64() * 1e3);
            by_input[input].push(dt.as_secs_f64());
        }
        if let Ok(out) = r {
            ok += 1;
            sensors += out.sensors;
        }
    });
    // Each input weighs the same, at its median latency: a burst of
    // machine noise moves a median less than a sum. Failed ops count as
    // not completed.
    let cycle_s: f64 = by_input.iter().map(|xs| stats::median(xs)).sum();
    let completed = ok as f64 / tally.attempted.max(1) as f64;
    let (tail, windows) = stats::windowed_tail(&lat_ms, w.inputs());
    println!(
        "op_ms_tail is p{:.1} of n={} ops ({} beyond it{}), median of {windows} window(s)",
        tail.percentile,
        tail.n,
        tail.beyond,
        if tail.beyond == stats::TAIL_BEYOND {
            ""
        } else {
            "; too few ops for a tail with ten beyond, so the slowest op"
        }
    );
    let values = [
        completed * by_input.len() as f64 / cycle_s.max(1e-9),
        stats::median(&lat_ms),
        tail.value,
        setup_s,
        stats::peak_rss_mb()?,
        sensors as f64 / ok.max(1) as f64,
    ];
    Ok(metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), unit, v))
        .collect())
}

fn traced(
    w: &mut dyn Workload,
    args: &Args,
    expected: &dyn Fn(usize) -> Option<u64>,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let tracer = Tracer::new();
    let mut untraced_ns = 0.0;
    let mut ops = 0.0;
    closed_loop(w.inputs(), args.seconds, |i, input| {
        let (time, plain) = timed_op(w, input, expected(input));
        let replayed = guarded(|| {
            w.prepare(input);
            tracer.set_op(i);
            tracer.span("op", || w.replay(input, &tracer))
        });
        let r = match (plain, replayed) {
            (Ok(plain), Ok(replayed)) if plain == replayed => Ok(()),
            (Ok(plain), Ok(replayed)) => Err(format!(
                "the replay's output differs: digest {:016x} vs {:016x}, sensors {} vs {}",
                replayed.digest, plain.digest, replayed.sensors, plain.sensors
            )),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        tally.record(i, &r);
        untraced_ns += time.wall.as_nanos() as f64;
        ops += 1.0;
    });
    let runner = w.runner_probe()?;
    // `cargo run` names the package directory of the checkout it runs in.
    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or(env!("CARGO_MANIFEST_DIR").into());
    let path = format!(
        "{dir}/target/spans/{}-seed{}.jsonl",
        args.workload, args.seed
    );
    std::fs::create_dir_all(
        std::path::Path::new(&path)
            .parent()
            .expect("path has a parent"),
    )
    .and_then(|()| std::fs::write(&path, tracer.write_jsonl()))
    .map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans written to {path}");
    Ok(metrics::per_layer(&metrics::Traced {
        tracer: &tracer,
        ops,
        untraced_ns,
        runner,
    }))
}

fn print_digests() -> Result<(), String> {
    println!("# workload input digest: seed-0 output of every input");
    for &name in WORKLOADS {
        let mut w = setup(name, 0)?;
        for input in 0..w.inputs() {
            w.prepare(input);
            let out = judge(w.run(input), None).map_err(|e| format!("{name} {input}: {e}"))?;
            println!("{name} {input} {:016x}", out.digest);
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(bool, Tally, Vec<Metric>), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(&args.workload, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("SETUPS > 0");
    // Seed 0 runs the committed inputs, whose outputs are committed too.
    let mut committed = Vec::new();
    if args.seed == 0 {
        let table = committed_digests(DIGESTS)?;
        for input in 0..w.inputs() {
            let key = (args.workload.clone(), input);
            committed.push(*table.get(&key).ok_or(format!(
                "digests.txt has no digest for {} input {input}",
                args.workload
            ))?);
        }
    }
    let expected = |input: usize| committed.get(input).copied();
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(w.as_mut(), args, &expected, &mut tally)?
    } else {
        let setup_s = stats::median(&setup_s);
        untraced(w.as_mut(), args, &expected, &mut tally, setup_s)?
    };
    let cross_checked = match w.cross_check() {
        Ok(0) => true,
        Ok(n) => {
            println!("cross-path check: {n} sampled run(s) agree across paths");
            true
        }
        Err(e) => {
            eprintln!("cross-path check failed: {e}");
            false
        }
    };
    Ok((cross_checked && tally.failed == 0, tally, metrics))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.print_digests {
        if let Err(e) = print_digests() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (correct, tally, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, unit, value) in &metrics {
        println!("{:<40} {value:>14.4} {unit}", name);
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(tally.attempted)),
        ("failed".into(), Json::UInt(tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_digest_fails_the_op() {
        let out = OpOutput {
            digest: 0x1234,
            sensors: 7,
            problem: None,
        };
        assert!(judge(out.clone(), Some(0x1234)).is_ok());
        assert!(
            judge(out.clone(), None).is_ok(),
            "other seeds check no digest"
        );
        let err = judge(out.clone(), Some(0x1234 ^ 1)).unwrap_err();
        assert!(err.contains("differs from the committed"), "{err}");
        let broken = OpOutput {
            problem: Some("not fully k-covered".into()),
            ..out
        };
        assert!(judge(broken, Some(0x1234)).is_err());
    }

    #[test]
    fn committed_digests_parse_and_cover_every_workload() {
        let table = committed_digests(DIGESTS).unwrap();
        for &w in WORKLOADS {
            assert!(table.contains_key(&(w.to_owned(), 0)), "no digest for {w}");
        }
        assert!(committed_digests("fig08 0 nothex").is_err());
        assert!(committed_digests("fig08 0").is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload endurance --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fig08 --trace 2").is_err());
        assert!(parse("--workload fig08 --seconds 0").is_err());
        assert!(parse("--workload fig08 --bogus 1").is_err());
        assert!(parse("--workload").is_err());
    }

    /// One op per workload: the traced replay must reproduce the
    /// untraced output exactly. Slow in a debug build; run with
    /// `cargo test --release`.
    #[test]
    fn replay_equals_the_untraced_op_on_every_workload() {
        let table = committed_digests(DIGESTS).unwrap();
        for &name in WORKLOADS {
            let mut w = setup(name, 0).unwrap();
            let input = w.inputs() - 1;
            w.prepare(input);
            let plain = w.run(input);
            let tracer = Tracer::new();
            w.prepare(input);
            let replayed = w.replay(input, &tracer);
            assert_eq!(replayed, plain, "{name}");
            assert_eq!(
                Some(&plain.digest),
                table.get(&(name.to_owned(), input)),
                "{name}: seed-0 output moved"
            );
            // The same op against a perturbed digest is a failed op.
            let mut tally = Tally::default();
            let (_, r) = timed_op(w.as_mut(), input, Some(plain.digest ^ 1));
            tally.record(0, &r);
            assert_eq!((tally.attempted, tally.failed), (1, 1), "{name}");
            assert!(w.cross_check().is_ok(), "{name}");
        }
    }
}
