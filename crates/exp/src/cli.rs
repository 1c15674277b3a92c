//! Argument parsing and I/O helpers for the `decor-cli`, `decor-serve`
//! and `decor-figures` binaries.
//!
//! Hand-rolled parsing (no external CLI dependency): `decor-cli` and
//! `decor-serve` flags are `--name value` pairs after a subcommand;
//! `decor-figures` takes figure names plus `--quick` and `--out DIR`. The
//! logic lives here, in library code, so it is unit-testable; the binaries
//! are thin shells.

use crate::common::{voronoi_rc, ExpParams};
use decor_core::{ConfigError, CoverageMap, DeploymentConfig, EnduranceConfig, SchemeKind};
use decor_geom::{Disk, Point};
use decor_net::RotationConfig;
use std::cell::Cell;
use std::collections::BTreeMap;

/// A parsed command line: subcommand plus `--flag value` options.
///
/// Reading a flag marks it read, and [`CliArgs::finish`] refuses any flag
/// the subcommand never read, so a misspelt or misplaced flag is an error
/// instead of a silent default.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// The subcommand (`deploy`, `restore`, `diagnose`, ...).
    pub command: String,
    /// Flag values keyed without the `--` prefix, each with its read mark.
    flags: BTreeMap<String, (String, Cell<bool>)>,
}

/// Parses `args` (without the program name).
///
/// Returns an error string on malformed input (missing subcommand,
/// dangling flag, flag without `--`).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or("missing subcommand (deploy | restore | diagnose)")?
        .clone();
    if command.starts_with("--") {
        return Err(format!("expected a subcommand before {command}"));
    }
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_owned(), (value.clone(), Cell::new(false)));
    }
    Ok(CliArgs { command, flags })
}

impl CliArgs {
    /// A string flag, `None` when absent.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (value, read) = self.flags.get(name)?;
        read.set(true);
        Some(value)
    }

    /// A parsed flag with a default; errors name the flag. A `bool` flag
    /// accepts exactly `true` and `false`.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse '{v}'")),
        }
    }

    /// Errors on the first flag (in name order) that nothing has read.
    /// A subcommand calls this once it has read every flag it takes.
    pub fn finish(&self) -> Result<(), String> {
        match self.flags.iter().find(|(_, (_, read))| !read.get()) {
            Some((name, _)) => Err(format!("flag --{name}: {} does not take it", self.command)),
            None => Ok(()),
        }
    }
}

/// Parses a scheme name (`centralized`, `random`, `grid-small`,
/// `grid-big`, `voronoi-small`, `voronoi-big`, `holes`). The names are
/// the stable [`SchemeKind::spec_name`] vocabulary shared with scenario
/// spec files.
pub fn parse_scheme(name: &str) -> Result<SchemeKind, String> {
    SchemeKind::parse_spec_name(name)
}

/// Resolves `--scheme` (`default` when absent) for a run under `cfg`. The
/// Voronoi schemes fix their own `rc`, so a `--rs` above it is an error
/// here rather than a panic in the placer.
pub fn scheme_from(
    args: &CliArgs,
    default: &str,
    cfg: &DeploymentConfig,
) -> Result<SchemeKind, String> {
    let scheme = parse_scheme(args.get("scheme").unwrap_or(default))?;
    match voronoi_rc(scheme) {
        Some(rc) if cfg.rs > rc => Err(format!(
            "flag --rs: {} fixes rc = {rc:.2}, so rs must not exceed it (got {})",
            scheme.spec_name(),
            cfg.rs
        )),
        _ => Ok(scheme),
    }
}

/// Parses a disaster spec `x,y,r` into a disk: three finite numbers
/// and a positive radius, or a `flag --disaster:` error.
pub fn parse_disaster(spec: &str) -> Result<Disk, String> {
    let nums: Vec<f64> = spec
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("flag --disaster: expected x,y,r numbers, got '{spec}'"))?;
    let [x, y, r] = nums[..] else {
        return Err(format!("flag --disaster: expected x,y,r, got '{spec}'"));
    };
    if !nums.iter().all(|v| v.is_finite()) {
        return Err(format!(
            "flag --disaster: x, y and r must be finite, got '{spec}'"
        ));
    }
    if r <= 0.0 {
        return Err(format!("flag --disaster: radius must be positive, got {r}"));
    }
    Ok(Disk::new(Point::new(x, y), r))
}

/// Serializes a deployment's active sensors as `x,y,rs` CSV lines.
pub fn sensors_to_csv(map: &CoverageMap) -> String {
    let mut s = String::from("x,y,rs\n");
    for (sid, pos) in map.active_sensors() {
        s.push_str(&format!("{},{},{}\n", pos.x, pos.y, map.sensor_rs(sid)));
    }
    s
}

/// Parses `x,y,rs` CSV (with or without header) into sensor tuples.
pub fn sensors_from_csv(csv: &str) -> Result<Vec<(Point, f64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("x,") {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 3 {
            return Err(format!("line {}: expected x,y,rs", lineno + 1));
        }
        let nums: Result<Vec<f64>, _> = parts.iter().map(|p| p.trim().parse::<f64>()).collect();
        let nums = nums.map_err(|_| format!("line {}: non-numeric field", lineno + 1))?;
        out.push((Point::new(nums[0], nums[1]), nums[2]));
    }
    Ok(out)
}

/// Builds the experiment parameters a CLI invocation describes.
/// `--loss` (percent) puts every in-network exchange on a lossy medium;
/// placement notices then ride the reliable transport, tunable with
/// `--max-retries` and `--backoff`. `--trace-out <path>` attaches a
/// JSONL trace sink to the run; the binary writes the collected trace
/// to `<path>` afterwards. `--chaos-seed <n>` generates a bounded random
/// fault plan from the seed (replayable: the same seed and scenario give
/// the same run) and `--chaos-plan <path>` loads one from a replay file
/// written in `decor_net::FaultPlan`'s text format; both attach the
/// invariant checker, and giving both is an error. A value outside its
/// range (`--k 0`, `--field nan`, `--rc` below `--rs`, ...) is a
/// `flag --<name>:` error. The rotation flags are `endure`'s alone
/// ([`endurance_from`]), so `cfg.rotation` is `None` here.
pub fn params_from(args: &CliArgs) -> Result<(ExpParams, DeploymentConfig), String> {
    let loss_pct: u32 = args.num_or("loss", 0u32)?;
    if loss_pct >= 100 {
        return Err("flag --loss: must be below 100 (percent)".into());
    }
    let params = ExpParams {
        field_side: args.num_or("field", 100.0)?,
        n_points: args.num_or("points", 2000)?,
        initial_nodes: args.num_or("initial", 200)?,
        seeds: 1,
        base_seed: args.num_or("seed", 1u64)?,
        loss_pct,
    };
    let mut link = params.link(params.base_seed);
    link.loss_seed = args.num_or("loss-seed", link.loss_seed)?;
    link.max_retries = args.num_or("max-retries", link.max_retries)?;
    link.backoff_base = args.num_or("backoff", link.backoff_base)?;
    let chaos = chaos_plan_from(args, &params)?;
    let cfg = DeploymentConfig {
        rs: args.num_or("rs", 4.0)?,
        rc: args.num_or("rc", 8.0)?,
        k: args.num_or("k", 3u32)?,
        max_new_nodes: args.num_or("max-nodes", 100_000usize)?,
        link,
        trace: if args.get("trace-out").is_some() {
            decor_trace::TraceHandle::jsonl_writer()
        } else {
            decor_trace::TraceHandle::disabled()
        },
        invariants: if chaos.is_some() {
            decor_core::InvariantChecker::enabled()
        } else {
            decor_core::InvariantChecker::disabled()
        },
        chaos,
        rotation: None,
    };
    let flag_error = |ConfigError(field, rule)| {
        let flag = match field {
            "n_points" => "points",
            "field_side" => "field",
            "max_new_nodes" => "max-nodes",
            "loss_rate" => "loss",
            "backoff_base" => "backoff",
            rs_rc_or_k => rs_rc_or_k,
        };
        format!("flag --{flag}: {rule}")
    };
    params
        .check()
        .and_then(|()| cfg.check())
        .map_err(flag_error)?;
    Ok((params, cfg))
}

/// Resolves the rotation flags into a [`RotationConfig`]: `--rotate
/// <target>` sets the per-shift coverage target, with battery knobs
/// `--battery`, `--awake-cost`, `--sleep-cost` and `--shift-period`;
/// defaults apply without `--rotate`. The knobs without `--rotate` are an
/// error, so a typo cannot silently fall back to the default target.
fn rotation_from(args: &CliArgs) -> Result<RotationConfig, String> {
    const KNOBS: [&str; 4] = ["battery", "awake-cost", "sleep-cost", "shift-period"];
    let base = RotationConfig::default();
    if args.get("rotate").is_none() {
        if let Some(knob) = KNOBS.iter().find(|k| args.get(k).is_some()) {
            return Err(format!("flag --{knob} needs --rotate <target>"));
        }
        return Ok(base);
    }
    let rot = RotationConfig {
        target_coverage: args.num_or("rotate", base.target_coverage)?,
        period: args.num_or("shift-period", base.period)?,
        battery: args.num_or("battery", base.battery)?,
        awake_cost: args.num_or("awake-cost", base.awake_cost)?,
        sleep_cost: args.num_or("sleep-cost", base.sleep_cost)?,
    };
    if rot.target_coverage == 0 {
        return Err("flag --rotate: target coverage must be >= 1".into());
    }
    if rot.period == 0 {
        return Err("flag --shift-period: must be positive".into());
    }
    if !(rot.battery > 0.0 && rot.battery.is_finite()) {
        return Err("flag --battery: must be positive".into());
    }
    if !(rot.awake_cost > 0.0 && rot.awake_cost.is_finite()) {
        return Err("flag --awake-cost: must be positive".into());
    }
    if !(rot.sleep_cost >= 0.0 && rot.sleep_cost < rot.awake_cost) {
        return Err("flag --sleep-cost: sleeping must cost less than waking".into());
    }
    Ok(rot)
}

/// Resolves the `endure` scenario flags into an [`EnduranceConfig`] and
/// the rotation knobs it runs on (see `rotation_from`): `--always-on 1`
/// turns rotation off and `--always-on 0` keeps it (any other value is an
/// error), `--spares`, `--max-periods` and
/// `--timeout-periods` set the budget, the horizon and the detector's
/// silence threshold, and `--disaster x,y,r` strikes at the start of
/// period `--disaster-at` (default 5). A timeout below 2 periods is an
/// error: one silent period can be pure phase skew.
pub fn endurance_from(args: &CliArgs) -> Result<(EnduranceConfig, RotationConfig), String> {
    let base = EnduranceConfig::default();
    let always_on = args.num_or("always-on", 0u32)?;
    if always_on > 1 {
        return Err(format!("flag --always-on: must be 0 or 1, got {always_on}"));
    }
    let mut e = EnduranceConfig {
        rotate: always_on == 0,
        spare_budget: args.num_or("spares", base.spare_budget)?,
        max_periods: args.num_or("max-periods", base.max_periods)?,
        timeout_periods: args.num_or("timeout-periods", base.timeout_periods)?,
        disasters: Vec::new(),
    };
    if e.timeout_periods < 2 {
        return Err("flag --timeout-periods: must be at least 2".into());
    }
    if let Some(spec) = args.get("disaster") {
        let disk = parse_disaster(spec)?;
        e.disasters = vec![(args.num_or("disaster-at", 5u64)?, disk)];
    }
    Ok((e, rotation_from(args)?))
}

/// Resolves `--chaos-seed` / `--chaos-plan` into a fault plan. The seeded
/// generator is bounded by the scenario's initial population and a
/// horizon scaled to the transport backoff, so every generated fault can
/// actually land on a live run.
fn chaos_plan_from(
    args: &CliArgs,
    params: &ExpParams,
) -> Result<Option<decor_net::FaultPlan>, String> {
    let seed = args.get("chaos-seed");
    let path = args.get("chaos-plan");
    match (seed, path) {
        (Some(_), Some(_)) => Err("give either --chaos-seed or --chaos-plan, not both".into()),
        (Some(_), None) => {
            let seed: u64 = args.num_or("chaos-seed", 0u64)?;
            Ok(Some(decor_net::FaultPlan::generate(
                seed,
                params.initial_nodes,
                1000,
            )))
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            decor_net::FaultPlan::parse(&text)
                .map(Some)
                .map_err(|e| format!("{path}: {e}"))
        }
        (None, None) => Ok(None),
    }
}

/// Writes the trace collected in `cfg.trace` to the `--trace-out` path,
/// if both the flag and a JSONL sink are present. Returns the path
/// written to, for logging.
pub fn write_trace_out(args: &CliArgs, cfg: &DeploymentConfig) -> Result<Option<String>, String> {
    let Some(path) = args.get("trace-out") else {
        return Ok(None);
    };
    let text = cfg
        .trace
        .jsonl()
        .ok_or("internal: --trace-out set but no JSONL sink attached")?;
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some(path.to_owned()))
}

/// The figure names `decor-figures` runs: Figs. 4–14, `all` (every
/// figure plus the extensions) and `ext` (the extensions alone).
const FIGURE_NAMES: [&str; 13] = [
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "all", "ext",
];

/// The `decor-figures` usage line, printed with every argument error.
pub const FIGURES_USAGE: &str =
    "usage: decor-figures [--quick] [--out DIR] [fig04 .. fig14 | all | ext]...";

/// A parsed `decor-figures` command line.
#[derive(Clone, Debug, PartialEq)]
pub struct FiguresArgs {
    /// Run the scaled-down configuration (500 points, 2 seeds).
    pub quick: bool,
    /// Directory the CSVs and SVGs land in.
    pub out_dir: String,
    /// Figures to run, in command-line order; `["all"]` when none is given.
    pub figs: Vec<String>,
}

/// Parses `decor-figures` arguments (without the program name). An
/// unknown figure name or flag is an error, and so is `--out` without a
/// directory: a flag or a figure name in its place is refused (write
/// `./fig07` for a directory of that name). `--quick` needs an explicit
/// `--out`, so a quick run never overwrites the paper-scale tables in
/// `results/`, the default directory.
pub fn parse_figures_args(args: &[String]) -> Result<FiguresArgs, String> {
    let mut quick = false;
    let mut out_dir = None;
    let mut figs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(dir) if !dir.starts_with('-') && !FIGURE_NAMES.contains(&dir.as_str()) => {
                    out_dir = Some(dir.clone())
                }
                Some(other) => return Err(format!("flag --out needs a directory, got '{other}'")),
                None => return Err("flag --out needs a directory".into()),
            },
            name if FIGURE_NAMES.contains(&name) => figs.push(name.to_owned()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            other => return Err(format!("unknown figure '{other}'")),
        }
    }
    if figs.is_empty() {
        figs.push("all".to_owned());
    }
    let out_dir = match out_dir {
        Some(dir) => dir,
        None if quick => {
            return Err(
                "--quick needs an explicit --out DIR (results/ holds the paper-scale tables)"
                    .into(),
            )
        }
        None => "results".to_owned(),
    };
    Ok(FiguresArgs {
        quick,
        out_dir,
        figs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse_args(&argv("deploy --scheme grid-small --k 3")).unwrap();
        assert_eq!(a.command, "deploy");
        assert_eq!(a.get("scheme"), Some("grid-small"));
        assert_eq!(a.num_or("k", 0u32).unwrap(), 3);
        assert_eq!(a.num_or("seed", 42u64).unwrap(), 42, "default applies");
    }

    /// Reads what `decor-cli deploy` reads, then refuses the rest.
    fn deploy(line: &str) -> Result<(), String> {
        let a = parse_args(&argv(line)).unwrap();
        let (_, cfg) = params_from(&a)?;
        scheme_from(&a, "grid-small", &cfg)?;
        a.get("out");
        a.finish()
    }

    #[test]
    fn a_misspelt_flag_is_an_error_not_a_default() {
        assert_eq!(
            deploy("deploy --scheme grid-big --points 300 --initial 20 --k 1"),
            Ok(())
        );
        assert_eq!(
            deploy("deploy --sheme grid-big --points 300 --initial 20 --k 1"),
            Err("flag --sheme: deploy does not take it".into())
        );
    }

    #[test]
    fn rotation_flags_outside_endure_are_errors() {
        for (line, flag) in [
            (
                "deploy --rotate 2 --points 300 --initial 20 --k 1",
                "rotate",
            ),
            ("deploy --battery 500 --k 1", "battery"),
        ] {
            assert_eq!(
                deploy(line),
                Err(format!("flag --{flag}: deploy does not take it")),
                "{line}"
            );
        }
    }

    #[test]
    fn a_misspelt_serve_flag_is_an_error_not_a_default() {
        // What `decor-serve gen` reads of this line: the misspelt
        // --replica leaves --replicas at its default of 5.
        let a = parse_args(&argv("gen --replica 3 --runs 10")).unwrap();
        assert_eq!(a.num_or("replicas", 5u32), Ok(5));
        a.get("runs");
        assert_eq!(
            a.finish(),
            Err("flag --replica: gen does not take it".into())
        );
    }

    #[test]
    fn boolean_flags_accept_only_true_and_false() {
        let a = parse_args(&argv("gen --trace true --per-run false")).unwrap();
        assert_eq!(a.num_or("trace", false), Ok(true));
        assert_eq!(a.num_or("per-run", true), Ok(false));
        for flag in ["trace", "per-run"] {
            for bad in ["yes", "1", "TRUE"] {
                let a = parse_args(&argv(&format!("run --{flag} {bad}"))).unwrap();
                assert_eq!(
                    a.num_or(flag, false),
                    Err(format!("flag --{flag}: cannot parse '{bad}'"))
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("--k 3")).is_err());
        assert!(parse_args(&argv("deploy k 3")).is_err());
        assert!(parse_args(&argv("deploy --k")).is_err());
        let a = parse_args(&argv("deploy --k x")).unwrap();
        assert!(a.num_or("k", 1u32).is_err());
    }

    #[test]
    fn parses_all_schemes() {
        for (name, kind) in [
            ("centralized", SchemeKind::Centralized),
            ("random", SchemeKind::Random),
            ("grid-small", SchemeKind::GridSmall),
            ("grid-big", SchemeKind::GridBig),
            ("voronoi-small", SchemeKind::VoronoiSmall),
            ("voronoi-big", SchemeKind::VoronoiBig),
            ("holes", SchemeKind::Holes),
        ] {
            assert_eq!(parse_scheme(name).unwrap(), kind);
        }
        assert!(parse_scheme("bogus").is_err());
    }

    #[test]
    fn parses_disaster_spec() {
        let d = parse_disaster("50,60,24").unwrap();
        assert_eq!(d.center, Point::new(50.0, 60.0));
        assert_eq!(d.radius, 24.0);
        assert!(parse_disaster("50,60").is_err());
        assert!(parse_disaster("a,b,c").is_err());
        assert!(parse_disaster("1,2,-3").is_err());
        assert!(parse_disaster("1,2,0").is_err());
        for bad in ["nan", "inf", "-inf"] {
            for spec in [
                format!("{bad},50,24"),
                format!("50,{bad},24"),
                format!("50,50,{bad}"),
            ] {
                let err = parse_disaster(&spec).unwrap_err();
                assert!(err.starts_with("flag --disaster: "), "{spec}: {err}");
            }
        }
    }

    #[test]
    fn sensor_csv_roundtrip() {
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let map = params.make_map(&cfg, 25, 9);
        let csv = sensors_to_csv(&map);
        let parsed = sensors_from_csv(&csv).unwrap();
        assert_eq!(parsed.len(), 25);
        for ((p, rs), (sid, pos)) in parsed.iter().zip(map.active_sensors()) {
            assert!((p.x - pos.x).abs() < 1e-9);
            assert!((p.y - pos.y).abs() < 1e-9);
            assert_eq!(*rs, map.sensor_rs(sid));
        }
    }

    #[test]
    fn csv_parse_errors_carry_line_numbers() {
        assert!(sensors_from_csv("1,2\n").unwrap_err().contains("line 1"));
        assert!(sensors_from_csv("x,y,rs\n1,2,zzz\n")
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn params_from_flags() {
        let a = parse_args(&argv(
            "deploy --points 500 --k 2 --rs 3 --rc 9 --seed 7 --initial 50",
        ))
        .unwrap();
        let (p, cfg) = params_from(&a).unwrap();
        assert_eq!(p.n_points, 500);
        assert_eq!(p.initial_nodes, 50);
        assert_eq!(p.base_seed, 7);
        assert_eq!(cfg.k, 2);
        assert_eq!(cfg.rs, 3.0);
        assert_eq!(cfg.rc, 9.0);
        assert!(!cfg.link.is_lossy(), "lossless by default");
    }

    #[test]
    fn trace_out_attaches_a_jsonl_sink() {
        let a = parse_args(&argv("deploy --trace-out /tmp/t.jsonl")).unwrap();
        let (_, cfg) = params_from(&a).unwrap();
        assert_eq!(cfg.trace.jsonl().as_deref(), Some(""), "empty before a run");
        let plain = parse_args(&argv("deploy")).unwrap();
        let (_, cfg) = params_from(&plain).unwrap();
        assert_eq!(cfg.trace.jsonl(), None, "tracing is opt-in");
        assert_eq!(cfg.trace.counts(), None);
    }

    #[test]
    fn chaos_seed_generates_a_replayable_plan() {
        let a = parse_args(&argv("deploy --chaos-seed 7 --initial 40")).unwrap();
        let (_, cfg) = params_from(&a).unwrap();
        let plan = cfg.chaos.expect("--chaos-seed must attach a plan");
        assert!(!plan.is_empty());
        assert!(cfg.invariants.is_enabled(), "chaos runs are checked");
        // Replay: the same flags produce the same plan.
        let (_, cfg2) = params_from(&a).unwrap();
        assert_eq!(cfg2.chaos.unwrap(), plan);
        // No chaos flags: no plan, no checker.
        let plain = parse_args(&argv("deploy")).unwrap();
        let (_, cfg3) = params_from(&plain).unwrap();
        assert!(cfg3.chaos.is_none());
        assert!(!cfg3.invariants.is_enabled());
    }

    #[test]
    fn chaos_plan_file_is_loaded_and_validated() {
        let dir = std::env::temp_dir();
        let path = dir.join("decor_cli_chaos_plan_test.txt");
        std::fs::write(&path, "0 crash 3\n10 partition 0 1\n50 heal\n").unwrap();
        let a = parse_args(&argv(&format!(
            "deploy --chaos-plan {}",
            path.to_str().unwrap()
        )))
        .unwrap();
        let (_, cfg) = params_from(&a).unwrap();
        assert_eq!(cfg.chaos.unwrap().len(), 3);
        std::fs::write(&path, "banana\n").unwrap();
        assert!(params_from(&a).is_err(), "malformed plans are rejected");
        std::fs::remove_file(&path).ok();
        assert!(params_from(&a).is_err(), "missing files are rejected");
    }

    #[test]
    fn chaos_seed_and_plan_are_mutually_exclusive() {
        let a = parse_args(&argv("deploy --chaos-seed 7 --chaos-plan p.txt")).unwrap();
        let err = params_from(&a).unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn rotate_flags_build_the_rotation_config() {
        let a = parse_args(&argv(
            "endure --rotate 2 --battery 500 --awake-cost 2 --sleep-cost 0.1 --shift-period 750",
        ))
        .unwrap();
        let (_, rot) = endurance_from(&a).unwrap();
        assert_eq!(rot.target_coverage, 2);
        assert_eq!(rot.battery, 500.0);
        assert_eq!(rot.awake_cost, 2.0);
        assert_eq!(rot.sleep_cost, 0.1);
        assert_eq!(rot.period, 750);
        // Defaults apply when only the target is given, and without
        // --rotate.
        for line in ["endure --rotate 1", "endure"] {
            let a = parse_args(&argv(line)).unwrap();
            assert_eq!(endurance_from(&a).unwrap().1, RotationConfig::default());
        }
        // Only endure reads the rotation flags.
        let (_, cfg) = params_from(&a).unwrap();
        assert_eq!(cfg.rotation, None);
    }

    #[test]
    fn rotation_knobs_without_rotate_are_rejected() {
        for knob in [
            "battery 500",
            "awake-cost 2",
            "sleep-cost 0.1",
            "shift-period 9",
        ] {
            let a = parse_args(&argv(&format!("endure --{knob}"))).unwrap();
            let err = endurance_from(&a).unwrap_err();
            assert!(err.contains("--rotate"), "{err}");
        }
    }

    #[test]
    fn bad_rotation_values_are_rejected() {
        for bad in [
            "endure --rotate 0",
            "endure --rotate 1 --shift-period 0",
            "endure --rotate 1 --battery -3",
            "endure --rotate 1 --awake-cost 0",
            "endure --rotate 1 --sleep-cost 2",
        ] {
            let a = parse_args(&argv(bad)).unwrap();
            assert!(endurance_from(&a).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn out_of_range_numbers_are_flag_errors() {
        for (bad, flag) in [
            ("deploy --backoff 0", "backoff"),
            ("deploy --k 0", "k"),
            ("deploy --rs 0", "rs"),
            ("deploy --rc 2", "rc"),
            ("deploy --max-nodes 0", "max-nodes"),
            ("deploy --points 0", "points"),
            ("deploy --field 0", "field"),
            ("deploy --field nan", "field"),
            ("deploy --field -5", "field"),
            ("deploy --scheme voronoi-small --rs 9 --rc 20", "rs"),
            ("deploy --scheme voronoi-big --rs 15 --rc 20", "rs"),
            ("restore --k 0", "k"),
            ("diagnose --in sensors.csv --points 0", "points"),
            ("endure --scheme voronoi-small --rs 9 --rc 9", "rs"),
        ] {
            let a = parse_args(&argv(bad)).unwrap();
            let err = params_from(&a)
                .and_then(|(_, cfg)| scheme_from(&a, "grid-small", &cfg))
                .unwrap_err();
            assert!(err.starts_with(&format!("flag --{flag}:")), "{bad}: {err}");
        }
        // The same flags in range pass, Voronoi's fixed rc included.
        let a = parse_args(&argv("deploy --scheme voronoi-big --rs 14 --rc 20")).unwrap();
        let (_, cfg) = params_from(&a).unwrap();
        assert_eq!(
            scheme_from(&a, "grid-small", &cfg),
            Ok(SchemeKind::VoronoiBig)
        );
    }

    #[test]
    fn endurance_flags_build_the_endurance_config() {
        let a = parse_args(&argv(
            "endure --always-on 1 --spares 40 --max-periods 200 --timeout-periods 2 \
             --disaster 30,30,4 --disaster-at 7",
        ))
        .unwrap();
        assert_eq!(
            endurance_from(&a).unwrap().0,
            EnduranceConfig {
                rotate: false,
                spare_budget: 40,
                max_periods: 200,
                disasters: vec![(7, Disk::new(Point::new(30.0, 30.0), 4.0))],
                timeout_periods: 2,
            }
        );
        let plain = parse_args(&argv("endure")).unwrap();
        assert_eq!(
            endurance_from(&plain).unwrap().0,
            EnduranceConfig::default()
        );
    }

    #[test]
    fn bad_endurance_values_are_rejected() {
        for bad in [
            "endure --timeout-periods 1",
            "endure --timeout-periods 0",
            "endure --timeout-periods -2",
            "endure --spares many",
            "endure --max-periods 1.5",
            "endure --always-on 2",
            "endure --disaster 30,30",
            "endure --disaster 30,30,4 --disaster-at soon",
        ] {
            let a = parse_args(&argv(bad)).unwrap();
            assert!(endurance_from(&a).is_err(), "{bad} must be rejected");
        }
        for tiny in ["0", "1"] {
            let a = parse_args(&argv(&format!("endure --timeout-periods {tiny}"))).unwrap();
            let err = endurance_from(&a).unwrap_err();
            assert!(err.starts_with("flag --timeout-periods:"), "{err}");
        }
    }

    #[test]
    fn loss_flags_build_the_link_config() {
        let a = parse_args(&argv(
            "deploy --loss 20 --loss-seed 99 --max-retries 5 --backoff 2",
        ))
        .unwrap();
        let (p, cfg) = params_from(&a).unwrap();
        assert_eq!(p.loss_pct, 20);
        assert!(cfg.link.is_lossy());
        assert_eq!(cfg.link.loss_rate, 0.2);
        assert_eq!(cfg.link.loss_seed, 99);
        assert_eq!(cfg.link.max_retries, 5);
        assert_eq!(cfg.link.backoff_base, 2);
        // Certain loss is rejected up front.
        let bad = parse_args(&argv("deploy --loss 100")).unwrap();
        assert!(params_from(&bad).is_err());
    }

    #[test]
    fn figures_defaults_to_all_at_paper_scale_into_results() {
        let a = parse_figures_args(&[]).unwrap();
        assert_eq!(
            a,
            FiguresArgs {
                quick: false,
                out_dir: "results".into(),
                figs: vec!["all".into()],
            }
        );
        let a = parse_figures_args(&argv("fig08 --quick --out /tmp/q fig14")).unwrap();
        assert!(a.quick);
        assert_eq!(a.out_dir, "/tmp/q");
        assert_eq!(a.figs, vec!["fig08", "fig14"]);
    }

    #[test]
    fn figures_rejects_an_unknown_figure() {
        let err = parse_figures_args(&argv("fig99 --quick --out /tmp/q")).unwrap_err();
        assert_eq!(err, "unknown figure 'fig99'");
        assert!(parse_figures_args(&argv("fig8")).is_err());
    }

    #[test]
    fn figures_rejects_an_unknown_flag() {
        assert_eq!(
            parse_figures_args(&argv("--help")).unwrap_err(),
            "unknown flag --help"
        );
        assert!(parse_figures_args(&argv("fig07 --qiuck --out /tmp/q")).is_err());
    }

    #[test]
    fn figures_out_needs_a_directory() {
        for line in [
            "--quick --out",
            "--out --quick fig07",
            "--quick --out fig07",
        ] {
            let err = parse_figures_args(&argv(line)).unwrap_err();
            assert!(
                err.starts_with("flag --out needs a directory"),
                "{line}: {err}"
            );
        }
        let a = parse_figures_args(&argv("--out ./fig07 fig07")).unwrap();
        assert_eq!(
            (a.out_dir.as_str(), a.figs),
            ("./fig07", vec!["fig07".into()])
        );
    }

    #[test]
    fn figures_quick_needs_an_explicit_out() {
        let err = parse_figures_args(&argv("fig08 --quick")).unwrap_err();
        assert!(err.starts_with("--quick needs an explicit --out"), "{err}");
        assert!(parse_figures_args(&argv("fig08 --quick --out results")).is_ok());
    }
}
