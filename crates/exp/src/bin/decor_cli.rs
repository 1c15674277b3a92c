//! `decor-cli` — deploy, restore and diagnose sensor fields from the
//! command line.
//!
//! ```text
//! decor-cli deploy   --scheme grid-small --k 3 [--points 2000] [--initial 200]
//!                    [--seed 1] [--rs 4] [--rc 8] [--field 100] [--out sensors.csv]
//!                    [--trace-out trace.jsonl]
//!                    [--chaos-seed 7 | --chaos-plan plan.txt]
//! decor-cli restore  --scheme voronoi-big --k 2 --disaster 50,50,24 [--seed 1] ...
//! decor-cli diagnose --in sensors.csv --k 3 [--points 2000] ...
//! decor-cli endure   --scheme centralized --k 3 [--rotate 1] [--always-on 1]
//!                    [--battery 2000] [--awake-cost 1] [--sleep-cost 0.02]
//!                    [--shift-period 1000] [--spares 0] [--max-periods 100000]
//!                    [--timeout-periods 3] [--disaster 50,50,8 --disaster-at 5]
//!                    [--trace-out trace.jsonl]
//! ```
//!
//! A flag the subcommand does not take is an error (exit code 2), so a
//! misspelt or misplaced flag never falls back to a default silently.

use decor_core::restore::fail_and_restore;
use decor_core::{run_endurance, CoverageMap, DeploymentDiagnostics, Placer};
use decor_exp::cli::{
    endurance_from, params_from, parse_args, parse_disaster, scheme_from, sensors_from_csv,
    sensors_to_csv, write_trace_out,
};
use decor_lds::halton_points;
use decor_net::FailurePlan;

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let (params, cfg) = params_from(&args)?;
    match args.command.as_str() {
        "deploy" => {
            let scheme = scheme_from(&args, "grid-small", &cfg)?;
            let out_path = args.get("out");
            args.finish()?;
            let mut map = params.make_map(&cfg, params.initial_nodes, params.base_seed);
            let placer: Box<dyn Placer> = params.placer(scheme, params.base_seed);
            let out = placer.place(&mut map, &cfg);
            let diag = DeploymentDiagnostics::analyze(&mut map, cfg.k, cfg.rs);
            println!(
                "{}: placed {} new sensors in {} rounds",
                placer.name(),
                out.placed.len(),
                out.rounds
            );
            println!("{}", diag.summary());
            if out.messages.protocol_total > 0 {
                println!(
                    "messages: {} total, {:.2}/cell, {:.2}/node (rotated)",
                    out.messages.protocol_total,
                    out.messages.per_cell,
                    out.messages.per_node_rotated
                );
            }
            if let Some(plan) = &cfg.chaos {
                println!(
                    "chaos: injected {} faults; replay with:\n{}",
                    plan.len(),
                    plan.to_text().trim_end()
                );
                let violations = cfg.invariants.violations();
                if violations.is_empty() {
                    println!("invariants: green");
                } else {
                    return Err(format!(
                        "invariant violations:\n  {}",
                        violations.join("\n  ")
                    ));
                }
            }
            if let Some(path) = out_path {
                std::fs::write(path, sensors_to_csv(&map)).map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
            if let Some(path) = write_trace_out(&args, &cfg)? {
                println!("wrote trace to {path}");
            }
            Ok(())
        }
        "restore" => {
            let scheme = scheme_from(&args, "voronoi-big", &cfg)?;
            let disk = parse_disaster(args.get("disaster").unwrap_or("50,50,24"))?;
            let out_path = args.get("out");
            args.finish()?;
            let mut map = params.make_map(&cfg, params.initial_nodes, params.base_seed);
            let placer: Box<dyn Placer> = params.placer(scheme, params.base_seed);
            // Reach full coverage first, then fail and restore.
            placer.place(&mut map, &cfg);
            let plan = FailurePlan::Area { disk };
            let report = fail_and_restore(&mut map, placer.as_ref(), &cfg, &plan, None);
            println!(
                "disaster at ({}, {}) r={} destroyed {} sensors",
                disk.center.x, disk.center.y, disk.radius, report.victims
            );
            println!(
                "coverage: {:.1}% after failure -> {:.1}% after restoring with {} ({} new sensors)",
                report.coverage_after_failure * 100.0,
                report.coverage_after_restore * 100.0,
                placer.name(),
                report.extra_nodes
            );
            if let Some(path) = out_path {
                std::fs::write(path, sensors_to_csv(&map)).map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
            if let Some(path) = write_trace_out(&args, &cfg)? {
                println!("wrote trace to {path}");
            }
            Ok(())
        }
        "diagnose" => {
            let path = args.get("in").ok_or("diagnose needs --in sensors.csv")?;
            args.finish()?;
            let csv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let sensors = sensors_from_csv(&csv)?;
            let field = params.field();
            let mut map = CoverageMap::new(halton_points(params.n_points, &field), &field, &cfg);
            for (p, rs) in sensors {
                if field.contains(p) {
                    map.add_sensor(p, rs);
                }
            }
            let diag = DeploymentDiagnostics::analyze(&mut map, cfg.k, cfg.rs);
            println!("{}", diag.summary());
            Ok(())
        }
        "endure" => {
            let scheme = scheme_from(&args, "centralized", &cfg)?;
            // The endurance loop always duty-cycles unless --always-on;
            // default knobs apply when --rotate was not given.
            let (e, rot) = endurance_from(&args)?;
            args.finish()?;
            let mut cfg = cfg;
            cfg.rotation = Some(rot);
            let mut map = params.make_map(&cfg, params.initial_nodes, params.base_seed);
            let placer: Box<dyn Placer> = params.placer(scheme, params.base_seed);
            placer.place(&mut map, &cfg);
            let report = run_endurance(&mut map, placer.as_ref(), &cfg, &e);
            println!(
                "{} for {} periods ({} shifts{})",
                if e.rotate { "rotated" } else { "always on" },
                report.lifetime_periods,
                report.shifts,
                if report.ended_by_horizon {
                    "; horizon reached"
                } else {
                    ""
                }
            );
            println!(
                "deaths: {} battery, {} disaster, {} chaos; {} detected in-network",
                report.battery_deaths,
                report.disaster_deaths,
                report.chaos_deaths,
                report.detected_deaths
            );
            println!(
                "detector: {} false positives, {} sleeping suppressions",
                report.false_positives, report.sleeping_suppressed
            );
            println!(
                "rotation: {} reschedules, {} emergency periods, {} assignments sent",
                report.reschedules, report.emergency_periods, report.assignments_sent
            );
            println!(
                "healing: {} restorations, {} replacement sensors",
                report.restorations, report.extra_nodes
            );
            if let Some(path) = write_trace_out(&args, &cfg)? {
                println!("wrote trace to {path}");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown subcommand '{other}' (deploy | restore | diagnose | endure)"
        )),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
