//! Regenerates the DECOR paper's figures as ASCII tables and CSV files.
//!
//! Usage:
//! ```text
//! decor-figures [--quick] [--out DIR] [fig04|fig05|fig06|fig07|fig08|
//!                fig09|fig10|fig11|fig12|fig13|fig14|all|ext]...
//! ```
//!
//! With no figure arguments, `all` is assumed. `--quick` runs the scaled-
//! down configuration (500 points, 2 seeds) instead of the paper's
//! (2000 points, 5 seeds) and needs an explicit `--out`. CSVs land in
//! `DIR` (default `results/`). Bad arguments exit with code 2 (parsing:
//! [`decor_exp::cli::parse_figures_args`]).

use decor_exp::cli::{parse_figures_args, FiguresArgs, FIGURES_USAGE};
use decor_exp::{
    common::ExpParams, fig04, fig05_06, fig07, fig08, fig09, fig10, fig11, fig12, fig13_14, Table,
};
use std::io::Write;

fn write_svg(dir: &str, id: &str, svg: &str) {
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = format!("{dir}/{id}.svg");
    std::fs::write(&path, svg).expect("write svg");
    eprintln!("wrote {path}");
}

/// SVG builders for the qualitative figures.
mod fig_svgs {
    use decor_core::CoverageMap;
    use decor_exp::common::ExpParams;
    use decor_exp::svg::{render_svg, Layer};
    use decor_geom::{Disk, Point};
    use decor_lds::halton_points;

    pub fn field_points(params: &ExpParams) -> String {
        let field = params.field();
        let pts = halton_points(params.n_points, &field);
        render_svg(
            &field,
            &[Layer {
                points: &pts,
                radius: 0.4,
                fill: "black",
                opacity: 0.8,
            }],
            800,
        )
    }

    /// The active sensors of `map` as sensing disks of radius `rs` with a
    /// dot at each centre, over Fig. 6's disaster disc when given one.
    pub fn deployment(
        params: &ExpParams,
        map: &CoverageMap,
        rs: f64,
        disaster: Option<Disk>,
    ) -> String {
        let sensors: Vec<Point> = map.active_sensors().iter().map(|&(_, p)| p).collect();
        let centres: Vec<Point> = disaster.iter().map(|d| d.center).collect();
        let disc = disaster.map(|d| Layer {
            points: &centres,
            radius: d.radius,
            fill: "salmon",
            opacity: 0.35,
        });
        let sensing = Layer {
            points: &sensors,
            radius: rs,
            fill: "steelblue",
            opacity: 0.25,
        };
        let dots = Layer {
            points: &sensors,
            radius: 0.6,
            fill: "navy",
            opacity: 1.0,
        };
        let layers: Vec<Layer> = disc.into_iter().chain([sensing, dots]).collect();
        render_svg(&params.field(), &layers, 800)
    }
}

fn write_outputs(dir: &str, tables: &[Table]) {
    std::fs::create_dir_all(dir).expect("create output directory");
    for t in tables {
        println!("{}", t.to_ascii());
        let path = format!("{dir}/{}.csv", t.id);
        let mut f = std::fs::File::create(&path).expect("create csv");
        f.write_all(t.to_csv().as_bytes()).expect("write csv");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let FiguresArgs {
        quick,
        out_dir,
        figs,
    } = parse_figures_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{FIGURES_USAGE}");
        std::process::exit(2);
    });
    let params = if quick {
        ExpParams::quick()
    } else {
        ExpParams::paper()
    };
    eprintln!(
        "running {:?} with {} points, {} initial nodes, {} seeds",
        figs, params.n_points, params.initial_nodes, params.seeds
    );

    let want = |name: &str| figs.iter().any(|f| f == name || f == "all");
    let mut tables: Vec<Table> = Vec::new();

    if want("fig04") {
        println!("{}", fig04::render(&params));
        tables.push(fig04::run(&params));
        write_svg(&out_dir, "fig04", &fig_svgs::field_points(&params));
    }
    if want("fig05") {
        let (map, out, cfg) = fig05_06::deploy_example(&params);
        println!("{}", fig05_06::render(&params, &map));
        tables.push(fig05_06::run_deployment(&map, &out, &cfg));
        let svg = fig_svgs::deployment(&params, &map, cfg.rs, None);
        write_svg(&out_dir, "fig05", &svg);
    }
    if want("fig06") {
        let (mut map, _, cfg) = fig05_06::deploy_example(&params);
        tables.push(fig05_06::run_disaster(&params, &mut map, &cfg));
        println!("{}", fig05_06::render(&params, &map));
        let disk = Some(fig05_06::disaster_disk(&params));
        let svg = fig_svgs::deployment(&params, &map, cfg.rs, disk);
        write_svg(&out_dir, "fig06", &svg);
    }
    if want("fig07") {
        tables.push(fig07::run(&params));
    }
    if want("fig08") {
        tables.push(fig08::run(&params));
    }
    if want("fig09") {
        tables.push(fig09::run(&params));
    }
    if want("fig10") {
        tables.push(fig10::run(&params));
    }
    if want("fig11") {
        tables.push(fig11::run(&params));
    }
    if want("fig12") {
        tables.push(fig12::run(&params));
    }
    if want("fig13") || want("fig14") {
        let (t13, t14) = fig13_14::run(&params);
        if want("fig13") {
            tables.push(t13);
        }
        if want("fig14") {
            tables.push(t14);
        }
    }
    if figs.iter().any(|f| f == "ext" || f == "all") {
        tables.extend(decor_exp::run_extensions(&params));
    }
    write_outputs(&out_dir, &tables);
}
