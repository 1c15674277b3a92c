//! Figures 5 and 6 — render a DECOR deployment and the hole a disaster
//! tears into it.
//!
//! ```text
//! cargo run --release --example deployment_map
//! ```

use decor::exp::{fig05_06, ExpParams};

fn main() {
    let params = ExpParams::paper();
    println!("Fig. 5 — resulting DECOR deployment (grid, small cell, k=1):");
    println!("('O' = sensor, '.' = approximation point)\n");
    let (mut map, out, cfg) = fig05_06::deploy_example(&params);
    println!("{}", fig05_06::render(&params, &map));
    println!("{}", fig05_06::run_deployment(&map, &out, &cfg).to_ascii());

    println!("\nFig. 6 — after a disaster (disc radius 24 at the center):");
    println!("('O' = surviving sensor, '.' = still-covered point; the hole is blank)\n");
    let table = fig05_06::run_disaster(&params, &mut map, &cfg);
    println!("{}", fig05_06::render(&params, &map));
    println!("{}", table.to_ascii());
}
