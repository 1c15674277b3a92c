//! Experiment harness reproducing the DECOR paper's evaluation (§4).
//!
//! One module per figure. Every experiment:
//! - builds the paper's setup (100×100 field, 2000 Halton points, `rs = 4`,
//!   up to 200 initial random sensors) via [`common::ExpParams`];
//! - runs all relevant algorithm configurations over several seeds,
//!   on [`runner::MatrixRunner`], the one work-stealing executor;
//! - returns a [`table::Table`] whose rows are the series the paper plots,
//!   renderable as an aligned ASCII table or CSV.
//!
//! The binary `decor-figures` drives everything:
//! `cargo run --release -p decor-exp --bin decor-figures -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation_approx;
pub mod arena;
pub mod ascii_plot;
pub mod cli;
pub mod common;
pub mod ext_async;
pub mod ext_clustered;
pub mod ext_delivery;
pub mod ext_endurance;
pub mod ext_hammersley;
pub mod ext_heterogeneous;
pub mod ext_lifetime;
pub mod ext_loss;
pub mod fig04;
pub mod fig05_06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod jsonio;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod svg;
pub mod table;

pub use arena::WorkerArena;
pub use common::ExpParams;
pub use runner::{
    aggregate, CellSummary, CheckpointJournal, MatrixOutcome, MatrixRunner, RunnerHooks,
};
pub use scenario::{
    execute_run, execute_run_in, RunResult, RunSpec, ScenarioMatrix, ScenarioSpec, Workload,
};
pub use table::Table;

/// Runs the extension experiments (not figures of the paper): the
/// lifetime-vs-k study motivated by §1 and the approximation-backend
/// ablation motivated by §3.2.
pub fn run_extensions(params: &ExpParams) -> Vec<Table> {
    vec![
        ext_lifetime::run(params),
        ablation_approx::run(params),
        ablation_approx::run_budget(params),
        ext_hammersley::run(params),
        ext_delivery::run(params),
        ext_heterogeneous::run(params),
        ext_loss::run(params),
        ext_async::run(params),
        ext_endurance::run(params),
        ext_clustered::run(params),
    ]
}
