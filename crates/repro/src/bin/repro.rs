//! Reproduce the paper's tables and figures:
//!
//! ```text
//! repro <key>    one experiment, e.g. `repro table2_worldwide`
//! repro all      every experiment against one shared world (the source
//!                of EXPERIMENTS.md)
//! ```
//!
//! Keys are the registry names of `experiments::all()` (DESIGN.md §3);
//! a missing or unknown key prints them all and exits 2.

use std::process::ExitCode;

use govscan_repro::experiments::{self, Experiment};
use govscan_repro::Env;

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<Experiment> = match name.as_str() {
        "all" => experiments::all(),
        key => experiments::find(key).into_iter().collect(),
    };
    if chosen.is_empty() {
        eprintln!("usage: repro <key>|all\n\nkeys:");
        for (label, _) in experiments::all() {
            eprintln!("  {}", experiments::key(label));
        }
        return ExitCode::from(2);
    }
    let mut env = Env::load();
    if name == "all" {
        println!(
            "govscan reproduction — seed={}, scale={}\n",
            env.world.config.seed, env.world.config.scale
        );
    }
    for (label, run) in chosen {
        println!("== {label} ==");
        println!("{}", run(&mut env));
    }
    ExitCode::SUCCESS
}
