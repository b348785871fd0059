//! The `cbrain` binary: thin dispatch over [`cbrain_cli`].

use cbrain_cli::args::{self, Command};
use cbrain_cli::commands;
use std::process::ExitCode;

fn main() -> ExitCode {
    let command = match cbrain::config::process_args().and_then(|tokens| args::parse(&tokens)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::HELP);
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => Ok(format!("{}\n", args::HELP)),
        Command::Run(a) => commands::run(&a),
        Command::Schedule(a) => commands::schedule(&a),
        Command::Scheme(a) => Ok(commands::scheme(&a)),
        Command::SpecCheck { path } => commands::spec_check(&path),
        Command::Zoo => Ok(commands::zoo_list()),
        Command::Client(a) => commands::client(&a),
    };
    match result {
        Ok(out) => {
            cbrain::config::print_stdout(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
