//! CLI front end for the workspace lint.
//!
//! ```text
//! flstore-analyze lint [--json] [--root <path>]   # exit 1 on violations
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use flstore_analyze::lint_workspace;

fn usage() -> ExitCode {
    eprintln!("usage: flstore-analyze lint [--json] [--root <path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("lint") => {
            let mut json = false;
            let mut root = PathBuf::from(".");
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--root" => match iter.next() {
                        Some(p) => root = PathBuf::from(p),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let report = match lint_workspace(&root) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("flstore-analyze: {e}");
                    return ExitCode::from(2);
                }
            };
            if json {
                match serde_json::to_string(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("flstore-analyze: json: {e}");
                        return ExitCode::from(2);
                    }
                }
            } else {
                for d in &report.diagnostics {
                    println!("{}", d.render());
                }
                eprintln!(
                    "flstore-analyze: {} file(s) scanned, {} violation(s)",
                    report.files_scanned,
                    report.diagnostics.len()
                );
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
