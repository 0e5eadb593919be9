//! `flstore-benchmark` — the wall-clock benchmark of the FLStore
//! reproduction: four loopback workloads, end-to-end and per-layer
//! metrics, and an outside-in traced run. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, one JSON object `{correct, attempted, failed, metrics}` —
//!   the end-to-end metrics for `--trace 0`, the per-layer metrics for
//!   `--trace 1`.
//! * without `--workload`, `[--seed N] [--sets K] [--trace] [--quick]`
//!   runs the whole suite, each workload in its own child process, prints
//!   every metric by name, and with `--sets 2` checks that two runs of
//!   the same code agree within the bounds of `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clock;
mod deploy;
mod driver;
mod machine;
mod measure;
mod ops;
mod oracle;
mod probes;
mod schedule;
mod spans;
mod stats;
mod suite;
mod trace;
mod wrappers;

use std::collections::BTreeMap;
use std::path::PathBuf;

use measure::{Metrics, RunArgs};
use schedule::Workload;
use serde_json::{json, Value};

/// Where results, traces and durable scratch state go (inside the
/// checkout; listed in `benchmark/.gitignore`).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  flstore-benchmark --workload <small_serve|heavy_serve|durable_ingest|cluster_failover>
                    [--seed N] [--seconds S] [--trace 0|1] [--quick]
  flstore-benchmark [--seed N] [--seconds S] [--sets K] [--trace] [--quick]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    sets: usize,
    trace: bool,
    quick: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 8.0,
        sets: 1,
        trace: false,
        quick: false,
    };
    let mut args = argv.iter().peekable();
    let value = |args: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        args.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut args, arg)?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("no workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value(&mut args, arg)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value(&mut args, arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--sets" => {
                cli.sets = value(&mut args, arg)?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| "--sets takes a count of at least 1".to_string())?;
            }
            // `--trace` alone switches tracing on (suite); `--trace 0|1`
            // is the single-workload form.
            "--trace" => match args.peek().map(|s| s.as_str()) {
                Some("0") => {
                    args.next();
                    cli.trace = false;
                }
                Some("1") => {
                    args.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The contract line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being the ones `BENCHMARK.json` lists for this
/// mode (all of them when the file is not there).
fn contract_line(
    metrics: &Metrics,
    wanted: Option<Vec<String>>,
    attempted: usize,
    failed: usize,
) -> Result<Value, String> {
    let mut out: BTreeMap<String, Value> = BTreeMap::new();
    match wanted {
        Some(names) => {
            for name in names {
                let (value, unit) = metrics.get(name.as_str()).ok_or_else(|| {
                    format!("BENCHMARK.json lists {name}, which was not measured")
                })?;
                out.insert(name, json!({"value": *value, "unit": *unit}));
            }
        }
        None => {
            for (name, (value, unit)) in metrics {
                out.insert(name.to_string(), json!({"value": *value, "unit": *unit}));
            }
        }
    }
    if let Some((name, _)) = metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("{name} is not a finite number"));
    }
    Ok(json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
}

fn run_one(workload: Workload, cli: &Cli) -> i32 {
    let out_dir = PathBuf::from(OUT_DIR);
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
        data_root: out_dir.join("data"),
    };
    if let Err(e) = std::fs::create_dir_all(&args.data_root) {
        eprintln!("cannot create {}: {e}", args.data_root.display());
        return 2;
    }
    if !machine::pin_to(&machine::cpus_for(workload)) {
        eprintln!("taskset is not available: running unpinned, expect noisier numbers");
    }
    let declared = suite::declared();
    let (metrics, attempted, failed, detail) = if cli.trace {
        let traced = trace::traced(&args, &out_dir);
        (traced.metrics, traced.attempted, traced.failed, Value::Null)
    } else {
        let e2e = measure::end_to_end(&args);
        let facts: BTreeMap<String, String> = e2e
            .facts
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let samples: BTreeMap<String, usize> = e2e
            .samples
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        // Every measured quantity, for the suite's table: the contract
        // line below carries only what `BENCHMARK.json` bounds.
        let measured: BTreeMap<String, Value> = e2e
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (name.to_string(), json!({"value": *value, "unit": *unit}))
            })
            .collect();
        (
            e2e.metrics,
            e2e.attempted,
            e2e.failed,
            json!({"facts": facts, "samples": samples, "metrics": measured}),
        )
    };
    for (name, (value, unit)) in &metrics {
        eprintln!("{name:<44} {value:>16.4} {unit}");
    }
    let wanted = declared.map(|(e2e, per_layer)| {
        if cli.trace {
            per_layer
        } else {
            e2e.into_iter().map(|d| d.name).collect()
        }
    });
    match contract_line(&metrics, wanted, attempted, failed) {
        Ok(line) => {
            if !detail.is_null() {
                println!(
                    "# detail {}",
                    serde_json::to_string(&detail).unwrap_or_default()
                );
            }
            println!("{}", serde_json::to_string(&line).unwrap_or_default());
            i32::from(failed > 0)
        }
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match cli.workload {
        Some(workload) => run_one(workload, &cli),
        None => {
            let out_dir = PathBuf::from(OUT_DIR);
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("cannot create {}: {e}", out_dir.display());
                std::process::exit(2);
            }
            suite::run(
                &suite::SuiteArgs {
                    seed: cli.seed,
                    seconds: cli.seconds,
                    sets: cli.sets,
                    trace: cli.trace,
                    quick: cli.quick,
                },
                &out_dir,
            )
        }
    };
    std::process::exit(code);
}
