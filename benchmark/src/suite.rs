//! The suite: every workload, each in its own child process (a clean
//! `peak_rss_mb`, no process-wide state carried between workloads),
//! optionally twice over to check that the same code agrees with itself.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::{json, Value};

use crate::machine;
use crate::schedule::Workload;
use crate::stats::{relative_gap, worsening};

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds each workload's timed phase is sized for.
    pub seconds: f64,
    /// Whole-suite repetitions; 2 checks repeatability.
    pub sets: usize,
    /// Also make the traced run of every workload.
    pub trace: bool,
    /// 1/20 scale.
    pub quick: bool,
}

/// One `end_to_end` row of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether larger is better.
    pub higher_is_better: bool,
    /// Share of the first value by which the second may be worse.
    pub bound: f64,
}

/// The metric lists of `BENCHMARK.json` in the current directory, if it
/// is there: `(end_to_end, per_layer names)`.
pub fn declared() -> Option<(Vec<Declared>, Vec<String>)> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let spec: Value = serde_json::from_str(&text).ok()?;
    let end_to_end = spec["end_to_end"]
        .as_array()?
        .iter()
        .filter_map(|row| {
            Some(Declared {
                name: row["name"].as_str()?.to_string(),
                higher_is_better: row["better"].as_str()? == "higher",
                bound: row["bound"].as_f64()?,
            })
        })
        .collect();
    let per_layer = spec["per_layer"]
        .as_array()?
        .iter()
        .filter_map(|row| Some(row["name"].as_str()?.to_string()))
        .collect();
    Some((end_to_end, per_layer))
}

/// One child's result: the contract line plus the `# detail` line.
struct ChildResult {
    line: Value,
    detail: Value,
}

fn run_child(workload: Workload, args: &SuiteArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .ok_or_else(|| {
            format!(
                "{} printed no result (exit {:?}): {}",
                workload.name(),
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# detail "))
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .unwrap_or(Value::Null);
    Ok(ChildResult { line, detail })
}

fn metric_rows(result: &Value) -> BTreeMap<String, (f64, String)> {
    result["metrics"]
        .as_object()
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, m)| {
                    Some((
                        name.clone(),
                        (m["value"].as_f64()?, m["unit"].as_str()?.to_string()),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Every quantity a child measured: its `# detail` line lists them all,
/// its contract line only those `BENCHMARK.json` declares for the mode.
fn measured_rows(line: &Value, detail: &Value) -> BTreeMap<String, (f64, String)> {
    let all = metric_rows(detail);
    if all.is_empty() {
        metric_rows(line)
    } else {
        all
    }
}

fn print_metrics(title: &str, result: &ChildResult) {
    println!("  {title}");
    let bounded = metric_rows(&result.line);
    for (name, (value, unit)) in measured_rows(&result.line, &result.detail) {
        let note = if bounded.contains_key(&name) {
            ""
        } else {
            "  (no bound)"
        };
        println!("    {name:<44} {value:>16.4} {unit}{note}");
    }
    if let Some(samples) = result.detail["samples"].as_object() {
        let row: Vec<String> = samples
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
            .collect();
        println!("    samples: {}", row.join(" "));
    }
    if let Some(facts) = result.detail["facts"].as_object() {
        let row: Vec<String> = facts
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
            .collect();
        println!("    exact:   {}", row.join(" "));
    }
    let attempted = result.line["attempted"].as_u64().unwrap_or(0);
    let failed = result.line["failed"].as_u64().unwrap_or(0);
    println!(
        "    attempted {attempted}, failed {failed}, fail_share {}",
        failed as f64 / attempted.max(1) as f64
    );
}

/// Runs the suite; returns the process exit code.
pub fn run(args: &SuiteArgs, out_dir: &Path) -> i32 {
    let declared = declared();
    let machine = machine::shape(out_dir);
    println!(
        "machine: {}",
        serde_json::to_string(&machine).unwrap_or_default()
    );
    println!(
        "load: one generator thread, one loopback connection, closed loop; windows {}",
        Workload::ALL
            .iter()
            .map(|w| format!("{}={}", w.name(), w.window()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "flush policy: durable_ingest flush_every={} snapshot_every={}; cluster_failover and the drill flush_every={}",
        crate::deploy::DURABLE_POLICY.flush_every,
        crate::deploy::DURABLE_POLICY.snapshot_every,
        crate::deploy::CLUSTER_FLUSH_EVERY
    );
    let mut exit = 0;
    let mut sets: Vec<BTreeMap<&'static str, Value>> = Vec::new();
    let mut traces: BTreeMap<&'static str, Value> = BTreeMap::new();
    for set in 0..args.sets.max(1) {
        let mut this_set = BTreeMap::new();
        for workload in Workload::ALL {
            println!("== set {} · {} ==", set + 1, workload.name());
            match run_child(workload, args, false) {
                Ok(result) => {
                    print_metrics("end to end (untraced pass)", &result);
                    if result.line["failed"].as_u64() != Some(0) {
                        exit = 1;
                    }
                    this_set.insert(
                        workload.name(),
                        json!({"result": result.line, "detail": result.detail}),
                    );
                }
                Err(message) => {
                    eprintln!("{message}");
                    exit = 1;
                }
            }
            if args.trace && set == 0 {
                match run_child(workload, args, true) {
                    Ok(result) => {
                        print_metrics("per layer (traced run + probes)", &result);
                        if result.line["failed"].as_u64() != Some(0) {
                            exit = 1;
                        }
                        traces.insert(workload.name(), result.line);
                    }
                    Err(message) => {
                        eprintln!("{message}");
                        exit = 1;
                    }
                }
            }
        }
        sets.push(this_set);
    }

    // Repeatability: the same code, run twice, must agree with itself.
    if let [first, second, ..] = sets.as_slice() {
        println!("== repeatability: set 1 vs set 2 ==");
        for workload in Workload::ALL {
            let (Some(a), Some(b)) = (first.get(workload.name()), second.get(workload.name()))
            else {
                continue;
            };
            let rows = |set: &Value| measured_rows(&set["result"], &set["detail"]);
            let (a_rows, b_rows) = (rows(a), rows(b));
            println!("  {}", workload.name());
            for (name, (va, unit)) in &a_rows {
                let Some((vb, _)) = b_rows.get(name) else {
                    continue;
                };
                let gap = relative_gap(*va, *vb);
                let rule = declared
                    .as_ref()
                    .and_then(|(e2e, _)| e2e.iter().find(|d| &d.name == name));
                let verdict = match rule {
                    Some(d) if worsening(*va, *vb, d.higher_is_better).abs() > d.bound => {
                        exit = 1;
                        format!("EXCEEDS bound {}", d.bound)
                    }
                    Some(d) => format!("within bound {}", d.bound),
                    None => String::new(),
                };
                println!(
                    "    {name:<24} {va:>16.4} {vb:>16.4} {unit:<6} gap {:>7.3}% {verdict}",
                    100.0 * gap
                );
            }
            if a["detail"]["facts"] != b["detail"]["facts"] {
                println!("    EXACT FACTS DIFFER between the sets");
                exit = 1;
            } else {
                println!("    exact facts identical");
            }
        }
    }

    let results = json!({
        "machine": machine,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "sets": sets.iter().map(|set| {
            let map: BTreeMap<String, Value> =
                set.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
            json!(map)
        }).collect::<Vec<_>>(),
        "traced": traces.iter().map(|(k, v)| (k.to_string(), v.clone())).collect::<BTreeMap<String, Value>>(),
    });
    let path = out_dir.join(format!("results-seed{}.json", args.seed));
    match serde_json::to_string_pretty(&results) {
        Ok(text) if std::fs::write(&path, &text).is_ok() => {
            println!("results written to {}", path.display());
        }
        _ => eprintln!("could not write {}", path.display()),
    }
    exit
}
