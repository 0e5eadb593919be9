//! Regenerate the paper's tables and figures. See `flstore-bench` docs.

#![forbid(unsafe_code)]

use flstore_bench::{
    breakdown, cluster, durability, headline, inventory, jobs, motivation, policies, robustness,
    tenancy, Scale,
};

type Experiment = fn(Scale) -> serde_json::Value;

/// `(id, runner, output)` — `output` is the JSON file each runner emits
/// under `results/` via `save_json`. `figures -- --list` prints this
/// column so the CI/verify output check derives its expected-file list
/// from the same table that runs the experiments; a mismatch between the
/// column and the runner's actual `save_json` name fails that check.
const EXPERIMENTS: &[(&str, Experiment, &str)] = &[
    ("fig1", motivation::fig1_fig2_fig10, "fig1_fig2_fig10"),
    ("fig4", breakdown::fig4, "fig4"),
    ("fig7", headline::fig7_fig8, "fig7_fig8"),
    ("fig9", headline::fig9_fig17, "fig9_fig17"),
    ("fig11", policies::fig11, "fig11"),
    ("fig12", robustness::fig12, "fig12"),
    ("fig13", robustness::fig13_fig14, "fig13_fig14"),
    ("fig15", headline::fig15_fig16, "fig15_fig16"),
    ("fig18", policies::fig18, "fig18"),
    ("fig19", inventory::fig19, "fig19"),
    ("table1", inventory::table1, "table1"),
    ("table2", policies::table2, "table2"),
    ("jobs", jobs::jobs, "jobs"),
    ("tenancy", tenancy::tenancy, "tenancy"),
    ("capacity", inventory::capacity, "capacity"),
    ("overhead", inventory::overhead, "overhead"),
    ("durability", durability::durability, "durability"),
    ("cluster", cluster::cluster, "cluster"),
];

/// Aliases: a figure produced jointly with another maps to the same run.
const ALIASES: &[(&str, &str)] = &[
    ("fig2", "fig1"),
    ("fig10", "fig1"),
    ("fig8", "fig7"),
    ("fig17", "fig9"),
    ("fig14", "fig13"),
    ("fig16", "fig15"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        // Machine-readable manifest: one output file stem per experiment.
        for (_, _, output) in EXPERIMENTS {
            println!("{output}");
        }
        return;
    }
    let fast = args.iter().any(|a| a == "--fast");
    let scale = if fast { Scale::Fast } else { Scale::Full };

    // `--threads N`: serve every experiment through an executor on N
    // kernel threads; `--threads 0` resolves to every available core.
    // Outputs are byte-identical for ANY count (the executor is
    // bit-for-bit equivalent to sequential serving; CI diffs 1 against 4
    // to prove it).
    let mut threads = 1usize;
    let mut targets: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--fast" {
            continue;
        }
        if arg == "--threads" {
            threads = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--threads needs a thread count (0 = all available cores)");
                std::process::exit(2);
            });
            continue;
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v.parse().ok().unwrap_or_else(|| {
                eprintln!("--threads needs a thread count (0 = all available cores)");
                std::process::exit(2);
            });
            continue;
        }
        targets.push(arg.as_str());
    }
    if threads == 0 {
        threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        eprintln!("--threads 0: resolved to {threads} available core(s)");
    }
    flstore_bench::util::set_serving_threads(threads);

    let resolve = |name: &str| -> Option<&'static str> {
        if let Some((n, _, _)) = EXPERIMENTS.iter().find(|(n, _, _)| *n == name) {
            return Some(*n);
        }
        ALIASES.iter().find(|(a, _)| *a == name).map(|(_, t)| *t)
    };

    let to_run: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        EXPERIMENTS.iter().map(|(n, _, _)| *n).collect()
    } else {
        let mut chosen = Vec::new();
        for t in &targets {
            match resolve(t) {
                Some(name) if !chosen.contains(&name) => chosen.push(name),
                Some(_) => {}
                None => {
                    eprintln!("unknown experiment '{t}'");
                    eprintln!(
                        "available: all {} (+aliases {})",
                        EXPERIMENTS
                            .iter()
                            .map(|(n, _, _)| *n)
                            .collect::<Vec<_>>()
                            .join(" "),
                        ALIASES
                            .iter()
                            .map(|(a, _)| *a)
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                    std::process::exit(2);
                }
            }
        }
        chosen
    };

    println!(
        "FLStore reproduction — experiment harness ({} scale)",
        if fast { "fast" } else { "paper" }
    );
    // The run configuration goes to stderr: stdout is a result, and the
    // gate diffs it across thread counts.
    eprintln!(
        "serving plane: executor on {threads} kernel thread(s) (one owner, {} helper(s))",
        threads - 1
    );
    #[cfg(feature = "lock-order")]
    eprintln!(
        "lock-order deadlock detector: active — every lock acquisition is \
         checked against the global acquisition-order graph"
    );
    for name in to_run {
        let run = EXPERIMENTS
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, f, _)| *f)
            .expect("resolved above");
        // Progress timing goes to stderr so stdout stays byte-reproducible;
        // allowlisted in analyze-allowlist.txt.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let _ = run(scale);
        eprintln!("[{name} done in {:.1}s]", started.elapsed().as_secs_f64());
    }
}
