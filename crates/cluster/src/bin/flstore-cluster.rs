//! Cluster-plane command line.
//!
//! ```text
//! # Machine-readable failure-event inventory (docs/CLUSTER.md drift guard):
//! flstore-cluster --list-events
//! ```

use flstore_cluster::failure::FAILURE_EVENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-events") {
        // Tab-separated: event name, semantics. docs/CLUSTER.md's
        // failure-model table is diffed against this output in CI by
        // scripts/check_doc_table.sh.
        for (name, summary) in FAILURE_EVENTS {
            println!("{name}\t{summary}");
        }
        return;
    }
    eprintln!("usage: flstore-cluster --list-events");
    std::process::exit(2);
}
