//! The inventory tables in the docs match the code they document.
//!
//! Each table sits between `<!-- <marker>:begin -->` and
//! `<!-- <marker>:end -->` in its document. Every `` | `first` | … | ``
//! row is reduced to the tab-separated shape of its in-code inventory
//! row: cells trimmed, the first cell's backticks dropped. A row added,
//! removed, reordered or reworded on either side fails here, naming the
//! document, the marker and the first row that differs.
//!
//! README's per-kernel time table is checked the same way against
//! measured data instead of an in-code inventory: the newest committed
//! `BENCH_<n>.json` that has a traced heavy_serve section.

use std::path::Path;

use flstore_durability::records::RECORDS;
use flstore_suite::cluster::failure::FAILURE_EVENTS;
use flstore_suite::net::wire::FRAMES;

/// The reduced rows of the table between `marker`'s begin/end comments.
fn documented_rows(doc: &str, marker: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let begin = format!("<!-- {marker}:begin -->");
    let end = format!("<!-- {marker}:end -->");
    assert!(text.contains(&begin), "{doc} has no {begin} marker");
    assert!(text.contains(&end), "{doc} has no {end} marker");
    let mut inside = false;
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.contains(&begin) {
            inside = true;
            continue;
        }
        if line.contains(&end) {
            inside = false;
        }
        if !(inside && line.starts_with("| `")) {
            continue;
        }
        let body = line[1..].trim();
        let body = body.strip_suffix('|').unwrap_or(body).trim_end();
        let mut cells: Vec<String> = body.split('|').map(|c| c.trim().to_string()).collect();
        cells[0] = cells[0].replace('`', "");
        rows.push(cells.join("\t"));
    }
    rows
}

fn assert_table(doc: &str, marker: &str, inventory: Vec<String>) {
    let documented = documented_rows(doc, marker);
    let rows = documented.len().max(inventory.len());
    for i in 0..rows {
        let (d, c) = (documented.get(i), inventory.get(i));
        assert!(
            d == c,
            "the {marker} table in {doc} has drifted from the code at row {}:\n  \
             documented: {}\n  inventory:  {}\n\
             update the table between <!-- {marker}:begin/end --> (or the inventory) \
             so they agree",
            i + 1,
            d.map_or("(no row)", String::as_str),
            c.map_or("(no row)", String::as_str),
        );
    }
}

/// The newest `BENCH_<n>.json` at the repository root (by `n`) that
/// has a `traced.heavy_serve` section, with its file name.
fn newest_traced_bench() -> (String, serde_json::Value) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut benches: Vec<(u32, String)> = std::fs::read_dir(root)
        .expect("read the repository root")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let n = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, name))
        })
        .collect();
    benches.sort();
    benches
        .into_iter()
        .rev()
        .find_map(|(_, name)| {
            let text = std::fs::read_to_string(root.join(&name)).ok()?;
            let bench: serde_json::Value =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
            (!bench["traced"]["heavy_serve"].is_null()).then_some((name, bench))
        })
        .expect("a BENCH_<n>.json with a traced.heavy_serve section")
}

#[test]
fn readme_kernel_times_match_the_newest_traced_bench() {
    let (name, bench) = newest_traced_bench();
    let traced = &bench["traced"]["heavy_serve"];
    let parent = traced["parent"].as_object().expect("traced parent side");
    let inventory: Vec<String> = parent
        .iter()
        .filter_map(|(probe, before)| {
            let kernel = probe
                .strip_prefix("workloads.kernel.")?
                .strip_suffix("_us")?;
            let before = before.as_f64().expect("a number");
            let after = traced["change"][probe.as_str()]
                .as_f64()
                .unwrap_or_else(|| panic!("{name}: no change-side {probe}"));
            Some(format!(
                "{kernel}\t{before:.0}\t{after:.0}\t×{:.1}",
                before / after
            ))
        })
        .collect();
    assert!(!inventory.is_empty(), "{name} traces no kernel");
    assert_table("README.md", "kernel-times", inventory);
}

#[test]
fn readme_lists_every_analyze_rule() {
    let inventory = flstore_analyze::rules::inventory()
        .lines()
        .map(str::to_string)
        .collect();
    assert_table("README.md", "analyze-rules", inventory);
}

#[test]
fn wire_spec_lists_every_frame() {
    let inventory = FRAMES
        .iter()
        .map(|(tag, name, direction, summary)| {
            format!("0x{tag:02x}\t{name}\t{direction}\t{summary}")
        })
        .collect();
    assert_table("docs/WIRE.md", "wire-frames", inventory);
}

#[test]
fn ledger_spec_lists_every_record() {
    let inventory = RECORDS
        .iter()
        .map(|(tag, name, payload, summary)| format!("0x{tag:02x}\t{name}\t{payload}\t{summary}"))
        .collect();
    assert_table("docs/LEDGER.md", "ledger-records", inventory);
}

#[test]
fn cluster_spec_lists_every_failure_event() {
    let inventory = FAILURE_EVENTS
        .iter()
        .map(|(name, summary)| format!("{name}\t{summary}"))
        .collect();
    assert_table("docs/CLUSTER.md", "cluster-failure-events", inventory);
}
