//! The fixture corpus: every rule must fire on its known-bad fixture at
//! exactly the expected lines, stay silent on the known-good fixtures,
//! and — the meta-test — find nothing in the workspace itself.

use std::path::{Path, PathBuf};

use flstore_analyze::allow::Allowlist;
use flstore_analyze::{lint_file, lint_workspace};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as if it lived at `rel` in the workspace.
fn diags(rel: &str, name: &str) -> Vec<(String, u32)> {
    lint_file(rel, &fixture(name), &Allowlist::default())
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

fn expect(rule: &str, lines: &[u32]) -> Vec<(String, u32)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

#[test]
fn unordered_iter_fires_on_every_iteration_shape() {
    assert_eq!(
        diags("crates/core/src/fixture.rs", "bad/unordered_iter.rs"),
        expect("unordered_iter", &[5, 9, 14, 21])
    );
}

#[test]
fn float_folds_get_the_sharper_rule_id() {
    assert_eq!(
        diags("crates/fl/src/fixture.rs", "bad/unordered_float_fold.rs"),
        expect("unordered_float_fold", &[11, 15])
    );
}

#[test]
fn determinism_rules_do_not_apply_outside_their_crates() {
    // The same hash-iteration fixture is silent when it lives in a crate
    // that is not determinism-critical (bench, trace, ...).
    assert!(diags("crates/bench/src/fixture.rs", "bad/unordered_iter.rs").is_empty());
}

#[test]
fn wall_clock_fires_without_an_allowlist_entry_and_is_silent_with_one() {
    assert_eq!(
        diags("crates/trace/src/fixture.rs", "bad/wall_clock.rs"),
        expect("wall_clock", &[5, 6])
    );
    let list =
        Allowlist::parse("wall_clock crates/bench/src/ the overhead bench measures real latency")
            .expect("valid allowlist");
    assert!(lint_file(
        "crates/bench/src/fixture.rs",
        &fixture("bad/wall_clock.rs"),
        &list
    )
    .is_empty());
}

#[test]
fn ambient_entropy_fires_on_every_source() {
    assert_eq!(
        diags("crates/workloads/src/fixture.rs", "bad/ambient_entropy.rs"),
        expect("ambient_entropy", &[3, 4, 5])
    );
}

#[test]
fn std_locks_and_poison_handling_fire_in_tests_too() {
    assert_eq!(
        diags("crates/exec/tests/fixture.rs", "bad/std_sync_lock.rs"),
        vec![
            ("std_sync_lock".to_string(), 3),
            ("std_sync_lock".to_string(), 5),
            ("lock_poison".to_string(), 6),
            ("lock_poison".to_string(), 10),
        ]
    );
}

#[test]
fn malformed_annotations_are_violations() {
    assert_eq!(
        diags("crates/core/src/fixture.rs", "bad/bad_annotation.rs"),
        expect("bad_annotation", &[2, 5])
    );
}

#[test]
fn known_good_fixtures_are_silent() {
    assert_eq!(
        diags("crates/core/src/fixture.rs", "good/clean_determinism.rs"),
        Vec::<(String, u32)>::new()
    );
    assert_eq!(
        diags("crates/exec/src/fixture.rs", "good/clean_workspace.rs"),
        Vec::<(String, u32)>::new()
    );
}

#[test]
fn diagnostics_serialize_for_the_json_mode() {
    let report = lint_file(
        "crates/trace/src/fixture.rs",
        &fixture("bad/wall_clock.rs"),
        &Allowlist::default(),
    );
    let json = serde_json::to_string(&report).expect("serializable");
    assert!(json.contains("\"rule\":\"wall_clock\""), "{json}");
    assert!(json.contains("\"line\":5"), "{json}");
    assert!(json.contains("crates/trace/src/fixture.rs"), "{json}");
}

#[test]
fn dead_pub_needs_a_use_in_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub");
    let report = lint_workspace(&root).expect("fixture scan");
    let found: Vec<(String, String, u32)> = report
        .diagnostics
        .into_iter()
        .map(|d| (d.file, d.rule, d.line))
        .collect();
    let at = |rule: &str, line: u32| {
        (
            "crates/alpha/src/lib.rs".to_string(),
            rule.to_string(),
            line,
        )
    };
    // Flagged: no other file names them (5, 7, 9), only a comment or a
    // string does (15, 17), only a `pub use` does (19), or the annotation
    // lacks its reason (30, 31). Silent: used by a sibling (13), by
    // `benchmark/src` (21) or by `tests/` (23), `pub(crate)` (25),
    // annotated (28), `#[cfg(test)]` (35). The benchmark file itself is
    // read for names only, so its `Instant::now()` is never linted.
    assert_eq!(
        found,
        vec![
            at("dead_pub", 5),
            at("dead_pub", 7),
            at("dead_pub", 9),
            at("dead_pub", 15),
            at("dead_pub", 17),
            at("dead_pub", 19),
            at("bad_annotation", 30),
            at("dead_pub", 31),
        ]
    );
    assert_eq!(report.files_scanned, 3);
}

/// The meta-test: the workspace itself must be clean under its own lint —
/// with the checked-in allowlist, through the exact code path the CI
/// `analyze` step runs.
#[test]
fn the_workspace_itself_is_lint_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(
        report.diagnostics.is_empty(),
        "workspace lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk really covered the tree (105 files at the time of
    // writing; only ever grows).
    assert!(report.files_scanned >= 100, "{}", report.files_scanned);
}
