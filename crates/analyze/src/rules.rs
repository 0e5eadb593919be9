//! The rule inventory. The workspace's `tests/doc_tables.rs` compares
//! it with the README's rule table, so the documentation can never
//! drift from the lint.

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only the determinism-critical crates' `src/` trees (core, fl,
    /// exec, workloads, baselines), skipping `#[cfg(test)]` modules.
    DeterminismCrates,
    /// Every linted file in the workspace (vendor/ excluded).
    Workspace,
    /// Declarations in the `crates/*/src` trees, skipping `#[cfg(test)]`
    /// modules; uses are looked for in every other file.
    CrateSources,
}

impl Scope {
    /// Stable string used in the inventory and the README table.
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::DeterminismCrates => "determinism-crates",
            Scope::Workspace => "workspace",
            Scope::CrateSources => "crate-sources",
        }
    }
}

/// One lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier, used in diagnostics and `allow(...)` annotations.
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: Scope,
    /// One-line summary (the README table's "what it flags" column).
    pub summary: &'static str,
}

/// Unordered `HashMap`/`HashSet` iteration in determinism crates.
pub const UNORDERED_ITER: &str = "unordered_iter";
/// Float accumulation folded over an unordered iterator.
pub const UNORDERED_FLOAT_FOLD: &str = "unordered_float_fold";
/// `SystemTime::now` / `Instant::now` outside `analyze-allowlist.txt`.
pub const WALL_CLOCK: &str = "wall_clock";
/// Ambient entropy (`thread_rng`, `OsRng`, `from_entropy`, ...).
pub const AMBIENT_ENTROPY: &str = "ambient_entropy";
/// `std::sync::Mutex`/`RwLock` where vendored `parking_lot` is mandated.
pub const STD_SYNC_LOCK: &str = "std_sync_lock";
/// `.lock().unwrap()`-style poison handling on a lock guard.
pub const LOCK_POISON: &str = "lock_poison";
/// A bare `pub` fn/const/static that no other file names.
pub const DEAD_PUB: &str = "dead_pub";
/// Malformed `flstore: allow(...)` annotation (unknown rule / no reason).
pub const BAD_ANNOTATION: &str = "bad_annotation";

/// Every rule the linter knows, in reporting order.
const RULES: &[Rule] = &[
    Rule {
        id: UNORDERED_ITER,
        scope: Scope::DeterminismCrates,
        summary: "HashMap/HashSet iteration (for/.iter()/.keys()/.values()/.drain()/.retain()) \
                  with no adjacent sort and no order-independent reduction",
    },
    Rule {
        id: UNORDERED_FLOAT_FOLD,
        scope: Scope::DeterminismCrates,
        summary: "f64 sum/fold/product over an unordered hash iterator \
                  (floating-point addition is not associative)",
    },
    Rule {
        id: WALL_CLOCK,
        scope: Scope::Workspace,
        summary: "SystemTime::now / Instant::now outside the analyze-allowlist.txt entries",
    },
    Rule {
        id: AMBIENT_ENTROPY,
        scope: Scope::Workspace,
        summary: "ambient randomness (thread_rng, OsRng, from_entropy, rand::random) \
                  instead of the seeded DetRng streams",
    },
    Rule {
        id: STD_SYNC_LOCK,
        scope: Scope::Workspace,
        summary: "std::sync::Mutex / std::sync::RwLock where the vendored parking_lot \
                  (lock-order instrumentable, non-poisoning) is mandated",
    },
    Rule {
        id: LOCK_POISON,
        scope: Scope::Workspace,
        summary: ".lock()/.read()/.write() followed by .unwrap()/.expect() — \
                  poison handling that parking_lot makes unrepresentable",
    },
    Rule {
        id: DEAD_PUB,
        scope: Scope::CrateSources,
        summary: "bare pub fn / pub const / pub static that no other .rs file under src/, \
                  crates/, tests/, examples/ or benchmark/src/ names (comments, strings and \
                  pub use re-exports do not count)",
    },
    Rule {
        id: BAD_ANNOTATION,
        scope: Scope::Workspace,
        summary: "flstore: allow(...) annotation naming an unknown rule or missing its reason",
    },
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// The rule inventory: one `id\tscope\tsummary` line per rule.
pub fn inventory() -> String {
    let mut out = String::new();
    for rule in RULES {
        out.push_str(rule.id);
        out.push('\t');
        out.push_str(rule.scope.as_str());
        out.push('\t');
        // Collapse the multi-line summary whitespace.
        let summary: Vec<&str> = rule.summary.split_whitespace().collect();
        out.push_str(&summary.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_kebab_free() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in RULES {
            assert!(seen.insert(rule.id), "duplicate rule id {}", rule.id);
            assert!(
                rule.id.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "rule ids are snake_case: {}",
                rule.id
            );
        }
    }

    #[test]
    fn inventory_is_tab_separated_with_one_row_per_rule() {
        let inv = inventory();
        let rows: Vec<&str> = inv.lines().collect();
        assert_eq!(rows.len(), RULES.len());
        for row in rows {
            assert_eq!(row.split('\t').count(), 3, "bad row: {row}");
        }
    }
}
