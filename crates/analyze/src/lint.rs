//! The scanning engine: runs every rule over a token stream and folds the
//! two allow layers (inline annotations, path allowlist) into the final
//! diagnostic list.
//!
//! The determinism rules (`unordered_iter`, `unordered_float_fold`) are
//! deliberately heuristic — token-level, two passes, no type information:
//!
//! 1. collect the names bound to `HashMap`/`HashSet` values in this file
//!    (let-bindings, struct fields, fn params — found by walking back from
//!    each `HashMap`/`HashSet` token to its binding name);
//! 2. flag iteration sites (`for` loops and `.iter()`-family calls) whose
//!    receiver mentions one of those names, unless the surrounding
//!    statement window sorts the items or reduces them order-independently.
//!
//! Anything the heuristics cannot see is handled by per-site
//! `// flstore: allow(<rule>, <reason>)` annotations — the lint prefers a
//! visible, justified suppression over silent cleverness.
//!
//! `dead_pub` is the one cross-file rule: [`lint_workspace`] indexes the
//! identifiers of every file first, then reports a bare `pub fn`,
//! `pub const` or `pub static` under `crates/*/src` that no other file
//! names. It matches by name only, so an unused method that shares its
//! name with a used one (`new`, `len`, ...) is not caught; rustc's own
//! `dead_code` lint covers whatever is private.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Serialize;

use crate::allow::{self, Allowlist};
use crate::rules;
use crate::tokenizer::{tokenize, Tok, TokKind};

/// One finding, in both human and JSON output.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Rule id (see [`rules::inventory`]).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation, including how to suppress.
    pub message: String,
}

impl Diagnostic {
    /// `file:line: rule: message` — the human diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of a full lint run.
#[derive(Debug, Clone, Serialize)]
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// The iteration-producing methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Order-independent reducers: seeing one of these consume the iterator
/// (method position) exempts the site. `sum`/`fold`/`min_by_key` are NOT
/// here on purpose — float sums are order-dependent and keyed min/max
/// reproduced a real tie-break bug.
const ORDER_FREE_REDUCERS: &[&str] = &[
    "count",
    "all",
    "any",
    "contains",
    "contains_key",
    "is_empty",
    "len",
    "max",
    "min",
    "find",
];

/// Accumulators whose result depends on iteration order for floats.
const ACCUMULATORS: &[&str] = &["sum", "fold", "product"];

/// Determinism-critical crates: their `src/` trees get the unordered-
/// iteration rules.
const DETERMINISM_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/fl/src/",
    "crates/exec/src/",
    "crates/workloads/src/",
    "crates/baselines/src/",
    "crates/net/src/",
    "crates/loadgen/src/",
    "crates/durability/src/",
    "crates/cluster/src/",
];

/// Roots whose `.rs` files are linted.
const LINTED_ROOTS: &[&str] = &["src", "crates"];

/// Roots read only to learn which names other code uses (`dead_pub`).
const INDEXED_ROOTS: &[&str] = &["tests", "examples", "benchmark/src"];

/// True when `rel` falls under a determinism-critical crate's `src/`.
fn is_determinism_path(rel: &str) -> bool {
    DETERMINISM_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// True when `rel` lies in some `crates/<name>/src/` tree.
fn is_crate_src_path(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// Which files name each identifier: built over every indexed file from
/// code tokens outside `pub use …;` statements, so comments, strings and
/// re-exports never count as a use.
#[derive(Default)]
struct NameIndex {
    files: BTreeMap<String, Vec<usize>>,
}

impl NameIndex {
    fn add_file(&mut self, file: usize, toks: &[Tok]) {
        let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mut i = 0;
        while i < code.len() {
            let t = code[i];
            if t.text == "pub" && code.get(i + 1).is_some_and(|n| n.text == "use") {
                while i < code.len() && code[i].text != ";" {
                    i += 1;
                }
                continue;
            }
            if t.kind == TokKind::Ident {
                let files = self.files.entry(t.text.clone()).or_default();
                if files.last() != Some(&file) {
                    files.push(file);
                }
            }
            i += 1;
        }
    }

    /// True when a file other than `file` names `name`.
    fn named_outside(&self, name: &str, file: usize) -> bool {
        self.files
            .get(name)
            .is_some_and(|files| files.iter().any(|&f| f != file))
    }
}

/// Bare-`pub` `fn`/`const`/`static` declarations: `(line, name)` each.
/// `pub(crate)`-style visibilities are skipped.
fn pub_items(code: &[&Tok]) -> Vec<(u32, String)> {
    let mut items = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "pub" {
            continue;
        }
        let mut j = i + 1;
        let name_at = loop {
            let Some(u) = code.get(j) else { break None };
            match u.text.as_str() {
                "async" | "unsafe" => j += 1,
                "extern" => {
                    j += 1;
                    if code.get(j).is_some_and(|a| a.kind == TokKind::Literal) {
                        j += 1;
                    }
                }
                "const" => match code.get(j + 1).map(|n| n.text.as_str()) {
                    Some("fn" | "unsafe" | "async" | "extern") => j += 1,
                    _ => break Some(j + 1),
                },
                "static" if code.get(j + 1).is_some_and(|n| n.text == "mut") => break Some(j + 2),
                "fn" | "static" => break Some(j + 1),
                _ => break None,
            }
        };
        if let Some(name) = name_at.and_then(|k| code.get(k)) {
            if name.kind == TokKind::Ident && name.text != "_" {
                items.push((name.line, name.text.clone()));
            }
        }
    }
    items
}

/// Lints one file. `rel` is the workspace-relative path used in
/// diagnostics and allowlist matching. `dead_pub` needs the rest of the
/// workspace, so only [`lint_workspace`] runs it.
pub fn lint_file(rel: &str, src: &str, allowlist: &Allowlist) -> Vec<Diagnostic> {
    lint_tokens(rel, &tokenize(src), allowlist, None)
}

/// [`lint_file`] over a token stream; `uses` is the workspace name index
/// and this file's slot in it, which turns on `dead_pub`.
fn lint_tokens(
    rel: &str,
    toks: &[Tok],
    allowlist: &Allowlist,
    uses: Option<(&NameIndex, usize)>,
) -> Vec<Diagnostic> {
    let (allows, bad) = allow::collect_inline_allows(toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let test_ranges = cfg_test_ranges(&code);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut out = Vec::new();
    for b in &bad {
        out.push(Diagnostic {
            rule: rules::BAD_ANNOTATION.to_string(),
            file: rel.to_string(),
            line: b.line,
            message: b.why.clone(),
        });
    }

    if is_determinism_path(rel) {
        let names = hash_binding_names(&code);
        if !names.is_empty() {
            for (line, name, rule) in unordered_iteration_sites(&code, &names) {
                if in_test(line) {
                    continue;
                }
                let message = if rule == rules::UNORDERED_FLOAT_FOLD {
                    format!(
                        "float accumulation over hash-ordered `{name}` — addition order \
                         changes the result bits; collect and sort before folding"
                    )
                } else {
                    format!(
                        "iteration over hash-ordered `{name}` with no adjacent sort and no \
                         order-independent reduction; sort the items or annotate \
                         `// flstore: allow(unordered_iter, <reason>)`"
                    )
                };
                out.push(Diagnostic {
                    rule: rule.to_string(),
                    file: rel.to_string(),
                    line,
                    message,
                });
            }
        }
    }

    for (line, what) in wall_clock_sites(&code) {
        out.push(Diagnostic {
            rule: rules::WALL_CLOCK.to_string(),
            file: rel.to_string(),
            line,
            message: format!(
                "`{what}::now()` outside the analyze-allowlist.txt entries — wall-clock reads \
                 break replayability; plumb simulated time or add the file to \
                 analyze-allowlist.txt with a justification"
            ),
        });
    }
    for (line, what) in ambient_entropy_sites(&code) {
        out.push(Diagnostic {
            rule: rules::AMBIENT_ENTROPY.to_string(),
            file: rel.to_string(),
            line,
            message: format!(
                "ambient entropy source `{what}` — all randomness must flow from \
                 explicitly seeded deterministic streams"
            ),
        });
    }
    for (line, what) in std_sync_lock_sites(&code) {
        out.push(Diagnostic {
            rule: rules::STD_SYNC_LOCK.to_string(),
            file: rel.to_string(),
            line,
            message: format!(
                "`std::sync::{what}` — use the vendored `parking_lot::{what}` \
                 (non-poisoning, lock-order instrumentable)"
            ),
        });
    }
    for (line, method, handler) in lock_poison_sites(&code) {
        out.push(Diagnostic {
            rule: rules::LOCK_POISON.to_string(),
            file: rel.to_string(),
            line,
            message: format!(
                "`.{method}().{handler}(..)` poison handling — parking_lot guards \
                 cannot poison; take the guard directly"
            ),
        });
    }

    if let Some((index, file)) = uses.filter(|_| is_crate_src_path(rel)) {
        for (line, name) in pub_items(&code) {
            if in_test(line) || index.named_outside(&name, file) {
                continue;
            }
            out.push(Diagnostic {
                rule: rules::DEAD_PUB.to_string(),
                file: rel.to_string(),
                line,
                message: format!(
                    "`pub {name}` is named by no other file — delete it, make it private, or \
                     annotate `// flstore: allow(dead_pub, <reason>)`"
                ),
            });
        }
    }

    // Apply both allow layers, then dedup (a `for (k, v) in m.iter()` site
    // is found by both the for-loop and the method scanner).
    out.retain(|d| {
        !allow::inline_allowed(&allows, &d.rule, d.line) && !allowlist.allows(&d.rule, &d.file)
    });
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// Names bound to `HashMap`/`HashSet` values in this file: walks back from
/// each `HashMap`/`HashSet` token through the type/path expression to the
/// binding it belongs to (field `name:`, `let name =`, param `name:`).
fn hash_binding_names(code: &[&Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if let Some(name) = binding_name_before(code, i) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

/// Walks back from index `i` (a `HashMap`/`HashSet` token) over tokens that
/// can be part of a type or path, to the stop token that reveals the
/// binding shape.
fn binding_name_before(code: &[&Tok], i: usize) -> Option<String> {
    let type_punct = ["::", "<", ">", "&", ",", "-"];
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = code[j];
        match t.kind {
            TokKind::Ident => {
                // `let x = HashMap::new()` / `mut` / wrapper types: keep going.
                if t.text == "let" || t.text == "return" || t.text == "in" {
                    return None;
                }
                continue;
            }
            TokKind::Punct if type_punct.contains(&t.text.as_str()) => continue,
            TokKind::Punct if t.text == ":" => {
                // Field or param: the ident right before `:` is the name.
                return ident_before(code, j);
            }
            TokKind::Punct if t.text == "=" => {
                // `let [mut] name [: Ty] = HashMap::new()`: the name is the
                // ident before `=`, or before the `:` of its annotation.
                let mut k = j;
                while k > 0 {
                    k -= 1;
                    let u = code[k];
                    if u.kind == TokKind::Ident {
                        if u.text == "mut" || u.text == "let" {
                            continue;
                        }
                        return Some(u.text.clone());
                    }
                    if u.kind == TokKind::Punct
                        && (u.text == ":" || type_punct.contains(&u.text.as_str()))
                    {
                        continue;
                    }
                    return None;
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

/// The nearest ident strictly before index `j`.
fn ident_before(code: &[&Tok], j: usize) -> Option<String> {
    code[..j]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// Finds iteration sites over hash-named bindings; returns
/// `(line, name, rule)` per site (rule is `unordered_iter` or
/// `unordered_float_fold`).
fn unordered_iteration_sites(code: &[&Tok], names: &[String]) -> Vec<(u32, String, &'static str)> {
    let mut sites = Vec::new();

    // Method-position iteration: `<receiver>.iter()`-family calls.
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        let at_method = i > 0
            && code[i - 1].kind == TokKind::Punct
            && code[i - 1].text == "."
            && code.get(i + 1).is_some_and(|n| n.text == "(");
        if !at_method {
            continue;
        }
        let Some(name) = receiver_hash_name(code, i - 1, names) else {
            continue;
        };
        if let Some(rule) = classify_window(code, i) {
            sites.push((t.line, name, rule));
        }
    }

    // `for <pat> in <iterable> {`: flag when the iterable mentions a hash
    // name (covers bare `for k in map {` with no method call). `impl Trait
    // for Type` never has an `in` before its `{`, so it cannot match.
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "for" {
            continue;
        }
        let mut j = i + 1;
        let mut in_at = None;
        while j < code.len() && j - i < 64 {
            let u = code[j];
            if u.kind == TokKind::Ident && u.text == "in" {
                in_at = Some(j);
                break;
            }
            if u.kind == TokKind::Punct && (u.text == "{" || u.text == ";") {
                break;
            }
            j += 1;
        }
        let Some(in_at) = in_at else { continue };
        // Scan the iterable expression up to the loop body brace.
        let mut k = in_at + 1;
        let mut depth = 0i32;
        let mut hit = None;
        while k < code.len() && k - in_at < 64 {
            let u = code[k];
            if u.kind == TokKind::Punct {
                match u.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    ";" => break,
                    _ => {}
                }
            } else if u.kind == TokKind::Ident && names.contains(&u.text) && hit.is_none() {
                hit = Some(u.text.clone());
            }
            k += 1;
        }
        if let Some(name) = hit {
            if let Some(rule) = classify_window(code, in_at) {
                sites.push((t.line, name, rule));
            }
        }
    }

    sites
}

/// Walks the receiver chain back from the `.` at `dot` and returns the
/// first hash-named ident in it, skipping balanced `(..)`/`[..]` groups.
fn receiver_hash_name(code: &[&Tok], dot: usize, names: &[String]) -> Option<String> {
    let mut depth = 0i32;
    let mut j = dot;
    while j > 0 {
        j -= 1;
        let t = code[j];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        return None;
                    }
                    depth -= 1;
                }
                "." | "::" | "?" | "&" | "*" => {}
                _ => {
                    if depth == 0 {
                        return None;
                    }
                }
            },
            TokKind::Ident if depth == 0 && names.contains(&t.text) => {
                return Some(t.text.clone());
            }
            _ => {}
        }
    }
    None
}

/// Examines the statement window after an iteration site (the rest of the
/// current statement plus the next one) and decides its fate:
/// `None` = exempt, `Some(rule)` = flag under that rule.
fn classify_window(code: &[&Tok], site: usize) -> Option<&'static str> {
    let mut semis = 0;
    let mut depth = 0i32;
    let mut accumulates = false;
    let mut float_evidence = false;
    let mut k = site;
    while k < code.len() && k - site < 120 {
        let t = code[k];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    semis += 1;
                    if semis >= 2 {
                        break;
                    }
                }
                _ => {}
            },
            TokKind::Ident => {
                let s = t.text.as_str();
                if s.starts_with("sort")
                    || s == "sorted"
                    || s == "BTreeMap"
                    || s == "BTreeSet"
                    || s == "BinaryHeap"
                {
                    return None;
                }
                // Method position: preceded by `.`, followed by `(` or a
                // turbofish (`sum::<f64>()`).
                let at_method = k > 0
                    && code[k - 1].kind == TokKind::Punct
                    && code[k - 1].text == "."
                    && code
                        .get(k + 1)
                        .is_some_and(|n| n.text == "(" || n.text == "::");
                if at_method && ORDER_FREE_REDUCERS.contains(&s) {
                    return None;
                }
                if at_method && ACCUMULATORS.contains(&s) {
                    accumulates = true;
                }
                if s == "f64" || s == "f32" {
                    float_evidence = true;
                }
            }
            TokKind::Literal => {
                if t.text.contains('.') && t.text.starts_with(|c: char| c.is_ascii_digit()) {
                    float_evidence = true;
                }
            }
            TokKind::Comment => {}
        }
        k += 1;
    }
    if accumulates && float_evidence {
        Some(rules::UNORDERED_FLOAT_FOLD)
    } else {
        Some(rules::UNORDERED_ITER)
    }
}

/// Line ranges of `#[cfg(test)] mod … { … }` blocks (inclusive).
fn cfg_test_ranges(code: &[&Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let seq_matches = code[i].text == "#"
            && code[i + 1].text == "["
            && code[i + 2].text == "cfg"
            && code[i + 3].text == "("
            && code[i + 4].text == "test"
            && code[i + 5].text == ")"
            && code[i + 6].text == "]";
        if !seq_matches {
            i += 1;
            continue;
        }
        // Allow a few tokens (other attrs, `pub`) before `mod`.
        let mut j = i + 7;
        let mut saw_mod = false;
        while j < code.len() && j - i < 20 {
            if code[j].kind == TokKind::Ident && code[j].text == "mod" {
                saw_mod = true;
                break;
            }
            if code[j].text == "{" || code[j].text == ";" {
                break;
            }
            j += 1;
        }
        if !saw_mod {
            i += 7;
            continue;
        }
        // Find the block's `{` and match braces to its end.
        while j < code.len() && code[j].text != "{" {
            j += 1;
        }
        if j >= code.len() {
            break;
        }
        let start_line = code[i].line;
        let mut depth = 0i32;
        let mut end_line = start_line;
        while j < code.len() {
            match code[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = code[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j + 1;
    }
    ranges
}

/// `SystemTime::now` / `Instant::now` call sites.
fn wall_clock_sites(code: &[&Tok]) -> Vec<(u32, &'static str)> {
    let mut sites = Vec::new();
    for i in 0..code.len().saturating_sub(2) {
        let (a, b, c) = (code[i], code[i + 1], code[i + 2]);
        if b.text == "::" && c.text == "now" {
            if a.text == "SystemTime" {
                sites.push((c.line, "SystemTime"));
            } else if a.text == "Instant" {
                sites.push((c.line, "Instant"));
            }
        }
    }
    sites
}

/// Ambient-entropy call sites (`thread_rng`, `OsRng`, `from_entropy`,
/// `getrandom`, `rand::random`).
fn ambient_entropy_sites(code: &[&Tok]) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" | "getrandom" => {
                sites.push((t.line, t.text.clone()));
            }
            "random" if i >= 2 && code[i - 1].text == "::" && code[i - 2].text == "rand" => {
                sites.push((t.line, "rand::random".to_string()));
            }
            _ => {}
        }
    }
    sites
}

/// `std::sync::Mutex` / `std::sync::RwLock` mentions, including grouped
/// imports (`use std::sync::{Arc, Mutex}`).
fn std_sync_lock_sites(code: &[&Tok]) -> Vec<(u32, &'static str)> {
    let mut sites = Vec::new();
    for i in 0..code.len().saturating_sub(4) {
        let path_is_std_sync = code[i].text == "std"
            && code[i + 1].text == "::"
            && code[i + 2].text == "sync"
            && code[i + 3].text == "::";
        if !path_is_std_sync {
            continue;
        }
        let next = code[i + 4];
        match next.text.as_str() {
            "Mutex" => sites.push((next.line, "Mutex")),
            "RwLock" => sites.push((next.line, "RwLock")),
            "{" => {
                // Grouped import: scan to the matching `}`.
                let mut j = i + 5;
                let mut depth = 1i32;
                while j < code.len() && depth > 0 {
                    match code[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "Mutex" if depth == 1 => sites.push((code[j].line, "Mutex")),
                        "RwLock" if depth == 1 => sites.push((code[j].line, "RwLock")),
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
    sites
}

/// `.lock().unwrap()` / `.read().expect(..)`-style poison handling.
fn lock_poison_sites(code: &[&Tok]) -> Vec<(u32, String, String)> {
    let mut sites = Vec::new();
    for i in 0..code.len().saturating_sub(6) {
        let m = code[i + 1];
        let h = code[i + 5];
        let shape = code[i].text == "."
            && m.kind == TokKind::Ident
            && matches!(m.text.as_str(), "lock" | "read" | "write" | "try_lock")
            && code[i + 2].text == "("
            && code[i + 3].text == ")"
            && code[i + 4].text == "."
            && h.kind == TokKind::Ident
            && matches!(h.text.as_str(), "unwrap" | "expect")
            && code.get(i + 6).is_some_and(|n| n.text == "(");
        if shape {
            sites.push((h.line, m.text.clone(), h.text.clone()));
        }
    }
    sites
}

/// Recursively collects `.rs` files under `dir` into `out` (workspace-
/// relative paths), skipping excluded directories.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" || name == "vendor" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`: every `.rs` file under
/// `src/` and `crates/` (vendor/, target/, fixture corpora excluded),
/// with the allowlist read from `<root>/analyze-allowlist.txt` when
/// present. `tests/`, `examples/` and `benchmark/src/` are read too, but
/// only so `dead_pub` sees the names they use.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let allowlist = match std::fs::read_to_string(root.join("analyze-allowlist.txt")) {
        Ok(text) => Allowlist::parse(&text).map_err(std::io::Error::other)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(e),
    };

    let mut linted = Vec::new();
    let mut indexed = Vec::new();
    for (tops, files) in [(LINTED_ROOTS, &mut linted), (INDEXED_ROOTS, &mut indexed)] {
        for top in tops {
            let dir = root.join(top);
            if dir.is_dir() {
                collect_rs_files(root, &dir, files)?;
            }
        }
    }
    linted.sort_unstable();

    let mut index = NameIndex::default();
    let mut sources = Vec::new();
    for (file, rel) in linted.iter().chain(&indexed).enumerate() {
        let toks = tokenize(&std::fs::read_to_string(root.join(rel))?);
        index.add_file(file, &toks);
        sources.push(toks);
    }

    let mut diagnostics = Vec::new();
    let files_scanned = linted.len();
    for (file, rel) in linted.iter().enumerate() {
        diagnostics.extend(lint_tokens(
            rel,
            &sources[file],
            &allowlist,
            Some((&index, file)),
        ));
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(LintReport {
        diagnostics,
        files_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
        lint_file(rel, src, &Allowlist::default())
    }

    const DET: &str = "crates/core/src/x.rs";

    #[test]
    fn flags_unordered_values_iteration() {
        let src = "
struct S { m: HashMap<u64, u64> }
impl S {
    fn f(&self) -> Vec<u64> { self.m.values().copied().collect() }
}";
        let d = lint(DET, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unordered_iter");
    }

    #[test]
    fn sorted_collect_and_order_free_reducers_are_exempt() {
        let src = "
struct S { m: HashMap<u64, u64> }
impl S {
    fn count(&self) -> usize { self.m.values().filter(|v| **v > 0).count() }
    fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.m.keys().copied().collect();
        v.sort_unstable();
        v
    }
}";
        assert!(lint(DET, src).is_empty());
    }

    #[test]
    fn float_fold_is_classified_separately() {
        let src = "
struct S { m: HashMap<u64, f64> }
impl S {
    fn total(&self) -> f64 { self.m.values().sum::<f64>() }
}";
        let d = lint(DET, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unordered_float_fold");
    }

    #[test]
    fn for_loop_over_hash_binding_is_flagged_and_annotation_clears_it() {
        let flagged = "
fn f(m: &HashMap<u64, u64>) -> u64 {
    let mut acc = 0;
    for (_k, v) in m.iter() { acc += v; }
    acc
}";
        let d = lint(DET, flagged);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unordered_iter");

        let allowed = "
fn f(m: &HashMap<u64, u64>) -> u64 {
    let mut acc = 0;
    // flstore: allow(unordered_iter, integer sum is order-independent)
    for (_k, v) in m.iter() { acc += v; }
    acc
}";
        assert!(lint(DET, allowed).is_empty());
    }

    #[test]
    fn determinism_rules_skip_other_crates_and_test_mods() {
        let src = "
struct S { m: HashMap<u64, u64> }
impl S { fn f(&self) -> Vec<u64> { self.m.values().copied().collect() } }";
        assert!(lint("crates/bench/src/x.rs", src).is_empty());

        let test_mod = "
#[cfg(test)]
mod tests {
    struct S { m: HashMap<u64, u64> }
    impl S { fn f(&self) -> Vec<u64> { self.m.values().copied().collect() } }
}";
        assert!(lint(DET, test_mod).is_empty());
    }

    #[test]
    fn wall_clock_and_entropy_fire_workspace_wide() {
        let src = "
fn f() {
    let t = std::time::Instant::now();
    let s = SystemTime::now();
    let r = rand::random::<u64>();
    let g = thread_rng();
}";
        let d = lint("crates/trace/src/x.rs", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(
            rules,
            [
                "wall_clock",
                "wall_clock",
                "ambient_entropy",
                "ambient_entropy"
            ],
            "{d:?}"
        );
    }

    #[test]
    fn std_sync_lock_and_poison_patterns_fire() {
        let src = "
use std::sync::{Arc, Mutex};
fn f(m: &std::sync::RwLock<u64>) {
    let g = m.read().unwrap();
    let h = m.write().expect(\"poisoned\");
}";
        let d = lint("crates/exec/tests/x.rs", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(
            rules,
            [
                "std_sync_lock",
                "std_sync_lock",
                "lock_poison",
                "lock_poison"
            ],
            "{d:?}"
        );
    }

    #[test]
    fn allowlist_suppresses_by_path_prefix() {
        let list = Allowlist::parse("wall_clock crates/bench/src/ measures real latency").unwrap();
        let src = "fn f() { let t = Instant::now(); }";
        assert!(lint_file("crates/bench/src/inventory.rs", src, &list).is_empty());
        assert_eq!(lint_file("crates/core/src/x.rs", src, &list).len(), 1);
    }

    #[test]
    fn min_by_key_is_not_an_exempting_reducer() {
        // The PR 3 tie-break bug shape: keyed min over hash iteration is
        // only deterministic if the key is a total order — demand a sort
        // or an annotation.
        let src = "
struct S { m: HashMap<u64, u64> }
impl S {
    fn pick(&self) -> Option<u64> { self.m.iter().min_by_key(|(_, v)| **v).map(|(k, _)| *k) }
}";
        let d = lint(DET, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unordered_iter");
    }
}
