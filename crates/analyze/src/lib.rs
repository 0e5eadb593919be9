//! `flstore-analyze`: correctness tooling for the FLStore workspace.
//!
//! A source-level determinism lint (token scanning, no rustc internals)
//! that enforces the invariants the serving plane's byte-diff gate relies
//! on: no hash-ordered iteration feeding results, no wall-clock or ambient
//! entropy outside `analyze-allowlist.txt`, and the vendored `parking_lot`
//! (non-poisoning, lock-order instrumentable) everywhere `std::sync`
//! locks would otherwise creep in.
//!
//! Run it with `cargo run -p flstore-analyze -- lint` (add `--json` for
//! machine output). The rule inventory ([`rules::inventory`]) is the
//! README's rule table; the workspace's `tests/doc_tables.rs` keeps the
//! two identical.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lint;
pub mod rules;
pub mod tokenizer;

pub use lint::{lint_file, lint_workspace, Diagnostic, LintReport};
